"""Bit-packed GF(2) linear algebra.

Vectors are Python ints (bit i = coordinate i).  A linear map is a list of
column vectors: ``cols[j]`` is the image of the j-th domain basis vector.
Every elimination here reduces through one loop, ``_reduce``, with one
pivot rule, the highest set bit: a stored row is its pivot's place plus
places below it, which is what lets ``prefix_ranks`` clear at every prefix.
Where combos are tracked (``echelon``, ``invert``), column j of n rides as
the one int ``col << n | 1 << j``, so the low n bits of a row name the
columns XORed into it, and a vector whose high part reduces to zero leaves
in its low bits columns that sum to the high part it started with.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "bits",
    "apply_cols",
    "rank",
    "prefix_ranks",
    "echelon",
    "in_span",
    "invert",
    "transpose",
    "span_basis",
]


def bits(vec: int):
    """Yield the indices of the set bits, lowest first."""
    while vec:
        low = vec & -vec
        yield low.bit_length() - 1
        vec ^= low


def apply_cols(cols: List[int], vec: int) -> int:
    """Apply the column-map to a domain vector."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= cols[low.bit_length() - 1]
        vec ^= low
    return out


def _reduce(rows: dict, vectors: Iterable[int], floor: int = 0) -> List[int]:
    """Reduce each vector in turn against ``rows``, the pivot rows keyed on
    their highest set bit's place plus one, and list what is left of each.
    What is left with a set bit at place ``floor`` or above is stored as a
    new row; what is left below ``1 << floor`` is not."""
    bound, left = 1 << floor, []
    for v in vectors:
        while v >= bound:
            top = v.bit_length()
            row = rows.get(top)
            if row is None:
                rows[top] = v
                break
            v ^= row
        left.append(v)
    return left


def rank(vectors: Iterable[int]) -> int:
    """The number of vectors outside the span of those before them."""
    return len(span_basis(vectors))


def prefix_ranks(blocks: Iterable[Tuple[List[int], Sequence[int]]]) -> Iterator[List[int]]:
    """Yield, per map, the ranks of its first c columns for each c in its
    cuts, the maps reduced in turn, with clearing.

    ``blocks`` yields (cols, cuts) per map, cuts ascending counts.  Each map
    is cleared by the one before it, which must be zero or have this map's
    domain as its target and a zero composite with it: the place of each of
    its pivot rows, which set the row's highest bit, then names a column in
    the span of the columns before it, and skipping that column changes no
    prefix rank (Clearing, in ``legch.tilde``).  A zero column stores no
    row, so only the nonzero ones are reduced.  ``cols`` is never written to.
    """
    pivots: dict = {}
    for cols, cuts in blocks:
        if not any(cols):
            pivots = {}
            yield [0] * len(cuts)
            continue
        if pivots:
            cols = cols.copy()
            for length in pivots:
                cols[length - 1] = 0
        pivots, ranks, done = {}, [], 0
        for cut in cuts:
            if cut > done:
                _reduce(pivots, filter(None, cols[done:cut]))
                done = cut
            ranks.append(len(pivots))
        yield ranks


def echelon(cols: List[int]) -> Tuple[List[int], List[Tuple[int, int]]]:
    """(kernel, pairs) of one elimination of the columns in order.

    ``kernel`` holds, per column j in the span of the columns before it,
    e_j plus the unique sum of the earlier live columns equal to column j:
    a basis of the kernel.  ``pairs`` holds, per live column j in order, its
    stored row as (residue, combo): combo is e_j plus earlier live indices,
    and ``apply_cols(cols, combo) == residue``.
    """
    n, rows = len(cols), {}
    bound = 1 << n
    tagged = (col << n | 1 << j for j, col in enumerate(cols))
    kernel = [left for left in _reduce(rows, tagged, n) if left < bound]
    return kernel, [(row >> n, row & bound - 1) for row in rows.values()]


def span_basis(vectors: Iterable[int]) -> List[int]:
    """The vectors outside the span of those before them, in order: a basis
    of the span that does not depend on the pivot rule."""
    vectors = list(vectors)
    return [v for v, left in zip(vectors, _reduce({}, vectors)) if left]


def in_span(vectors: Iterable[int], target: int) -> bool:
    return not _reduce({}, [*vectors, target])[-1]


def invert(cols: List[int], n: int) -> List[int]:
    """Inverse of an n x n column-map.  Raises ValueError if singular.

    Column i of the inverse is what is left of ``1 << n + i`` reduced
    against the tagged columns: a combo of columns summing to e_i."""
    if len(cols) != n:
        raise ValueError("matrix is not square")
    rows, bound = {}, 1 << n
    tagged = (col << n | 1 << j for j, col in enumerate(cols))
    if any(left < bound for left in _reduce(rows, tagged, n)):
        raise ValueError("matrix is singular")
    return _reduce(rows, (1 << n + i for i in range(n)), n)


def transpose(cols: List[int], nrows: int) -> List[int]:
    """Transpose an nrows x len(cols) column-map."""
    out = [0] * nrows
    for j, c in enumerate(cols):
        bit = 1 << j
        while c:
            low = c & -c
            out[low.bit_length() - 1] |= bit
            c ^= low
    return out
