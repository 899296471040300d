"""Bit-packed GF(2) linear algebra.

Vectors are Python ints (bit i = coordinate i).  A linear map is a list of
column vectors: ``cols[j]`` is the image of the j-th domain basis vector.
``Eliminator``, and ``span_basis``, ``in_span`` and ``invert`` through it,
reduce with the lowest set bit as pivot and track combos, so results are
deterministic for a fixed basis order; ``rank`` and ``prefix_ranks`` pivot
on the highest set bit and track none, so a stored row is its pivot's
place plus places below it, which is what lets ``prefix_ranks`` clear at
every prefix.
"""

from __future__ import annotations

from itertools import islice
from sys import maxsize
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "bits",
    "apply_cols",
    "apply_block",
    "Eliminator",
    "rank",
    "prefix_ranks",
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


def apply_block(block, first: int, *rest: int) -> int:
    """Multilinear extension of a table of vectors on basis tuples.

    ``block[i][j]..[k]`` is the image of the tuple of i-th, j-th, .., k-th
    basis vectors; the result is the XOR of those images over the set bits
    of one mask per tuple position.  With one mask this is ``apply_cols``.
    """
    if not rest:
        return apply_cols(block, first)
    out = 0
    for i in bits(first):
        out ^= apply_block(block[i], *rest)
    return out


class Eliminator:
    """Incremental Gaussian elimination with preimage tracking.

    Feed vectors one at a time; each either creates a new pivot or reduces
    to zero against the existing ones.  ``combo`` records which of the fed
    vectors were XORed together, so kernels and preimages come for free.
    """

    def __init__(self):
        self.pivots = {}  # pivot bit index -> (reduced vector, combo)
        self.count = 0  # vectors fed so far

    def reduce(self, vec: int) -> Tuple[int, int]:
        """Reduce vec against the current pivots; return (residue, combo)."""
        combo = 0
        while vec:
            p = (vec & -vec).bit_length() - 1
            hit = self.pivots.get(p)
            if hit is None:
                return vec, combo
            vec ^= hit[0]
            combo ^= hit[1]
        return 0, combo

    def add(self, vec: int) -> Tuple[bool, int]:
        """Feed a vector.  Returns (created_new_pivot, combo).

        combo is over *fed-vector indices*: bit t set means the t-th fed
        vector participates.  When a new pivot is created the combo maps the
        stored reduced vector back to a combination of fed vectors; when the
        vector dies the combo is a kernel relation among the fed vectors.
        """
        tag = 1 << self.count
        self.count += 1
        residue, combo = self.reduce(vec)
        combo ^= tag
        if residue == 0:
            return False, combo
        p = (residue & -residue).bit_length() - 1
        self.pivots[p] = (residue, combo)
        return True, combo

    def solve(self, target: int) -> Optional[int]:
        """Combo of fed vectors XORing to target, or None if outside span."""
        residue, combo = self.reduce(target)
        return combo if residue == 0 else None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(vectors: Iterable[int]) -> int:
    """Rank: ``prefix_ranks`` of one map, cut after its last vector."""
    return next(prefix_ranks([(list(vectors), (maxsize,))]))[0]


def prefix_ranks(blocks: Iterable[Tuple[List[int], Sequence[int]]]) -> Iterator[List[int]]:
    """Yield, per map, the ranks of its first c columns for each c in its
    cuts, the maps reduced in turn by a pivot dict keyed on the highest set
    bit that tracks no combos, with clearing.

    ``blocks`` yields (cols, cuts) per map, cuts ascending counts.  Each map
    is cleared by the one before it, which must be zero or have this map's
    domain as its target and a zero composite with it: the place of each of
    its pivot rows, which set the row's highest bit, then names a column in
    the span of the columns before it, and skipping that column changes no
    prefix rank (Clearing, in ``legch.tilde``).  ``cols`` is never written to.
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
        pivots, ranks, vectors, done = {}, [], iter(cols), 0
        for cut in cuts:
            if cut > done:
                for v in islice(vectors, cut - done):
                    while v:
                        row = pivots.get(v.bit_length())
                        if row is None:
                            pivots[v.bit_length()] = v
                            break
                        v ^= row
                done = cut
            ranks.append(len(pivots))
        yield ranks


def span_basis(vectors: Iterable[int]) -> List[int]:
    """Reduced spanning set (the stored pivot rows), deterministic order."""
    e = Eliminator()
    out = []
    for v in vectors:
        created, _ = e.add(v)
        if created:
            out.append(v)
    return out


def in_span(vectors: Iterable[int], target: int) -> bool:
    e = Eliminator()
    for v in vectors:
        e.add(v)
    return e.solve(target) is not None


def invert(cols: List[int], n: int) -> List[int]:
    """Inverse of an n x n column-map.  Raises ValueError if singular."""
    if len(cols) != n:
        raise ValueError("matrix is not square")
    e = Eliminator()
    for c in cols:
        e.add(c)
    if e.rank != n:
        raise ValueError("matrix is singular")
    return [e.solve(1 << i) for i in range(n)]


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
