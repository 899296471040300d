"""Bit-packed GF(2) linear algebra.

Vectors are Python ints (bit i = coordinate i).  A linear map is a list of
column vectors: ``cols[j]`` is the image of the j-th domain basis vector.
Everything except ``rank`` reduces with the lowest set bit as pivot, so
results are deterministic for a fixed basis order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

__all__ = [
    "bits",
    "apply_cols",
    "apply_block",
    "Eliminator",
    "rank",
    "kernel_basis",
    "in_span",
    "solve",
    "invert",
    "compose",
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
    """Rank, by a pivot dict keyed on the highest set bit that tracks no combos."""
    pivots = {}
    for v in vectors:
        while v:
            row = pivots.get(v.bit_length())
            if row is None:
                pivots[v.bit_length()] = v
                break
            v ^= row
    return len(pivots)


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


def kernel_basis(cols: List[int]) -> List[int]:
    """Basis of {x : apply_cols(cols, x) = 0}, as domain bitmasks."""
    e = Eliminator()
    out = []
    for c in cols:
        created, combo = e.add(c)
        if not created:
            out.append(combo)
    return out


def solve(cols: List[int], target: int) -> Optional[int]:
    """One x with apply_cols(cols, x) = target, or None."""
    e = Eliminator()
    for c in cols:
        e.add(c)
    return e.solve(target)


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


def compose(outer: List[int], inner: List[int]) -> List[int]:
    """Column-map of outer o inner."""
    return [apply_cols(outer, c) for c in inner]


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
