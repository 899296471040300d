"""Linearized (co)chain complexes, homology with retract data, duality certificates.

The linearized cochain complex of an augmented DGA is (V, m_1), the
arity-one part of the adjoint A-infinity structure (degree +1); the chain
complex is its transpose on the same labels and degrees (degree -1), the
word-length-one part of the twisted differential.  ``homology`` checks its
contract (direction, shift, d d = 0) on a map from any caller and hands it
to ``_retract``, which performs deterministic Gaussian elimination and
returns not just dimensions but a full strong deformation retract
(inclusion i, projection p, homotopy h) onto chosen representatives.  The
complexes the library builds itself go straight to ``_retract``: their
d d = 0 is proved once, by the A-infinity relations (see ``_retract``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import ContractError, InternalConsistencyError
from .algebra import canon_degree
from .gf2 import Eliminator, apply_block, apply_cols, invert, rank, transpose

__all__ = [
    "GradedMatrixMap",
    "HomologyData",
    "DualityCertificate",
    "DualityFailure",
    "linearized_complexes",
    "homology",
    "duality_search",
    "pair_bit",
    "MAX_DUALITY_PAIRS",
]

# Budget on the (kappa, c) candidates of ``duality_search``, checked first.
MAX_DUALITY_PAIRS = 1 << 20


def pair_bit(x: int, y: int) -> int:
    """Evaluation pairing of a dual vector against a vector in the same basis."""
    return (x & y).bit_count() & 1


def vector_label(names: Tuple[str, ...], vec: int) -> str:
    parts = [names[i] for i in range(len(names)) if (vec >> i) & 1]
    return "+".join(parts) if parts else "0"


@dataclass
class GradedMatrixMap:
    """A degree-homogeneous linear map between graded spaces with named bases.

    ``basis[k]`` lists the labels spanning degree k (canonical degree), and
    ``cols[k][j]`` is the image of the j-th one, a bitmask over
    ``basis[(k + shift) % modulus]``.
    """

    modulus: int
    shift: int
    basis: Dict[int, Tuple[str, ...]]
    cols: Dict[int, List[int]]

    def canon(self, k: int) -> int:
        return canon_degree(self.modulus, k)

    def degrees(self) -> List[int]:
        return sorted(k for k in self.basis if self.basis[k])

    def dim(self, k: int) -> int:
        return len(self.basis.get(self.canon(k), ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def columns(self, k: int) -> List[int]:
        k = self.canon(k)
        cols = self.cols.get(k)
        return cols if cols is not None else [0] * self.dim(k)

    def apply(self, k: int, vec: int) -> int:
        """Image (in degree k + shift) of a degree-k vector."""
        return apply_cols(self.columns(k), vec)

    def homology_dims(self) -> Dict[int, int]:
        """``homology(...).dims()`` of a square-zero map, from ranks alone:
        dim H_k = |basis_k| - rank(out of degree k) - rank(into degree k)."""
        ranks = {k: rank(self.columns(k)) for k in self.basis}
        dims = {}
        for k in sorted(self.basis):
            d = len(self.basis[k]) - ranks[k] - ranks.get(self.canon(k - self.shift), 0)
            if d:
                dims[k] = d
        return dims

    def is_square_zero(self) -> bool:
        for k in self.basis:
            after = self.columns(k + self.shift)
            if any(apply_cols(after, col) for col in self.columns(k)):
                return False
        return True


def linearized_complexes(s) -> Tuple[GradedMatrixMap, GradedMatrixMap]:
    """The linearized (chain, cochain) complexes of an adjoint A-infinity structure.

    The cochain map is m_1 of ``s`` (degree +1): the column of a label x is
    m_1(x), the sum of the generators whose twisted differential has the
    linear term x.  The chain map (degree -1) is its transpose, degree by
    degree, on the same labels and degrees: the linear part of the twisted
    differential itself.  Neither is squared here: for a structure that
    ``adjoint_structure`` checked, both square to zero (see ``_retract``).
    """
    cochain_cols = {k: [s.entry((g,)) for g in names] for k, names in s.basis.items()}
    chain_cols = {
        k: transpose(cochain_cols.get(canon_degree(s.modulus, k - 1), []), len(names))
        for k, names in s.basis.items()
    }
    chain = GradedMatrixMap(s.modulus, -1, s.basis, chain_cols)
    cochain = GradedMatrixMap(s.modulus, 1, s.basis, cochain_cols)
    return chain, cochain


@dataclass
class HomologyData:
    """Per-degree homology of a square-zero graded map, with retract maps.

    For each degree the space splits as representatives + boundaries + a
    complement mapped isomorphically onto the next boundaries.  ``project``
    (p), ``include`` (i) and ``homotopy`` (h) realise p o i = id and
    id + i o p = dh + hd with the side conditions h h = 0, h i = 0, p h = 0.
    """

    differential: GradedMatrixMap
    cycles: Dict[int, List[int]]
    boundaries: Dict[int, List[int]]
    reps: Dict[int, List[int]]
    _decomp: Dict[int, List[int]] = field(repr=False, default_factory=dict)
    _hvecs: Dict[int, List[int]] = field(repr=False, default_factory=dict)
    _inv: Dict[int, List[int]] = field(repr=False, default_factory=dict)

    @property
    def modulus(self) -> int:
        return self.differential.modulus

    @property
    def shift(self) -> int:
        return self.differential.shift

    def canon(self, k: int) -> int:
        return self.differential.canon(k)

    def names(self, k: int) -> Tuple[str, ...]:
        return self.differential.basis.get(self.canon(k), ())

    def dim(self, k: int) -> int:
        return len(self.reps.get(self.canon(k), ()))

    def dims(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.reps.items()) if v}

    def total_dim(self) -> int:
        return sum(len(v) for v in self.reps.values())

    def degrees(self) -> List[int]:
        return sorted(k for k, v in self.reps.items() if v)

    def include(self, k: int, coords: int) -> int:
        """Representative (co)cycle of the class with the given coordinates."""
        return apply_cols(self.reps.get(self.canon(k), []), coords)

    def _inverse(self, k: int) -> Optional[List[int]]:
        """Coordinates-in-decomposition matrix, computed on first use per degree."""
        if k not in self._decomp:
            return None
        if k not in self._inv:
            decomposition = self._decomp[k]
            try:
                self._inv[k] = invert(decomposition, len(decomposition))
            except ValueError:
                raise InternalConsistencyError(
                    "degree %d decomposition is not a basis" % k
                )
        return self._inv[k]

    def project(self, k: int, vec: int) -> int:
        """Class coordinates of an arbitrary degree-k vector."""
        k = self.canon(k)
        inv = self._inverse(k)
        if inv is None:
            return 0
        coords = apply_cols(inv, vec)
        return coords & ((1 << len(self.reps[k])) - 1)

    def homotopy(self, k: int, vec: int) -> int:
        """h(vec), landing in degree k - shift."""
        k = self.canon(k)
        inv = self._inverse(k)
        if inv is None:
            return 0
        coords = apply_cols(inv, vec) >> len(self.reps[k])
        out = 0
        for w in self._hvecs[k]:
            if coords & 1:
                out ^= w
            coords >>= 1
        return out

    def is_cycle(self, k: int, vec: int) -> bool:
        return self.differential.apply(k, vec) == 0

    def class_of(self, k: int, vec: int) -> int:
        """Coordinates of the class of a (co)cycle; rejects non-cycles."""
        if not self.is_cycle(k, vec):
            raise ContractError("vector of degree %d is not closed" % k)
        return self.project(k, vec)

    def label(self, k: int, coords: int) -> str:
        return "[%s]" % vector_label(self.names(k), self.include(k, coords))


def homology(m: GradedMatrixMap, direction: str) -> HomologyData:
    """Homology of a square-zero map, with deterministic representatives.

    ``direction`` is "chain" (degree -1 map) or "cochain" (degree +1) and
    must match the map's shift; a map that does not square to zero is a
    ``ContractError``.  The reduction itself is ``_retract``.
    """
    if direction not in ("chain", "cochain"):
        raise ContractError("direction must be 'chain' or 'cochain'")
    if m.shift != (-1 if direction == "chain" else 1):
        raise ContractError(
            "map has degree shift %d, which does not match direction %s"
            % (m.shift, direction)
        )
    if not m.is_square_zero():
        raise ContractError("map does not square to zero; homology is undefined")
    return _retract(m)


def _retract(m: GradedMatrixMap) -> HomologyData:
    """The homology retract of a map known to square to zero, unchecked.

    Precondition: m m = 0.  ``homology`` discharges it by squaring; the
    complexes the library builds carry a proof instead, and are passed here
    directly:

    * The cochain map of ``linearized_complexes(s)`` is m_1 of ``s``, its
      column for g read straight off ``s.entry((g,))``.  Relation l = 1 of
      ``check_an_relations``, which ``adjoint_structure`` runs, is
      m_1 m_1 = 0 on that map (``build_ring``).
    * The chain map is its transpose, degree by degree, so each chain
      composite d_(k-1) d_k is the transpose of the cochain composite
      d_(k-1) d_(k-2), and (B A)^T = A^T B^T = 0 (``build_ring``).
    * The window complexes of ``legch.tilde`` are built by ``_window_matrix``,
      which asserts the relations up to arity n; the Square zero paragraph
      of the ``legch.tilde`` docstring shows that this is d d = 0 on words
      of length <= n (``OrderNCohomology.data``,
      ``TildeChainMap.induced_ranks``).
    """
    kernel: Dict[int, List[int]] = {}
    wvecs: Dict[int, List[int]] = {}  # complement of the kernel in degree k
    images: Dict[int, List[int]] = {}  # boundaries in degree k + shift, aligned
    for k in m.basis:
        elim = Eliminator()
        dead = []
        for col in m.columns(k):
            created, combo = elim.add(col)
            if not created:
                dead.append(combo)
        pairs = sorted(elim.pivots.values(), key=lambda rc: rc[1].bit_length())
        kernel[k] = dead
        wvecs[k] = [combo for _, combo in pairs]
        images[m.canon(k + m.shift)] = [residue for residue, _ in pairs]

    reps: Dict[int, List[int]] = {}
    decomp: Dict[int, List[int]] = {}
    hvecs: Dict[int, List[int]] = {}
    boundaries: Dict[int, List[int]] = {}
    for k in m.basis:
        n = len(m.basis[k])
        bnd = images.get(k, [])
        boundaries[k] = bnd
        elim = Eliminator()
        for b in bnd:
            elim.add(b)
        chosen = []
        for z in kernel[k]:
            created, _ = elim.add(z)
            if created:
                chosen.append(z)
        reps[k] = chosen
        decomposition = chosen + bnd + wvecs[k]
        if len(decomposition) != n:
            raise InternalConsistencyError(
                "degree %d decomposition has size %d, expected %d"
                % (k, len(decomposition), n)
            )
        if n:
            decomp[k] = decomposition
            hvecs[k] = wvecs[m.canon(k - m.shift)] if bnd else []
    return HomologyData(m, kernel, boundaries, reps, decomp, hvecs)


@dataclass
class DualityCertificate:
    """Witness for the duality pairing on linearized contact (co)homology.

    kappa is a degree-1 class of the chain homology, c a degree-1 class of
    the cochain homology with <c, kappa> = 1; the Gram matrix of
    ([x],[y]) -> <[x] cup [y], kappa> on the chosen complement of span(c)
    is symmetric and nondegenerate in each (k, -k) block.
    """

    kappa_coords: int
    kappa_vec: int
    kappa_label: str
    c_coords: int
    c_vec: int
    c_label: str
    complement: List[Tuple[int, int, str]]  # (degree, class coords, label)
    gram: List[List[int]]

    @property
    def ok(self) -> bool:
        return True


@dataclass
class DualityFailure:
    """Exhaustive-search report: no (kappa, c, complement) choice works."""

    reason: str
    pairs_tried: int
    complements_tried: int

    @property
    def ok(self) -> bool:
        return False


def _gram_ok(modulus: int, entries: List[Tuple[int, int]], gram: List[List[int]]) -> bool:
    """Symmetry plus nondegeneracy of each (k, -k) block."""
    n = len(entries)
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                return False
    by_degree: Dict[int, List[int]] = {}
    for idx, (k, _) in enumerate(entries):
        by_degree.setdefault(k, []).append(idx)
    for k, rows in by_degree.items():
        cols = by_degree.get(canon_degree(modulus, -k), [])
        if len(cols) != len(rows):
            return False
        vectors = []
        for i in rows:
            v = 0
            for pos, j in enumerate(cols):
                if gram[i][j]:
                    v ^= 1 << pos
            vectors.append(v)
        if rank(vectors) != len(rows):
            return False
    return True


def duality_search(ring):
    """Search for a DualityCertificate; returns a DualityFailure if none exists.

    ``ring`` carries the homological data: attributes ``chain`` and
    ``cochain`` (HomologyData of the two linearized complexes) and
    ``products``, whose ``pair(k, l).chains[i][j]`` is the cochain vector
    m_2(i e_i, i e_j) on the representatives of the basis classes of degrees
    k and l.  A Gram entry <[x] cup [y], kappa> pairs kappa with m_2 on the
    representatives of x and y; m_2 is bilinear and the inclusion i is
    linear, so that vector is the XOR of the pair block's chain vectors over
    the coordinate bits of x and y (``apply_block``), exactly.

    All kappa and c candidates with <c, kappa> = 1 are tried in coordinate
    order.  For each, the complement of span(c) is formed with deterministic
    pivots; when the degree-1 cohomology has dimension at most 6, every
    graded complement is tried.  More than ``MAX_DUALITY_PAIRS``
    candidates, (2^kd - 1)(2^cd - 1) for the degree-1 dimensions kd and cd,
    is a ``ContractError`` before any work.
    """
    chain_h: HomologyData = ring.chain
    cochain_h: HomologyData = ring.cochain
    modulus = chain_h.modulus
    one = canon_degree(modulus, 1)
    kd = chain_h.dim(one)
    cd = cochain_h.dim(one)
    candidates = ((1 << kd) - 1) * ((1 << cd) - 1)
    if candidates > MAX_DUALITY_PAIRS:
        raise ContractError(
            "duality search over %d (kappa, c) candidates exceeds the budget %d"
            % (candidates, MAX_DUALITY_PAIRS)
        )
    if kd == 0 or cd == 0:
        return DualityFailure(
            "no candidates: dim of chain homology in degree 1 is %d, cochain %d"
            % (kd, cd),
            0,
            0,
        )

    limit = 1 << (cd - 1) if cd <= 6 else 1

    degrees = cochain_h.degrees()
    pairs_tried = 0
    complements_tried = 0
    for kmask in range(1, 1 << kd):
        kappa_vec = chain_h.include(one, kmask)
        for cmask in range(1, 1 << cd):
            c_vec = cochain_h.include(one, cmask)
            if pair_bit(c_vec, kappa_vec) != 1:
                continue
            pairs_tried += 1
            base = []  # coordinate masks extending cmask to a basis of degree 1
            elim = Eliminator()
            elim.add(cmask)
            for i in range(cd):
                created, _ = elim.add(1 << i)
                if created:
                    base.append(1 << i)
            for variant in range(limit):
                complements_tried += 1
                entries: List[Tuple[int, int]] = []  # (degree, class coords)
                for k in degrees:
                    if k == one:
                        for t, u in enumerate(base):
                            coords = u ^ (cmask if (variant >> t) & 1 else 0)
                            entries.append((k, coords))
                    else:
                        for i in range(cochain_h.dim(k)):
                            entries.append((k, 1 << i))
                gram = []
                for ki, ci in entries:
                    row = []
                    for kj, cj in entries:
                        if canon_degree(modulus, ki + kj + 1) != one:
                            row.append(0)
                        else:
                            prod = apply_block(ring.products.pair(ki, kj).chains, ci, cj)
                            row.append(pair_bit(prod, kappa_vec))
                    gram.append(row)
                if _gram_ok(modulus, entries, gram):
                    complement = [
                        (k, coords, cochain_h.label(k, coords)) for k, coords in entries
                    ]
                    return DualityCertificate(
                        kmask,
                        kappa_vec,
                        chain_h.label(one, kmask),
                        cmask,
                        c_vec,
                        cochain_h.label(one, cmask),
                        complement,
                        gram,
                    )
    return DualityFailure(
        "no (kappa, c, complement) choice yields a symmetric nondegenerate pairing",
        pairs_tried,
        complements_tried,
    )
