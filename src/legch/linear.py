"""Linearized (co)chain complexes, homology with retract data, duality certificates.

The linearized cochain complex of an augmented DGA is (V, m_1), the
arity-one part of the adjoint A-infinity structure (degree +1); the chain
complex is its transpose on the same labels and degrees (degree -1), the
word-length-one part of the twisted differential.  ``homology`` checks its
contract (shift -1 or +1, d d = 0) on a map from any caller and hands it
to ``_retract``, which performs deterministic Gaussian elimination and
returns not just dimensions but a full strong deformation retract
(inclusion i, projection p, homotopy h) onto chosen representatives.  The
complexes the library builds itself go straight to ``_retract``: their
d d = 0 is proved once, by the A-infinity relations (see ``_retract``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError, check_budget
from .algebra import canon_degree
from .gf2 import Eliminator, apply_cols, bits, invert, rank, transpose

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
# It admits kd = cd = 10.  Measured in-process (python 3.11.7, 2 vCPUs),
# that search takes 0.04-0.07 s with every product zero (each kappa fails the
# rank bound), and 1.0-1.3 s on the slowest admitted case found,
# d q = x_0 y_0 + .. + x_8 y_8: every kappa with a q coefficient passes the
# rank bound, and every c fails symmetry.
MAX_DUALITY_PAIRS = 1 << 20


def pair_bit(x: int, y: int) -> int:
    """Evaluation pairing of a dual vector against a vector in the same basis."""
    return (x & y).bit_count() & 1


def vector_label(names: Tuple[str, ...], vec: int) -> str:
    """The names of the set bits of ``vec``, ascending, joined by "+"; "0" for 0."""
    return "+".join(map(names.__getitem__, bits(vec))) or "0"


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

    def columns(self, k: int) -> List[int]:
        k = self.canon(k)
        cols = self.cols.get(k)
        return cols if cols is not None else [0] * self.dim(k)

    def apply(self, k: int, vec: int) -> int:
        """Image (in degree k + shift) of a degree-k vector."""
        return apply_cols(self.columns(k), vec)

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
    differential itself.  Neither is squared here: for a structure from
    ``build_ring`` or ``adjoint_structure``, both square to zero (see
    ``_retract``).
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
    id + i o p = dh + hd with the side conditions h h = 0, h i = 0, p h = 0;
    ``split`` reads p and h of one vector off one application of the
    degree's inverse.
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
        return self.split(k, vec)[1]

    def split(self, k: int, vec: int) -> Tuple[int, int]:
        """(p(vec), h(vec)): the class coordinates of a degree-k vector and its
        homotopy, read off one application of the degree's inverse."""
        k = self.canon(k)
        inv = self._inverse(k)
        if inv is None:
            return 0, 0
        hvecs, nreps = self._hvecs[k], len(self.reps[k])
        coords = apply_cols(inv, vec)
        tail = apply_cols(hvecs, (coords >> nreps) & ((1 << len(hvecs)) - 1))
        return coords & ((1 << nreps) - 1), tail

    def is_cycle(self, k: int, vec: int) -> bool:
        return self.differential.apply(k, vec) == 0

    def class_of(self, k: int, vec: int) -> int:
        """Coordinates of the class of a (co)cycle; rejects non-cycles."""
        if not self.is_cycle(k, vec):
            raise ContractError("vector of degree %d is not closed" % k)
        return self.project(k, vec)

    def label(self, k: int, coords: int) -> str:
        return "[%s]" % vector_label(self.names(k), self.include(k, coords))


def homology(m: GradedMatrixMap) -> HomologyData:
    """Homology of a square-zero map, with deterministic representatives.

    The map's shift says which: -1 is a chain map, +1 a cochain map, and
    any other shift is a ``ContractError``, as is a map that does not
    square to zero.  The reduction itself is ``_retract``.
    """
    if m.shift not in (-1, 1):
        raise ContractError("map has degree shift %d, neither -1 nor +1" % m.shift)
    if not m.is_square_zero():
        raise ContractError("map does not square to zero; homology is undefined")
    return _retract(m)


def _retract(m: GradedMatrixMap) -> HomologyData:
    """The homology retract of a map known to square to zero, unchecked.

    Precondition: m m = 0.  ``homology`` discharges it by squaring; the
    complexes the library builds carry a proof instead, and are passed here
    directly:

    * The cochain map of ``linearized_complexes(s)`` is m_1 of ``s``, its
      column for g read straight off ``s.entry((g,))``, and m_1 m_1 = 0 is
      relation l = 1.  ``build_ring`` proves the relations of its structure
      from d d = 0 on the validated DGA (its docstring); the public
      ``adjoint_structure`` checks them.
    * The chain map is its transpose, degree by degree, so each chain
      composite d_(k-1) d_k is the transpose of the cochain composite
      d_(k-1) d_(k-2), and (B A)^T = A^T B^T = 0 (``build_ring``).
    * The window complexes of ``legch.tilde`` are built by ``_window_matrix``,
      which asserts the relations up to arity n; the Square zero paragraph
      of the ``legch.tilde`` docstring shows that this is d d = 0 on words
      of length <= n (``OrderNCohomology.data``, and the test-side chain
      maps between order-n complexes).

    Why the result is a strong deformation retract, so that no caller
    verifies the ring's own (``ainfty.transfer_minimal_model``).  In degree
    k, elimination of the columns of d_k yields a basis ``dead`` of its
    kernel Z_k, and pivot pairs (residue, combo) with d(combo) = residue:
    the combos W_k (``wvecs``) and their images, which span the boundaries
    in degree k + shift, aligned.  Write B_k for the aligned images of
    W_(k - shift) (``bnd``), so d(W_(k - shift)[j]) = B_k[j], and R_k for the
    representatives, the ``dead`` vectors that extend B_k to a basis of
    Z_k + B_k.  Then |R_k| + |B_k| = dim(Z_k + B_k) and |W_k| = n - dim Z_k,
    so the decomposition R_k + B_k + W_k has n vectors exactly when
    B_k lies in Z_k, which is m m = 0 into degree k; the size check raises
    otherwise.  With B_k in Z_k, R_k + B_k is a basis of Z_k, and no nonzero
    sum of W_k is a cycle (its image is a nonzero sum of independent
    residues), so R_k + B_k + W_k is a basis of degree k (``invert`` raises
    if not).  In its coordinates (r, b, c), p v = r, i e_a = R_k[a] and
    h v = sum b_j W_(k - shift)[j] (``_hvecs``).  So p i = id and h i = 0
    (R_k[a] has coordinates (e_a, 0, 0)); h h = 0 and p h = 0 (h v is a sum
    of W_(k - shift), coordinates (0, 0, c) in its degree).  d h + h d =
    id + i p on each basis vector: on R_k[a] both sides are 0, as
    d R_k[a] = 0, h R_k[a] = 0 and i p R_k[a] = R_k[a]; on B_k[j] the left
    is d W_(k - shift)[j] = B_k[j] (d B_k[j] = 0, as B_k lies in Z_k) and
    p B_k[j] = 0; on W_k[l] it is h(d W_k[l]) = h(B_(k + shift)[l]) = W_k[l]
    (h W_k[l] = 0) and p W_k[l] = 0.  Both sides are linear, so the
    identity holds on all of degree k.
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


def _pairings(vec: int, vectors: Sequence[int]) -> int:
    """Bit t is ``pair_bit(vec, vectors[t])``."""
    return sum(pair_bit(vec, v) << t for t, v in enumerate(vectors))


def _restrict(form: List[int], rows: Sequence[int], cols: Sequence[int]) -> List[int]:
    """The Gram block of ``rows`` against ``cols``: row i of ``form`` holds
    its values on (e_i, e_j) over the basis e_j of the opposite degree."""
    return [_pairings(apply_cols(form, x), cols) for x in rows]


def _block_ok(block: List[int], mirrored: List[int]) -> bool:
    """Whether a square Gram block is nondegenerate and the transpose of
    ``mirrored``, the block of its columns against its rows."""
    return rank(block) == len(block) and block == transpose(mirrored, len(block))


def _complements(paired: int, cd: int, limit: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(cmask, degree-1 entries) of each c with <c, kappa> = 1 and each of its
    first ``limit`` variants, in search order; bit b of ``paired`` is
    <c_b, kappa> on the basis classes c_b."""
    bases = [tuple(1 << i for i in range(cd) if i != top) for top in range(cd)]
    for cmask in range(1, 1 << cd):
        if pair_bit(paired, cmask):
            base = bases[cmask.bit_length() - 1]
            for variant in range(limit):
                coords = [u ^ cmask if variant >> t & 1 else u for t, u in enumerate(base)]
                yield cmask, tuple(coords)


def duality_search(ring):
    """Search for a DualityCertificate; returns a DualityFailure if none exists.

    ``ring`` carries the homological data: attributes ``chain`` and
    ``cochain`` (HomologyData of the two linearized complexes) and
    ``products``, whose ``pair(k, l).coords[i][j]`` is the cup product
    e_i e_j of the basis classes of degrees k and l.

    The candidates are the pairs (kappa, c) of a nonzero degree-1 class of
    the chain homology and one of the cochain homology with <c, kappa> = 1,
    in coordinate order (kmask, then cmask).  A candidate's entries are the
    basis classes of each degree, except in degree 1, where they span a
    complement of span(c): the unit coordinates other than the top bit of
    c (the ones that elimination of c, e_0, e_1, .. keeps), the t-th plus c
    where bit t of ``variant`` is set.  When the degree-1 cohomology has
    dimension cd <= 6, all 2^(cd - 1) variants are tried, else variant 0.
    The first (kappa, c, variant) whose Gram matrix
    G[x][y] = <[x] cup [y], kappa> on its entries is symmetric, with each
    (k, -k) block nondegenerate, is the certificate.  More than
    ``MAX_DUALITY_PAIRS`` candidates, (2^kd - 1)(2^cd - 1) for the degree-1
    dimensions kd and cd, is a ``ContractError`` before any work.

    Why one form per degree and kappa decides every candidate:

    * Bilinearity.  G[x][y] pairs kappa with m_2(i x, i y), a cocycle
      that is i(x y) plus a coboundary d z.  The chain differential is the
      transpose of the cochain one, so <d z, kappa> = <z, d kappa> = 0 on
      the cycle kappa, and G[x][y] = <i(x y), kappa>: the bits of x y on
      the row of kappa in the pairing P below, apply_cols(P, kmask), which
      the search reads for ``_complements`` too.  The cup product is
      bilinear and the pairing linear, so G[x][y] is bilinear in the
      coordinates of x and y, and linear in kappa.  Let F_k be the form of
      degree k whose row i holds <e_i e_j, kappa> over the basis e_j of
      degree -k, read off the pair block's class rows.  Then
      G[x][y] = <x F_k, y> (``_restrict``).  The chain vector of kappa is
      built only for the certificate.
    * Blocks.  m_2 maps degrees (k, l) to k + l + 1, which is 1 only when
      l = -k, so G vanishes off the (k, -k) blocks.  G is symmetric when
      each (k, -k) block is the transpose of the (-k, k) block (the same
      block when k = -k), which ``_block_ok`` checks with the rank.
    * Dimensions.  A nondegenerate block is square, so every degree needs
      as many entries as its negative, degree 1 counting cd - 1.  No entry
      count depends on kappa or c, so when they differ every candidate
      fails, and no form is built.
    * Off degree +-1.  The entries there are the basis classes for every
      c, so their blocks depend on kappa alone.  They are checked once per
      kappa, and when one fails, every c of that kappa fails.
    * Rank bound.  The degree-1 block is F_1 read on the complement's
      cd - 1 rows (and on its columns, when 1 = -1), so its rank is at most
      rank F_1, and a kappa with rank F_1 < cd - 1 has no certificate.
      What is left per (c, variant) is the degree-1 block alone.  It
      depends on kappa and the degree-1 entries only, and for cd > 6 the
      entries depend only on the top bit of c, so each kappa reads it once
      per distinct entries (``verdicts``).  The whole G is built only for
      the certificate returned.
    * Counts.  A failure's counts are the totals of the search run to the
      end: every candidate, each with ``limit`` complements.  Row a of the
      kd x cd pairing P holds <c_b, kappa_a> over the basis classes c_b,
      so <c, kappa> = kmask P cmask.  A kmask outside the left kernel of P
      pairs to 1 with half of the 2^cd cmasks, none of them 0, and a kmask
      in it with none.  The kernel holds 2^(kd - r) kmasks, r = rank P, so
      (2^kd - 2^(kd - r)) 2^(cd - 1) candidates are tried, and ``limit``
      times as many complements.
    """
    chain_h: HomologyData = ring.chain
    cochain_h: HomologyData = ring.cochain
    modulus = chain_h.modulus
    one = canon_degree(modulus, 1)
    kd = chain_h.dim(one)
    cd = cochain_h.dim(one)
    candidates = ((1 << kd) - 1) * ((1 << cd) - 1)
    what = "duality search over %d (kappa, c) candidates, over"
    check_budget("MAX_DUALITY_PAIRS", MAX_DUALITY_PAIRS, candidates, what)
    if kd == 0 or cd == 0:
        return DualityFailure(
            "no candidates: dim of chain homology in degree 1 is %d, cochain %d"
            % (kd, cd),
            0,
            0,
        )

    limit = 1 << (cd - 1) if cd <= 6 else 1
    kbasis = [chain_h.include(one, 1 << a) for a in range(kd)]
    cbasis = [cochain_h.include(one, 1 << b) for b in range(cd)]
    pairing = [_pairings(kappa, cbasis) for kappa in kbasis]
    minus_one = canon_degree(modulus, -1)
    opposite = {k: canon_degree(modulus, -k) for k in {*cochain_h.degrees(), minus_one}}
    units = {k: [1 << i for i in range(cochain_h.dim(k))] for k in opposite}
    sizes = {k: len(u) for k, u in units.items()}
    sizes[one] = cd - 1
    if all(sizes[k] == sizes.get(l, 0) for k, l in opposite.items()):
        cups = {k: ring.products.pair(k, l).coords for k, l in opposite.items()}
        for kmask in range(1, 1 << kd):
            paired = apply_cols(pairing, kmask)
            form = {k: [_pairings(paired, row) for row in rows] for k, rows in cups.items()}
            if rank(form[one]) < cd - 1 or not all(
                _block_ok(form[k], form[l]) for k, l in opposite.items() if one not in (k, l)
            ):
                continue
            verdicts: Dict[Tuple[int, ...], bool] = {}  # degree-1 entries -> block ok
            for cmask, coords in _complements(paired, cd, limit):
                if coords not in verdicts:
                    cols = coords if minus_one == one else units[minus_one]
                    verdicts[coords] = _block_ok(
                        _restrict(form[one], coords, cols), _restrict(form[minus_one], cols, coords)
                    )
                if not verdicts[coords]:
                    continue
                entries = [
                    (k, u) for k in sorted(units) for u in (coords if k == one else units[k])
                ]
                gram = [
                    [
                        pair_bit(apply_cols(form[ki], ci), cj) if kj == opposite[ki] else 0
                        for kj, cj in entries
                    ]
                    for ki, ci in entries
                ]
                return DualityCertificate(
                    kmask,
                    apply_cols(kbasis, kmask),
                    chain_h.label(one, kmask),
                    cmask,
                    apply_cols(cbasis, cmask),
                    cochain_h.label(one, cmask),
                    [(k, u, cochain_h.label(k, u)) for k, u in entries],
                    gram,
                )
    pairs = ((1 << kd) - (1 << (kd - rank(pairing)))) << (cd - 1)
    return DualityFailure(
        "no (kappa, c, complement) choice yields a symmetric nondegenerate pairing",
        pairs,
        pairs * limit,
    )
