"""Truncated bar complexes and order-n linearized cohomology.

The order-n complex of an A-infinity structure is spanned by tensor words
of length 1..n; the differential applies every operation m_j to every
window of consecutive letters.  Outputs never exceed the length bound, so
no truncation happens on this side.  Dually, the tensor algebra truncated
at word length n carries the Leibniz expansion of the twisted differential
with long words dropped; the two matrices must be transposes of each
other, and ``order_n_cohomology`` asserts that entry for entry on every
run before reducing.

Two engines are available, and both are one construction, the window
matrix, applied to two structures: the dense engine builds it on the adjoint
structure itself, over words of generators; the perturbation engine
builds it on the ring's transferred minimal model, over words of
cohomology classes (Perturbation, below).  Either way its d d = 0 is read
from that structure's A-infinity relations up to arity n (Square zero),
and the dimensions are dim_k = |basis_k| - rank d_k - rank d_(k-1), read
off ranks with no word labels; the homology retract of the order-n
complex, with labelled representatives, is built only on demand.

The transpose check and the window matrix are built from (letter, term)
triples instead of expanding word by word.  Index both matrices by a
column word w and a row word v (Leibniz: w -> v, window: v -> w).  Then:

* Triples.  The Leibniz image of w is the sum over positions of
  w[:i] . d(w[i]) . w[i+1:], long words dropped, so the (w, v) entry is
  the parity of the triples (h, (g, t), tl) with w = h.g.tl, v = h.t.tl,
  t a term of the twisted d(g) and |h| + |t| + |tl| <= n.  The window
  image of v is the sum over windows v[i:i+j] = t of v[:i] . m_j(t) .
  v[i+j:], so its (w, v) entry is the parity of the same shape of triple
  with g in m_|t|(t) and |v| <= n.  Both sides are therefore GF(2) sums
  of triples; twisted differentials have no constant term, so |t| >= 1
  and every column word has length |h| + 1 + |tl| <= n.
* Codes.  A word of length L over |V| letters codes as off[L] plus its
  base-|V| value, off[L] = |V| + ... + |V|^(L-1): a bijection onto
  [0, M), M the number of words, increasing in the canonical
  length-major lexicographic order.  An entry codes as col * M + row.
  For fixed (g, t, |h|, |tl|) the row word codes as r0 + H |V|^(|t|+|tl|)
  + Z and the column word as c0 + H |V|^(|tl|+1) + Z over the base-|V|
  values H of the head and Z of the tail: a fixed head runs both through
  contiguous ranges of tails, a fixed tail both through progressions of
  heads, and distinct (H, Z) give distinct words.  So each head (or tail)
  XORs one slice of column-word bits into one slice of row-word columns,
  the GF(2) sum of those triples.
* Pairs.  Write F(P) for the GF(2) sum of the triples of a set P of
  pairs (g, t), |t| <= n: F is linear in P (symmetric difference), the
  Leibniz matrix is F(P_Leibniz) and the window matrix F(P_window).  F is
  injective: a triple with a one-letter column word g has h and tl empty,
  so the (g, t) entry of F(Q) is 1 exactly when (g, t) is in Q.  So the
  matrices are equal exactly when the pair sets are.  These are the pairs
  with |t| <= n of the full sets (every term of d(g), every table entry),
  so equal full sets give equal matrices at every order:
  ``check_order_n_transpose`` compares the full sets once per ring, which
  also rejects a one-sided pair longer than n, and names the smallest
  differing pair in code order (letter, term length, term); one-letter
  columns code first, so with |t| <= n it is the smallest differing entry
  of the matrices.  Reversal conjugation maps the triple h.g.tl -> h.t.tl
  to rev tl.g.rev h -> rev tl.rev t.rev h, so rev d rev = F(rev P) with
  rev P = {(g, rev t)}, and rev d rev = d_mirror holds on every word of
  length <= n exactly when it holds on the one-letter words.  Neither
  argument uses |t| >= 1.
* Count.  The nonzero entries of F(P) are counted from P alone.  Let
  W(k) = sum_{m=0..k} (m + 1) |V|^m, the (head, tail) pairs with
  |h| + |tl| <= k.  An entry carrying c triples is nonzero when c is odd,
  and [c odd] = sum_{k>=1} (-2)^(k-1) C(c, k) (expand (1 - 2)^c), so the
  count sums (-2)^(k-1) over the k-sets of triples on a common entry.
  k = 1 gives sum_P W(n - |t|).  Triples on one entry share its row
  length, so |t| = L for all of them.  Two at column positions i < j are
  (h, (g, t), u.g'.tl') and (h.g.u, (g', t'), tl') with t.u.g' = g.u.t'
  for the middle word u: a core, with column cc = g.u.g' and row
  rc = t.u.g', the entry being (h.cc.tl, h.rc.tl) for any h, tl with
  |h| + |rc| + |tl| <= n.  A k-set, k >= 2, is its outermost two triples
  (a core, a head and a tail) plus any subset of the other positions of
  cc carrying a triple of (cc, rc); with s such positions in all, the
  subsets add -2 (1 - 2)^(s - 2) = -2 (-1)^s.  Hence
      count = sum_P W(n - |t|) - 2 sum_cores (-1)^s W(n - |rc|).
  Cores: t.u.g' = g.u.t' forces t[0] = g.  For L >= 2, X = t.u.g' has
  X[1 + i] = X[L + i] for i < |u|, so X[1:] has period L - 1: u and t'
  less its last letter g' are rotations of t[1:] fixed by |u|, and only
  (g', t') is looked up in P.  For L = 1 the pairs are (g, (g)) and
  (g', (g')), which need deg g = deg g - 1, a modulus-1 grading; then
  cc = rc = g.u.g' with u free and s the number of letters of cc in
  S = {g : (g, (g)) in P}.  With sigma = |S|, the u of length m add
  sigma^2 (|V| - 2 sigma)^m, so these cores give
  -2 sigma^2 sum_{m=0..n-2} (|V| - 2 sigma)^m W(n - m - 2).
* Homogeneity.  By additivity of degree, deg(h.t.tl) - deg(h.g.tl) =
  deg t - deg g, so every output word has degree one below its column
  word exactly when every contributing pair has deg t = deg g - 1.  Each
  pair with |t| <= n contributes the uncancelled entry (g, t) itself
  (see Pairs), so checking once per pair is equivalent to checking every
  output word.
* Perturbation.  Let (i, p, h) be the homology retract of (V, m_1).  The
  tensor trick contracts the order-n complex of (V, m_1) onto words of
  classes with the homotopy sum_r (i p)^(x r) x h x 1 (heads i p, the
  middle h, an identity tail).  The windows with j >= 2 shorten words, so
  the perturbation lemma's series terminates, and the perturbed
  differential is the bar differential of the structure transferred
  along (i, p, h), truncated at length n (Kadeishvili 1980;
  Huebschmann-Kadeishvili 1991; Markl 2006, Transferring A-infinity
  structures).  So the perturbation engine is the window matrix of
  ``ring.minimal(max(n, 2))``; its d d = 0 is the minimal model's
  A-infinity relations up to arity n (Square zero), and every transfer
  verifies its retract and its mu_2 against the cup product.
* Square zero.  The window differential only shortens words, so nothing
  is truncated.  A term of d d(w) applies a window W1 of w, then a window
  of the result.  If that second window misses W1's output letter, it is
  a window W2 of w disjoint from W1, and applying W2 first gives the same
  word: these terms cancel in pairs over GF(2).  Every output is one
  letter, so each other term is h.m(x, m(W1), y).tl with W = x.W1.y a
  window of w = h.W.tl.  Hence d d(w) is the sum over windows W of w of
  h.R(W).tl, R the arity-|W| relation sum m(1 x m x 1).  Only W = w gives
  a one-letter word, so the one-letter part of d d(w) is R(w), and d d =
  0 on words of length <= n exactly when R_l = 0 for every l <= n.
  ``_window_matrix``, behind both engines, ``tilde_complex`` and
  ``tilde_of_morphism``, decides that on the tables with
  ``check_an_relations(s, n)``, also above the arity ``build_ring`` checks.
  That is the only d d = 0 check on a window matrix: ``linear._retract``
  reduces it without squaring it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, groupby, product as iproduct
from operator import xor
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .algebra import DGA, assert_valid, canon_degree, mirror_dga
from .augment import enumerate_augmentations
from .ainfty import (
    AInftyMorphism,
    AInftyStructure,
    CohomologyRing,
    _compositions,
    basis_classes,
    build_ring,
    check_ainfty_morphism,
    check_an_relations,
)
from .gf2 import apply_cols, bits, rank
from .linear import GradedMatrixMap, HomologyData, _retract

__all__ = [
    "DENSE_LIMIT",
    "MAX_ORDER",
    "SPLITTING_CONVENTION",
    "OrderNCohomology",
    "ReflectionReport",
    "ReflectionRow",
    "SplittingReport",
    "SplittingRow",
    "TildeChainMap",
    "TildeComplex",
    "check_order_n_transpose",
    "order_n_cohomology",
    "reflection_compare",
    "splitting_check_n2",
    "tilde_complex",
    "tilde_of_morphism",
]

MAX_ORDER = 4
DENSE_LIMIT = 20000


def _check_order(n: int) -> None:
    if n < 1:
        raise ContractError("order must be at least 1")
    if n > MAX_ORDER:
        raise ContractError("order %d exceeds the budget MAX_ORDER = %d" % (n, MAX_ORDER))


class _Letters:
    """Integer re-encoding of a structure's basis letters."""

    def __init__(self, s: AInftyStructure):
        self.labels: List[str] = sorted(s.order, key=s.order.get)
        self.index: Dict[str, int] = {lbl: i for i, lbl in enumerate(self.labels)}
        self.degree: List[int] = [s.degree_of[lbl] for lbl in self.labels]
        self.by_degree: Dict[int, Tuple[int, ...]] = {
            k: tuple(self.index[x] for x in names) for k, names in s.basis.items()
        }

    def word_label(self, word: Tuple[int, ...]) -> str:
        return "|".join(self.labels[g] for g in word)


def _word_codes(
    degrees: Sequence[int], n: int, modulus: int
) -> Tuple[Dict[int, List[int]], List[int]]:
    """Each degree's word codes (``_Codes``), ascending: the canonical word order,
    degrees in order of their first word.  Also, indexed by code, the word's
    bit 1 << (its place in its degree's group)."""
    degree: List[int] = []
    layer = [0]
    for _ in range(n):
        layer = [d + e for d in layer for e in degrees]
        degree += layer
    if modulus:
        degree = [d % modulus for d in degree]  # canon_degree
    # A stable sort keeps each degree's codes ascending.
    order = sorted(range(len(degree)), key=degree.__getitem__)
    runs = [list(codes) for _, codes in groupby(order, key=degree.__getitem__)]
    groups = {degree[codes[0]]: codes for codes in sorted(runs)}
    unit = [1 << i for i in range(max(map(len, runs), default=0))]
    bit = [0] * len(degree)
    for codes in runs:
        for code, u in zip(codes, unit):
            bit[code] = u
    return groups, bit


def _spelled(letters: Sequence, n: int) -> List[tuple]:
    """Every word of length 1..n over ``letters``, indexed by its code."""
    return [w for a in range(1, n + 1) for w in iproduct(letters, repeat=a)]


def _words_by_degree(
    degrees: Sequence[int], n: int, modulus: int
) -> Dict[int, List[Tuple[int, ...]]]:
    """All words of length 1..n over range(len(degrees)), grouped as ``_word_codes``."""
    groups = _word_codes(degrees, n, modulus)[0]
    spelled = _spelled(range(len(degrees)), n)
    return {k: [spelled[c] for c in codes] for k, codes in groups.items()}


class _Codes:
    """Words of length 1..n over ``size`` letters, coded as ints.

    A word of length L codes as ``off[L]`` plus its base-``size`` value, so
    codes 0..total-1 run through the canonical length-major lexicographic
    order of all words.
    """

    def __init__(self, size: int, n: int):
        self.size = size
        self.n = n
        self.off = [0, 0]
        for length in range(1, n + 1):
            self.off.append(self.off[-1] + size**length)
        self.total = self.off[n + 1]


Pair = Tuple[str, Tuple[str, ...]]


def _code_order(s: AInftyStructure):
    """Sort key of (letter, term) pairs: letter, term length, term, in ``s.order``."""
    return lambda pair: (s.order[pair[0]], len(pair[1]), [s.order[x] for x in pair[1]])


def _check_homogeneous(s: AInftyStructure, side: str, pairs) -> None:
    """Homogeneity of every pair: deg t = deg g - 1; names the first failure in code order."""
    degree_of, modulus = s.degree_of, s.modulus

    def up(t):  # the degree of m_|t|(t)
        return canon_degree(modulus, sum(map(degree_of.__getitem__, t)) + 1)
    bad = [(g, t) for g, t in pairs if up(t) != degree_of[g]]
    if bad:
        g, t = min(bad, key=_code_order(s))
        image, source, want = (t, (g,), degree_of[g] - 1) if side == "Leibniz" else ((g,), t, up(t))
        raise InternalConsistencyError(
            "%s image %s of %s is not homogeneous of degree %d"
            % (side, "|".join(image), "|".join(source), canon_degree(modulus, want))
        )


def _twisted_pairs(twisted: DGA, s: AInftyStructure) -> set:
    """(g, t) for every term t of the twisted differential d(g), at every length."""
    for g in s.order:
        if () in twisted.d(g):
            raise InternalConsistencyError("twisted differential of %s has a constant term" % g)
    pairs = {(g, t) for g in s.order for t in twisted.d(g)}
    _check_homogeneous(s, "Leibniz", pairs)
    return pairs


def _window_pairs(s: AInftyStructure) -> FrozenSet[Pair]:
    """(g, t) for every letter g in m_|t|(t), at every arity."""
    return frozenset(
        (s.names(s.out_degree(t))[i], t)
        for table in s.tables.values() for t, vec in table.items() for i in bits(vec)
    )


def _xor_triples(flat: List[int], bit: List[int], pairs, codes: _Codes) -> None:
    """Add over GF(2) the entry of every triple into the row words' columns.

    A pair (g, t) with a head h and a tail tl, |h| + |t| + |tl| <= n, is
    the entry of column word h.g.tl in the image of row word h.t.tl:
    ``bit`` of the column's code is XORed into ``flat`` at the row's code.
    For fixed (g, t, |h|, |tl|) both codes step by one per tail and by a
    fixed stride per head (Codes), so each head (or each tail, whichever
    loop is shorter) is one slice XOR.
    """
    size, n, off = codes.size, codes.n, codes.off
    for g, t in pairs:
        lt = len(t)
        value = 0
        for x in t:
            value = value * size + x
        for a in range(n - lt + 1):
            heads = size**a
            for b in range(n - lt - a + 1):
                tails = size**b
                row, col = off[a + lt + b] + value * tails, off[a + 1 + b] + g * tails
                rstride, cstride = size**lt * tails, size * tails
                if heads >= tails:  # one slice per tail, strided over the heads
                    starts = [(row + z, col + z) for z in range(tails)]
                    count, rstep, cstep = heads, rstride, cstride
                else:  # one contiguous slice of tails per head
                    starts = [(row + h * rstride, col + h * cstride) for h in range(heads)]
                    count, rstep, cstep = tails, 1, 1
                for r, c in starts:
                    rows = slice(r, r + count * rstep, rstep)
                    flat[rows] = map(xor, flat[rows], bit[c : c + count * cstep : cstep])


def _entry_count(pairs: FrozenSet[Pair], size: int, n: int) -> int:
    """Nonzero entries of F(P) over ``size`` letters at order n (Count), P the
    pairs in ``pairs`` with |t| <= n.

    The triples count sum_P W(n - |t|); each core (g, t, u, g', t') takes
    away 2 (-1)^s W(n - |rc|), and the cores of one-letter terms (g, (g))
    are summed in closed form.  Only equality and slicing of letters is used.
    """
    weights = list(accumulate((m + 1) * size**m for m in range(n + 1)))
    ends: Dict[Tuple[str, ...], List[str]] = {}  # t' less g' -> letters g' ending t'
    for g, t in pairs:
        if t[-1] == g and len(t) < n:
            ends.setdefault(t[:-1], []).append(g)
    count = sum(weights[n - len(t)] for _, t in pairs if len(t) <= n)
    sigma = 0
    for g, t in pairs:
        length = len(t)
        if t[0] != g:
            continue
        if length == 1:
            sigma += 1
            continue
        rest = t[1:]
        for m in range(n - length):
            middle = tuple(rest[i % (length - 1)] for i in range(m))
            prefix = tuple(rest[(m + i) % (length - 1)] for i in range(length - 1))
            for last in ends.get(prefix, ()):
                cc = (g,) + middle + (last,)
                rc = t + middle + (last,)
                s = sum(
                    1
                    for p in range(len(cc))
                    if cc[:p] == rc[:p]
                    and cc[p + 1 :] == rc[p + length :]
                    and (cc[p], rc[p : p + length]) in pairs
                )
                count -= 2 * (-1) ** s * weights[n - len(rc)]
    free = size - 2 * sigma
    count -= 2 * sigma * sigma * sum(free**m * weights[n - m - 2] for m in range(n - 1))
    return count


@dataclass
class TildeComplex:
    """Tensor words of length 1..n with the windowed differential (degree +1)."""

    structure: AInftyStructure
    order: int
    words: Dict[int, Tuple[Tuple[str, ...], ...]]
    differential: GradedMatrixMap

    def dims(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.words.items()) if v}

    def total_dim(self) -> int:
        return sum(len(v) for v in self.words.values())


def _window_matrix(
    s: AInftyStructure, letters: _Letters, pairs, n: int, entries: Optional[int] = None
) -> GradedMatrixMap:
    """The order-n window differential on word codes, built from the (letter,
    term) pairs of ``s``, which the caller has checked homogeneous.  Asserts
    d d = 0 through the A-infinity relations of ``s`` up to arity n (Square
    zero, in the module docstring) and, when given, the number of nonzero
    entries."""
    report = check_an_relations(s, n)
    if not report.ok:
        raise InternalConsistencyError(
            "order-%d differential does not square to zero: %s" % (n, report.detail)
        )
    code = letters.index.__getitem__
    coded = [(code(g), tuple(map(code, t))) for g, t in pairs if len(t) <= n]
    groups, bit = _word_codes(letters.degree, n, s.modulus)
    flat = [0] * len(bit)  # by row word code: its column, over the target degree's places
    _xor_triples(flat, bit, coded, _Codes(len(letters.labels), n))
    if entries is not None:
        found = sum(map(int.bit_count, flat))
        if found != entries:
            raise InternalConsistencyError(
                "order-%d window matrix has %d nonzero entries, its pairs count %d"
                % (n, found, entries)
            )
    cols = {k: list(map(flat.__getitem__, codes)) for k, codes in groups.items()}
    return GradedMatrixMap(s.modulus, 1, groups, cols)


def tilde_complex(s: AInftyStructure, n: int) -> TildeComplex:
    """Materialize the order-n complex of a structure.

    Word labels join their letters with "|".  The differential sends a word
    to the sum over all windows of consecutive letters of replacing the
    window by its operation image; its entries come from the same
    (letter, term) triples as the window side of the transpose check.
    Homogeneity and squaring to zero (through the relations up to arity
    n) are asserted.
    """
    _check_order(n)
    letters = _Letters(s)
    pairs = _window_pairs(s)
    _check_homogeneous(s, "window", pairs)
    window = _window_matrix(s, letters, pairs, n)
    spelled = _spelled(letters.labels, n)
    words = {k: tuple(spelled[c] for c in cs) for k, cs in window.basis.items()}
    basis = {k: tuple("|".join(w) for w in ws) for k, ws in words.items()}
    return TildeComplex(s, n, words, replace(window, basis=basis))


def _ring_pairs(ring: CohomologyRing, n: int) -> FrozenSet[Pair]:
    """The window side's (letter, term) pairs, once they equal the Leibniz side's at
    every term length: compared once per ring and kept as ``ring.pairs`` (``n``
    only names the order in a failure, which reports the smallest differing pair)."""
    if ring.pairs is None:
        s = ring.structure
        leibniz = _twisted_pairs(ring.twisted, s)
        window = _window_pairs(s)
        _check_homogeneous(s, "window", window - leibniz)  # the rest passed as Leibniz pairs
        differ = leibniz ^ window
        if differ:
            g, t = min(differ, key=_code_order(s))
            raise InternalConsistencyError(
                "order-%d transpose equality fails: only the %s side has the entry (%s -> %s)"
                % (n, "Leibniz" if (g, t) in leibniz else "window", g, "|".join(t))
            )
        ring.pairs = window
    return ring.pairs


def check_order_n_transpose(ring: CohomologyRing, n: int) -> int:
    """Assert the order-n differential is the Leibniz expansion's transpose.

    The tensor algebra truncated at word length n carries the Leibniz
    expansion of ``ring.twisted`` (degree -1, long outputs dropped), read
    from d(g) itself and never from the structure's tables; its matrix must
    be, entry for entry, the transpose of the window differential of
    ``ring.structure``.  They are equal exactly when their (letter, term)
    pair sets are, and the full pair sets, compared once per ring, cover
    every order (Pairs, in the module docstring); a discrepancy is an
    internal error naming the side and the smallest offending pair.  The
    checked set is kept as ``ring.pairs``, which the dense engine builds
    its window matrix from.  Orders above ``MAX_ORDER`` are refused.
    Returns the number of nonzero entries of the window matrix, in closed
    form from the pairs (Count): the work is over pairs and letters, never
    over words.
    """
    _check_order(n)
    return _entry_count(_ring_pairs(ring, n), len(ring.structure.order), n)


@dataclass
class OrderNCohomology:
    """Graded dimensions and representatives of order-n cohomology.

    ``engine`` records which structure's window complex was reduced:
    "dense" the adjoint structure (representatives are words of
    generators), "perturbation" the transferred minimal model (words of
    cohomology classes); ``structure`` is that structure.  ``data``, the
    homology of its complex, is rebuilt on first use through
    ``tilde_complex``, which reads and checks the structure's pairs itself
    and asserts d d = 0 through the relations (Square zero), and is reduced
    by ``linear._retract`` without squaring the matrix again;
    ``complex_dim`` is the dimension of the order-n word space of the
    generators, and ``transpose_entries`` counts the nonzero entries of the
    window matrix, which the transpose check proved equal to the Leibniz one.
    """

    order: int
    engine: str
    dims: Dict[int, int]
    complex_dim: int
    transpose_entries: int
    structure: AInftyStructure = field(repr=False, compare=False)

    @cached_property
    def data(self) -> HomologyData:
        return _retract(tilde_complex(self.structure, self.order).differential)

    def representatives(self, k: int) -> List[str]:
        return [self.data.label(k, 1 << i) for i in range(self.data.dim(k))]


def order_n_cohomology(ring: CohomologyRing, n: int, engine: str = "auto") -> OrderNCohomology:
    """Order-n linearized cohomology of the augmented DGA behind a ring.

    Always verifies the transpose equality between the window differential
    and the truncated Leibniz differential before reducing, through
    ``check_order_n_transpose``: one pair comparison per ring covers every
    order, and the window matrix's nonzero entries are counted from the
    pairs on every call.  The dense engine builds that matrix on
    ``ring.structure`` from the checked ``ring.pairs`` and asserts the
    count; the perturbation engine reads and checks the pairs of the
    minimal model ``ring.minimal(max(n, 2))`` and builds its window matrix
    (Perturbation, in the module docstring).
    Either asserts d d = 0 through its structure's A-infinity relations up
    to arity n (Square zero), also above the arity ``build_ring`` checks.
    The "auto" engine is dense up to ``DENSE_LIMIT`` words of length <= n.
    Dimensions come from ranks (``GradedMatrixMap.homology_dims``), with no
    retract and no word labels.  Each DGA's contents are validated once per
    process (``assert_valid``'s bounded memo, shared with loading).  Orders
    above the budget ``MAX_ORDER`` raise ``ContractError``.
    """
    _check_order(n)
    if engine not in ("auto", "dense", "perturbation"):
        raise ContractError("engine must be 'auto', 'dense' or 'perturbation'")
    size = len(ring.dga.generators)
    total = sum(size**a for a in range(1, n + 1))
    if engine == "auto":
        engine = "dense" if total <= DENSE_LIMIT else "perturbation"
    assert_valid(ring.dga)
    entries = check_order_n_transpose(ring, n)
    if engine == "dense":
        structure, pairs, count = ring.structure, ring.pairs, entries
    else:
        structure, count = ring.minimal(max(n, 2))[0], None
        pairs = _window_pairs(structure)
        _check_homogeneous(structure, "window", pairs)
    built = _window_matrix(structure, _Letters(structure), pairs, n, count)
    return OrderNCohomology(n, engine, built.homology_dims(), total, entries, structure)


@dataclass
class TildeChainMap:
    """Degree-0 chain map between the order-n complexes of two structures."""

    source: TildeComplex
    target: TildeComplex
    blocks: Dict[int, List[int]]

    def apply(self, k: int, vec: int) -> int:
        k = self.source.differential.canon(k)
        return apply_cols(self.blocks.get(k, []), vec)

    def induced_ranks(self) -> Dict[int, Tuple[int, int, int]]:
        """Per degree: (source homology dim, target homology dim, map rank).

        Both complexes come from ``tilde_complex``, whose ``_window_matrix``
        proved d d = 0 through the relations (Square zero), so they are
        reduced by ``linear._retract`` without squaring them again."""
        hs = _retract(self.source.differential)
        ht = _retract(self.target.differential)
        out: Dict[int, Tuple[int, int, int]] = {}
        for k in sorted(set(hs.degrees()) | set(ht.degrees())):
            images = [self.apply(k, hs.include(k, 1 << i)) for i in range(hs.dim(k))]
            out[k] = (hs.dim(k), ht.dim(k), rank(ht.class_of(k, v) for v in images))
        return out

    def is_quasi_iso(self) -> bool:
        return all(a == b == r for a, b, r in self.induced_ranks().values())


def tilde_of_morphism(f: AInftyMorphism, n: int) -> TildeChainMap:
    """Chain map on order-n complexes induced by an A-infinity morphism.

    The block from length-a words to length-r words sums f_{i_1} x ... x
    f_{i_r} over all compositions i_1 + ... + i_r = a.  The morphism
    equation is re-checked up to arity n first (failure rejects the
    input), and F d_src = d_dst F is asserted on the window matrices, one
    source word (column) at a time.
    """
    _check_order(n)
    if f.src is None or f.dst is None:
        raise ContractError("morphism does not carry source and target structures")
    if f.src.modulus != f.dst.modulus:
        raise ContractError("source and target structures use different moduli")
    report = check_ainfty_morphism(f, f.src, f.dst, n)
    if not report.ok:
        raise ContractError(report.detail)
    source = tilde_complex(f.src, n)
    target = tilde_complex(f.dst, n)
    sletters = _Letters(f.src)
    dletters = _Letters(f.dst)
    ftab: Dict[int, Dict[Tuple[int, ...], Tuple[int, ...]]] = {}
    for a in sorted(f.tables):
        if a > n:
            continue
        enc: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for args, vec in f.tables[a].items():
            k = canon_degree(f.src.modulus, sum(f.src.degree_of[x] for x in args))
            row = dletters.by_degree.get(k, ())
            enc[tuple(sletters.index[x] for x in args)] = tuple(row[i] for i in bits(vec))
        ftab[a] = enc

    def image(word: Tuple[int, ...]) -> set:
        out: set = set()
        for r in range(1, len(word) + 1):
            for comp in _compositions(len(word), r):
                lists = []
                start = 0
                for c in comp:
                    hits = ftab.get(c, {}).get(word[start : start + c])
                    if not hits:
                        lists = None
                        break
                    lists.append(hits)
                    start += c
                if lists is None:
                    continue
                out.symmetric_difference_update(iproduct(*lists))
        return out

    groups = _words_by_degree(sletters.degree, n, f.src.modulus)
    dst_words = _words_by_degree(dletters.degree, n, f.dst.modulus).items()
    dst_index = {w: (k, i) for k, ws in dst_words for i, w in enumerate(ws)}
    blocks: Dict[int, List[int]] = {}
    for k, ws in groups.items():
        kcols = []
        for w in ws:
            vec = 0
            for v in image(w):
                spot = dst_index.get(v)
                if spot is None or spot[0] != k:
                    raise InternalConsistencyError(
                        "image of the degree-%d word %s leaves that degree"
                        % (k, sletters.word_label(w))
                    )
                vec ^= 1 << spot[1]
            kcols.append(vec)
        blocks[k] = kcols
    d_src, d_dst = source.differential, target.differential
    for k, ws in groups.items():
        after = blocks.get(d_src.canon(k + 1), [])
        for w, down, across in zip(ws, d_src.columns(k), blocks[k]):
            if apply_cols(after, down) != d_dst.apply(k, across):
                raise InternalConsistencyError(
                    "induced map fails to commute with the differentials on %s"
                    % sletters.word_label(w)
                )
    return TildeChainMap(source, target, blocks)


SPLITTING_CONVENTION = (
    "dim H^k(order 2) = dim ker(mu_2 on the degree-k part of H (x) H)"
    " + dim H^k - rank(mu_2 from the degree-(k-1) part of H (x) H);"
    " degrees follow the long exact sequence of the length-1 subcomplex"
)


@dataclass
class SplittingRow:
    degree: int
    order2_dim: int
    kernel_dim: int
    homology_dim: int
    image_dim: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.order2_dim == self.expected


@dataclass
class SplittingReport:
    convention: str
    rows: List[SplittingRow]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def splitting_check_n2(ring: CohomologyRing) -> SplittingReport:
    """Check the order-2 splitting against the cup product, degree by degree.

    Length-1 words form a subcomplex of the order-2 complex with quotient
    the length-2 words; the connecting map of the resulting long exact
    sequence is the cup product on the tensor square of cohomology.  The
    order-2 dimensions must therefore split as recorded in the report's
    convention string.
    """
    order2 = order_n_cohomology(ring, 2)
    h = ring.cochain
    classes = [c for k in h.degrees() for c in basis_classes(h, k)]
    cup_cols: Dict[int, List[int]] = {}
    for value in (ring.products.cup(x, y) for x in classes for y in classes):
        cup_cols.setdefault(h.canon(value.degree - 1), []).append(value.coords)
    kernel: Dict[int, int] = {}
    image: Dict[int, int] = {}
    for kk, cols in cup_cols.items():
        r = rank(cols)
        kernel[kk] = len(cols) - r
        image[kk] = r
    degrees = sorted(
        set(order2.dims)
        | set(h.dims())
        | {kk for kk, v in kernel.items() if v}
        | {h.canon(kk + 1) for kk, v in image.items() if v}
    )
    rows = []
    for k in degrees:
        kr = kernel.get(k, 0)
        hd = h.dim(k)
        im = image.get(h.canon(k - 1), 0)
        rows.append(SplittingRow(k, order2.dims.get(k, 0), kr, hd, im, kr + hd - im))
    return SplittingReport(SPLITTING_CONVENTION, rows)


@dataclass
class ReflectionRow:
    augmentation: str
    dims: Dict[int, int]
    mirror_dims: Dict[int, int]

    @property
    def ok(self) -> bool:
        return self.dims == self.mirror_dims


@dataclass
class ReflectionReport:
    order: int
    rows: List[ReflectionRow]
    conjugation_words: int

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _check_reflection_conjugation(twisted: DGA, twisted_mirror: DGA, n: int) -> int:
    """Verify rev(d(w)) = d_mirror(rev(w)) on every word of length <= n.

    Both truncated Leibniz differentials are F of their (letter, term) pairs
    and reversal conjugation sends F(P) to F(rev P), with F injective (Pairs,
    in the module docstring), so the identity holds on every word exactly
    when it holds on the one-letter words: d_mirror(g) = rev d(g) up to
    terms of length n.  Returns the number of words it covers.
    """
    for g in twisted.generators:
        left = {w[::-1] for w in twisted.d(g) if len(w) <= n}
        if left != {w for w in twisted_mirror.d(g) if len(w) <= n}:
            raise InternalConsistencyError("reflection conjugation fails on %s" % g)
    size = len(twisted.generators)
    return sum(size**length for length in range(1, n + 1))


def reflection_compare(dga: DGA, n: int) -> ReflectionReport:
    """Compare order-n dimensions of a DGA and its mirror, per augmentation.

    An augmentation of the knot serves the mirror unchanged, because the
    value of a reversed word is the same product of values.  Besides
    computing both sides, the word-reversal conjugation identity between
    the two truncated Leibniz differentials is checked on every word of
    length <= n for every augmentation, through the one-letter words.
    """
    _check_order(n)
    mirror = mirror_dga(dga)
    rows: List[ReflectionRow] = []
    words = 0
    for aug in enumerate_augmentations(dga):
        ring, mirror_ring = build_ring(dga, aug), build_ring(mirror, aug)
        left = order_n_cohomology(ring, n)
        right = order_n_cohomology(mirror_ring, n)
        words += _check_reflection_conjugation(ring.twisted, mirror_ring.twisted, n)
        rows.append(ReflectionRow(aug.describe(), left.dims, right.dims))
    return ReflectionReport(n, rows, words)
