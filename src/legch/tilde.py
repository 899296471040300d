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
cohomology classes (Perturbation, below).  Either way the dimensions are
dim_k = |basis_k| - rank d_k - rank d_(k-1), read off ranks with no word
labels; the homology retract of the order-n complex, with labelled
representatives, is built only on demand.

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
  For fixed (g, t, |h|, |tl|) the entry codes are base + H * (|V|^(|tl|+1)
  * M + |V|^(|t|+|tl|)) + Z * (M + 1) over the base-|V| values H of the
  head and Z of the tail; distinct (H, Z) give distinct codes, so each
  head (or tail) adds one arithmetic progression without repeats, and
  toggling it in a set is the GF(2) sum of those triples.
* Pairs.  Write F(P) for the GF(2) sum of the triples of a set P of
  pairs (g, t), |t| <= n: F is linear in P (symmetric difference), the
  Leibniz matrix is F(P_Leibniz) and the window matrix F(P_window).  F is
  injective: a triple with a one-letter column word g has h and tl empty,
  so the (g, t) entry of F(Q) is 1 exactly when (g, t) is in Q.  So the
  matrices are equal exactly when the pair sets are, and on a mismatch
  the smallest differing pair in code order (letter, term length, term)
  is the smallest differing entry of the full matrices (one-letter
  columns code first).  Reversal
  conjugation maps the triple h.g.tl -> h.t.tl to rev tl.g.rev h ->
  rev tl.rev t.rev h, so rev d rev = F(rev P) with rev P = {(g, rev t)},
  and rev d rev = d_mirror holds on every word of length <= n exactly when
  it holds on the one-letter words.  Neither argument uses |t| >= 1.
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
  ``ring.minimal(max(n, 2))``; its d d = 0, asserted there, is the
  minimal model's A-infinity relations on words of length <= n, and every
  transfer verifies its retract and its mu_2 against the cup product.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .algebra import DGA, assert_valid, canon_degree, dga_key, mirror_dga
from .augment import enumerate_augmentations
from .ainfty import (
    AInftyMorphism,
    AInftyStructure,
    CohomologyRing,
    _compositions,
    basis_classes,
    build_ring,
    check_ainfty_morphism,
)
from .gf2 import apply_cols, bits, rank
from .linear import GradedMatrixMap, HomologyData, homology

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
# Entries kept by the in-process order-n cache and by the memo of validated
# DGA contents, least recently used first out.
_ORDER_CACHE_SIZE = 64


def _check_order(n: int, max_order: int) -> None:
    if n < 1:
        raise ContractError("order must be at least 1")
    if n > max_order:
        raise ContractError(
            "order %d exceeds the cap %d; pass a larger max_order to override"
            % (n, max_order)
        )


class _Letters:
    """Integer re-encoding of a structure's basis letters and sparse tables."""

    def __init__(self, s: AInftyStructure):
        self.labels: List[str] = sorted(s.order, key=s.order.get)
        self.index: Dict[str, int] = {lbl: i for i, lbl in enumerate(self.labels)}
        self.degree: List[int] = [s.degree_of[lbl] for lbl in self.labels]
        self.by_degree: Dict[int, Tuple[int, ...]] = {
            k: tuple(self.index[x] for x in names) for k, names in s.basis.items()
        }
        self.windows: Dict[int, Dict[Tuple[int, ...], Tuple[int, ...]]] = {}
        for j in sorted(s.tables):
            table: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
            for args, vec in s.tables[j].items():
                out = self.by_degree[s.out_degree(args)]
                key = tuple(self.index[x] for x in args)
                table[key] = tuple(out[i] for i in bits(vec))
            self.windows[j] = table

    def word_label(self, word: Tuple[int, ...]) -> str:
        return "|".join(self.labels[g] for g in word)


def _word_codes(
    degrees: Sequence[int], n: int, modulus: int
) -> Tuple[Dict[int, List[int]], List[int], List[int]]:
    """Each degree's word codes (``_Codes``), ascending: the canonical word order.
    Also, indexed by code, each word's degree and place in its degree's group."""
    degree: List[int] = []
    layer = [0]
    for _ in range(n):
        layer = [canon_degree(modulus, d + e) for d in layer for e in degrees]
        degree += layer
    groups: Dict[int, List[int]] = {}
    place: List[int] = []
    for code, k in enumerate(degree):
        codes = groups.setdefault(k, [])
        place.append(len(codes))
        codes.append(code)
    return groups, degree, place


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


def _toggle(out: set, word: Tuple[int, ...]) -> None:
    if word in out:
        out.discard(word)
    else:
        out.add(word)


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


def _check_pair_degree(letters: _Letters, modulus: int, side: str, g: int, t) -> None:
    """Homogeneity of one (letter, term) pair: deg t = deg g - 1."""
    deg_t = sum(letters.degree[x] for x in t)
    if canon_degree(modulus, deg_t) == canon_degree(modulus, letters.degree[g] - 1):
        return
    if side == "Leibniz":
        image, source, want = t, (g,), letters.degree[g] - 1
    else:
        image, source, want = (g,), t, deg_t + 1
    raise InternalConsistencyError(
        "%s image %s of %s is not homogeneous of degree %d"
        % (side, letters.word_label(image), letters.word_label(source),
           canon_degree(modulus, want))
    )


def _twisted_pairs(twisted: DGA, letters: _Letters, modulus: int, n: int):
    """(g, t) for every term t of the twisted differential d(g) with |t| <= n."""
    pairs = []
    for g, lbl in enumerate(letters.labels):
        for w in twisted.sorted_terms(twisted.d(lbl)):
            t = tuple(letters.index[x] for x in w)
            if not t:
                raise InternalConsistencyError(
                    "twisted differential of %s has a constant term" % lbl
                )
            if len(t) <= n:
                _check_pair_degree(letters, modulus, "Leibniz", g, t)
                pairs.append((g, t))
    return pairs


def _window_pairs(letters: _Letters, modulus: int, n: int):
    """(g, t) for every letter g in m_|t|(t) with |t| <= n."""
    pairs = []
    for j, table in letters.windows.items():
        if j > n:
            continue
        for t, hits in table.items():
            for g in hits:
                _check_pair_degree(letters, modulus, "window", g, t)
                pairs.append((g, t))
    return pairs


def _toggle_triples(out: set, pairs, codes: _Codes, lo: int, hi: int) -> None:
    """Add over GF(2) the entries of every triple whose column starts in [lo, hi).

    A pair (g, t) with a head h and a tail tl, |h| + |t| + |tl| <= n, is
    the entry of column word h.g.tl and row word h.t.tl, coded as
    ``col * M + row`` with M = ``codes.total``.  For fixed (g, t, |h|,
    |tl|) these codes are base + H * head_step + Z * (M + 1) over the head
    and tail values H and Z, so each head (or each tail, whichever loop is
    shorter) contributes one arithmetic progression, toggled in C by one
    set operation.
    """
    size, n, off, total = codes.size, codes.n, codes.off, codes.total
    tail_step = total + 1
    for g, t in pairs:
        lt = len(t)
        value = 0
        for x in t:
            value = value * size + x
        for a in range(n - lt + 1):
            if a:
                unit = size ** (a - 1)
                h0, h1 = lo * unit, hi * unit
            elif lo <= g < hi:
                h0, h1 = 0, 1
            else:
                continue
            for b in range(n - lt - a + 1):
                tails = size**b
                base = (off[a + 1 + b] + g * tails) * total + off[a + lt + b] + value * tails
                head_step = size * tails * total + size**lt * tails
                if h1 - h0 >= tails:
                    for start in range(base, base + tails * tail_step, tail_step):
                        out.symmetric_difference_update(
                            range(start + h0 * head_step, start + h1 * head_step, head_step)
                        )
                else:
                    for start in range(base + h0 * head_step, base + h1 * head_step, head_step):
                        out.symmetric_difference_update(
                            range(start, start + tails * tail_step, tail_step)
                        )


def _entry_count(pairs, size: int, n: int) -> int:
    """Nonzero entries of F(pairs) over ``size`` letters at order n (Count).

    The triples count sum_P W(n - |t|); each core (g, t, u, g', t') takes
    away 2 (-1)^s W(n - |rc|), and the cores of one-letter terms (g, (g))
    are summed in closed form.
    """
    weights, acc = [], 0
    for m in range(n + 1):
        acc += (m + 1) * size**m
        weights.append(acc)
    pairset = set(pairs)
    ends: Dict[Tuple[int, ...], List[int]] = {}  # t' less g' -> letters g' ending t'
    for g, t in pairset:
        if t[-1] == g:
            ends.setdefault(t[:-1], []).append(g)
    count = sum(weights[n - len(t)] for _, t in pairset)
    sigma = 0
    for g, t in pairset:
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
                    and (cc[p], rc[p : p + length]) in pairset
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
    s: AInftyStructure, letters: _Letters, n: int, entries: Optional[int] = None
) -> GradedMatrixMap:
    """The order-n window differential on word codes, built from its (letter,
    term) pairs; asserts d d = 0 and, when given, the number of nonzero entries."""
    size = len(letters.labels)
    groups, degree, place = _word_codes(letters.degree, n, s.modulus)
    codes = _Codes(size, n)
    built: set = set()
    _toggle_triples(built, _window_pairs(letters, s.modulus, n), codes, 0, size)
    if entries is not None and len(built) != entries:
        raise InternalConsistencyError(
            "order-%d window matrix has %d nonzero entries, its pairs count %d"
            % (n, len(built), entries)
        )
    cols = {k: [0] * len(ws) for k, ws in groups.items()}
    for code in built:
        target, source = divmod(code, codes.total)
        cols[degree[source]][place[source]] |= 1 << place[target]
    differential = GradedMatrixMap(s.modulus, 1, groups, cols)
    if not differential.is_square_zero():
        raise InternalConsistencyError(
            "order-%d differential does not square to zero" % n
        )
    return differential


def tilde_complex(s: AInftyStructure, n: int, max_order: int = MAX_ORDER) -> TildeComplex:
    """Materialize the order-n complex of a structure.

    Word labels join their letters with "|".  The differential sends a word
    to the sum over all windows of consecutive letters of replacing the
    window by its operation image; its entries come from the same
    (letter, term) triples as the window side of the transpose check.
    Homogeneity and squaring to zero are asserted.
    """
    _check_order(n, max_order)
    letters = _Letters(s)
    window = _window_matrix(s, letters, n)
    spelled = _spelled(letters.labels, n)
    words = {k: tuple(spelled[c] for c in cs) for k, cs in window.basis.items()}
    basis = {k: tuple("|".join(w) for w in ws) for k, ws in words.items()}
    return TildeComplex(s, n, words, replace(window, basis=basis))


def _matching_pairs(ring: CohomologyRing, letters: _Letters, n: int):
    """The window side's (letter, term) pairs, once they equal the Leibniz side's.

    Equal pair sets are equal matrices (Pairs, in the module docstring);
    otherwise the smallest differing pair in code order is reported.
    """
    modulus = ring.structure.modulus
    leibniz = set(_twisted_pairs(ring.twisted, letters, modulus, n))
    window = _window_pairs(letters, modulus, n)
    differ = leibniz.symmetric_difference(window)
    if differ:
        g, t = min(differ, key=lambda pair: (pair[0], len(pair[1]), pair[1]))
        raise InternalConsistencyError(
            "order-%d transpose equality fails: only the %s side has the"
            " entry (%s -> %s)"
            % (
                n,
                "Leibniz" if (g, t) in leibniz else "window",
                letters.labels[g],
                letters.word_label(t),
            )
        )
    return window


def check_order_n_transpose(
    ring: CohomologyRing, n: int, max_order: int = MAX_ORDER, letters: Optional[_Letters] = None
) -> int:
    """Assert the order-n differential is the Leibniz expansion's transpose.

    The tensor algebra truncated at word length n carries the Leibniz
    expansion of ``ring.twisted`` (degree -1, long outputs dropped), read
    from d(g) itself and never from the structure's tables; its matrix must
    be, entry for entry, the transpose of the window differential of
    ``ring.structure``.  The two matrices are equal exactly when their
    (letter, term) pair sets are (Pairs, in the module docstring), so the
    pair sets are compared; a discrepancy is an internal error naming the
    side and the smallest offending entry.  Returns the number of nonzero
    entries of the window matrix, in closed form from the pairs (Count):
    the work is over pairs and letters, never over words.  ``letters`` is
    the structure's ``_Letters``, if already built.
    """
    _check_order(n, max_order)
    if letters is None:
        letters = _Letters(ring.structure)
    return _entry_count(_matching_pairs(ring, letters, n), len(letters.labels), n)


@dataclass
class OrderNCohomology:
    """Graded dimensions and representatives of order-n cohomology.

    ``engine`` records which structure's window complex was reduced:
    "dense" the adjoint structure (representatives are words of
    generators), "perturbation" the transferred minimal model (words of
    cohomology classes); ``structure`` is that structure.  ``data``, the
    homology of its complex, is rebuilt on first use and kept;
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
        complex_ = tilde_complex(self.structure, self.order, max_order=self.order)
        return homology(complex_.differential, "cochain")

    def representatives(self, k: int) -> List[str]:
        return [self.data.label(k, 1 << i) for i in range(self.data.dim(k))]


_ORDER_CACHE: "OrderedDict[tuple, OrderNCohomology]" = OrderedDict()
_VALIDATED: "OrderedDict[tuple, bool]" = OrderedDict()


def _remember(cache: OrderedDict, key, value) -> None:
    cache[key] = value
    if len(cache) > _ORDER_CACHE_SIZE:
        cache.popitem(last=False)


def order_n_cohomology(
    ring: CohomologyRing,
    n: int,
    engine: str = "auto",
    max_order: int = MAX_ORDER,
) -> OrderNCohomology:
    """Order-n linearized cohomology of the augmented DGA behind a ring.

    Always verifies the transpose equality between the window differential
    and the truncated Leibniz differential before reducing, by comparing
    their (letter, term) pair sets in ``check_order_n_transpose``, which
    also counts the window matrix's nonzero entries from the pairs.  The
    dense engine builds that matrix on ``ring.structure``, asserting its
    d d = 0 and that its entries number the count; the perturbation engine
    builds the window matrix of the minimal model ``ring.minimal(max(n,
    2))`` (Perturbation, in the module docstring), asserting its d d = 0.
    The "auto" engine is dense up to ``DENSE_LIMIT`` words of length <= n.
    Dimensions come from ranks (``GradedMatrixMap.homology_dims``), with no
    retract and no word labels.  Each DGA's contents are validated once
    per process (a bounded memo), and results are cached in-process per
    (DGA contents, augmentation, order, engine).
    """
    _check_order(n, max_order)
    if engine not in ("auto", "dense", "perturbation"):
        raise ContractError("engine must be 'auto', 'dense' or 'perturbation'")
    size = len(ring.dga.generators)
    total = sum(size**a for a in range(1, n + 1))
    if engine == "auto":
        engine = "dense" if total <= DENSE_LIMIT else "perturbation"
    content = dga_key(ring.dga)
    key = (content, ring.aug.values, n, engine)
    cached = _ORDER_CACHE.get(key)
    if cached is not None:
        _ORDER_CACHE.move_to_end(key)
        return cached
    if content in _VALIDATED:
        _VALIDATED.move_to_end(content)
    else:
        assert_valid(ring.dga)
        _remember(_VALIDATED, content, True)
    letters = _Letters(ring.structure)
    entries = check_order_n_transpose(ring, n, max_order, letters)
    if engine == "dense":
        structure = ring.structure
        built = _window_matrix(structure, letters, n, entries)
    else:
        structure = ring.minimal(max(n, 2))[0]
        built = _window_matrix(structure, _Letters(structure), n)
    result = OrderNCohomology(n, engine, built.homology_dims(), total, entries, structure)
    _remember(_ORDER_CACHE, key, result)
    return result


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
        """Per degree: (source homology dim, target homology dim, map rank)."""
        hs = homology(self.source.differential, "cochain")
        ht = homology(self.target.differential, "cochain")
        out: Dict[int, Tuple[int, int, int]] = {}
        for k in sorted(set(hs.degrees()) | set(ht.degrees())):
            images = [self.apply(k, hs.include(k, 1 << i)) for i in range(hs.dim(k))]
            out[k] = (hs.dim(k), ht.dim(k), rank(ht.class_of(k, v) for v in images))
        return out

    def is_quasi_iso(self) -> bool:
        return all(a == b == r for a, b, r in self.induced_ranks().values())


def tilde_of_morphism(
    f: AInftyMorphism, n: int, max_order: int = MAX_ORDER
) -> TildeChainMap:
    """Chain map on order-n complexes induced by an A-infinity morphism.

    The block from length-a words to length-r words sums f_{i_1} x ... x
    f_{i_r} over all compositions i_1 + ... + i_r = a.  The morphism
    equation is re-checked up to arity n first (failure rejects the
    input), and F d_src = d_dst F is asserted on the window matrices, one
    source word (column) at a time.
    """
    _check_order(n, max_order)
    if f.src is None or f.dst is None:
        raise ContractError("morphism does not carry source and target structures")
    if f.src.modulus != f.dst.modulus:
        raise ContractError("source and target structures use different moduli")
    report = check_ainfty_morphism(f, f.src, f.dst, n)
    if not report.ok:
        raise ContractError(report.detail)
    source = tilde_complex(f.src, n, max_order=max_order)
    target = tilde_complex(f.dst, n, max_order=max_order)
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
                for combo in iproduct(*lists):
                    _toggle(out, combo)
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


def reflection_compare(dga: DGA, n: int, max_order: int = MAX_ORDER) -> ReflectionReport:
    """Compare order-n dimensions of a DGA and its mirror, per augmentation.

    An augmentation of the knot serves the mirror unchanged, because the
    value of a reversed word is the same product of values.  Besides
    computing both sides, the word-reversal conjugation identity between
    the two truncated Leibniz differentials is checked on every word of
    length <= n for every augmentation, through the one-letter words.
    """
    _check_order(n, max_order)
    mirror = mirror_dga(dga)
    rows: List[ReflectionRow] = []
    words = 0
    for aug in enumerate_augmentations(dga):
        ring, mirror_ring = build_ring(dga, aug), build_ring(mirror, aug)
        left = order_n_cohomology(ring, n, max_order=max_order)
        right = order_n_cohomology(mirror_ring, n, max_order=max_order)
        words += _check_reflection_conjugation(ring.twisted, mirror_ring.twisted, n)
        rows.append(ReflectionRow(aug.describe(), left.dims, right.dims))
    return ReflectionReport(n, rows, words)
