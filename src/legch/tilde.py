"""Truncated bar complexes and order-n linearized cohomology.

The order-n complex of an A-infinity structure is spanned by tensor words
of length 1..n; the differential applies every operation m_j to every
window of consecutive letters.  Outputs never exceed the length bound, so
no truncation happens on this side.  Dually, the tensor algebra truncated
at word length n carries the Leibniz expansion of the twisted differential
with long words dropped; the two matrices must be transposes of each
other, and ``order_n_cohomology`` asserts that entry for entry on every
run before reducing.

Two engines are available: a dense one that materializes the word basis,
and a perturbation engine for large complexes that contracts the tensor
powers of the homology retract of (V, m_1) and pushes the strictly
length-decreasing windows (j >= 2) through the resulting finite series.
Either way the dimensions are dim_k = |basis_k| - rank d_k - rank d_(k-1),
read off ranks with no word labels; the homology retract of the order-n
complex, with labelled representatives, is built only on demand.

The transpose check and the dense engine build their matrices from
(letter, term) triples instead of expanding word by word.  Index both
matrices by a column word w and a row word v (Leibniz: w -> v, window:
v -> w).  Then:

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
* Slices.  Every triple behind an entry has that entry's column word, so
  the entries of the columns whose first letter lies in [lo, hi) are
  exactly the GF(2) sums of the triples whose column starts there, and
  the nonzero entries of the window matrix are counted slice by slice
  from P_window alone (equal pair sets give equal counts).  A slice
  covers as many first letters as keep it within ``_SLICE_WORDS`` column
  words (at least one letter), so the count holds the entry set of one
  slice at a time and never builds the word basis.
* Homogeneity.  By additivity of degree, deg(h.t.tl) - deg(h.g.tl) =
  deg t - deg g, so every output word has degree one below its column
  word exactly when every contributing pair has deg t = deg g - 1.  Each
  pair with |t| <= n contributes the uncancelled entry (g, t) itself
  (see Pairs), so checking once per pair is equivalent to checking every
  output word.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product as iproduct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
# Column words per slice of the transpose check; bounds its peak memory.
_SLICE_WORDS = 1 << 15
# Results kept by the in-process order-n cache, least recently used first out.
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
        self.position: List[int] = [0] * len(self.labels)
        for names in s.basis.values():
            for i, x in enumerate(names):
                self.position[self.index[x]] = i
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


def _word_index(
    groups: Dict[int, List[Tuple[int, ...]]]
) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """Each word's (degree, position within that degree's basis)."""
    return {w: (k, i) for k, ws in groups.items() for i, w in enumerate(ws)}


def _toggle(out: set, word: Tuple[int, ...]) -> None:
    if word in out:
        out.discard(word)
    else:
        out.add(word)


def _cochain_terms(windows, word) -> set:
    """All window contractions: replace word[i:i+j] by its operation image."""
    out: set = set()
    for i in range(len(word)):
        for j, table in windows.items():
            if i + j > len(word):
                continue
            hits = table.get(word[i : i + j])
            if not hits:
                continue
            head = word[:i]
            tail = word[i + j :]
            for g in hits:
                _toggle(out, head + (g,) + tail)
    return out


def _expand_vector(by_degree, k: int, vec: int) -> Tuple[int, ...]:
    """Bitmask over the degree-k basis as a tuple of global letter indices."""
    row = by_degree.get(k, ())
    return tuple(row[i] for i in bits(vec))


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

    def decode(self, code: int) -> Tuple[int, ...]:
        length = bisect_right(self.off, code) - 1
        value = code - self.off[length]
        word = []
        for _ in range(length):
            value, g = divmod(value, self.size)
            word.append(g)
        return tuple(reversed(word))


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
    s: AInftyStructure, letters: _Letters, pairs, n: int
) -> Tuple[GradedMatrixMap, int]:
    """The order-n window differential on word codes, built from its (letter,
    term) pairs, and its number of nonzero entries; asserts d d = 0."""
    size = len(letters.labels)
    groups, degree, place = _word_codes(letters.degree, n, s.modulus)
    codes = _Codes(size, n)
    entries: set = set()
    _toggle_triples(entries, pairs, codes, 0, size)
    cols = {k: [0] * len(ws) for k, ws in groups.items()}
    for code in entries:
        target, source = divmod(code, codes.total)
        cols[degree[source]][place[source]] |= 1 << place[target]
    differential = GradedMatrixMap(s.modulus, 1, groups, cols)
    if not differential.is_square_zero():
        raise InternalConsistencyError(
            "order-%d differential does not square to zero" % n
        )
    return differential, len(entries)


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
    window = _window_matrix(s, letters, _window_pairs(letters, s.modulus, n), n)[0]
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


def _transpose_slices(
    ring: CohomologyRing, n: int, letters: Optional[_Letters] = None
) -> Iterator[Tuple[_Codes, set]]:
    """Check the pair sets, then yield the window matrix one column slice at a time.

    Each slice comes with the codes ``col * M + row`` of its nonzero entries.
    """
    if letters is None:
        letters = _Letters(ring.structure)
    window = _matching_pairs(ring, letters, n)
    codes = _Codes(len(letters.labels), n)
    step = max(1, _SLICE_WORDS // (codes.off[n] + 1))
    for lo in range(0, codes.size, step):
        entries: set = set()
        _toggle_triples(entries, window, codes, lo, min(lo + step, codes.size))
        yield codes, entries


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
    entries of the window matrix, counted one slice of column words at a
    time.  ``letters`` is the structure's ``_Letters``, if already built.
    """
    _check_order(n, max_order)
    return sum(len(entries) for _, entries in _transpose_slices(ring, n, letters))


def _perturbed_complex(
    s: AInftyStructure, retract: HomologyData, n: int, letters: Optional[_Letters] = None
) -> GradedMatrixMap:
    """Differential induced on length <= n words of cohomology classes.

    Tensor powers of (i, p, h) contract the order-n complex of (V, m_1)
    onto words in the cohomology of m_1; the strictly length-decreasing
    windows perturb the zero differential, and the series terminates
    because every application shortens the word.  Columns are computed
    independently: include the word, push through the series, project.
    ``letters`` is the structure's ``_Letters``, if already built.
    """
    modulus = s.modulus
    if letters is None:
        letters = _Letters(s)
    classes = [(k, i) for k in retract.degrees() for i in range(retract.dim(k))]
    cdeg = [k for k, _ in classes]
    clabels = [retract.label(k, 1 << i) for k, i in classes]
    cpos = {c: t for t, c in enumerate(classes)}
    reps = [
        _expand_vector(letters.by_degree, k, retract.include(k, 1 << i))
        for k, i in classes
    ]
    hmap: List[Tuple[int, ...]] = []
    ipmap: List[Tuple[int, ...]] = []
    pmap: List[Tuple[int, ...]] = []
    for g in range(len(letters.labels)):
        k = letters.degree[g]
        unit = 1 << letters.position[g]
        below = canon_degree(modulus, k - 1)
        hmap.append(_expand_vector(letters.by_degree, below, retract.homotopy(k, unit)))
        coords = retract.project(k, unit)
        ipmap.append(_expand_vector(letters.by_degree, k, retract.include(k, coords)))
        pmap.append(tuple(cpos[(k, i)] for i in bits(coords)))

    shortening = {j: table for j, table in letters.windows.items() if j >= 2}

    def shrink(words: set) -> set:
        out: set = set()
        for w in words:
            out ^= _cochain_terms(shortening, w)
        return out

    def tensor_homotopy(words: set) -> set:
        out: set = set()
        for w in words:
            for r in range(len(w)):
                middle = hmap[w[r]]
                if not middle:
                    continue
                heads = [ipmap[x] for x in w[:r]]
                if any(not hx for hx in heads):
                    continue
                tail = w[r + 1 :]
                for combo in iproduct(*heads, middle):
                    _toggle(out, combo + tail)
        return out

    groups = _words_by_degree(cdeg, n, modulus)
    index = _word_index(groups)
    cols: Dict[int, List[int]] = {}
    for k, ws in groups.items():
        target = canon_degree(modulus, k + 1)
        kcols = []
        for u in ws:
            choices = [reps[c] for c in u]
            if any(not ch for ch in choices):
                kcols.append(0)
                continue
            current = {combo for combo in iproduct(*choices)}
            acc: set = set()
            current = shrink(current)
            while current:
                acc ^= current
                current = shrink(tensor_homotopy(current))
            vec = 0
            for w in acc:
                parts = [pmap[x] for x in w]
                if any(not pc for pc in parts):
                    continue
                for cw in iproduct(*parts):
                    spot = index.get(cw)
                    if spot is None or spot[0] != target:
                        raise InternalConsistencyError(
                            "projected word %r leaves the degree-%d basis"
                            % (cw, target)
                        )
                    vec ^= 1 << spot[1]
            kcols.append(vec)
        cols[k] = kcols
    basis = {
        k: tuple("|".join(clabels[c] for c in w) for w in ws)
        for k, ws in groups.items()
    }
    return GradedMatrixMap(modulus, 1, basis, cols)


@dataclass
class OrderNCohomology:
    """Graded dimensions and representatives of order-n cohomology.

    ``engine`` records how the complex was reduced: "dense" builds the full
    word basis (representatives are words of generators), "perturbation"
    contracts onto words of cohomology classes first.  ``data``, the homology
    of that complex, is rebuilt from the structure on first use and kept;
    ``complex_dim`` is the dimension of the order-n word space before any
    contraction, and ``transpose_entries`` counts the nonzero entries of the
    window matrix, which the transpose check proved equal to the Leibniz one.
    """

    order: int
    engine: str
    dims: Dict[int, int]
    complex_dim: int
    transpose_entries: int
    structure: AInftyStructure = field(repr=False, compare=False)
    retract: HomologyData = field(repr=False, compare=False)

    @cached_property
    def data(self) -> HomologyData:
        if self.engine == "dense":
            built = tilde_complex(self.structure, self.order, max_order=self.order).differential
        else:
            built = _perturbed_complex(self.structure, self.retract, self.order)
        return homology(built, "cochain")

    def representatives(self, k: int) -> List[str]:
        return [self.data.label(k, 1 << i) for i in range(self.data.dim(k))]


_ORDER_CACHE: "OrderedDict[tuple, OrderNCohomology]" = OrderedDict()


def order_n_cohomology(
    ring: CohomologyRing,
    n: int,
    engine: str = "auto",
    max_order: int = MAX_ORDER,
) -> OrderNCohomology:
    """Order-n linearized cohomology of the augmented DGA behind a ring.

    Always verifies the transpose equality between the window differential
    and the truncated Leibniz differential before reducing, by comparing
    their (letter, term) pair sets.  The dense engine counts the nonzero
    entries of the window matrix it builds; the perturbation engine counts
    them through ``check_order_n_transpose``, and asserts that its perturbed
    differential squares to zero.  The "auto" engine is dense up to
    ``DENSE_LIMIT`` words of length <= n.  Dimensions come from ranks
    (``GradedMatrixMap.homology_dims``), with no retract and no word labels.
    Results are cached in-process per (DGA contents, augmentation, order,
    engine).
    """
    _check_order(n, max_order)
    if engine not in ("auto", "dense", "perturbation"):
        raise ContractError("engine must be 'auto', 'dense' or 'perturbation'")
    size = len(ring.dga.generators)
    total = sum(size**a for a in range(1, n + 1))
    if engine == "auto":
        engine = "dense" if total <= DENSE_LIMIT else "perturbation"
    key = (dga_key(ring.dga), ring.aug.values, n, engine)
    cached = _ORDER_CACHE.get(key)
    if cached is not None:
        _ORDER_CACHE.move_to_end(key)
        return cached
    assert_valid(ring.dga)
    letters = _Letters(ring.structure)
    if engine == "dense":
        pairs = _matching_pairs(ring, letters, n)
        built, entries = _window_matrix(ring.structure, letters, pairs, n)
    else:
        entries = check_order_n_transpose(ring, n, max_order, letters)
        built = _perturbed_complex(ring.structure, ring.cochain, n, letters)
        if not built.is_square_zero():
            raise InternalConsistencyError(
                "perturbed order-%d differential does not square to zero" % n
            )
    result = OrderNCohomology(
        n, engine, built.homology_dims(), total, entries, ring.structure, ring.cochain
    )
    _ORDER_CACHE[key] = result
    if len(_ORDER_CACHE) > _ORDER_CACHE_SIZE:
        _ORDER_CACHE.popitem(last=False)
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
    input), and commutation with the two differentials is asserted word
    by word.
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
            key = tuple(sletters.index[x] for x in args)
            enc[key] = _expand_vector(dletters.by_degree, k, vec)
        ftab[a] = enc

    image_of: Dict[Tuple[int, ...], frozenset] = {}

    def image(word: Tuple[int, ...]) -> frozenset:
        hit = image_of.get(word)
        if hit is not None:
            return hit
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
        frozen = frozenset(out)
        image_of[word] = frozen
        return frozen

    groups = _words_by_degree(sletters.degree, n, f.src.modulus)
    dst_index = _word_index(_words_by_degree(dletters.degree, n, f.dst.modulus))
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
    for ws in groups.values():
        for w in ws:
            left: set = set()
            for v in _cochain_terms(sletters.windows, w):
                left ^= image(v)
            right: set = set()
            for v in image(w):
                right ^= _cochain_terms(dletters.windows, v)
            if left != right:
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
