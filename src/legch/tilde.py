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
* Slices.  Every triple behind an entry has that entry's column word, so
  the entries of the columns whose first letter lies in [lo, hi) are
  exactly the GF(2) sums of the triples whose column starts there.
  Comparing slice by slice therefore compares every entry of both full
  matrices exactly once, and the entry counts add up.  A slice covers as
  many first letters as keep it within ``_SLICE_WORDS`` column words
  (at least one letter), so the check holds the two sides' entry sets of
  one slice at a time and never builds the word basis.
* Homogeneity.  By additivity of degree, deg(h.t.tl) - deg(h.g.tl) =
  deg t - deg g, so every output word has degree one below its column
  word exactly when every contributing pair has deg t = deg g - 1.  Each
  pair with |t| <= n contributes the uncancelled entry (g, t) itself
  (h and tl empty: no other triple of that side has the one-letter
  column g and row t), so checking once per pair is equivalent to
  checking every output word.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, Iterator, List, Sequence, Tuple

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
from .gf2 import Eliminator, apply_cols, bits, rank
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


def _words_by_degree(
    degrees: Sequence[int], n: int, modulus: int
) -> Dict[int, List[Tuple[int, ...]]]:
    """All words of length 1..n over range(len(degrees)), grouped by degree.

    Within each degree, words appear length-major then lexicographically
    in the letter indices -- the canonical tensor-word order.
    """
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    layer: List[Tuple[Tuple[int, ...], int]] = [((), 0)]
    indices = range(len(degrees))
    for _ in range(n):
        grown = []
        for word, total in layer:
            for g in indices:
                grown.append((word + (g,), total + degrees[g]))
        for word, total in grown:
            groups.setdefault(canon_degree(modulus, total), []).append(word)
        layer = grown
    return groups


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


def _chain_terms(repl: Sequence[Tuple[Tuple[int, ...], ...]], word, n: int) -> set:
    """Leibniz expansion of a word, with outputs longer than n dropped."""
    out: set = set()
    for i, g in enumerate(word):
        head = word[:i]
        tail = word[i + 1 :]
        budget = n - len(word) + 1
        for term in repl[g]:
            if len(term) <= budget:
                _toggle(out, head + term + tail)
    return out


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
    groups = _words_by_degree(letters.degree, n, s.modulus)
    index = _word_index(groups)
    size = len(letters.labels)
    spot = [
        index[w] for length in range(1, n + 1) for w in iproduct(range(size), repeat=length)
    ]
    codes = _Codes(size, n)
    entries: set = set()
    _toggle_triples(entries, _window_pairs(letters, s.modulus, n), codes, 0, size)
    cols = {k: [0] * len(ws) for k, ws in groups.items()}
    for code in entries:
        target, source = divmod(code, codes.total)
        k, i = spot[source]
        cols[k][i] |= 1 << spot[target][1]
    basis = {k: tuple(letters.word_label(w) for w in ws) for k, ws in groups.items()}
    differential = GradedMatrixMap(s.modulus, 1, basis, cols)
    if not differential.is_square_zero():
        raise InternalConsistencyError(
            "order-%d differential does not square to zero" % n
        )
    words = {
        k: tuple(tuple(letters.labels[g] for g in w) for w in ws)
        for k, ws in groups.items()
    }
    return TildeComplex(s, n, words, differential)


def _transpose_slices(ring: CohomologyRing, n: int) -> Iterator[Tuple[_Codes, set]]:
    """Compare both transpose-check matrices one column slice at a time.

    Yields each slice's codes ``col * M + row`` of nonzero entries once
    the Leibniz and window sides agree on them; raises on the first slice
    where they differ.
    """
    modulus = ring.structure.modulus
    letters = _Letters(ring.structure)
    leibniz = _twisted_pairs(ring.twisted, letters, modulus, n)
    window = _window_pairs(letters, modulus, n)
    codes = _Codes(len(letters.labels), n)
    step = max(1, _SLICE_WORDS // (codes.off[n] + 1))
    for lo in range(0, codes.size, step):
        hi = min(lo + step, codes.size)
        chain: set = set()
        _toggle_triples(chain, leibniz, codes, lo, hi)
        cochain: set = set()
        _toggle_triples(cochain, window, codes, lo, hi)
        if chain != cochain:
            code = min(chain ^ cochain)
            col, row = divmod(code, codes.total)
            side = "Leibniz" if code in chain else "window"
            raise InternalConsistencyError(
                "order-%d transpose equality fails: only the %s side has the"
                " entry (%s -> %s)"
                % (
                    n,
                    side,
                    letters.word_label(codes.decode(col)),
                    letters.word_label(codes.decode(row)),
                )
            )
        yield codes, chain


def check_order_n_transpose(ring: CohomologyRing, n: int, max_order: int = MAX_ORDER) -> int:
    """Assert the order-n differential is the Leibniz expansion's transpose.

    The tensor algebra truncated at word length n carries the Leibniz
    expansion of ``ring.twisted`` (degree -1, long outputs dropped), read
    from d(g) itself and never from the structure's tables; its matrix must
    be, entry for entry, the transpose of the window differential of
    ``ring.structure``.  Both matrices are built in full from (letter, term)
    triples and compared one slice of column words at a time (see the
    module docstring).  Returns the number of nonzero entries compared; a
    discrepancy is an internal error naming the side and the offending entry.
    """
    _check_order(n, max_order)
    return sum(len(chain) for _, chain in _transpose_slices(ring, n))


def _perturbed_complex(
    s: AInftyStructure, retract: HomologyData, n: int
) -> GradedMatrixMap:
    """Differential induced on length <= n words of cohomology classes.

    Tensor powers of (i, p, h) contract the order-n complex of (V, m_1)
    onto words in the cohomology of m_1; the strictly length-decreasing
    windows perturb the zero differential, and the series terminates
    because every application shortens the word.  Columns are computed
    independently: include the word, push through the series, project.
    """
    modulus = s.modulus
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
    contracts onto words of cohomology classes first.  ``data`` is the
    homology of whichever complex was built; ``complex_dim`` is the
    dimension of the order-n word space before any contraction, and
    ``transpose_entries`` counts matrix entries confirmed equal in the
    chain/cochain transpose check.
    """

    order: int
    engine: str
    dims: Dict[int, int]
    data: HomologyData
    complex_dim: int
    transpose_entries: int

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
    and the truncated Leibniz differential before reducing.  The "auto"
    engine is dense up to ``DENSE_LIMIT`` words of length <= n.  Results are
    cached in-process per (DGA contents, augmentation, order, engine).
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
    entries = check_order_n_transpose(ring, n, max_order=max_order)
    if engine == "dense":
        built = tilde_complex(ring.structure, n, max_order=max_order)
        data = homology(built.differential, "cochain")
    else:
        small = _perturbed_complex(ring.structure, ring.cochain, n)
        if not small.is_square_zero():
            raise InternalConsistencyError(
                "perturbed order-%d differential does not square to zero" % n
            )
        data = homology(small, "cochain")
    result = OrderNCohomology(n, engine, data.dims(), data, total, entries)
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
            elim = Eliminator()
            for i in range(hs.dim(k)):
                image = self.apply(k, hs.include(k, 1 << i))
                elim.add(ht.class_of(k, image))
            out[k] = (hs.dim(k), ht.dim(k), elim.rank)
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
    """Verify rev(d(w)) = d_mirror(rev(w)) on every word of length <= n."""
    order = {g: i for i, g in enumerate(twisted.generators)}

    def encode(source: DGA) -> List[Tuple[Tuple[int, ...], ...]]:
        return [
            tuple(
                tuple(order[x] for x in w)
                for w in source.sorted_terms(source.d(g))
            )
            for g in source.generators
        ]

    repl = encode(twisted)
    repl_mirror = encode(twisted_mirror)
    labels = twisted.generators
    count = 0
    layer: List[Tuple[int, ...]] = [()]
    for _ in range(n):
        layer = [w + (g,) for w in layer for g in range(len(labels))]
        for w in layer:
            left = {v[::-1] for v in _chain_terms(repl, w, n)}
            right = _chain_terms(repl_mirror, w[::-1], n)
            if left != right:
                raise InternalConsistencyError(
                    "reflection conjugation fails on %s"
                    % "|".join(labels[g] for g in w)
                )
            count += 1
    return count


def reflection_compare(dga: DGA, n: int, max_order: int = MAX_ORDER) -> ReflectionReport:
    """Compare order-n dimensions of a DGA and its mirror, per augmentation.

    An augmentation of the knot serves the mirror unchanged, because the
    value of a reversed word is the same product of values.  Besides
    computing both sides, the word-reversal conjugation identity between
    the two truncated Leibniz differentials is checked on every word of
    length <= n for every augmentation.
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
