"""Shared test utilities: seeded random DGAs built from safe moves.

Random DGAs start from a zero-differential seed, or from a cupex or
masseyex base, and grow by stabilizations and elementary isomorphisms,
both of which preserve validity, so every produced DGA passes the
validator by construction (and we assert as much here to fail fast if a
move is broken).  The chain-level triple Massey product, the chain-level
walk of higher Massey defining systems, the minimal-model walk of every
defining system one by one, the block-by-block p_3 builder, the
visit-every-triple Massey table, the degree-scan Massey table with its
``apply_block`` annihilator lists and class-tuple lists, the per-run
count of Massey defining systems, the chain-level cup product on chosen
representatives, the all-pairs cup rank table (in the standard basis or
a caller's), the cup support read off the chain-level cup on every class
pair, the sorting opposite fingerprint, the per-tuple composition sum,
the word-by-word Leibniz and window expansions, the pair check as two
full sets compared with the count walked over every pair, the
word-by-word window matrix with its d d = 0, the sliced count of the
window matrix, the word-by-word perturbation series, the whole-field
multiset witness, the sorted-key-union witness and the two-sided mirror
comparison, the five retract identities on every basis vector, the
per-augmentation ``report`` and fingerprint loops, the brute force over
every degree-0 letter with its grouping by twist and its check of one
member at a time, the letter-by-letter ``pmul`` substitution and the
duality search's Gram matrix per (kappa, c, complement) are kept here as
the references that the library's product table, its minimal-model
Massey walk with its outer layer summed as a coset, its transferred
mu_3, its support-only Massey table enumerated from mu's entries and
walked where a reach mask says a class tuple exists, its level-by-level
systems count, its pair blocks summed from projected m_2 entries, its
cup ranks read off the support, its table-driven composition sum, its
pair checks, its one pass over the twisted differential, its window
matrix and relation-based d d = 0, its closed-form entry count, its
minimal-model order-n engine, its lazily merged mirror witness, its
one-sided mirror comparison, its proof that its own retracts are strong
deformation retracts, its one ring per distinct twist, its one trial
mask with its batched check of every member, its word-at-once
substitution and its one form per degree and kappa, its one cup support
and its opposite Massey field read at reversed keys are compared
against.  The paper's theorem checks, which no command runs, live in
``theorems`` beside their own references, and read the all-pairs cup
rank table in a random basis from here.
"""

import random
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, product
from math import prod
from operator import xor
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple
from unittest.mock import patch

from legch import ContractError, InternalConsistencyError, cli, fingerprint
from legch.ainfty import (
    MAX_RELATION_TERMS,
    AInftyStructure,
    HClass,
    MasseyResult,
    basis_classes,
    build_ring,
    _BracketWalk,
    _compositions,
    _relation_terms,
    check_massey_budget,
)
from legch.algebra import (
    DGA,
    ONE,
    ElementaryIso,
    Poly,
    apply_elementary_iso,
    assert_valid,
    canon_degree,
    iso_expansion_terms,
    mirror_dga,
    pmul,
    stabilize,
)
from legch.augment import (
    MAX_FREE_GENERATORS,
    Augmentation,
    _checked_values,
    _equation,
    enumerate_augmentations,
    per_twist,
)
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fileio import parse_dga
from legch.fingerprint import (
    DEFAULT_MASSEY_ORDER,
    DEFAULT_ORDER_CAP,
    AugmentationProfile,
    Fingerprint,
    MirrorReport,
    _first_difference,
    fingerprint_dga,
    profile_for,
)
from legch.gf2 import Eliminator, apply_block, bits, rank, span_basis
from legch.linear import (
    MAX_DUALITY_PAIRS,
    DualityCertificate,
    DualityFailure,
    GradedMatrixMap,
    HomologyData,
    duality_search,
    pair_bit,
    vector_label,
)
from legch.tilde import order_n_cohomology


def trivial_bracket_dga() -> DGA:
    """A DGA whose bracket <x, y, z> has the nonzero value [v] = x * w.

    s bounds x y and t bounds y z, and d v = s z + x w, so the bracket's
    value is [v], which lies in its indeterminacy x H + H z because
    x * w = [v].  No generator has degree 0: the one augmentation is zero.
    """
    return parse_dga(
        """modulus 0
        gen x 2
        gen y 3
        gen z 7
        gen w 10
        gen s 5
        gen t 10
        gen p 6
        gen q 11
        gen v 13
        d p = s + x y
        d q = t + y z
        d v = s z + x w
        """
    )


def order_four_bracket_dga() -> DGA:
    """A DGA with a nonzero order-4 bracket <[a], [b], [c], [e]>.

    Every generator but q is a cycle and d q = a b c e, so every product and
    triple bracket of the classes vanishes, and [q] is dual to the word
    a b c e: the order-4 bracket in degrees (1, 2, 3, 4) is nonzero, while
    the reversed tuple's is zero.
    """
    return parse_dga(
        """modulus 0
        gen a 1
        gen b 2
        gen c 3
        gen e 4
        gen q 11
        d q = a b c e
        """
    )


def disguised_order_four_bracket_dgas() -> List[DGA]:
    """``order_four_bracket_dga`` under three disguises: an elementary
    isomorphism; a stabilization whose pair the isomorphisms then mix into
    c, b and d q; two stabilizations with q and a shifted by their letters."""
    base = order_four_bracket_dga()

    def iso(dga, target, *words):
        return apply_elementary_iso(dga, ElementaryIso(target, frozenset(words)))

    mixed = iso(iso(stabilize(base, 3), "c", ("e1",)), "b", ("e2",), ("a", "a"))
    shifted = stabilize(stabilize(base, 11), 2)
    shifted = iso(iso(shifted, "q", ("e1",), ("c", "e", "e")), "a", ("e2_1",))
    return [iso(base, "e", ("a", "c")), mixed, shifted]


def poly(*words: Tuple[str, ...]):
    return frozenset(tuple(w) for w in words)


def path_dga(k: int) -> DGA:
    """Degree-0 letters b0..b(k-1) on a path: d a_i = b_i b_(i+1)."""
    bs = tuple("b%d" % i for i in range(k))
    aes = tuple("a%d" % i for i in range(k - 1))
    degrees = dict(dict.fromkeys(bs, 0), **dict.fromkeys(aes, 1))
    diff = {a: poly((bs[i], bs[i + 1])) for i, a in enumerate(aes)}
    return DGA(0, aes + bs, degrees, diff)


def zero_product_dga(k: int) -> DGA:
    """k closed degree-1 letters x_i and k - 1 closed degree -1 letters y_i:
    the degree-1 cohomology is one larger than degree -1's, and every
    product vanishes."""
    xs = tuple("x%d" % i for i in range(k))
    ys = tuple("y%d" % i for i in range(k - 1))
    return DGA(0, xs + ys, dict(dict.fromkeys(xs, 1), **dict.fromkeys(ys, -1)), {})


def _toggle(out: set, word) -> None:
    if word in out:
        out.discard(word)
    else:
        out.add(word)


def _chain_terms(repl, word, n: int) -> set:
    """Leibniz expansion of a word, with outputs longer than n dropped.

    ``repl[g]`` lists the terms of d(g) as words of letter indices; the
    word-by-word reference for the transpose and reflection checks.
    """
    out: set = set()
    for i, g in enumerate(word):
        head = word[:i]
        tail = word[i + 1 :]
        budget = n - len(word) + 1
        for term in repl[g]:
            if len(term) <= budget:
                _toggle(out, head + term + tail)
    return out


class Letters:
    """A structure's basis letters as integers, in ``s.order``: the letter
    coding of the word-by-word references, kept apart from the library's."""

    def __init__(self, s):
        self.labels = sorted(s.order, key=s.order.get)
        self.index = {lbl: i for i, lbl in enumerate(self.labels)}
        self.degree = [s.degree_of[lbl] for lbl in self.labels]
        self.by_degree = {
            k: tuple(self.index[x] for x in names) for k, names in s.basis.items()
        }

    def word_label(self, word) -> str:
        return "|".join(self.labels[g] for g in word)


class Codes:
    """Codes of the words of length 1..n over ``size`` letters, as the
    module docstring of ``legch.tilde`` defines them: a word of length L
    codes as ``off[L]`` plus its base-``size`` value, below ``total``."""

    def __init__(self, size: int, n: int):
        self.size, self.n = size, n
        self.off = [0, 0]
        for length in range(1, n + 1):
            self.off.append(self.off[-1] + size**length)
        self.total = self.off[n + 1]


def words_by_degree(degrees, n: int, modulus: int) -> dict:
    """Every word of length 1..n over range(len(degrees)), length-major and
    lexicographic, grouped by degree in the order of each degree's first word."""
    groups = {}
    for length in range(1, n + 1):
        for w in product(range(len(degrees)), repeat=length):
            groups.setdefault(canon_degree(modulus, sum(degrees[x] for x in w)), []).append(w)
    return groups


def letter_windows(s, letters) -> dict:
    """Per arity j, each j-letter window of ``s`` to the letters of its image,
    in ``letters``' indices, read straight off the tables."""
    windows = {}
    for j in sorted(s.tables):
        table = {}
        for args, vec in s.tables[j].items():
            out = letters.by_degree[s.out_degree(args)]
            table[tuple(letters.index[x] for x in args)] = tuple(out[i] for i in bits(vec))
        windows[j] = table
    return windows


def _cochain_terms(windows, word) -> set:
    """All window contractions: replace word[i:i+j] by its operation image.

    ``windows[j]`` maps a j-letter window to the letters of its image (as
    ``letter_windows``); the word-by-word reference for the window matrix.
    """
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


def _toggle_triples(out: set, pairs, codes: Codes, lo: int, hi: int) -> None:
    """Add over GF(2) the entries of every triple whose column starts in [lo, hi).

    How the sliced count adds triples, as entry codes in a set; the library XORs
    the same triples straight into the window matrix's columns.

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


def pair_oracle(ring, n: int) -> FrozenSet[Tuple[str, Tuple[str, ...]]]:
    """The pair check as two full sets, compared: the window side's (letter,
    term) pairs, read off the tables in the degree ``s.out_degree`` gives,
    once they equal the Leibniz side's, the terms of every twisted d(g).

    Raises what the library's one pass must raise, in its order: a constant
    term (the first letter in ``s.order``), then an inhomogeneous Leibniz
    pair, an inhomogeneous window-only pair, and the smallest differing
    pair, each the smallest in code order (letter, term length, term).
    """
    twisted, s = ring.twisted, ring.structure
    order, degree_of = s.order, s.degree_of

    def code(pair):
        return order[pair[0]], len(pair[1]), [order[x] for x in pair[1]]

    def up(t):
        return canon_degree(s.modulus, sum(degree_of[x] for x in t) + 1)

    def homogeneous(side, pairs):
        bad = [(g, t) for g, t in pairs if up(t) != degree_of[g]]
        if bad:
            g, t = min(bad, key=code)
            leibniz = side == "Leibniz"
            image, source, want = (t, (g,), degree_of[g] - 1) if leibniz else ((g,), t, up(t))
            raise InternalConsistencyError(
                "%s image %s of %s is not homogeneous of degree %d"
                % (side, "|".join(image), "|".join(source), canon_degree(s.modulus, want))
            )

    for g in order:
        if () in twisted.d(g):
            raise InternalConsistencyError("twisted differential of %s has a constant term" % g)
    leibniz = {(g, t) for g in order for t in twisted.d(g)}
    homogeneous("Leibniz", leibniz)
    window = set()
    for table in s.tables.values():
        for t, vec in table.items():
            names = s.names(s.out_degree(t))
            window.update((names[i], t) for i in bits(vec))
    homogeneous("window", window - leibniz)
    differ = leibniz ^ window
    if differ:
        g, t = min(differ, key=code)
        raise InternalConsistencyError(
            "order-%d transpose equality fails: only the %s side has the entry (%s -> %s)"
            % (n, "Leibniz" if (g, t) in leibniz else "window", g, "|".join(t))
        )
    return frozenset(window)


def pair_oracle_count(pairs, size: int, n: int) -> int:
    """The closed-form count (``legch.tilde``, Count) over a full pair set:
    every pair is walked for the triples and the cores, and a core's other
    pairs are looked up in the set."""
    weights = list(accumulate((m + 1) * size**m for m in range(n + 1)))
    ends: Dict[Tuple[str, ...], List[str]] = {}
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
                cc, rc = (g,) + middle + (last,), t + middle + (last,)
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


# Column words per slice of the sliced count; bounds its peak memory.
_SLICE_WORDS = 1 << 15


def _transpose_slices(ring, n: int):
    """Check the pair sets (``pair_oracle``), then yield the window matrix one
    column slice at a time.

    Each slice comes with the codes ``col * M + row`` of its nonzero
    entries; a slice covers as many first letters as keep it within
    ``_SLICE_WORDS`` column words (at least one letter).  Every triple
    behind an entry has that entry's column word, so the slices partition
    the entries: the reference count the closed form is compared against.
    """
    letters = Letters(ring.structure)
    code = letters.index.__getitem__
    window = [(code(g), tuple(map(code, t))) for g, t in pair_oracle(ring, n) if len(t) <= n]
    codes = Codes(len(letters.labels), n)
    step = max(1, _SLICE_WORDS // (codes.off[n] + 1))
    for lo in range(0, codes.size, step):
        entries: set = set()
        _toggle_triples(entries, window, codes, lo, min(lo + step, codes.size))
        yield codes, entries


def sliced_count(ring, n: int) -> int:
    """Nonzero entries of the window matrix, counted slice by slice."""
    return sum(len(entries) for _, entries in _transpose_slices(ring, n))


def decode(codes, code: int) -> Tuple[int, ...]:
    """The word of letter indices behind a ``Codes`` code."""
    length = bisect_right(codes.off, code) - 1
    value = code - codes.off[length]
    word = []
    for _ in range(length):
        value, g = divmod(value, codes.size)
        word.append(g)
    return tuple(reversed(word))


def _perturbed_complex(s, retract, n: int) -> GradedMatrixMap:
    """Differential induced on length <= n words of cohomology classes.

    Tensor powers of (i, p, h) contract the order-n complex of (V, m_1)
    onto words in the cohomology of m_1; the strictly length-decreasing
    windows perturb the zero differential, and the series terminates
    because every application shortens the word.  Columns are computed
    independently: include the word, push through the series, project.
    The library's perturbation engine is the window matrix of the
    transferred minimal model; this series is its reference.
    """
    modulus = s.modulus
    letters = Letters(s)

    def expand(k: int, vec: int) -> Tuple[int, ...]:
        row = letters.by_degree.get(k, ())
        return tuple(row[i] for i in bits(vec))

    position = {}
    for names in s.basis.values():
        for i, x in enumerate(names):
            position[letters.index[x]] = i
    classes = [(k, i) for k in retract.degrees() for i in range(retract.dim(k))]
    cdeg = [k for k, _ in classes]
    clabels = [retract.label(k, 1 << i) for k, i in classes]
    cpos = {c: t for t, c in enumerate(classes)}
    reps = [expand(k, retract.include(k, 1 << i)) for k, i in classes]
    hmap: List[Tuple[int, ...]] = []
    ipmap: List[Tuple[int, ...]] = []
    pmap: List[Tuple[int, ...]] = []
    for g in range(len(letters.labels)):
        k = letters.degree[g]
        unit = 1 << position[g]
        hmap.append(expand(canon_degree(modulus, k - 1), retract.homotopy(k, unit)))
        coords = retract.project(k, unit)
        ipmap.append(expand(k, retract.include(k, coords)))
        pmap.append(tuple(cpos[(k, i)] for i in bits(coords)))

    shortening = {j: table for j, table in letter_windows(s, letters).items() if j >= 2}

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
                for combo in product(*heads, middle):
                    _toggle(out, combo + tail)
        return out

    groups = words_by_degree(cdeg, n, modulus)
    index = {w: (k, i) for k, ws in groups.items() for i, w in enumerate(ws)}
    cols = {}
    for k, ws in groups.items():
        target = canon_degree(modulus, k + 1)
        kcols = []
        for u in ws:
            choices = [reps[c] for c in u]
            if any(not ch for ch in choices):
                kcols.append(0)
                continue
            acc: set = set()
            current = shrink(set(product(*choices)))
            while current:
                acc ^= current
                current = shrink(tensor_homotopy(current))
            vec = 0
            for w in acc:
                parts = [pmap[x] for x in w]
                if any(not pc for pc in parts):
                    continue
                for cw in product(*parts):
                    spot = index.get(cw)
                    if spot is None or spot[0] != target:
                        raise AssertionError(
                            "projected word %r leaves the degree-%d basis" % (cw, target)
                        )
                    vec ^= 1 << spot[1]
            kcols.append(vec)
        cols[k] = kcols
    basis = {
        k: tuple("|".join(clabels[c] for c in w) for w in ws) for k, ws in groups.items()
    }
    return GradedMatrixMap(modulus, 1, basis, cols)


def random_elementary_iso(rng: random.Random, dga: DGA) -> Optional[ElementaryIso]:
    """A random generator shift q -> q + u of matching degree, if one exists."""
    target = rng.choice(dga.generators)
    others = [g for g in dga.generators if g != target]
    if not others:
        return None
    want = dga.degree(target)
    candidates = set()
    for _ in range(80):
        length = rng.randint(1, 3)
        word = tuple(rng.choice(others) for _ in range(length))
        if dga.word_degree(word) == want:
            candidates.add(word)
    if not candidates:
        return None
    pool = sorted(candidates)
    shift = frozenset(rng.sample(pool, k=min(len(pool), rng.randint(1, 2))))
    return ElementaryIso(target, shift)


def _apply_if_small(dga: DGA, iso: ElementaryIso, budget: int = 300) -> Optional[DGA]:
    """Apply the iso unless the rewritten differential would grow too large.

    Predicting the growth first keeps the sampler fast, and the post-check
    keeps every accepted DGA small.
    """
    if iso_expansion_terms(dga, iso) > 12 * budget:
        return None
    bigger = apply_elementary_iso(dga, iso)
    if sum(len(bigger.d(g)) for g in bigger.generators) > budget:
        return None
    return bigger


def random_dga(rng: random.Random, max_gens: int = 8, moduli=(0, 0, 0, 2, 3, 4, 6)) -> DGA:
    """Seeded valid DGA with at most ``max_gens`` generators."""
    modulus = rng.choice(moduli)
    seed_count = rng.randint(1, 2)
    names = tuple("g%d" % i for i in range(seed_count))
    degrees = {n: rng.randint(-3, 3) for n in names}
    dga = DGA(modulus, names, degrees, {})
    while len(dga.generators) + 2 <= max_gens and rng.random() < 0.8:
        dga = stabilize(dga, rng.randint(-2, 3))
    for _ in range(rng.randint(2, 8)):
        iso = random_elementary_iso(rng, dga)
        if iso is not None:
            smaller = _apply_if_small(dga, iso)
            if smaller is not None:
                dga = smaller
    assert_valid(dga)
    return dga


def random_augmented_dga(rng: random.Random, max_gens: int = 8):
    """A random DGA, one of its augmentations and their ring: (dga, aug, ring).

    A draw whose relation check would exceed ``MAX_RELATION_TERMS`` (long
    twisted words: 23 and 29 of seeds 0-19999 at max_gens 6 and 8, 3 of
    seeds 0-1999 at max_gens 10) is drawn again, since the tests check the
    relations of what they draw, and so is one that ``build_ring`` refuses.
    The ring that passed is returned, so no draw is built twice.
    """
    while True:
        dga = random_dga(rng, max_gens)
        augs = enumerate_augmentations(dga)
        if augs:
            aug = augs[rng.randrange(len(augs))]
            try:
                ring = build_ring(dga, aug)
            except ContractError:
                continue
            s = ring.structure
            if _relation_terms(s, s.arity) <= MAX_RELATION_TERMS:
                return dga, aug, ring


def flip_table_bit(ring, rng: random.Random):
    """``ring`` with one bit of an arity-2 or arity-3 table flipped, or None.

    The bit adds or removes a generator g in m_j(args), either on an entry
    the structure has or on random letters; the twisted d(g) gains or loses
    the word args alike, so the transpose check's pair sets stay equal and
    only the A-infinity relations can tell.  m_1, and with it both
    homologies, is untouched.  None when the letters drawn have no output
    degree in the basis.
    """
    s = ring.structure
    labels = sorted(s.order, key=s.order.get)
    entries = sorted(args for j in (2, 3) for args in s.tables.get(j, {}))
    if entries and rng.random() < 0.5:
        args = rng.choice(entries)
    else:
        args = tuple(rng.choice(labels) for _ in range(rng.randint(2, 3)))
    out = s.basis.get(s.out_degree(args), ())
    if not out:
        return None
    return toggle_entry(ring, args, out[rng.randrange(len(out))])


def toggle_entry(ring, args: Tuple[str, ...], g: str):
    """``ring`` with generator g added to or removed from m_|args|(args), in
    the structure and, as the word args of d(g), in the twist alike."""
    s = ring.structure
    tables = {j: dict(t) for j, t in s.tables.items()}
    table = tables.setdefault(len(args), {})
    table[args] = table.get(args, 0) ^ (1 << s.names(s.degree_of[g]).index(g))
    structure = AInftyStructure(s.modulus, s.basis, max(s.arity, len(args)), tables)
    twisted = ring.twisted
    diff = {h: twisted.d(h) for h in twisted.generators}
    diff[g] = diff[g] ^ {args}
    return replace(ring, twisted=twisted.replace_diff(diff), structure=structure)


def word_window_matrix(s, n: int) -> GradedMatrixMap:
    """The order-n window differential of ``s``, built word by word.

    Every word of length 1..n over the basis letters (in the structure's
    order), length-major and lexicographic, grouped by degree in that
    order; labels join the letters with "|", and each column is the
    ``_cochain_terms`` image of its word.  The reference that
    ``tilde_complex`` is compared against, basis order included, and whose
    ``is_square_zero`` is the window d d = 0 that the library reads off the
    A-infinity relations.
    """
    letters = Letters(s)
    windows = letter_windows(s, letters)
    groups = words_by_degree(letters.degree, n, s.modulus)
    place = {w: i for ws in groups.values() for i, w in enumerate(ws)}
    cols = {
        k: [sum(1 << place[v] for v in _cochain_terms(windows, w)) for w in ws]
        for k, ws in groups.items()
    }
    basis = {k: tuple(letters.word_label(w) for w in ws) for k, ws in groups.items()}
    return GradedMatrixMap(s.modulus, 1, basis, cols)


def random_dgas(seed: int, count: int, max_gens: int = 8) -> List[DGA]:
    rng = random.Random(seed)
    return [random_dga(rng, max_gens) for _ in range(count)]


def mirror_bases() -> List[DGA]:
    """The bases of the benchmark's ``mirror`` workload."""
    return [
        cupex(1, 3, 7),
        cupex(2, 5, 9),
        stabilize(trefoil(), 0),
        masseyex(1, 2, 3, 4),
        masseyex(2, 3, 5, 9),
        masseyex(1, 3, 6, 12),
        masseyex(2, 3, 5, 8),
        masseyex(1, 4, 9, 20),
    ]


def random_disguised_base(rng: random.Random) -> DGA:
    """A cupex or masseyex base in disguise: up to two stabilizations, in
    degree 0 half the time, then up to four elementary isomorphisms.

    A ``random_dga`` draw grows from a zero differential by moves that
    commute with mirroring, so it is isomorphic to its mirror.  These bases
    carry a cup or Massey product that is not commutative, and the
    disguise preserves it, so most draws are told from their mirrors; a
    degree-0 stabilization doubles the augmentations and shares their rings.
    """
    k, l, m = sorted(rng.sample(range(1, 6), 3))
    dga = cupex(k, l, m) if rng.random() < 0.5 else masseyex(1, k, l, m)
    for _ in range(rng.randint(0, 2)):
        dga = stabilize(dga, rng.choice((0, 0, -1, 1)))
    for _ in range(rng.randint(1, 4)):
        iso = random_elementary_iso(rng, dga)
        if iso is not None:
            dga = _apply_if_small(dga, iso, budget=600) or dga
    assert_valid(dga)
    return dga


def apply(s: AInftyStructure, pairs: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """Reference multilinear m_k on a tuple of (degree, vector) arguments,
    label tuple by label tuple, where the library reads the entries grouped
    by degree tuple (``AInftyStructure.grouped`` with ``_apply_entries``).

    Returns (output degree, output vector); the degree is meaningful even
    when the vector is zero.
    """
    outdeg = canon_degree(s.modulus, sum(d for d, _ in pairs) + 1)
    table = s.tables.get(len(pairs))
    if not table:
        return outdeg, 0
    choices = [[s.names(d)[i] for i in bits(vec)] for d, vec in pairs]
    return outdeg, reduce(xor, (table.get(combo, 0) for combo in product(*choices)), 0)


def chain_p3(h, s, x: HClass, y: HClass, z: HClass) -> Tuple[int, int]:
    """Degree and chain vector of m_3(ix, iy, iz) + m_2(ix, h m_2(iy, iz)) + m_2(h m_2(ix, iy), iz).

    Computed on the representatives of x, y, z themselves; the library
    keeps only its projection on basis classes, the minimal model's mu_3.
    """
    ix = h.include(x.degree, x.coords)
    iy = h.include(y.degree, y.coords)
    iz = h.include(z.degree, z.coords)
    dxy, vxy = apply(s, [(h.canon(x.degree), ix), (h.canon(y.degree), iy)])
    dyz, vyz = apply(s, [(h.canon(y.degree), iy), (h.canon(z.degree), iz)])
    xt = h.homotopy(dxy, vxy)  # bounds m_2(x, y) when that product is exact
    yt = h.homotopy(dyz, vyz)  # bounds m_2(y, z) when that product is exact
    d3, v3 = apply(s, 
        [(h.canon(x.degree), ix), (h.canon(y.degree), iy), (h.canon(z.degree), iz)]
    )
    _, va = apply(s, [(h.canon(x.degree), ix), (h.canon(dyz - h.shift), yt)])
    _, vb = apply(s, [(h.canon(dxy - h.shift), xt), (h.canon(z.degree), iz)])
    return d3, v3 ^ va ^ vb


def chain_cup_product(h, s, x: HClass, y: HClass) -> HClass:
    """Reference ``ainfty.cup_product``: the class of m_2 on the chosen
    representatives of x and y, degree |x| + |y| + 1, summed label pair by
    label pair (``apply``), where the library reads the class rows of the
    product table's pair block, built entry by entry."""
    xv, yv = h.include(x.degree, x.coords), h.include(y.degree, y.coords)
    deg, vec = apply(s, [(h.canon(x.degree), xv), (h.canon(y.degree), yv)])
    return HClass(deg, h.class_of(deg, vec))


def cup_table(h, s, xs, ys):
    """Chain-level cup products x * y for every x in xs and y in ys, x-major."""
    return [chain_cup_product(h, s, x, y) for x in xs for y in ys]


def chain_massey_triple(h, s, x: HClass, y: HClass, z: HClass) -> MasseyResult:
    """Reference triple Massey product, chain-level on the given class tuple.

    The class of ``chain_p3`` on the representatives of x, y, z, with the
    indeterminacy x H + H z from chain-level cups; the library reads the
    same value off its product table by multilinearity.
    """
    for which, (u, v) in (("first", (x, y)), ("second", (y, z))):
        cup = chain_cup_product(h, s, u, v)
        if cup.coords:
            return MasseyResult(
                "undefined",
                witness="%s pair has nonzero product %s" % (which, h.label(cup.degree, cup.coords)),
            )
    d3, vec = chain_p3(h, s, x, y, z)
    value = h.class_of(d3, vec)
    indet = cup_table(h, s, [x], basis_classes(h, d3 - x.degree - 1)) + cup_table(
        h, s, basis_classes(h, d3 - z.degree - 1), [z]
    )
    return MasseyResult(
        "defined",
        degree=d3,
        value=value,
        indeterminacy=span_basis(c.coords for c in indet),
        systems=1,
    )


# Complete chain-level systems ``chain_massey_higher`` walks unless told otherwise.
CHAIN_MAX_SYSTEMS = 1 << 20


@dataclass
class ChainMasseyResult(MasseyResult):
    """A ``MasseyResult`` that also says whether the walk stopped at its cap."""

    truncated: bool = False


def chain_massey_higher(
    h,
    s: AInftyStructure,
    classes: Sequence[HClass],
    cap: int = CHAIN_MAX_SYSTEMS,
) -> ChainMasseyResult:
    """Reference ``massey_higher``: order-n Massey product by exhaustive
    chain-level defining-system enumeration.

    Builds families b[l,m] with b[m,m] representing the m-th input class and
    d(b[l,m]) equal to the sum over proper consecutive partitions of [l,m]
    of m_k applied to the blocks.  The bracket value applies the same sum to
    [1,n].  All GF(2) choices (representative shifts by boundaries, solution
    shifts by cocycles) are enumerated, up to ``cap`` complete systems.
    """
    n = len(classes)
    if n < 3:
        raise ContractError("higher Massey products need at least 3 classes")
    if cap < 1:
        raise ContractError("system cap must be positive")

    deg: Dict[Tuple[int, int], int] = {}
    for l in range(1, n + 1):
        run = 0
        for m in range(l, n + 1):
            run += classes[m - 1].degree
            deg[(l, m)] = h.canon(run)

    variables: List[Tuple[int, int]] = []
    for width in range(n - 1):
        for l in range(1, n + 1 - width):
            m = l + width
            if (l, m) != (1, n):
                variables.append((l, m))

    def partitions(l: int, m: int):
        """Partitions of [l,m] into 2..arity consecutive blocks (first, last)."""
        out = []
        for r in range(2, min(s.arity, m - l + 1) + 1):
            for comp in _compositions(m - l + 1, r):
                blocks = []
                start = l
                for c in comp:
                    blocks.append((start, start + c - 1))
                    start += c
                out.append(blocks)
        return out

    parts_cache = {(l, m): partitions(l, m) for (l, m) in variables + [(1, n)]}

    state: Dict[Tuple[int, int], int] = {}
    values: set = set()
    counters = {"systems": 0, "visited": 0}
    obstruction: List[str] = []
    value_degree = h.canon(sum(c.degree for c in classes) + 1)

    def block_sum(l: int, m: int) -> int:
        total = 0
        for blocks in parts_cache[(l, m)]:
            pairs = [(deg[b], state[b]) for b in blocks]
            if any(v == 0 for _, v in pairs):
                continue
            _, vec = apply(s, pairs)
            total ^= vec
        return total

    def freedom(l: int, m: int) -> Tuple[int, List[int]]:
        """Base point and shift basis for variable (l, m), or obstruction (None)."""
        k = deg[(l, m)]
        if l == m:
            base = h.include(k, classes[l - 1].coords)
            return base, list(h.boundaries.get(k, []))
        target = block_sum(l, m)  # lives in degree k + 1
        tdeg = h.canon(k + 1)
        if not h.is_cycle(tdeg, target):
            raise InternalConsistencyError(
                "defining-system constraint at (%d, %d) is not closed" % (l, m)
            )
        obs = h.project(tdeg, target)
        if obs:
            obstruction.append(
                "sub-bracket obstruction %s at (%d, %d)" % (h.label(tdeg, obs), l, m)
            )
            return -1, []
        return h.homotopy(tdeg, target), list(h.cycles.get(k, []))

    def walk(idx: int) -> bool:
        """DFS over variable choices; returns False to abort (cap exhausted)."""
        counters["visited"] += 1
        if counters["visited"] > 4 * cap:
            return False
        if idx == len(variables):
            value = block_sum(1, n)
            if not h.is_cycle(value_degree, value):
                raise InternalConsistencyError("Massey bracket value is not closed")
            values.add(h.project(value_degree, value))
            counters["systems"] += 1
            return counters["systems"] < cap
        l, m = variables[idx]
        base, shifts = freedom(l, m)
        if base == -1:
            return True  # dead branch, keep searching elsewhere
        for mask in range(1 << len(shifts)):
            vec = base
            for i in bits(mask):
                vec ^= shifts[i]
            state[(l, m)] = vec
            keep_going = walk(idx + 1)
            del state[(l, m)]
            if not keep_going:
                return False
        return True

    completed = walk(0)
    truncated = not completed

    if not values:
        witness = obstruction[-1] if obstruction else "no defining system found"
        return ChainMasseyResult("undefined", witness=witness, truncated=truncated)
    ordered = sorted(values)
    rep = ordered[0]
    indet = span_basis([v ^ rep for v in ordered if v != rep])
    return ChainMasseyResult(
        "defined",
        degree=value_degree,
        value=rep,
        indeterminacy=indet,
        value_set=ordered,
        truncated=truncated,
        systems=counters["systems"],
    )


def block_triples(h, s):
    """Reference chain table p_3 of the arity-3 transfer, built block by block.

    Per degree pair the lifts i_2 = h(m_2) of the basis pairs, then per
    degree triple Kadeishvili's p_3 = m_3(i, i, i) + m_2(i, i_2) + m_2(i_2, i)
    on every basis triple from m_2, m_3 and h; the nonzero vectors, keyed by
    degree triple and then basis-index triple.  The library keeps only
    their projections, the minimal model's mu_3.
    """
    degrees = h.degrees()
    incl = {k: [h.include(k, 1 << i) for i in range(h.dim(k))] for k in degrees}
    lifts = {}
    for a, b in product(degrees, repeat=2):
        degree = h.canon(a + b + 1)
        lifts[(a, b)] = [
            [h.homotopy(degree, apply(s, [(a, x), (b, y)])[1]) for y in incl[b]] for x in incl[a]
        ]
    blocks = {}
    for a, b, c in product(degrees, repeat=3):
        ab = h.canon(a + b + 1 - h.shift)
        bc = h.canon(b + c + 1 - h.shift)
        for (i, x), (j, y), (k, z) in product(*(enumerate(incl[d]) for d in (a, b, c))):
            vec = apply(s, [(a, x), (b, y), (c, z)])[1]
            vec ^= apply(s, [(a, x), (bc, lifts[(b, c)][j][k])])[1]
            vec ^= apply(s, [(ab, lifts[(a, b)][i][j]), (c, z)])[1]
            if vec:
                blocks.setdefault((a, b, c), {})[(i, j, k)] = vec
    return blocks


def _class_tuples(dims: Sequence[int]) -> int:
    """The number of tuples of nonzero classes in degrees of these dimensions."""
    return prod((1 << d) - 1 for d in dims)


def _tuple_space(dims: Sequence[int]) -> bool:
    """Whether ``massey_table`` admits a degree tuple of these dimensions."""
    return _class_tuples(dims) <= fingerprint.DEFAULT_MAX_TUPLES


def apply_block_annihilators(ring, a: int, b: int) -> Dict[int, List[int]]:
    """Reference ``ProductTable.annihilators``: each nonzero class x of degree
    a -> the nonzero y of degree b with x y = 0, by ``apply_block`` on the
    (a, b) pair block for every pair, where the library skips the degree
    pairs with no chain-level m_2 entry."""
    h = ring.cochain
    pair, ys = ring.products.pair(a, b).coords, range(1, 1 << h.dim(b))
    return {x: [y for y in ys if not apply_block(pair, x, y)] for x in range(1, 1 << h.dim(a))}


def list_walk_flags(mu: AInftyStructure, degrees: Tuple[int, ...], dims: Sequence[int], zero):
    """Reference ``fingerprint._walk_flags`` with ``massey_table``'s reach
    test in front: the class tuples whose adjacent products all vanish
    listed from ``zero``'s lists of y, (False, False) where there is none,
    and otherwise each walked in product order up to the first nonzero one,
    where the library skips the degree tuples with no entry of mu on a run
    of three or more classes."""
    combos = [(x,) for x in range(1, 1 << dims[0])]
    for after in map(zero, degrees, degrees[1:]):
        combos = [c + (y,) for c in combos for y in after[c[-1]]]
    if not combos:
        return False, False
    defined, walk = False, _BracketWalk(mu, degrees)
    for combo in combos:
        here, nonzero = walk.flags(combo)
        if nonzero:
            return True, True
        defined = defined or here
    return defined, False


def per_tuple_massey_systems(dim, tuples) -> List[int]:
    """Reference ``check_massey_budget``'s count: the running total over
    ``tuples`` of count << (the dims of every inner run summed), each run of
    2 to n - 2 classes of an n-tuple read on its own, where the library
    extends each prefix's sum."""
    totals, total = [], 0
    for degrees, count in tuples:
        n = len(degrees)
        runs = [sum(degrees[l : l + w]) for w in range(2, n - 1) for l in range(n - w + 1)]
        total += count << sum(map(dim, runs))
        totals.append(total)
    return totals


def degree_scan_massey_table(ring, massey_order: int = DEFAULT_MASSEY_ORDER):
    """Reference ``massey_table``: every admitted degree tuple scanned for a
    run with an entry of mu, with ``apply_block_annihilators``, where the
    library enumerates the support from mu's entries and admits tuples by
    one product of class counts."""
    h = ring.cochain
    dim_of = h.dims()
    degrees = sorted(dim_of)

    def admitted(order: int):
        tuples = zip(product(degrees, repeat=order), product(dim_of.values(), repeat=order))
        return ((prefix, dims) for prefix, dims in tuples if _tuple_space(dims))

    if massey_order >= 4:
        tuples = (t for o in range(4, massey_order + 1) for t in admitted(o))
        check_massey_budget(h, ((prefix, _class_tuples(dims)) for prefix, dims in tuples))
    if massey_order >= 3:
        ring.minimal(massey_order)
    table = {}
    zero = lru_cache(maxsize=None)(partial(apply_block_annihilators, ring))
    for order in range(3, massey_order + 1):
        mu = ring.minimal(order)[0]
        runs = [(l, m, mu.grouped(m - l)) for l in range(order) for m in range(l + 2, order + 1)]
        for prefix, dims in admitted(order):
            table[(order, prefix)] = (True, False)
            for l, m, grouped in runs:
                if prefix[l:m] in grouped:
                    table[(order, prefix)] = list_walk_flags(mu, prefix, dims, zero)
                    break
    return table


def cup_product_support(ring) -> List[Tuple[int, int]]:
    """Reference ``ProductTable.support``, with the fact it rests on: the
    degree pairs of H on which some entry of ``ring.structure.tables[2]``
    lies, read label by label, after the chain-level cup on every pair of
    basis classes is found 0 off them."""
    h, s = ring.cochain, ring.structure
    degrees = h.degrees()
    entries = {tuple(s.degree_of[x] for x in args) for args in s.tables.get(2, {})}
    support = [(a, b) for a, b in product(degrees, repeat=2) if (a, b) in entries]
    for a, b in product(degrees, repeat=2):
        if (a, b) not in support:
            for x, y in product(basis_classes(h, a), basis_classes(h, b)):
                assert not chain_cup_product(h, s, x, y).coords, (x, y)
    return support


def per_order_dim_table(ring, order_cap: int) -> Dict[Tuple[int, int], int]:
    """Reference ``order_dim_table``: one perturbation-engine
    ``order_n_cohomology`` per order 1..order_cap, ascending, each refusing
    or failing as it would on its own."""
    table = {}
    for n in range(1, order_cap + 1):
        result = order_n_cohomology(ring, n, engine="perturbation")
        for degree, dim in sorted(result.dims.items()):
            if dim:
                table[(n, degree)] = dim
    return table


def closed_letters(count: int, modulus: int) -> DGA:
    """Letters g1..g<count> of degrees 1..count and no differential."""
    names = tuple("g%d" % i for i in range(1, count + 1))
    return DGA(modulus, names, {g: i for i, g in enumerate(names, 1)})


def sorted_opposite(fp: Fingerprint) -> Fingerprint:
    """Reference ``fingerprint._opposite``: every field of each reversed
    profile sorted again, and then the profiles, where the library copies
    the Massey field and rewrites only the keys whose flags differ from
    their reversal's."""
    return Fingerprint(
        tuple(
            sorted(
                AugmentationProfile(
                    p.dims,
                    tuple(sorted(((s, r), v) for (r, s), v in p.cup_ranks)),
                    tuple(sorted(((o, t[::-1]), v) for (o, t), v in p.massey)),
                    p.order_dims,
                )
                for p in fp.profiles
            )
        )
    )


def all_pairs_cup_rank_table(ring, bases=None) -> Dict[Tuple[int, int], int]:
    """Reference ``cup_rank_table``: the rank on every degree pair, where the
    library reads only the pairs with a chain-level m_2 entry."""
    if bases is None:
        h = ring.cochain
        bases = {k: [1 << i for i in range(h.dim(k))] for k in h.degrees()}
    degrees = sorted(bases)
    table = {}
    for r in degrees:
        for s in degrees:
            coords = ring.products.pair(r, s).coords
            value = rank(apply_block(coords, xv, yv) for xv in bases[r] for yv in bases[s])
            if value:
                table[(r, s)] = value
    return table


def sorted_union_first_difference(left, right) -> str:
    """Reference ``fingerprint._first_difference``: the union of every
    profile's keys, sorted whole, each compared, where the library
    compares only the keys at which some distinct profile's value differs
    from the first's and stops at the first key whose values differ."""
    if len(left.profiles) != len(right.profiles):
        return "augmentation count %d vs %d" % (len(left.profiles), len(right.profiles))
    messages = {
        "dims": "dim of cohomology in degree %s across augmentations: %s vs %s",
        "cup_ranks": "rank of the cup product in bidegree %s across augmentations: %s vs %s",
        "massey": "Massey bracket summary (defined, nonzero) in degree tuple %s: %s vs %s",
        "order_dims": "order-n cohomology dim at (n, degree) %s: %s vs %s",
    }
    for field in ("dims", "cup_ranks", "massey", "order_dims"):
        missing = _missing(field)
        lt = [dict(getattr(p, field)) for p in left.profiles]
        rt = [dict(getattr(p, field)) for p in right.profiles]
        for key in sorted({k for t in lt + rt for k in t}):
            lv = sorted(t.get(key, missing) for t in lt)
            rv = sorted(t.get(key, missing) for t in rt)
            if lv != rv:
                return messages[field] % (key, lv, rv)
    return "profiles differ only under joint per-augmentation pairing"


def every_triple_massey_table(ring):
    """Reference order-3 ``massey_table``: the per-bracket (defined, nonzero)
    on every admitted degree triple, where the library skips the triples on
    none of whose runs mu_2 or mu_3 has an entry."""
    h = ring.cochain
    mu = ring.minimal(3)[0]
    table = {}
    for prefix in product(sorted(h.dims()), repeat=3):
        dims = [h.dim(k) for k in prefix]
        if _tuple_space(dims):
            walk = _BracketWalk(mu, prefix)
            flags = [walk.flags(c) for c in product(*(range(1, 1 << d) for d in dims))]
            table[(3, prefix)] = (any(d for d, _ in flags), any(z for _, z in flags))
    return table


def minimal_walk_massey(mu: AInftyStructure, classes: Sequence[HClass]) -> MasseyResult:
    """Reference ``massey_higher``: every defining system of the minimal model,
    the two outer variables b[1, n-1] and b[2, n] included, walked one by one
    through ``AInftyStructure.apply``.

    A variable b[l, m] is a dead branch where its partition sum is nonzero
    and otherwise ranges over all of H in its degree; the value set is the
    set of partition sums over [1, n], and the witness of an undefined
    bracket the last obstruction met.
    """
    n = len(classes)
    deg: Dict[Tuple[int, int], int] = {}
    state: Dict[Tuple[int, int], int] = {}
    for l in range(1, n + 1):
        for m in range(l, n + 1):
            deg[(l, m)] = canon_degree(mu.modulus, sum(c.degree for c in classes[l - 1 : m]))
        state[(l, l)] = classes[l - 1].coords
    variables = [(l, l + width) for width in range(1, n - 1) for l in range(1, n + 1 - width)]

    def partitions(l: int, m: int) -> List[List[Tuple[int, int]]]:
        out = []
        for r in range(2, m - l + 2):
            for comp in _compositions(m - l + 1, r):
                starts = [l + sum(comp[:i]) for i in range(r)]
                out.append([(a, a + c - 1) for a, c in zip(starts, comp)])
        return out

    parts = {(l, m): partitions(l, m) for (l, m) in variables + [(1, n)]}
    values = set()
    systems = 0
    witness = "no defining system found"

    def block_sum(l: int, m: int) -> int:
        total = 0
        for blocks in parts[(l, m)]:
            pairs = [(deg[b], state[b]) for b in blocks]
            if all(v for _, v in pairs):
                total ^= apply(mu, pairs)[1]
        return total

    def walk(idx: int) -> None:
        nonlocal systems, witness
        if idx == len(variables):
            values.add(block_sum(1, n))
            systems += 1
            return
        l, m = variables[idx]
        obs = block_sum(l, m)
        if obs:
            label = vector_label(mu.names(deg[(l, m)] + 1), obs)
            witness = "sub-bracket obstruction %s at (%d, %d)" % (label, l, m)
            return
        for vec in range(1 << len(mu.names(deg[(l, m)]))):
            state[(l, m)] = vec
            walk(idx + 1)

    walk(0)
    if not values:
        return MasseyResult("undefined", witness=witness)
    ordered = sorted(values)
    rep = ordered[0]
    return MasseyResult(
        "defined",
        degree=canon_degree(mu.modulus, sum(c.degree for c in classes) + 1),
        value=rep,
        indeterminacy=span_basis([v ^ rep for v in ordered[1:]]),
        value_set=ordered,
        systems=systems,
    )


def _field_multiset(fp, field: str) -> dict:
    tables = [dict(getattr(p, field)) for p in fp.profiles]
    keys = sorted({k for t in tables for k in t})
    return {k: sorted(t.get(k, _missing(field)) for t in tables) for k in keys}


def _missing(field: str):
    return (False, False) if field == "massey" else 0


def multiset_first_difference(left, right) -> str:
    """Reference witness of ``compare_mirror``: every key's sorted multiset of
    values, for both fingerprints, built for a whole field before any key is
    compared, where the library sorts one key's values at a time and stops
    at the first that differs."""
    if len(left.profiles) != len(right.profiles):
        return "augmentation count %d vs %d" % (len(left.profiles), len(right.profiles))
    messages = {
        "dims": "dim of cohomology in degree %s across augmentations: %s vs %s",
        "cup_ranks": "rank of the cup product in bidegree %s across augmentations: %s vs %s",
        "massey": "Massey bracket summary (defined, nonzero) in degree tuple %s: %s vs %s",
        "order_dims": "order-n cohomology dim at (n, degree) %s: %s vs %s",
    }
    for field in ("dims", "cup_ranks", "massey", "order_dims"):
        lt, rt = _field_multiset(left, field), _field_multiset(right, field)
        for key in sorted(set(lt) | set(rt)):
            miss = [_missing(field)] * len(left.profiles)
            lv, rv = lt.get(key, miss), rt.get(key, miss)
            if lv != rv:
                return messages[field] % (key, lv, rv)
    return "profiles differ only under joint per-augmentation pairing"


def two_sided_compare_mirror(
    dga: DGA,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MirrorReport:
    """Reference ``compare_mirror``: fingerprints the knot and, from scratch,
    its mirror (every ring, transfer, product table and order-n complex
    built a second time), where the library derives the mirror's
    fingerprint as the opposite of the knot's."""
    args = (massey_order, order_cap)
    knot = fingerprint_dga(dga, *args)
    mirror = fingerprint_dga(mirror_dga(dga), *args)
    if Counter(knot.profiles) == Counter(mirror.profiles):
        return MirrorReport(
            "INDISTINGUISHABLE-BY-THESE-INVARIANTS",
            None,
            "equal fingerprints do not certify an isomorphism; the comparison is inconclusive",
            knot,
            mirror,
        )
    return MirrorReport(
        "DISTINGUISHED",
        _first_difference(knot, mirror),
        "the named invariant is preserved by every degree-preserving isomorphism",
        knot,
        mirror,
    )


def oracle_rings():
    """Rings of every augmentation of the examples the oracles run on, and of their mirrors."""
    for dga in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20), trivial_bracket_dga()):
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                yield build_ring(side, aug)


def twist_firsts(dga: DGA) -> List[Augmentation]:
    """The first augmentation of each twist, the ones ``per_twist`` computes on."""
    firsts: List[Augmentation] = []
    per_twist(enumerate_augmentations(dga), firsts.append)
    return firsts


def proved_rings():
    """Rings of every twist of the bundled examples, both sides, and of the
    suite's random draws: the rings whose relations and retracts
    ``build_ring`` and ``linear._retract`` prove instead of checking."""
    bundled = [dga for _, dga in bundled_examples()]
    for dga in [side for d in bundled for side in (d, mirror_dga(d))] + random_dgas(20261018, 30):
        for aug in twist_firsts(dga):
            yield build_ring(dga, aug)


def assert_retract_identities(h) -> None:
    """The strong deformation retract laws on every basis vector: closed
    representatives, p i = id, h i = 0, d h + h d = id + i p, h h = 0, p h = 0."""
    m = h.differential
    for k in m.basis:
        for a in range(h.dim(k)):
            v = h.include(k, 1 << a)
            assert m.apply(k, v) == 0, ("representative not closed", k, a)
            assert h.project(k, v) == 1 << a, ("p i != id", k, a)
            assert h.homotopy(k, v) == 0, ("h i != 0", k, a)
        back, up = h.canon(k - m.shift), h.canon(k + m.shift)
        for j in range(m.dim(k)):
            v = 1 << j
            hv = h.homotopy(k, v)
            lhs = m.apply(back, hv) ^ h.homotopy(up, m.apply(k, v))
            assert lhs == v ^ h.include(k, h.project(k, v)), ("d h + h d != id + i p", k, j)
            assert h.homotopy(back, hv) == 0, ("h h != 0", k, j)
            assert h.project(back, hv) == 0, ("p h != 0", k, j)


def admitted_class_triples(h):
    """Every triple of nonzero classes in the degree triples massey_table visits."""
    degrees = [k for k in sorted(h.dims()) if h.dim(k)]
    for prefix in product(degrees, repeat=3):
        dims = [h.dim(k) for k in prefix]
        if _tuple_space(dims):
            for combo in product(*(range(1, 1 << d) for d in dims)):
                yield prefix, [HClass(k, v) for k, v in zip(prefix, combo)]


def per_tuple_composition_sum(m, f, degree_of, entry_degree, n, min_blocks, total) -> None:
    """Reference composition sum: m_r applied to every tuple of table entries.

    Adds sum over r >= min_blocks, c_1+..+c_r = n of m_r(f_{c_1} x .. x f_{c_r})
    to ``total`` by calling ``m.apply`` on every r-tuple of entries of the
    block tables, zero results included; the library's sum enumerates only
    the m_r entries that the inputs hit.
    """
    entries = {
        c: [(w, entry_degree(w), vec) for w, vec in f.get(c, {}).items()]
        for c in range(1, n + 1)
    }
    for r in range(min_blocks, min(m.arity, n) + 1):
        for cuts in combinations(range(1, n), r - 1):
            comp = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
            blocks = [entries[c] for c in comp]
            if not all(blocks):
                continue
            for chosen in product(*blocks):
                args = tuple(x for w, _, _ in chosen for x in w)
                got, val = apply(m, [(d, vec) for _, d, vec in chosen])
                want = canon_degree(m.modulus, sum(degree_of[x] for x in args) + 1)
                if got != want:
                    raise AssertionError(
                        "m_%d on (%s) lands in degree %d, not %d" % (r, ", ".join(args), got, want)
                    )
                if val:
                    cur = total.get(args, 0) ^ val
                    if cur:
                        total[args] = cur
                    else:
                        total.pop(args, None)


def _verify(dga: DGA, values: Dict[str, int]) -> None:
    """Reference ``augment._verify_solutions``: the check of one value
    assignment, generator by generator in declaration order."""
    for g in dga.generators:
        if values[g] and dga.degree(g) != 0:
            raise InternalConsistencyError(
                "augmentation is nonzero on %s of degree %d" % (g, dga.degree(g))
            )
        total = 0
        for w in dga.d(g):
            if all(values[x] == 1 for x in w):
                total ^= 1
        if total:
            raise InternalConsistencyError("augmentation fails to kill d %s" % g)


def first_failure_one_by_one(dga: DGA, augs) -> Optional[Tuple[int, str]]:
    """Reference ``augment._verify_solutions``: the index of the first
    member of ``augs``, in order, that ``_verify`` refuses and the message
    it raises; None when it refuses none."""
    for i, aug in enumerate(augs):
        try:
            _verify(dga, aug.as_dict())
        except InternalConsistencyError as exc:
            return i, str(exc)
    return None


def substitute_by_pmul(p: Poly, images: Dict[str, Poly]) -> Poly:
    """Reference ``algebra.substitute``: each word's image as a chain of
    ``pmul`` products, one per letter, reduced after every letter."""
    out = set()
    for w in p:
        acc = ONE
        for g in w:
            acc = pmul(acc, images.get(g, frozenset({(g,)})))
        out.symmetric_difference_update(acc)
    return frozenset(out)


def _substitute_value(eqs: List[Set[FrozenSet[str]]], var: str, value: int) -> None:
    for eq in eqs:
        touched = [m for m in eq if var in m]
        for m in touched:
            eq.discard(m)
            if value == 1:
                rest = m - {var}
                if rest in eq:
                    eq.discard(rest)
                else:
                    eq.add(rest)


def scan_propagation(eqs: List[Set[FrozenSet[str]]]):
    """Reference unit propagation: rounds that read every equation, each
    forced value substituted into every equation, until a round forces
    nothing.  (forced values, nonempty reduced equations in their order), or
    None when it derives 1 = 0 or two values for one letter."""
    assigned = {}
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            if not eq:
                continue
            if frozenset() in eq and len(eq) == 1:
                return None
            forced = []
            if len(eq) == 1:
                (m,) = tuple(eq)
                if len(m) == 1:
                    forced.append((next(iter(m)), 0))
            elif len(eq) == 2 and frozenset() in eq:
                other = next(m for m in eq if m)
                forced.extend((v, 1) for v in other)
            for var, value in forced:
                if assigned.get(var, value) != value:
                    return None
                if var not in assigned:
                    assigned[var] = value
                    _substitute_value(eqs, var, value)
                    changed = True
        eqs = [eq for eq in eqs if eq]
    return assigned, eqs


def brute_force_augmentations(dga: DGA) -> List[Augmentation]:
    """Reference ``enumerate_augmentations``: propagation by rounds
    (``scan_propagation``), then a brute force over every undetermined
    degree-0 letter, inert ones included, with one ``_verify`` per member,
    collected in a list."""
    zero_gens = [g for g in dga.generators if dga.degree(g) == 0]
    eqs = [eq for eq in (_equation(dga, dga.d(g)) for g in dga.generators) if eq]
    propagated = scan_propagation(eqs)
    if propagated is None:
        return []
    assigned, eqs = propagated
    free = [g for g in zero_gens if g not in assigned]
    if len(free) > MAX_FREE_GENERATORS:
        raise ContractError("over the budget MAX_FREE_GENERATORS = %d" % MAX_FREE_GENERATORS)
    trial = dict.fromkeys(dga.generators, 0)
    trial.update(assigned)
    out = []
    for bits in product((0, 1), repeat=len(free)):
        trial.update(zip(free, bits))
        if any(sum(all(trial[v] for v in m) for m in eq) & 1 for eq in eqs):
            continue
        _verify(dga, trial)
        out.append(Augmentation(tuple((g, trial[g]) for g in dga.generators)))
    return out


def assert_matches_brute_force(dga: DGA) -> None:
    """``enumerate_augmentations`` equals the brute force element by element:
    length, iteration, every index, every negative index, and IndexError
    one past either end; the rows written from the trials are the members'
    ``describe``."""
    import pytest  # here alone: the limits table imports this module without pytest

    want = brute_force_augmentations(dga)
    got = enumerate_augmentations(dga)
    assert len(got) == len(want)
    assert list(got) == want
    assert list(got.descriptions()) == [aug.describe() for aug in want]
    for i, aug in enumerate(want):
        assert got[i] == aug and got[i - len(want)] == aug, i
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[i]


def twist_groups(dga: DGA, augs) -> List[List[int]]:
    """Reference grouping for ``per_twist``: indices of ``augs`` grouped by
    their values on the letters that occur in some word of the differential,
    groups ordered by their first member, every augmentation passing
    ``twist``'s contract checks in order."""
    occurring = {x for g in dga.generators for w in dga.d(g) for x in w}
    letters = [g for g in dga.generators if g in occurring]
    groups = {}
    for i, aug in enumerate(augs):
        values = _checked_values(dga, aug)
        groups.setdefault(tuple(values[g] for g in letters), []).append(i)
    return list(groups.values())


def per_augmentation_fingerprint(
    dga: DGA, augs, massey_order: int, order_cap: int
) -> Fingerprint:
    """Reference ``fingerprint._fingerprint``: a ring and a profile for every
    augmentation, where the library builds one per twist."""
    profiles = [profile_for(build_ring(dga, aug), massey_order, order_cap) for aug in augs]
    return Fingerprint(tuple(sorted(profiles)))


def per_augmentation_report(args) -> List[Tuple[str, str]]:
    """Reference ``cli.cmd_report``: a ring and its rows for every
    augmentation, where the library builds one per twist."""
    dga, rows = cli._load(args.file)
    rows.append(("generators", str(len(dga.generators))))
    rows.append(("modulus", str(dga.modulus)))
    augs = enumerate_augmentations(dga)
    rows.append(("augmentations", str(len(augs))))
    if not augs:
        rows.append(("note", cli.NO_AUGMENTATIONS))
    for i, aug in enumerate(augs):
        rows.append(("aug.%d" % i, aug.describe()))
        ring = build_ring(dga, aug)
        rows.extend(cli._dims_rows("aug.%d.cohomology.dim" % i, ring.cochain.dims()))
        rows.extend(("aug.%d.%s" % (i, key), value) for key, value in cli._product_rows(ring))
        result = duality_search(ring)
        if result.ok:
            rows.append(("aug.%d.duality" % i, "certificate"))
        else:
            rows.append(("aug.%d.duality" % i, "no certificate: %s" % result.reason))
    return rows


@contextmanager
def one_ring_per_augmentation():
    """``legch report`` and ``compare-mirror`` on the reference loops above.

    The parser binds each command's function once per process, so it is
    built again inside the block and again after it."""
    with patch.object(fingerprint, "_fingerprint", per_augmentation_fingerprint), patch.object(
        cli, "cmd_report", per_augmentation_report
    ):
        cli.build_parser.cache_clear()
        try:
            yield
        finally:
            cli.build_parser.cache_clear()


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


def duality_search_oracle(ring):
    """Reference ``linear.duality_search``: a Gram matrix built and checked for
    every (kappa, c, complement) in the search order, with both counts kept
    as the loop runs.

    ``ring`` carries the homological data: attributes ``chain`` and
    ``cochain`` (HomologyData of the two linearized complexes) and
    ``structure``, the adjoint A-infinity structure.  A Gram entry
    <[x] cup [y], kappa> pairs the chain vector of kappa with the cochain
    vector m_2(i x, i y), built label pair by label pair on the
    representatives of x and y (``apply``), where the library pairs the
    class coordinates of x y with kappa's row of the class pairing.

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
            "duality search over %d (kappa, c) candidates, over the budget"
            " MAX_DUALITY_PAIRS = %d" % (candidates, MAX_DUALITY_PAIRS)
        )
    if kd == 0 or cd == 0:
        return DualityFailure(
            "no candidates: dim of chain homology in degree 1 is %d, cochain %d"
            % (kd, cd),
            0,
            0,
        )

    limit = 1 << (cd - 1) if cd <= 6 else 1

    @lru_cache(maxsize=None)
    def m_2(ki: int, ci: int, kj: int, cj: int) -> int:
        x, y = cochain_h.include(ki, ci), cochain_h.include(kj, cj)
        return apply(ring.structure, [(ki, x), (kj, y)])[1]

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
                            row.append(pair_bit(m_2(ki, ci, kj, cj), kappa_vec))
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
