"""Shared test utilities: seeded random DGAs built from safe moves.

Random DGAs start from a zero-differential seed and grow by
stabilizations and elementary isomorphisms, both of which preserve
validity, so every produced DGA passes the validator by construction
(and we assert as much here to fail fast if a move is broken).  The
chain-level triple Massey product, the block-by-block triple builder, the
visit-every-triple Massey table, the per-tuple composition sum, the
word-by-word Leibniz and window expansions, the word-by-word window
matrix with its d d = 0, the sliced count of the window matrix and the
word-by-word perturbation series are kept here as the references that the
library's product table, its transferred p_3 blocks, its support-only
Massey table, its table-driven composition sum, its pair checks, its
window matrix and relation-based d d = 0, its closed-form entry count and
its minimal-model order-n engine are compared against.
"""

import random
from bisect import bisect_right
from dataclasses import replace
from itertools import combinations, product
from typing import List, Optional, Tuple

from legch import ContractError
from legch.ainfty import (
    AInftyStructure,
    HClass,
    MasseyResult,
    basis_classes,
    build_ring,
    cup_product,
)
from legch.algebra import (
    DGA,
    ElementaryIso,
    apply_elementary_iso,
    assert_valid,
    canon_degree,
    iso_expansion_terms,
    mirror_dga,
    stabilize,
)
from legch.augment import enumerate_augmentations
from legch.families import cupex, masseyex, trefoil
from legch.fileio import parse_dga
from legch.fingerprint import _tuple_space
from legch.gf2 import bits, span_basis
from legch.linear import GradedMatrixMap
from legch.tilde import _Codes, _Letters, _ring_pairs, _words_by_degree


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


def poly(*words: Tuple[str, ...]):
    return frozenset(tuple(w) for w in words)


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


def _toggle_triples(out: set, pairs, codes: _Codes, lo: int, hi: int) -> None:
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


# Column words per slice of the sliced count; bounds its peak memory.
_SLICE_WORDS = 1 << 15


def _transpose_slices(ring, n: int):
    """Check the pair sets, then yield the window matrix one column slice at a time.

    Each slice comes with the codes ``col * M + row`` of its nonzero
    entries; a slice covers as many first letters as keep it within
    ``_SLICE_WORDS`` column words (at least one letter).  Every triple
    behind an entry has that entry's column word, so the slices partition
    the entries: the reference count the closed form is compared against.
    """
    letters = _Letters(ring.structure)
    code = letters.index.__getitem__
    window = [(code(g), tuple(map(code, t))) for g, t in _ring_pairs(ring, n) if len(t) <= n]
    codes = _Codes(len(letters.labels), n)
    step = max(1, _SLICE_WORDS // (codes.off[n] + 1))
    for lo in range(0, codes.size, step):
        entries: set = set()
        _toggle_triples(entries, window, codes, lo, min(lo + step, codes.size))
        yield codes, entries


def sliced_count(ring, n: int) -> int:
    """Nonzero entries of the window matrix, counted slice by slice."""
    return sum(len(entries) for _, entries in _transpose_slices(ring, n))


def decode(codes, code: int) -> Tuple[int, ...]:
    """The word of letter indices behind a ``tilde._Codes`` code."""
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
    letters = _Letters(s)

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

    groups = _words_by_degree(cdeg, n, modulus)
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
    seeds 0-1999 at max_gens 10) is refused by ``build_ring`` and drawn
    again.  The ring that passed is returned, so no draw is built twice.
    """
    while True:
        dga = random_dga(rng, max_gens)
        augs = enumerate_augmentations(dga)
        if augs:
            aug = augs[rng.randrange(len(augs))]
            try:
                return dga, aug, build_ring(dga, aug)
            except ContractError:
                continue


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
    g = rng.randrange(len(out))
    tables = {j: dict(t) for j, t in s.tables.items()}
    table = tables.setdefault(len(args), {})
    table[args] = table.get(args, 0) ^ (1 << g)
    structure = AInftyStructure(s.modulus, s.basis, max(s.arity, len(args)), tables)
    twisted = ring.twisted
    diff = {h: twisted.d(h) for h in twisted.generators}
    diff[out[g]] = diff[out[g]] ^ {args}
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
    letters = _Letters(s)
    windows = letter_windows(s, letters)
    groups = {}
    for length in range(1, n + 1):
        for w in product(range(len(letters.labels)), repeat=length):
            k = canon_degree(s.modulus, sum(letters.degree[x] for x in w))
            groups.setdefault(k, []).append(w)
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


def chain_p3(h, s, x: HClass, y: HClass, z: HClass) -> Tuple[int, int]:
    """Degree and chain vector of m_3(ix, iy, iz) + m_2(ix, h m_2(iy, iz)) + m_2(h m_2(ix, iy), iz).

    Computed on the representatives of x, y, z themselves; the library's
    triple blocks hold this vector on basis classes.
    """
    ix = h.include(x.degree, x.coords)
    iy = h.include(y.degree, y.coords)
    iz = h.include(z.degree, z.coords)
    dxy, vxy = s.apply([(h.canon(x.degree), ix), (h.canon(y.degree), iy)])
    dyz, vyz = s.apply([(h.canon(y.degree), iy), (h.canon(z.degree), iz)])
    xt = h.homotopy(dxy, vxy)  # bounds m_2(x, y) when that product is exact
    yt = h.homotopy(dyz, vyz)  # bounds m_2(y, z) when that product is exact
    d3, v3 = s.apply(
        [(h.canon(x.degree), ix), (h.canon(y.degree), iy), (h.canon(z.degree), iz)]
    )
    _, va = s.apply([(h.canon(x.degree), ix), (h.canon(dyz - h.shift), yt)])
    _, vb = s.apply([(h.canon(dxy - h.shift), xt), (h.canon(z.degree), iz)])
    return d3, v3 ^ va ^ vb


def cup_table(h, s, xs, ys):
    """Chain-level cup products x * y for every x in xs and y in ys, x-major."""
    return [cup_product(h, s, x, y) for x in xs for y in ys]


def chain_massey_triple(h, s, x: HClass, y: HClass, z: HClass) -> MasseyResult:
    """Reference triple Massey product, chain-level on the given class tuple.

    The class of ``chain_p3`` on the representatives of x, y, z, with the
    indeterminacy x H + H z from chain-level cups; the library reads the
    same value off its product table by multilinearity.
    """
    for which, (u, v) in (("first", (x, y)), ("second", (y, z))):
        cup = cup_product(h, s, u, v)
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


def block_triples(h, s):
    """Reference triple blocks of ``ProductTable.triples``, built block by block.

    Per degree pair the lifts i_2 = h(m_2) of the basis pairs, then per
    degree triple Kadeishvili's p_3 = m_3(i, i, i) + m_2(i, i_2) + m_2(i_2, i)
    on every basis triple from m_2, m_3 and h; the nonzero vectors, keyed by
    degree triple and then basis-index triple.  The library reads the same
    vectors off the p_3 table of the ring's transfer.
    """
    degrees = h.degrees()
    incl = {k: [h.include(k, 1 << i) for i in range(h.dim(k))] for k in degrees}
    lifts = {}
    for a, b in product(degrees, repeat=2):
        degree = h.canon(a + b + 1)
        lifts[(a, b)] = [
            [h.homotopy(degree, s.apply([(a, x), (b, y)])[1]) for y in incl[b]] for x in incl[a]
        ]
    blocks = {}
    for a, b, c in product(degrees, repeat=3):
        ab = h.canon(a + b + 1 - h.shift)
        bc = h.canon(b + c + 1 - h.shift)
        for (i, x), (j, y), (k, z) in product(*(enumerate(incl[d]) for d in (a, b, c))):
            vec = s.apply([(a, x), (b, y), (c, z)])[1]
            vec ^= s.apply([(a, x), (bc, lifts[(b, c)][j][k])])[1]
            vec ^= s.apply([(ab, lifts[(a, b)][i][j]), (c, z)])[1]
            if vec:
                blocks.setdefault((a, b, c), {})[(i, j, k)] = vec
    return blocks


def every_triple_massey_table(ring):
    """Reference order-3 ``massey_table``: one flags pass on every admitted degree
    triple, where the library runs one only on the support of mu_2 and p_3."""
    h = ring.cochain
    table = {}
    for prefix in product(sorted(h.dims()), repeat=3):
        if _tuple_space([h.dim(k) for k in prefix]):
            table[(3, prefix)] = ring.products.flags(*prefix)
    return table


def oracle_rings():
    """Rings of every augmentation of the examples the oracles run on, and of their mirrors."""
    for dga in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20), trivial_bracket_dga()):
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                yield build_ring(side, aug)


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
                got, val = m.apply([(d, vec) for _, d, vec in chosen])
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
