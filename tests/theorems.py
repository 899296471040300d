"""The paper's theorem checks, beside the oracles that check them.

No ``legch`` command runs these; the tests do.  Each states one fact of
arXiv:0901.0490 about the order-n complexes of ``legch.tilde`` or the cup
ranks of ``legch.fingerprint`` and checks it on a caller's input:

* order-n complexes are invariant under A-infinity quasi-isomorphism
  (``tilde_of_morphism``, its blocks against ``composition_tilde_blocks``);
* the order-2 splitting is governed by the cup product
  (``splitting_check_n2``, against ``per_class_pair_splitting_check_n2``);
* a knot and its mirror have the same order-n dims
  (``reflection_compare``, its conjugation check against
  ``_word_by_word_reflection``);
* cup ranks do not depend on the basis of cohomology
  (``audit_basis_independence``, through the test oracle
  ``helpers.all_pairs_cup_rank_table``).

Orders are refused as the library refuses them (``tilde._check_order``).
Pytest does not collect this module.
"""

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, product
from operator import xor
from typing import Dict, List, Tuple

from helpers import _chain_terms, all_pairs_cup_rank_table
from legch import ContractError, InternalConsistencyError, tilde
from legch.ainfty import (
    AInftyMorphism,
    CohomologyRing,
    _compositions,
    basis_classes,
    build_ring,
    check_ainfty_morphism,
)
from legch.algebra import DGA, mirror_dga
from legch.augment import enumerate_augmentations, per_twist
from legch.fingerprint import cup_rank_table
from legch.gf2 import apply_cols, bits, rank
from legch.linear import HomologyData, _retract
from legch.tilde import (
    TildeComplex,
    _check_order,
    _word_count,
    order_n_cohomology,
    tilde_complex,
)


def order_n_homology(s, n: int) -> HomologyData:
    """The homology retract of the labelled order-n complex of a structure,
    its representatives words of the structure's letters: the complex of
    ``order_n_cohomology``'s dense engine on ``ring.structure``, and of its
    perturbation engine on ``ring.minimal(max(n, 2))[0]``.  The window
    relations checked by ``tilde_complex`` prove d d = 0, so it is reduced
    by ``linear._retract`` without squaring the matrix again."""
    return _retract(tilde_complex(s, n).differential)


def representatives(data: HomologyData, k: int) -> List[str]:
    """The labels of the basis classes of degree k."""
    return [data.label(k, 1 << i) for i in range(data.dim(k))]


def dense_order_n(ring: CohomologyRing, n: int):
    """``order_n_cohomology`` on the dense engine, the tests' reference,
    wherever ``MAX_WINDOW_BITS`` admits the window of the generators' words;
    on the perturbation engine, over words of classes, where it does not
    (masseyex(1,4,9,20) at n = 3)."""
    fits = tilde._window_bits(ring.structure, n) <= tilde.MAX_WINDOW_BITS
    return order_n_cohomology(ring, n, engine="dense" if fits else "perturbation")


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
        proved d d = 0 through the relations (Square zero, in the
        ``legch.tilde`` docstring), so they are reduced by
        ``linear._retract`` without squaring them again."""
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
    f_{i_r} over all compositions i_1 + ... + i_r = a, built by the bar
    map's own recursion F(w) = sum over c of f_c(w[:c]) x F(w[c:]), with
    F of the empty word the empty word, memoised per call.  The morphism
    equation is re-checked up to arity n first (failure rejects the
    input), and F d_src = d_dst F is asserted on the window matrices, one
    source word (column) at a time.
    """
    _check_order(n)
    if f.src is None or f.dst is None:
        raise ContractError("morphism does not carry source and target structures")
    if f.src.modulus != f.dst.modulus:
        raise ContractError("source and target structures use different moduli")
    check_ainfty_morphism(f, f.src, f.dst, n).require(ContractError)
    source = tilde_complex(f.src, n)
    target = tilde_complex(f.dst, n)

    images: Dict[Tuple[str, ...], set] = {(): {()}}

    def image(word: Tuple[str, ...]) -> set:
        if word not in images:
            out = images[word] = set()
            for c in range(1, len(word) + 1):
                vec = f.tables.get(c, {}).get(word[:c])
                if vec:
                    names = f.dst.names(sum(map(f.src.degree_of.__getitem__, word[:c])))
                    rest = image(word[c:])
                    out.symmetric_difference_update((names[i], *t) for i in bits(vec) for t in rest)
        return images[word]

    dst_index = {w: (k, i) for k, ws in target.words.items() for i, w in enumerate(ws)}
    blocks: Dict[int, List[int]] = {}
    for k, ws in source.words.items():
        kcols = []
        for w in ws:
            vec = 0
            for v in image(w):
                spot = dst_index.get(v)
                if spot is None or spot[0] != k:
                    raise InternalConsistencyError(
                        "image of the degree-%d word %s leaves that degree" % (k, "|".join(w))
                    )
                vec ^= 1 << spot[1]
            kcols.append(vec)
        blocks[k] = kcols
    d_src, d_dst = source.differential, target.differential
    for k, ws in source.words.items():
        after = blocks.get(d_src.canon(k + 1), [])
        for w, down, across in zip(ws, d_src.columns(k), blocks[k]):
            if apply_cols(after, down) != d_dst.apply(k, across):
                raise InternalConsistencyError(
                    "induced map fails to commute with the differentials on %s" % "|".join(w)
                )
    return TildeChainMap(source, target, blocks)


def composition_tilde_blocks(f, n: int) -> Dict[int, List[int]]:
    """Reference ``tilde_of_morphism(f, n).blocks``: the image of each source
    word summed over every composition of its length, one product of f
    blocks per composition, where ``tilde_of_morphism`` runs the bar map's
    recursion memoised on suffixes."""
    source, target = tilde_complex(f.src, n), tilde_complex(f.dst, n)

    def image(word: Tuple[str, ...]) -> set:
        out: set = set()
        for r in range(1, len(word) + 1):
            for comp in _compositions(len(word), r):
                lists = []
                start = 0
                for c in comp:
                    args = word[start : start + c]
                    vec = f.tables.get(c, {}).get(args)
                    if not vec:
                        break
                    names = f.dst.names(sum(map(f.src.degree_of.__getitem__, args)))
                    lists.append([names[i] for i in bits(vec)])
                    start += c
                else:
                    out.symmetric_difference_update(product(*lists))
        return out

    index = {w: i for ws in target.words.values() for i, w in enumerate(ws)}
    return {
        k: [reduce(xor, (1 << index[v] for v in image(w)), 0) for w in ws]
        for k, ws in source.words.items()
    }


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
    sequence is the cup product on the tensor square of cohomology, read
    off the class rows of the ring's pair blocks on the support
    (``ProductTable.support``), as every other pair block is zero.  So the
    image in each degree is the rank of the support's cup columns there,
    and the kernel on the degree-k part of H (x) H is the sum of
    dim H^a dim H^b over canon(a + b) = k, less that rank; no pair block
    off the support is built.  The order-2 dimensions must split as
    recorded in the report's convention string.
    """
    order2 = order_n_cohomology(ring, 2, engine="dense")
    h, products = ring.cochain, ring.products
    cup_cols: Dict[int, List[int]] = {}
    for a, b in products.support:
        coords = products.pair(a, b).coords
        cup_cols.setdefault(h.canon(a + b), []).extend(chain.from_iterable(coords))
    image = {kk: rank(cols) for kk, cols in cup_cols.items()}
    kernel: Counter = Counter()
    for (a, da), (b, db) in product(h.dims().items(), repeat=2):
        kernel[h.canon(a + b)] += da * db
    kernel.subtract(image)
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


def per_class_pair_splitting_check_n2(ring) -> SplittingReport:
    """Reference ``splitting_check_n2``: the cup product of every pair of
    basis classes through ``ProductTable.cup``, where ``splitting_check_n2``
    reads the class rows of the pair blocks."""
    order2 = order_n_cohomology(ring, 2, engine="dense")
    h = ring.cochain
    classes = [c for k in h.degrees() for c in basis_classes(h, k)]
    cup_cols: Dict[int, List[int]] = {}
    for value in (ring.products.cup(x, y) for x in classes for y in classes):
        cup_cols.setdefault(h.canon(value.degree - 1), []).append(value.coords)
    kernel = {kk: len(cols) - rank(cols) for kk, cols in cup_cols.items()}
    image = {kk: rank(cols) for kk, cols in cup_cols.items()}
    degrees = sorted(
        set(order2.dims)
        | set(h.dims())
        | {kk for kk, v in kernel.items() if v}
        | {h.canon(kk + 1) for kk, v in image.items() if v}
    )
    rows = []
    for k in degrees:
        kr, hd, im = kernel.get(k, 0), h.dim(k), image.get(h.canon(k - 1), 0)
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
    in the ``legch.tilde`` docstring), so the identity holds on every word
    exactly when it holds on the one-letter words: d_mirror(g) = rev d(g) up
    to terms of length n.  Returns the number of words it covers.
    """
    for g in twisted.generators:
        left = {w[::-1] for w in twisted.d(g) if len(w) <= n}
        if left != {w for w in twisted_mirror.d(g) if len(w) <= n}:
            raise InternalConsistencyError("reflection conjugation fails on %s" % g)
    return _word_count(len(twisted.generators), n)


def _word_by_word_reflection(twisted, twisted_mirror, n):
    """Reference ``_check_reflection_conjugation``: rev(d(w)) = d_mirror(rev(w))
    on every word of length <= n, expanded word by word with
    ``helpers._chain_terms``; returns the words checked."""
    index = {g: i for i, g in enumerate(twisted.generators)}

    def encode(source):
        return [tuple(tuple(index[x] for x in w) for w in source.d(g)) for g in source.generators]

    repl, repl_mirror = encode(twisted), encode(twisted_mirror)
    count = 0
    layer = [()]
    for _ in range(n):
        layer = [w + (g,) for w in layer for g in range(len(index))]
        for w in layer:
            left = {v[::-1] for v in _chain_terms(repl, w, n)}
            if left != _chain_terms(repl_mirror, w[::-1], n):
                raise InternalConsistencyError(
                    "reflection conjugation fails on %s"
                    % "|".join(twisted.generators[g] for g in w)
                )
            count += 1
    return count


def reflection_compare(dga: DGA, n: int) -> ReflectionReport:
    """Compare order-n dimensions of a DGA and its mirror, per augmentation.

    An augmentation of the knot serves the mirror unchanged, because the
    value of a reversed word is the same product of values.  Besides
    computing both sides, the word-reversal conjugation identity between
    the two truncated Leibniz differentials is checked on every word of
    length <= n for every augmentation, through the one-letter words.

    Augmentations with one twist share a knot ring, a mirror ring and one
    conjugation check (``per_twist``), and ``conjugation_words`` counts the
    check's words once per augmentation.
    """
    _check_order(n)
    mirror = mirror_dga(dga)

    def both_sides(aug):
        ring, mirror_ring = build_ring(dga, aug), build_ring(mirror, aug)
        left = dense_order_n(ring, n)
        right = dense_order_n(mirror_ring, n)
        words = _check_reflection_conjugation(ring.twisted, mirror_ring.twisted, n)
        return left.dims, right.dims, words

    augs = enumerate_augmentations(dga)
    sides = per_twist(augs, both_sides)
    rows = [
        ReflectionRow(aug.describe(), left, right) for aug, (left, right, _) in zip(augs, sides)
    ]
    return ReflectionReport(n, rows, sum(words for _, _, words in sides))


def random_graded_basis(h: HomologyData, rng) -> Dict[int, List[int]]:
    """A random degree-preserving change of homology basis (as coordinates)."""
    bases: Dict[int, List[int]] = {}
    for k in h.degrees():
        dim = h.dim(k)
        while True:
            vectors = [rng.randrange(1, 1 << dim) for _ in range(dim)]
            if rank(vectors) == dim:
                bases[k] = vectors
                break
    return bases


def audit_basis_independence(ring: CohomologyRing, rng) -> bool:
    """Recompute the cup ranks in a random graded basis and insist nothing
    moved.  They are the only profile field read in a basis: the dims and
    order-n dims read no class, and the Massey flags quantify over every
    tuple of nonzero classes.  The library reads them in the standard basis
    (``fingerprint.cup_rank_table``); the random basis is read by the test
    oracle ``helpers.all_pairs_cup_rank_table``, on every degree pair."""
    bases = random_graded_basis(ring.cochain, rng)
    if cup_rank_table(ring) != all_pairs_cup_rank_table(ring, bases):
        raise InternalConsistencyError(
            "fingerprint changed under a degree-preserving basis change"
        )
    return True
