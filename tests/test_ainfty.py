"""Adjoint A-infinity structures, transfer, cup and Massey products."""

import random
import re
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, ainfty
from legch.ainfty import (
    MAX_ARITY,
    AInftyMorphism,
    AInftyStructure,
    HClass,
    ProductTable,
    adjoint_structure,
    build_ring,
    check_ainfty_morphism,
    check_an_relations,
    cup_product,
    massey_higher,
    massey_triple,
    transfer_minimal_model,
    _composition_sum,
    _inverted_index,
    _relation_terms,
)
from legch.algebra import mirror_dga
from legch.augment import enumerate_augmentations, twist
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.linear import homology, linearized_complexes
from helpers import (
    admitted_class_triples,
    block_triples,
    chain_massey_triple,
    chain_p3,
    oracle_rings,
    per_tuple_composition_sum,
    random_augmented_dga,
    trivial_bracket_dga,
)


def trefoil_ring():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]  # sends b3 to 1
    return build_ring(dga, aug)


def test_trefoil_adjoint_tables_are_exactly_the_dual_differential():
    ring = trefoil_ring()
    s = ring.structure
    assert s.basis == {0: ("b1", "b2", "b3"), 1: ("a1", "a2")}
    assert s.arity == 3
    # over the degree-1 basis (a1, a2): bit 0 is a1, bit 1 is a2
    assert s.tables[1] == {("b1",): 0b11, ("b3",): 0b11}
    assert s.tables[2] == {("b1", "b2"): 0b01, ("b2", "b1"): 0b10}
    assert s.tables[3] == {
        ("b1", "b2", "b3"): 0b01,
        ("b3", "b2", "b1"): 0b10,
    }
    assert set(s.tables) == {1, 2, 3}
    for label in ("b2", "a1", "a2"):
        assert s.entry((label,)) == 0
    assert s.entry(("b2", "b3")) == 0
    assert s.entry(("b3", "b2", "b1")) == 0b10


def test_adjoint_apply_is_multilinear():
    s = trefoil_ring().structure
    # m2(b1 + b3, b2) = m2(b1, b2) + m2(b3, b2) = a1
    deg, vec = s.apply([(0, 0b101), (0, 0b010)])
    assert (deg, vec) == (1, 0b01)
    deg, vec = s.apply([(0, 0b101), (0, 0)])
    assert (deg, vec) == (1, 0)
    # degree arithmetic is reported even for empty tables
    deg, _ = s.apply([(1, 0b1), (1, 0b1)])
    assert deg == 3


def test_structure_constructor_rejects_malformed_tables():
    basis = {0: ("u",), 1: ("v",)}
    with pytest.raises(ContractError):
        AInftyStructure(0, basis, 0, {})
    with pytest.raises(ContractError):
        AInftyStructure(0, basis, 1, {2: {("u", "u"): 1}})
    with pytest.raises(ContractError):
        AInftyStructure(0, basis, 1, {1: {("w",): 1}})
    with pytest.raises(ContractError):
        # m1(v) would land in degree 2, which has an empty basis
        AInftyStructure(0, basis, 1, {1: {("v",): 1}})
    with pytest.raises(ContractError):
        AInftyStructure(0, {0: ("u", "u")}, 1, {})


def test_relation_checker_reports_the_failing_input():
    # d(d u) = w != 0: the arity-1 relation must fail on (u,)
    s = AInftyStructure(
        0, {0: ("u",), 1: ("v",), 2: ("w",)}, 1, {1: {("u",): 1, ("v",): 1}}
    )
    report = check_an_relations(s, 1)
    assert not report.ok
    assert report.arity == 1
    assert report.args == ("u",)
    assert "arity 1" in report.detail


def test_relations_hold_on_bundled_examples():
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            s = adjoint_structure(twist(dga, aug))
            report = check_an_relations(s, min(s.arity + 1, 4))
            assert report.ok, (name, report.detail)


def _relation_check_toggles(s, up_to):
    """check_an_relations(s, up_to) and the number of _toggle calls it made."""
    count = [0]
    real = ainfty._toggle

    def counted(*args):
        count[0] += 1
        real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ainfty, "_toggle", counted)
        report = check_an_relations(s, up_to)
    return report, count[0]


def test_relation_terms_count_the_toggles_on_bundled_examples():
    for ring in oracle_rings():
        s = ring.structure
        report, toggles = _relation_check_toggles(s, s.arity + 1)
        assert report.ok and _relation_terms(s, s.arity + 1) == toggles


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=15)
def test_relation_terms_count_the_toggles_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=6)
    s = build_ring(dga, aug).structure
    report, toggles = _relation_check_toggles(s, s.arity)
    assert report.ok and _relation_terms(s, s.arity) == toggles


def test_relation_check_refuses_structures_over_the_budget(monkeypatch):
    dga = masseyex(1, 4, 9, 20)
    s = build_ring(dga, enumerate_augmentations(dga)[0]).structure
    terms = _relation_terms(s, s.arity)
    assert 0 < terms <= ainfty.MAX_RELATION_TERMS
    monkeypatch.setattr(ainfty, "MAX_RELATION_TERMS", terms)
    report, toggles = _relation_check_toggles(s, s.arity)
    assert report.ok and toggles == terms
    monkeypatch.setattr(ainfty, "MAX_RELATION_TERMS", terms - 1)
    monkeypatch.setattr(ainfty, "_toggle", None)  # refused before any term is toggled
    with pytest.raises(ContractError, match="take %d terms, over the budget" % terms):
        check_an_relations(s, s.arity)


def test_trefoil_cup_products():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    assert h.names(0) == ("b1", "b2", "b3")
    assert [h.label(0, 1 << i) for i in range(h.dim(0))] == ["[b2]", "[b1+b3]"]
    assert h.label(1, 1) == "[a1]"
    b = HClass(0, 0b01)   # [b2]
    c = HClass(0, 0b10)   # [b1+b3]
    assert cup_product(h, s, b, c) == HClass(1, 1)
    assert cup_product(h, s, c, b) == HClass(1, 1)
    assert cup_product(h, s, b, b).coords == 0
    assert cup_product(h, s, c, c).coords == 0
    a = HClass(1, 1)
    assert cup_product(h, s, a, b).coords == 0
    assert cup_product(h, s, a, a).coords == 0


def test_cup_product_table_on_cup_family():
    dga = cupex(1, 3, 7)
    augs = enumerate_augmentations(dga)
    assert len(augs) == 1
    ring = build_ring(dga, augs[0])
    h, s = ring.cochain, ring.structure
    assert {k: h.label(k, 1) for k in h.degrees()} == {
        -7: "[b1]",
        -5: "[c1]",
        -3: "[a1]",
        1: "[t0]",
        3: "[a2]",
        5: "[c2]",
        7: "[b2]",
    }
    products = {}
    for k in h.degrees():
        for l in h.degrees():
            c = cup_product(h, s, HClass(k, 1), HClass(l, 1))
            if c.coords:
                products[(h.label(k, 1), h.label(l, 1))] = h.label(c.degree, c.coords)
    assert products == {
        ("[a1]", "[a2]"): "[t0]",
        ("[a2]", "[a1]"): "[t0]",
        ("[b1]", "[b2]"): "[t0]",
        ("[b2]", "[b1]"): "[t0]",
        ("[c1]", "[c2]"): "[t0]",
        ("[c2]", "[c1]"): "[t0]",
        ("[a1]", "[c1]"): "[b1]",
        ("[c1]", "[b2]"): "[a2]",
        ("[b2]", "[a1]"): "[c2]",
    }


def test_massey_triple_undefined_when_a_pair_multiplies():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    b = HClass(0, 0b01)
    c = HClass(0, 0b10)
    r = massey_triple(h, s, b, c, c)
    assert not r.defined
    assert "first pair has nonzero product [a1]" == r.witness
    r = massey_triple(h, s, c, c, b)
    assert not r.defined
    assert "second pair" in r.witness
    with pytest.raises(ContractError):
        r.contains(0)


def test_massey_triples_on_trefoil_are_trivial_when_defined():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    seen_defined = 0
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                r = massey_triple(h, s, HClass(0, i), HClass(0, j), HClass(0, k))
                if r.defined:
                    seen_defined += 1
                    assert r.degree == 1
                    assert r.is_trivial()
                    assert r.indeterminacy == [1]
    assert seen_defined == 3  # exactly the equal-argument triples


def test_massey_triples_frozen_on_massey_family():
    dga = masseyex(1, 4, 9, 20)
    augs = enumerate_augmentations(dga)
    assert len(augs) == 1
    ring = build_ring(dga, augs[0])
    h, s = ring.cochain, ring.structure
    c0 = HClass(-6, 1)
    c1 = HClass(-11, 1)
    b2 = HClass(20, 1)
    a1 = HClass(-4, 1)
    first = massey_triple(h, s, c0, c1, b2)
    assert first.defined and first.indeterminacy == []
    assert h.label(first.degree, first.value) == "[a2]"
    second = massey_triple(h, s, a1, c0, c1)
    assert second.defined and second.indeterminacy == []
    assert h.label(second.degree, second.value) == "[b1]"
    assert not first.is_trivial() and not second.is_trivial()


def test_mirror_massey_triples_vanish_in_the_same_ordered_degrees():
    dga = mirror_dga(masseyex(1, 4, 9, 20))
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    h, s = ring.cochain, ring.structure
    for degs in [(-6, -11, 20), (-4, -6, -11)]:
        r = massey_triple(h, s, *[HClass(q, 1) for q in degs])
        assert not r.defined or r.is_trivial()
    # the mirror's nonzero brackets sit at the reversed argument order
    r = massey_triple(h, s, HClass(-11, 1), HClass(-6, 1), HClass(-4, 1))
    assert r.defined and not r.is_trivial()


def _assert_triples_match_the_chain_level_oracle(ring):
    h, s = ring.cochain, ring.structure
    for _, classes in admitted_class_triples(h):
        assert massey_triple(h, s, *classes) == chain_massey_triple(h, s, *classes), classes


def test_massey_triple_value_can_lie_in_its_indeterminacy():
    dga = trivial_bracket_dga()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    h, s = ring.cochain, ring.structure
    r = massey_triple(h, s, HClass(2, 1), HClass(3, 1), HClass(7, 1))
    assert r.defined and h.label(r.degree, r.value) == "[v]"
    assert r.indeterminacy == [r.value]
    assert r.is_trivial()


def test_massey_triple_matches_the_chain_level_oracle_on_bundled_examples():
    for ring in oracle_rings():
        _assert_triples_match_the_chain_level_oracle(ring)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_massey_triple_matches_the_chain_level_oracle_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=6)
    _assert_triples_match_the_chain_level_oracle(build_ring(dga, aug))


def _assert_triple_blocks_match_the_chain_level_formula(ring):
    """Every triple block's p_3 vectors, a missing entry read as zero, equal
    the chain-level formula on every basis triple, and the blocks equal the
    block-by-block builder's, both for the ring's table and for a standalone
    one, which runs its own transfer."""
    h, s = ring.cochain, ring.structure
    want_blocks = block_triples(h, s)
    assert ring.products.triples == ProductTable(h, s).triples == want_blocks
    for a, b, c in product(h.degrees(), repeat=3):
        block = ring.products.triples.get((a, b, c), {})
        degree = h.canon(a + b + c + 1)
        for i, j, k in product(range(h.dim(a)), range(h.dim(b)), range(h.dim(c))):
            got = block.get((i, j, k), 0)
            want = chain_p3(h, s, HClass(a, 1 << i), HClass(b, 1 << j), HClass(c, 1 << k))
            assert (degree, got) == want, (a, b, c, i, j, k)


def test_triple_blocks_match_the_chain_level_formula_on_bundled_examples():
    for ring in oracle_rings():
        _assert_triple_blocks_match_the_chain_level_formula(ring)


# Seeds 288, 603 and 2023 give blocks whose p_3 is nonzero only through the
# lift i_2(y, z): a zero-block test that ignored that lift would pass them.
@given(st.integers(0, 10**6))
@example(288)
@example(603)
@example(2023)
@settings(deadline=None, max_examples=15)
def test_triple_blocks_match_the_chain_level_formula_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=10)
    _assert_triple_blocks_match_the_chain_level_formula(build_ring(dga, aug))


def test_massey_higher_on_trefoil_fourth_power():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    b = HClass(0, 1)
    r = massey_higher(h, s, [b, b, b, b])
    assert r.defined
    assert (r.degree, r.value) == (1, 0)
    assert r.value_set == [0, 1]
    assert r.indeterminacy == [1]
    assert r.systems == 256
    assert not r.truncated
    assert r.is_trivial()


def test_massey_higher_cap_and_argument_validation():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    b = HClass(0, 1)
    with pytest.raises(ContractError):
        massey_higher(h, s, [b, b])
    with pytest.raises(ContractError):
        massey_higher(h, s, [b, b, b], cap=0)
    r = massey_higher(h, s, [b, b, b, b], cap=1)
    assert r.truncated
    assert not r.defined


def test_massey_higher_order_three_agrees_with_triple():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    b = HClass(0, 1)
    triple = massey_triple(h, s, b, b, b)
    higher = massey_higher(h, s, [b, b, b])
    assert higher.defined and triple.defined
    assert higher.contains(triple.value)
    assert triple.contains(higher.value)


def _planar_trees(k):
    """Rooted planar trees with k leaves and no unary vertices.

    A leaf is None; an internal vertex is the tuple of its subtrees.
    """
    if k == 1:
        return [None]
    out = []
    for r in range(2, k + 1):
        for cuts in combinations(range(1, k), r - 1):
            sizes = [b - a for a, b in zip((0,) + cuts, cuts + (k,))]
            out.extend(product(*(_planar_trees(c) for c in sizes)))
    return out


def _tree_sum_transfer(h, s, up_to):
    """Reference transfer: mu_k and i_k tables as explicit planar-tree sums.

    Leaves carry representatives, vertices apply m_r, internal edges apply
    the homotopy; every tree for one input tuple must land in one degree.
    """
    classes = [(k, i, h.label(k, 1 << i)) for k in h.degrees() for i in range(h.dim(k))]

    def value(tree, leaves):
        if tree is None:
            return next(leaves)
        args = []
        for child in tree:
            d, vec = value(child, leaves)
            if child is not None:
                d, vec = h.canon(d - h.shift), h.homotopy(d, vec)
            args.append((d, vec))
        return s.apply(args)

    mu, incl = {}, {}
    for k in range(2, up_to + 1):
        trees = _planar_trees(k)
        mu[k], incl[k] = {}, {}
        for chosen in product(classes, repeat=k):
            leaves = [(d, h.include(d, 1 << i)) for d, i, _ in chosen]
            results = [value(t, iter(leaves)) for t in trees]
            (degree,) = {d for d, _ in results}
            total = reduce(lambda acc, r: acc ^ r[1], results, 0)
            labels = tuple(lbl for _, _, lbl in chosen)
            if h.project(degree, total):
                mu[k][labels] = h.project(degree, total)
            if h.homotopy(degree, total):
                incl[k][labels] = h.homotopy(degree, total)
    return mu, incl


def _assert_transfer_matches_tree_sum(ring, up_to):
    h, s = ring.cochain, ring.structure
    mu, f = transfer_minimal_model(h, s, up_to)
    want_mu, want_incl = _tree_sum_transfer(h, s, up_to)
    for k in range(2, up_to + 1):
        assert mu.tables[k] == want_mu[k], k
        assert f.tables[k] == want_incl[k], k


def test_transfer_matches_the_planar_tree_sum():
    assert [len(_planar_trees(k)) for k in (2, 3, 4, 5)] == [1, 3, 11, 45]
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            _assert_transfer_matches_tree_sum(build_ring(dga, aug), 4)
    _assert_transfer_matches_tree_sum(trefoil_ring(), 5)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_transfer_matches_the_planar_tree_sum_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=6)
    _assert_transfer_matches_tree_sum(build_ring(dga, aug), 4)


def test_transfer_minimal_model_trefoil_frozen_tables():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    mu, f = transfer_minimal_model(h, s, 3)
    assert mu.basis == {0: ("[b2]", "[b1+b3]"), 1: ("[a1]",)}
    assert mu.tables.get(1, {}) == {}
    assert mu.tables[2] == {
        ("[b2]", "[b1+b3]"): 1,
        ("[b1+b3]", "[b2]"): 1,
    }
    assert mu.tables[3] == {
        ("[b2]", "[b2]", "[b1+b3]"): 1,
        ("[b2]", "[b1+b3]", "[b2]"): 1,
    }
    # the inclusion sends classes to their chosen representatives
    assert f.tables[1] == {("[b2]",): 0b010, ("[b1+b3]",): 0b101, ("[a1]",): 0b01}
    assert f.tables[2] == {("[b2]", "[b1+b3]"): 0b001}
    report = check_ainfty_morphism(f, mu, s, 3)
    assert report.ok, report.detail
    assert check_an_relations(mu, 3).ok


def test_transferred_mu3_lands_in_the_massey_coset():
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            h, s = ring.cochain, ring.structure
            mu, _ = transfer_minimal_model(h, s, 3)
            classes = [(k, i) for k in h.degrees() for i in range(h.dim(k))]
            for kx, ix in classes:
                for ky, iy in classes:
                    for kz, iz in classes:
                        r = massey_triple(
                            h,
                            s,
                            HClass(kx, 1 << ix),
                            HClass(ky, 1 << iy),
                            HClass(kz, 1 << iz),
                        )
                        if not r.defined:
                            continue
                        labels = (
                            h.label(kx, 1 << ix),
                            h.label(ky, 1 << iy),
                            h.label(kz, 1 << iz),
                        )
                        got = mu.entry(labels)
                        assert got == r.value, (name, labels)
                        assert r.contains(got)


def test_transfer_mu2_check_catches_a_flipped_p2_entry(monkeypatch):
    ring = trefoil_ring()
    real = ainfty._composition_sum

    def flipped(m, index, degree_of, n, min_blocks, total):
        real(m, index, degree_of, n, min_blocks, total)
        if (n, min_blocks) == (2, 2):
            key = ("[b2]", "[b1+b3]")
            ainfty._toggle(total, key, total[key])

    monkeypatch.setattr(ainfty, "_composition_sum", flipped)
    with pytest.raises(
        InternalConsistencyError,
        match=re.escape("transferred mu_2 disagrees with the cup product on ([b2], [b1+b3])"),
    ):
        transfer_minimal_model(ring.cochain, ring.structure, 3)


def test_a_product_that_is_not_closed_is_rejected():
    """m_2(x, x) = a with m_1(a) = b: the product of the cocycle x with itself
    is not closed."""
    s = AInftyStructure(
        0, {0: ("x",), 1: ("a",), 2: ("b",)}, 2, {1: {("a",): 1}, 2: {("x", "x"): 1}}
    )
    h = homology(linearized_complexes(s)[1], "cochain")
    x = HClass(0, 1)
    with pytest.raises(ContractError, match="not closed"):
        transfer_minimal_model(h, s, 3)
    with pytest.raises(ContractError, match="not closed"):
        ProductTable(h, s).cup(x, x)
    with pytest.raises(ContractError, match="not closed"):
        massey_triple(h, s, x, x, x)


def test_transfer_rejects_arity_below_two():
    ring = trefoil_ring()
    with pytest.raises(ContractError):
        transfer_minimal_model(ring.cochain, ring.structure, 1)


def test_morphism_checker_detects_a_corrupted_inclusion():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    mu, f = transfer_minimal_model(h, s, 3)
    tables = {n: dict(t) for n, t in f.tables.items()}
    tables.setdefault(2, {})[("[b2]", "[b2]")] = 0b001  # spurious b1 output
    bad = AInftyMorphism(3, tables, src=mu, dst=s)
    report = check_ainfty_morphism(bad, mu, s, 3)
    assert not report.ok
    assert report.arity == 2
    assert report.args == ("[b2]", "[b2]")


def test_ring_keeps_one_transfer_and_cuts_lower_arities_from_it(monkeypatch):
    ring = trefoil_ring()
    calls = []
    real = transfer_minimal_model

    def counted(h, s, up_to, products=None):
        calls.append(up_to)
        return real(h, s, up_to, products)

    monkeypatch.setattr(ainfty, "transfer_minimal_model", counted)
    for arity in (3, 5, 2, 4, 5):
        mu, incl = ring.minimal(arity)
        want_mu, want_incl = real(ring.cochain, ring.structure, arity)
        assert mu == want_mu and mu.arity == arity
        assert incl.tables == want_incl.tables and incl.arity == arity
    assert calls == [3, 5]  # lower arities are cut from the kept transfer
    assert ring.minimal(5)[0] is ring.minimal(5)[0]
    with pytest.raises(ContractError):
        ring.minimal(1)
    with pytest.raises(ContractError, match="MAX_ARITY"):
        ring.minimal(MAX_ARITY + 1)


def test_transfer_refuses_arities_above_the_budget():
    ring = trefoil_ring()
    with pytest.raises(ContractError, match="MAX_ARITY = %d" % MAX_ARITY):
        transfer_minimal_model(ring.cochain, ring.structure, MAX_ARITY + 1)
    mu, _ = transfer_minimal_model(ring.cochain, ring.structure, MAX_ARITY)
    assert mu.arity == MAX_ARITY


def _assert_composition_sums_match_the_oracle(ring, up_to):
    """Table-driven and per-tuple composition sums agree, dict for dict, on the
    transfer's p_k (min_blocks 2) and the inclusion's morphism check (min_blocks 1)."""
    h, s = ring.cochain, ring.structure
    mu, f = transfer_minimal_model(h, s, up_to)

    def lifted(w):  # degree of i_{|w|}(w), as the transfer reads it
        return h.canon(sum(mu.degree_of[x] for x in w) + (1 - h.shift if len(w) > 1 else 0))

    def plain(w):  # degree of f_{|w|}(w) for a degree-0 morphism
        return h.canon(sum(mu.degree_of[x] for x in w))

    for min_blocks, entry_degree in ((2, lifted), (1, plain)):
        index = {c: _inverted_index(s, table, entry_degree) for c, table in f.tables.items()}
        for n in range(min_blocks, up_to + 1):
            got, want = {}, {}
            _composition_sum(s, index, mu.degree_of, n, min_blocks, got)
            per_tuple_composition_sum(s, f.tables, mu.degree_of, entry_degree, n, min_blocks, want)
            assert got == want, (min_blocks, n)


def test_composition_sum_matches_the_per_tuple_oracle_on_bundled_examples():
    for name, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            _assert_composition_sums_match_the_oracle(build_ring(dga, aug), 6)


# Seed 273 needs the top arity r = m.arity, seed 157 a second index hit of
# an m_r input; draws that need either are rare.
@given(st.integers(0, 10**6))
@example(157)
@example(273)
@settings(deadline=None, max_examples=25)
def test_composition_sum_matches_the_per_tuple_oracle_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=6)
    _assert_composition_sums_match_the_oracle(build_ring(dga, aug), 5)


def test_composition_sum_toggles_every_index_hit_at_the_top_arity():
    """m_2(a, a) = c is the top-arity entry and a lies in both f_1(p) and
    f_1(q), so c lands on all four tuples of p and q."""
    m = AInftyStructure(0, {0: ("a", "b"), 1: ("c",)}, 2, {2: {("a", "a"): 1}})
    f = {1: {("p",): 0b01, ("q",): 0b11}}
    degree_of = {"p": 0, "q": 0}

    def entry_degree(w):
        return sum(degree_of[x] for x in w)

    got, want = {}, {}
    _composition_sum(m, {1: _inverted_index(m, f[1], entry_degree)}, degree_of, 2, 1, got)
    per_tuple_composition_sum(m, f, degree_of, entry_degree, 2, 1, want)
    assert got == want == {args: 1 for args in product("pq", repeat=2)}


def test_morphism_tables_are_checked_against_source_and_target():
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    mu, f = transfer_minimal_model(h, s, 3)
    for key, vec, detail in (
        (("[b2]", "[zz]"), 0b001, "on ([b2], [zz]) has unknown source label [zz]"),
        (("[b2]",), 1 << 40, "on ([b2]) has bits outside the degree-0 target basis"),
        (("[a1]",), 0b100, "on ([a1]) has bits outside the degree-1 target basis"),
    ):
        tables = {n: dict(t) for n, t in f.tables.items()}
        tables[len(key)][key] = vec
        with pytest.raises(ContractError, match=re.escape(detail)):
            AInftyMorphism(3, tables, src=mu, dst=s)
        # built without src and dst, the checker rejects the same entry
        with pytest.raises(ContractError, match=re.escape(detail)):
            check_ainfty_morphism(AInftyMorphism(3, tables), mu, s, 3)
    # an i_1 vector edited after construction
    f.tables[1][("[b2]",)] = 1 << 40
    with pytest.raises(ContractError, match=re.escape("on ([b2]) has bits outside")):
        check_ainfty_morphism(f, mu, s, 3)


def test_morphism_tables_validate_arity():
    with pytest.raises(ContractError):
        AInftyMorphism(2, {3: {("x", "y", "z"): 1}})
    with pytest.raises(ContractError):
        AInftyMorphism(2, {2: {("x",): 1}})


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_adjoint_relations_and_transfer_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=6)
    ring = build_ring(dga, aug)
    h, s = ring.cochain, ring.structure
    assert check_an_relations(s, min(s.arity + 1, 4)).ok
    mu, f = transfer_minimal_model(h, s, 3)
    assert check_an_relations(mu, 3).ok
    assert check_ainfty_morphism(f, mu, s, 3).ok
