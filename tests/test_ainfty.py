"""Adjoint A-infinity structures, transfer, cup and Massey products."""

import random
import re
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, ainfty, fingerprint
from legch.ainfty import (
    MAX_ARITY,
    MAX_MASSEY_SYSTEMS,
    AInftyMorphism,
    AInftyStructure,
    HClass,
    ProductTable,
    adjoint_structure,
    basis_classes,
    build_ring,
    check_ainfty_morphism,
    check_an_relations,
    check_massey_budget,
    cup_product,
    massey_higher,
    massey_triple,
    transfer_minimal_model,
    _apply_entries,
    _composition_sum,
    _compositions,
    _compositions_in,
    _inverted_index,
    _relation_terms,
)
from legch.algebra import DGA, mirror_dga
from legch.augment import Augmentation, enumerate_augmentations, twist
from legch.cli import main
from legch.fileio import parse_dga, serialize_dga
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.gf2 import apply_cols
from legch.linear import homology, linearized_complexes
from legch.tilde import order_n_cohomology
from helpers import (
    _tuple_space,
    admitted_class_triples,
    block_triples,
    chain_cup_product,
    chain_massey_higher,
    chain_massey_triple,
    chain_p3,
    apply,
    disguised_order_four_bracket_dgas,
    minimal_walk_massey,
    oracle_rings,
    order_four_bracket_dga,
    per_tuple_composition_sum,
    per_tuple_massey_systems,
    proved_rings,
    random_augmented_dga,
    random_dga,
    trivial_bracket_dga,
    twist_firsts,
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
    """m_k is read off its entries: ``_apply_entries`` on
    ``AInftyStructure.grouped`` extends the table multilinearly, agrees with
    the label-by-label reference, and a degree tuple with no entry reads as 0."""
    s = trefoil_ring().structure
    m_2 = s.grouped(2)[(0, 0)]
    # m2(b1 + b3, b2) = m2(b1, b2) + m2(b3, b2) = a1
    assert _apply_entries(m_2, 0b101, 0b010) == 0b01
    assert apply(s, [(0, 0b101), (0, 0b010)]) == (1, 0b01)
    assert _apply_entries(m_2, 0b101, 0) == 0
    assert apply(s, [(0, 0b101), (0, 0)]) == (1, 0)
    # degree arithmetic is reported even for empty tables
    assert apply(s, [(1, 0b1), (1, 0b1)])[0] == s.out_degree(("a1", "a1")) == 3
    assert (0, 0) in s.grouped(2) and (1, 1) not in s.grouped(2)
    assert _apply_entries(s.grouped(2).get((1, 1), ()), 0b11, 0b11) == 0
    for r in (2, 3):
        for degrees in product(s.basis, repeat=r):
            entries = s.grouped(r).get(degrees, ())
            for masks in product(*(range(1 << len(s.basis[k])) for k in degrees)):
                want = apply(s, list(zip(degrees, masks)))[1]
                assert _apply_entries(entries, *masks) == want, (degrees, masks)


def test_entries_read_as_the_label_by_label_sum():
    """m_2 on 40 degree-0 letters with an entry on (b_i, b_0) for i >= 1, as
    in d a = b1 b0 + .. + b39 b0, plus a dense row on (b_0, b_j):
    ``_apply_entries`` reads its 59 entries as the label-by-label sum."""
    names = tuple("b%d" % i for i in range(40))
    table = {(x, "b0"): 1 for x in names[1:]}
    table.update({("b0", y): 1 for y in names[::2]})
    s = AInftyStructure(0, {0: names, 1: ("a",)}, 2, {2: table})
    entries = s.grouped(2)[(0, 0)]
    assert len(entries) == 59 and set(s.grouped(2)) == {(0, 0)}
    rng = random.Random(20261019)
    for _ in range(200):
        x, y = rng.getrandbits(40), rng.getrandbits(40)
        assert _apply_entries(entries, x, y) == apply(s, [(0, x), (0, y)])[1]


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


def test_the_relations_build_ring_proves_hold_at_every_arity():
    # The oracle of build_ring's proof: no relation check runs on its rings.
    # Above arity 2a - 1 every term pairs two operations of arity > a, so
    # checking up to 2a - 1 checks every arity.
    for ring in proved_rings():
        s = ring.structure
        report = check_an_relations(s, 2 * s.arity - 1)
        assert report.ok, report.detail


def test_build_ring_refuses_a_value_assignment_that_is_not_an_augmentation():
    # d a = b with b -> 1 does not kill d a; its twist b + 1 keeps the unit.
    dga = DGA(0, ("a", "b"), {"a": 1, "b": 0}, {"a": frozenset({("b",)})})
    values = Augmentation((("a", 0), ("b", 1)))
    for build in (lambda: twist(dga, values), lambda: build_ring(dga, values)):
        with pytest.raises(
            InternalConsistencyError, match="twisted differential of a retains a constant term"
        ):
            build()


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
    s = random_augmented_dga(random.Random(seed), max_gens=6)[2].structure
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


def test_cup_product_is_the_chain_level_cup():
    """``cup_product`` reads the product table's class rows; it equals the
    class of m_2 on the chosen representatives on every pair of classes
    (coordinates below 8) of the oracle rings and of random DGAs."""
    rings = list(oracle_rings()) + [
        random_augmented_dga(random.Random(seed), max_gens=6)[2] for seed in range(20)
    ]
    for ring in rings:
        h, s = ring.cochain, ring.structure
        classes = [HClass(k, c) for k in h.degrees() for c in range(1, min(1 << h.dim(k), 8))]
        for x, y in product(classes, repeat=2):
            assert cup_product(h, s, x, y) == chain_cup_product(h, s, x, y), (x, y)


def test_pair_blocks_built_entry_by_entry_are_the_chain_level_cups_on_shared_letters():
    """d a = x + y + z + w makes the degree-0 representatives x+y, x+z and
    x+w, so the letter x is owned by all three classes and each m_2 entry on
    x reaches several class pairs; every pair block's class rows equal the
    chain-level cups of the basis classes, and the (0, 0) block is dense."""
    dga = parse_dga(
        "modulus 0\ngen x 0\ngen y 0\ngen z 0\ngen w 0\ngen a 1\ngen c 1\ngen e 1\n"
        "d a = x + y + z + w\nd c = x y + y z + z x + w w\nd e = x x + z w + w y\n"
    )
    ring = build_ring(dga, Augmentation(tuple((g, 0) for g in dga.generators)))
    h, s = ring.cochain, ring.structure
    assert [h.label(0, 1 << i) for i in range(3)] == ["[x+y]", "[x+z]", "[x+w]"]
    assert ring.products._basis(0)[1][0] == [0, 1, 2]
    assert ring.products.pair(0, 0).coords == [[3, 3, 2], [2, 3, 1], [1, 2, 3]]
    for a, b in product(h.degrees(), repeat=2):
        block = ring.products.pair(a, b)
        want = [
            [chain_cup_product(h, s, HClass(a, 1 << i), HClass(b, 1 << j)) for j in range(h.dim(b))]
            for i in range(h.dim(a))
        ]
        assert [[HClass(block.degree, c) for c in row] for row in block.coords] == want, (a, b)


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
    """Every admitted triple, read off the ring's table and off one standalone
    table over the same (h, s), which runs its own transfer and verifies its
    retract as ``massey_triple`` does, equals the chain-level bracket."""
    h, s = ring.cochain, ring.structure
    standalone = ProductTable(h, s)
    for _, classes in admitted_class_triples(h):
        want = chain_massey_triple(h, s, *classes)
        assert ring.products.massey(*classes) == standalone.massey(*classes) == want, classes


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
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    _assert_triples_match_the_chain_level_oracle(ring)


def _assert_triple_blocks_match_the_chain_level_formula(ring):
    """On every basis triple, mu_3 of the transfer is the projection of the
    chain-level p_3 (the block-by-block builder's vector, a missing entry
    read as zero, which equals ``chain_p3``), as a table entry and through
    its grouped entries, both for the ring's table and for a standalone
    one, which runs its own transfer."""
    h, s = ring.cochain, ring.structure
    p3_blocks = block_triples(h, s)
    mus = [ring.products.minimal(3)[0], ProductTable(h, s).minimal(3)[0]]
    for a, b, c in product(h.degrees(), repeat=3):
        p3 = p3_blocks.get((a, b, c), {})
        degree = h.canon(a + b + c + 1)
        for i, j, k in product(range(h.dim(a)), range(h.dim(b)), range(h.dim(c))):
            classes = HClass(a, 1 << i), HClass(b, 1 << j), HClass(c, 1 << k)
            vec = p3.get((i, j, k), 0)
            assert (degree, vec) == chain_p3(h, s, *classes), (a, b, c, i, j, k)
            want = h.project(degree, vec)
            for mu in mus:
                labels = tuple(mu.names(x.degree)[x.coords.bit_length() - 1] for x in classes)
                got = _apply_entries(mu.grouped(3).get((a, b, c), ()), 1 << i, 1 << j, 1 << k)
                assert mu.entry(labels) == got == want, (a, b, c, i, j, k)


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
    ring = random_augmented_dga(random.Random(seed), max_gens=10)[2]
    _assert_triple_blocks_match_the_chain_level_formula(ring)


def test_massey_higher_on_trefoil_fourth_power():
    """The chain-level oracle and the minimal model each walk 256 complete
    systems, the minimal model out of at most 4^5, and both find the value
    set {0, [a1]}."""
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    b = HClass(0, 1)
    oracle = chain_massey_higher(h, s, [b, b, b, b])
    assert oracle.defined and not oracle.truncated
    assert oracle.systems == 256
    r = massey_higher(ring.minimal(4)[0], [b, b, b, b])
    assert r.defined
    assert (r.degree, r.value) == (oracle.degree, oracle.value) == (1, 0)
    assert r.value_set == oracle.value_set == [0, 1]
    assert r.indeterminacy == oracle.indeterminacy == [1]
    assert r.systems == 256
    assert r.is_trivial()


def test_massey_higher_budget_and_argument_validation(monkeypatch):
    ring = trefoil_ring()
    mu = ring.minimal(4)[0]
    b = HClass(0, 1)
    with pytest.raises(ContractError, match="at least 3 classes"):
        massey_higher(mu, [b, b])
    with pytest.raises(ContractError, match="of arity 5, not 4"):
        massey_higher(mu, [b] * 5)
    with pytest.raises(ContractError, match="m_1 = 0"):
        massey_higher(ring.structure, [b, b, b])
    # four degree-0 classes: three inner variables (width 1) in H^0 of dim 2,
    # so 2^6 inner systems each, and 2^14 of them reach 2^20; three degree-1
    # classes: no inner variable, one system
    check_massey_budget(ring.cochain, [((0, 0, 0, 0), 1 << 14)])
    with pytest.raises(ContractError, match="MAX_MASSEY_SYSTEMS = %d$" % MAX_MASSEY_SYSTEMS):
        check_massey_budget(ring.cochain, [((0, 0, 0, 0), 1 << 14), ((1, 1, 1), 1)])

    def refuse(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(fingerprint, "_BracketWalk", refuse)
    with pytest.raises(
        ContractError,
        match="take at least \\d+ defining systems, over the budget MAX_MASSEY_SYSTEMS",
    ):
        fingerprint.massey_table(trefoil_ring(), 5)


@pytest.mark.parametrize("seed", range(5))
def test_the_systems_budget_refuses_at_the_first_tuple_over_it_with_the_per_tuple_total(
    monkeypatch, seed
):
    """Tuples of 1 to 8 degrees sharing prefixes, as a Massey table's do, and
    in arbitrary order: at every budget between the running totals the
    level-by-level count refuses exactly when the per-run reference does,
    naming the same total."""
    rng = random.Random(seed)
    dims = {k: rng.randrange(3) for k in range(-12, 25)}
    h = SimpleNamespace(dim=lambda k: dims.get(k, 0))
    pool = [tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(1, 9))) for _ in range(30)]
    tuples = [(t[: rng.randrange(1, len(t) + 1)], rng.randrange(1, 4)) for t in pool * 2]
    totals = per_tuple_massey_systems(h.dim, tuples)
    for limit in sorted({0, *totals, *(t - 1 for t in totals)}):
        monkeypatch.setattr(ainfty, "MAX_MASSEY_SYSTEMS", limit)
        over = [t for t in totals if t > limit]
        if not over:
            check_massey_budget(h, tuples)
            continue
        with pytest.raises(ContractError) as refused:
            check_massey_budget(h, tuples)
        assert str(refused.value) == (
            "the Massey brackets take at least %d defining systems,"
            " over the budget MAX_MASSEY_SYSTEMS = %d" % (over[0], limit)
        )


def test_massey_higher_enforces_the_systems_budget_itself(monkeypatch):
    """Five degree-0 trefoil classes count 2^14 inner systems: admitted at a
    budget of 2^14, and refused one below it, before any walk."""
    mu, classes = trefoil_ring().minimal(5)[0], [HClass(0, 1)] * 5
    monkeypatch.setattr(ainfty, "MAX_MASSEY_SYSTEMS", 1 << 14)
    assert massey_higher(mu, classes).systems == 8192

    def refuse(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(ainfty, "MAX_MASSEY_SYSTEMS", (1 << 14) - 1)
    monkeypatch.setattr(ainfty, "_BracketWalk", refuse)
    with pytest.raises(ContractError) as refused:
        massey_higher(mu, classes)
    assert str(refused.value) == (
        "the Massey brackets take at least 16384 defining systems,"
        " over the budget MAX_MASSEY_SYSTEMS = 16383"
    )


def test_massey_higher_order_three_agrees_with_triple():
    """On every triple of nonzero trefoil classes the two formats say the same:
    definedness, and the triple's coset value + span(indeterminacy) is the
    higher bracket's value set."""
    ring = trefoil_ring()
    h, s = ring.cochain, ring.structure
    mu = ring.minimal(3)[0]
    defined = 0
    for _, classes in admitted_class_triples(h):
        triple = massey_triple(h, s, *classes)
        higher = massey_higher(mu, classes)
        assert higher.defined == triple.defined, classes
        if triple.defined:
            defined += 1
            basis = triple.indeterminacy
            coset = sorted(triple.value ^ apply_cols(basis, t) for t in range(1 << len(basis)))
            assert higher.value_set == coset, classes
    assert defined
    b = HClass(0, 1)
    triple = massey_triple(h, s, b, b, b)
    assert (triple.value, triple.indeterminacy) == (0, [1])
    assert massey_higher(mu, [b, b, b]).value_set == [0, 1]


def _assert_walk_matches_the_chain_oracle(ring, order, cap):
    """Bracket by bracket over every tuple of nonzero classes: where the
    chain-level oracle walks all its systems, the same definedness, value
    set and indeterminacy; where it stops at ``cap``, its values lie in the
    minimal walk's.  Returns (compared, stopped, nontrivial)."""
    h = ring.cochain
    mu = ring.minimal(order)[0]
    compared = stopped = nontrivial = 0
    for prefix in product(h.degrees(), repeat=order):
        for combo in product(*(range(1, 1 << h.dim(k)) for k in prefix)):
            classes = [HClass(k, v) for k, v in zip(prefix, combo)]
            want = chain_massey_higher(h, ring.structure, classes, cap=cap)
            got = massey_higher(mu, classes)
            if want.truncated:
                stopped += 1
                assert set(want.value_set or ()) <= set(got.value_set or ()), classes
                continue
            compared += 1
            assert want.defined == got.defined, classes
            if got.defined:
                assert (got.degree, got.value_set) == (want.degree, want.value_set), classes
                assert got.indeterminacy == want.indeterminacy, classes
                nontrivial += not got.is_trivial()
    return compared, stopped, nontrivial


def test_massey_higher_matches_the_chain_oracle_on_trefoil_at_order_4():
    assert _assert_walk_matches_the_chain_oracle(trefoil_ring(), 4, 1 << 8) == (202, 54, 0)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_massey_higher_matches_the_chain_oracle_on_cupex_at_order_3():
    dga = cupex(1, 1, 2)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert _assert_walk_matches_the_chain_oracle(ring, 3, 1 << 4) == (298, 702, 0)


def _coset_walk_against_the_one_by_one_walk(ring, order) -> Counter:
    """Every ``MasseyResult`` field of ``massey_higher`` (status, degree, value,
    indeterminacy, value set, witness, systems) equals the one-by-one walk's
    over every tuple of nonzero classes, and the order-``order`` rows of
    ``massey_table`` are the one-by-one walk's (defined, nonzero) per
    admitted degree tuple.  Counts the brackets by status and the
    nontrivial ones."""
    h = ring.cochain
    mu = ring.minimal(order)[0]
    counts, want_table = Counter(), {}
    for prefix in product(h.degrees(), repeat=order):
        flags = []
        for combo in product(*(range(1, 1 << h.dim(k)) for k in prefix)):
            classes = [HClass(k, v) for k, v in zip(prefix, combo)]
            want = minimal_walk_massey(mu, classes)
            assert massey_higher(mu, classes) == want, classes
            counts[want.status] += 1
            flags.append((want.defined, want.defined and not want.is_trivial()))
        counts["nontrivial"] += sum(nonzero for _, nonzero in flags)
        if _tuple_space([h.dim(k) for k in prefix]):
            want_table[(order, prefix)] = (any(d for d, _ in flags), any(z for _, z in flags))
    got_table = fingerprint.massey_table(ring, order)
    assert {key: v for key, v in got_table.items() if key[0] == order} == want_table
    return counts


def test_coset_walk_matches_the_one_by_one_walk():
    """At order 4: trefoil, the order-four bracket DGA and two disguises,
    and ``random_dga(Random(seed), 4)`` for seeds 1000-1019, one ring per
    twist; at order 3: the bundled examples' rings, both sides.  Seed 1003
    is compared on its first twist's ring only, since the one-by-one walk
    takes 1.7 s on each of its four rings (the fingerprint test at order 4
    covers all four)."""
    dgas = [trefoil(), order_four_bracket_dga()] + disguised_order_four_bracket_dgas()[:2]
    seeds = {len(dgas) + i: seed for i, seed in enumerate(range(1000, 1020))}
    dgas += [random_dga(random.Random(seed), 4) for seed in seeds.values()]
    at_four = Counter()
    for index, dga in enumerate(dgas):
        firsts = twist_firsts(dga)
        for aug in firsts[:1] if seeds.get(index) == 1003 else firsts:
            at_four += _coset_walk_against_the_one_by_one_walk(build_ring(dga, aug), 4)
    at_three = Counter()
    for ring in oracle_rings():
        at_three += _coset_walk_against_the_one_by_one_walk(ring, 3)
    assert at_four == Counter(defined=2666, undefined=900, nontrivial=3)
    assert at_three == Counter(defined=2160, undefined=874, nontrivial=8)


def test_massey_higher_matches_the_chain_oracle_on_random_dgas_at_order_4():
    for seed in (1000, 1002, 1005):
        dga = random_dga(random.Random(seed), 4)
        ring = build_ring(dga, enumerate_augmentations(dga)[0])
        compared, stopped, _ = _assert_walk_matches_the_chain_oracle(ring, 4, 1 << 12)
        assert compared and not stopped


def test_massey_higher_matches_the_chain_oracle_on_a_nonzero_order_4_bracket():
    """625 tuples of nonzero classes in degrees 1, 2, 3, 4, 11 on the
    hand-built DGA and two of its disguises; one bracket is nonzero."""
    for dga in [order_four_bracket_dga()] + disguised_order_four_bracket_dgas()[:2]:
        ring = build_ring(dga, enumerate_augmentations(dga)[0])
        assert _assert_walk_matches_the_chain_oracle(ring, 4, 1 << 14) == (625, 0, 1)


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
        return apply(s, args)

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
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    _assert_transfer_matches_tree_sum(ring, 4)


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


def test_a_flipped_bit_in_a_zero_pair_block_fails_the_mu2_check():
    """A degree pair with no chain-level m_2 entry is built as the zero block
    with no ``class_of``; the transfer still compares each of its entries."""
    dga = masseyex(1, 4, 9, 20)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    h, products = ring.cochain, set(ring.structure.grouped(2))
    pairs = [
        (a, b)
        for a, b in product(h.degrees(), repeat=2)
        if (a, b) not in products and h.dim(a + b + 1)
    ]
    assert pairs
    for a, b in pairs[:: len(pairs) // 3 or 1]:
        ring = build_ring(dga, enumerate_augmentations(dga)[0])
        block = ring.products.pair(a, b)
        assert block.coords == [[0] * h.dim(b) for _ in range(h.dim(a))]
        block.coords[-1][-1] ^= 1
        with pytest.raises(InternalConsistencyError, match="transferred mu_2 disagrees"):
            ring.minimal(2)


def test_a_product_that_is_not_closed_is_rejected():
    """m_2(x, x) = a with m_1(a) = b: the product of the cocycle x with itself
    is not closed."""
    s = AInftyStructure(
        0, {0: ("x",), 1: ("a",), 2: ("b",)}, 2, {1: {("a",): 1}, 2: {("x", "x"): 1}}
    )
    h = homology(linearized_complexes(s)[1])
    x = HClass(0, 1)
    with pytest.raises(ContractError, match="not closed"):
        transfer_minimal_model(h, s, 3)
    with pytest.raises(ContractError, match="not closed"):
        ProductTable(h, s).cup(x, x)
    with pytest.raises(ContractError, match="not closed"):
        massey_triple(h, s, x, x, x)


def _with_flipped_homotopy(h):
    """A copy of the retract h with one bit of the first homotopy vector flipped."""
    k = min(k for k, vecs in h._hvecs.items() if vecs)
    hvecs = {**h._hvecs, k: [h._hvecs[k][0] ^ 1] + h._hvecs[k][1:]}
    return replace(h, _hvecs=hvecs, _inv={})


def _defined_triple(table):
    """The first triple of basis classes whose two products vanish."""
    classes = [c for k in table.h.degrees() for c in basis_classes(table.h, k)]
    for x, y, z in product(classes, repeat=3):
        if not table.cup(x, y).coords and not table.cup(y, z).coords:
            return x, y, z


def test_public_entry_points_verify_a_retract_from_a_caller():
    ring = trefoil_ring()
    s, bad = ring.structure, _with_flipped_homotopy(ring.cochain)
    triple = _defined_triple(ring.products)
    with pytest.raises(ContractError, match="retract fails"):
        transfer_minimal_model(bad, s, 3)
    with pytest.raises(ContractError, match="retract fails"):
        massey_triple(bad, s, *triple)
    with pytest.raises(ContractError, match="retract fails"):
        ProductTable(bad, s).minimal(3)
    with pytest.raises(ContractError, match="retract fails"):
        transfer_minimal_model(bad, s, 3, ring.products)  # the table is over another h


def test_the_rings_own_retract_is_not_verified_again(monkeypatch, tmp_path, capsys):
    def refuse(h):
        raise AssertionError("the ring's own retract was verified")

    monkeypatch.setattr(ainfty, "_verify_retract", refuse)
    ring = trefoil_ring()
    ring.minimal(4)
    assert ring.products.massey(*_defined_triple(ring.products)).defined
    path = tmp_path / "m.dga"
    path.write_text(serialize_dga(masseyex(1, 4, 9, 20)), encoding="utf-8")
    for argv in (
        ["massey", "--classes=-6:1,-11:1,20:1", str(path)],
        ["minimal", "--arity", "4", str(path)],
        ["compare-mirror", str(path)],
    ):
        assert main(argv) == 0, argv
    assert "value: [a2]" in capsys.readouterr().out


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


def test_ring_keeps_one_transfer_and_hands_it_out_whole(monkeypatch):
    """``minimal(k)`` returns the kept objects for every k up to the kept
    arity, a higher k rebuilds the transfer, and the kept tables of arity
    <= k are a fresh transfer's to k: the recursion builds arity k from
    lower arities alone."""
    ring = trefoil_ring()
    calls = []
    real = transfer_minimal_model

    def counted(h, s, up_to, products=None):
        calls.append(up_to)
        return real(h, s, up_to, products)

    monkeypatch.setattr(ainfty, "transfer_minimal_model", counted)
    for arity, kept in ((3, 3), (5, 5), (2, 5), (4, 5), (5, 5)):
        mu, incl = ring.minimal(arity)
        assert (mu.arity, incl.arity) == (kept, kept)
        assert ring.minimal(arity) == (mu, incl) and ring.minimal(arity)[0] is mu
        want_mu, want_incl = real(ring.cochain, ring.structure, arity)
        assert {k: mu.tables.get(k, {}) for k in range(1, arity + 1)} == {
            k: want_mu.tables.get(k, {}) for k in range(1, arity + 1)
        }
        assert {k: t for k, t in incl.tables.items() if k <= arity} == want_incl.tables
    assert calls == [3, 5]  # lower arities read the kept transfer
    assert all(ring.minimal(k)[0] is ring.minimal(5)[0] for k in range(2, 6))
    with pytest.raises(ContractError):
        ring.minimal(1)
    with pytest.raises(ContractError, match="MAX_ARITY"):
        ring.minimal(MAX_ARITY + 1)
    assert ring.minimal(5)[0].arity == 5 and calls == [3, 5, 1, MAX_ARITY + 1]


def test_compare_mirror_transfers_each_ring_once_and_checks_that_transfer_once(monkeypatch):
    """Spies on the transfer, on ``ainfty``'s relation checks and on the
    rings built: across ``compare-mirror --massey-order 4 --order-cap 3``
    each ring is transferred once, at arity 4, and its mu's relations are
    checked once, at that transfer, up to arity 5, the first relation that
    reads mu_4; the ring's own structure is not."""
    rings, transfers, checks = [], [], []
    real_build, real_transfer, real_check = build_ring, transfer_minimal_model, check_an_relations

    def built(dga, aug):
        rings.append(real_build(dga, aug))
        return rings[-1]

    def transfer(h, s, up_to, products=None):
        transfers.append((products, up_to, real_transfer(h, s, up_to, products)))
        return transfers[-1][2]

    def check(s, up_to):
        checks.append((s, up_to))
        return real_check(s, up_to)

    monkeypatch.setattr(fingerprint, "build_ring", built)
    monkeypatch.setattr(ainfty, "transfer_minimal_model", transfer)
    monkeypatch.setattr(ainfty, "check_an_relations", check)
    for _, dga in bundled_examples():
        for spy in (rings, transfers, checks):
            spy.clear()
        fingerprint.compare_mirror(dga, massey_order=4, order_cap=3)
        assert rings and [id(r.products) for r in rings] == [id(t) for t, _, _ in transfers]
        assert [up_to for _, up_to, _ in transfers] == [4] * len(rings)
        mus = [mu for _, _, (mu, _) in transfers]
        assert [(id(s), up_to) for s, up_to in checks] == [(id(mu), 5) for mu in mus]


def test_a_transfer_with_a_flipped_mu3_bit_is_refused_by_every_reader(
    monkeypatch, tmp_path, capsys
):
    """One flipped mu_3 bit of masseyex(1,4,9,20)'s transfer fails the
    arity-4 relation, and the check at the transfer refuses it before
    ``massey_table``, the perturbation engine, ``minimal``,
    ``compare-mirror`` or ``massey`` reads it, at order 3 and at order 4.
    With m_1 = 0 no relation of arity 3 or less involves mu_3, so a
    transfer to arity 3 is checked up to arity 4."""
    real = transfer_minimal_model

    def flipped(h, s, up_to, products=None):
        mu, incl = real(h, s, up_to, products)
        tables = {k: dict(t) for k, t in mu.tables.items()}
        tables[3][("[b1]", "[a2]", "[a2]")] = tables[3].get(("[b1]", "[a2]", "[a2]"), 0) ^ 1
        return AInftyStructure(mu.modulus, mu.basis, mu.arity, tables), incl

    monkeypatch.setattr(ainfty, "transfer_minimal_model", flipped)
    dga = masseyex(1, 4, 9, 20)
    detail = (
        "transferred structure fails a relation:"
        " relation fails at arity 4 on ([b1], [a2], [a2], [d])"
    )
    for n in (3, 4):
        for read in (
            lambda ring: fingerprint.massey_table(ring, n),
            lambda ring: order_n_cohomology(ring, n, engine="perturbation"),
        ):
            with pytest.raises(InternalConsistencyError, match=re.escape(detail)):
                read(build_ring(dga, enumerate_augmentations(dga)[0]))
    path = tmp_path / "m.dga"
    path.write_text(serialize_dga(dga), encoding="utf-8")
    for argv in (
        ["minimal", "--arity", "4", str(path)],
        ["compare-mirror", "--order-cap", "3", str(path)],
        ["massey", "--classes=-20:1,4:1,4:1", str(path)],
        ["massey", "--classes=-20:1,4:1,4:1,11:1", str(path)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "internal consistency failure: %s\n" % detail)


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
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    _assert_composition_sums_match_the_oracle(ring, 5)


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


def test_compositions_in_lists_the_compositions_with_every_part_in_its_options():
    """Against the filtered product of the option lists, which is in
    lexicographic order; every part allowed gives all compositions."""
    rng = random.Random(5)
    for _ in range(300):
        r, n = rng.randint(1, 5), rng.randint(1, 12)
        options = tuple(tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 5)))) for _ in range(r))
        assert _compositions_in(options, n) == tuple(c for c in product(*options) if sum(c) == n)
    for n, r in product(range(1, 9), range(1, 5)):
        everything = tuple(c for c in product(range(1, n + 1), repeat=r) if sum(c) == n)
        assert _compositions(n, r) == everything


@pytest.mark.parametrize("f_2", [
    {("p", "p"): 0b01, ("s", "t"): 0b01, ("q", "q"): 0b10},
    {("s", "t"): 0b01, ("q", "q"): 0b10},
])
def test_composition_sum_names_the_first_tuple_in_mixed_degrees(f_2):
    """The index reads every word in degree 0, but (s, t) has degree sum 1, so
    two tuples fail: (q, s, t) at the composition (1, 2) from m_2's second
    entry, and (s, t, q) at (2, 1) from its first.  The sum runs r, then the
    compositions in order, then the entries in table order, then the words,
    so it names (q, s, t), after passing (p, q, q) and, where f_2 has it,
    (q, p, p)."""
    m = AInftyStructure(0, {0: ("a", "b"), 1: ("c",)}, 2, {2: {("a", "b"): 1, ("b", "a"): 1}})
    f = {1: {("p",): 0b01, ("q",): 0b10}, 2: f_2}
    index = {c: _inverted_index(m, table, lambda w: 0) for c, table in f.items()}
    degree_of = {"p": 0, "q": 0, "s": 0, "t": 1}
    with pytest.raises(InternalConsistencyError) as raised:
        _composition_sum(m, index, degree_of, 3, 2, {})
    assert str(raised.value) == (
        "composition sum in mixed degrees: m_2 on (q, s, t) lands in degree 1, the labels give 2"
    )


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
    ring = random_augmented_dga(random.Random(seed), max_gens=6)[2]
    h, s = ring.cochain, ring.structure
    assert check_an_relations(s, min(s.arity + 1, 4)).ok
    mu, f = transfer_minimal_model(h, s, 3)
    assert check_an_relations(mu, 3).ok
    assert check_ainfty_morphism(f, mu, s, 3).ok
