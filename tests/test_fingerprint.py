"""Basis-independent fingerprints and the mirror comparison verdicts."""

import random
import re
import time
from itertools import product
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, ainfty, fingerprint, tilde
from legch.ainfty import AInftyStructure, HClass, ProductTable, build_ring
from legch.algebra import mirror_dga, stabilize
from legch.augment import enumerate_augmentations
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fingerprint import (
    DEFAULT_MAX_TUPLES,
    AugmentationProfile,
    Fingerprint,
    _check_tuple_budget,
    _first_difference,
    _opposite,
    compare_mirror,
    cup_rank_table,
    fingerprint_dga,
    massey_table,
    order_dim_table,
    profile_for,
)
from legch.fileio import parse_dga
from legch.gf2 import rank
from legch.linear import HomologyData, homology, linearized_complexes
from legch.tilde import order_n_cohomology

import helpers
import theorems
from helpers import (
    admitted_class_triples,
    all_pairs_cup_rank_table,
    apply_block_annihilators,
    chain_massey_triple,
    cup_product_support,
    cup_table,
    degree_scan_massey_table,
    disguised_order_four_bracket_dgas,
    every_triple_massey_table,
    mirror_bases,
    multiset_first_difference,
    oracle_rings,
    order_four_bracket_dga,
    per_order_dim_table,
    random_augmented_dga,
    random_dga,
    random_dgas,
    random_disguised_base,
    sorted_opposite,
    sorted_union_first_difference,
    trivial_bracket_dga,
    twist_groups,
    two_sided_compare_mirror,
)
from theorems import audit_basis_independence, random_graded_basis


def _oracle_massey_table(ring):
    """massey_table at order 3, every bracket from the chain-level oracle."""
    table = {}
    for prefix, classes in admitted_class_triples(ring.cochain):
        result = chain_massey_triple(ring.cochain, ring.structure, *classes)
        defined, nonzero = table.get((3, prefix), (False, False))
        table[(3, prefix)] = (
            defined or result.defined,
            nonzero or (result.defined and not result.is_trivial()),
        )
    return table


def test_trefoil_cup_rank_table():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert cup_rank_table(ring) == {(0, 0): 1}


def test_cup_rank_table_on_cup_family():
    dga = cupex(1, 3, 7)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    table = cup_rank_table(ring)
    duality = {(-7, 7), (7, -7), (-5, 5), (5, -5), (-3, 3), (3, -3)}
    asymmetric = {(-5, 7), (-3, -5), (7, -3)}
    assert set(table) == duality | asymmetric
    assert set(table.values()) == {1}


def test_cup_rank_table_is_basis_independent():
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    rng = random.Random(7)
    for _ in range(5):
        bases = random_graded_basis(ring.cochain, rng)
        for k, vectors in bases.items():
            assert rank(vectors) == len(vectors) == ring.cochain.dim(k)
        assert all_pairs_cup_rank_table(ring, bases) == cup_rank_table(ring)


def test_cup_rank_table_in_random_bases_equals_the_chain_level_rank():
    rng = random.Random(11)
    for ring in oracle_rings():
        h = ring.cochain
        for _ in range(3):
            bases = random_graded_basis(h, rng)
            want = {}
            for r in sorted(bases):
                for s in sorted(bases):
                    xs = [HClass(r, v) for v in bases[r]]
                    ys = [HClass(s, v) for v in bases[s]]
                    value = rank(c.coords for c in cup_table(h, ring.structure, xs, ys))
                    if value:
                        want[(r, s)] = value
            assert all_pairs_cup_rank_table(ring, bases) == want == cup_rank_table(ring)


def test_massey_table_equals_the_chain_level_oracle_table():
    """Equal as dicts, and the table's keys come in sorted order."""
    for ring in oracle_rings():
        assert list(massey_table(ring).items()) == sorted(_oracle_massey_table(ring).items())


@given(st.integers(0, 10**6))
@example(288)
@example(603)
@example(2023)
@settings(deadline=None, max_examples=15)
def test_massey_table_equals_the_chain_level_oracle_table_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=10)[2]
    assert list(massey_table(ring).items()) == sorted(_oracle_massey_table(ring).items())


def test_massey_table_on_the_support_equals_the_every_triple_table():
    for ring in oracle_rings():
        assert massey_table(ring) == every_triple_massey_table(ring)


# Seeds 288, 603 and 2023 have triples whose p_3 is nonzero only through the
# lift i_2(y, z).
@given(st.integers(0, 10**6))
@example(288)
@example(603)
@example(2023)
@settings(deadline=None, max_examples=15)
def test_massey_table_on_the_support_equals_the_every_triple_table_on_random_dgas(seed):
    ring = random_augmented_dga(random.Random(seed), max_gens=10)[2]
    assert massey_table(ring) == every_triple_massey_table(ring)


def test_the_massey_table_walks_only_reachable_non_flat_support_triples_on_masseyex():
    """masseyex(1,4,9,20) has one augmentation and 9^3 admitted triples, 140
    of them on the support.  In 136 of those no class triple has both
    adjacent products zero, so they are (False, False) with no walk; the
    other 4 carry an entry of mu_3 on their degrees, are walked, and each
    has a nonzero bracket."""
    ring = build_ring(masseyex(1, 4, 9, 20), enumerate_augmentations(masseyex(1, 4, 9, 20))[0])
    walked, walk_flags = [], fingerprint._walk_flags
    with patch.object(fingerprint, "_walk_flags", lambda *a: walked.append(a[1]) or walk_flags(*a)):
        table = massey_table(ring)
    assert len(table) == 729 and len(walked) == 4
    assert sum(flags == (False, False) for flags in table.values()) == 136
    assert [table[(3, t)] for t in walked] == [(True, True)] * 4
    assert table == degree_scan_massey_table(ring)


def test_the_reach_past_a_support_pair_depends_on_the_reach_before_it():
    """Degree 3 holds u and v, and x v, y u and u w are the nonzero products.
    The support pair (3, 4) is reached from {u} after x and from {v} after
    y, so its reach is 0 past x, where u w != 0, and {w} past y: (1, 3, 4)
    is (False, False) and (2, 3, 4) keeps the default."""
    dga = parse_dga(
        "modulus 0\n"
        + "".join("gen %s %d\n" % g for g in zip("xyuvw", (1, 2, 3, 3, 4)))
        + "gen p1 5\ngen p2 6\ngen p3 8\nd p1 = x v\nd p2 = y u\nd p3 = u w\n"
    )
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert ring.products.support == ((1, 3), (2, 3), (3, 4))
    table = massey_table(ring)
    assert (table[(3, (1, 3, 4))], table[(3, (2, 3, 4))]) == ((False, False), (True, False))
    assert table == degree_scan_massey_table(ring)


def test_support_tuples_past_the_class_tuple_bound_stay_out_of_the_massey_table():
    """x b != 0 for every nonzero x of degree 1 (dims 6 and 1), so the
    support triples around the pair (1, 2) have reach 0.  With degree 5 of
    dim 7 as their third degree they count 63 * 127 class tuples, past
    ``DEFAULT_MAX_TUPLES``: not admitted, so not in the table."""
    dga = parse_dga(
        "modulus 0\ngen b 2\n"
        + "".join("gen a%d 1\ngen p%d 4\nd p%d = a%d b\n" % (i, i, i, i) for i in range(6))
        + "".join("gen t%d 5\n" % i for i in range(7))
    )
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    assert ring.cochain.dims() == {1: 6, 2: 1, 4: 6, 5: 7}
    table = massey_table(ring)
    assert (3, (1, 2, 5)) not in table and (3, (5, 1, 2)) not in table
    assert table[(3, (1, 2, 4))] == table[(3, (4, 1, 2))] == (False, False)
    assert list(table.items()) == sorted(degree_scan_massey_table(ring).items())



def test_a_massey_table_that_admits_no_tuple_transfers_nothing():
    """13 closed letters in degree 2 have 8,191 nonzero classes, past
    ``DEFAULT_MAX_TUPLES``: no tuple is admitted, so the table is empty and
    no transfer is built for it, while an order over ``MAX_ARITY`` is still
    refused in the transfer's words."""
    dga = parse_dga("modulus 0\n" + "".join("gen b%d 2\n" % i for i in range(13)))
    ring = build_ring(dga, enumerate_augmentations(dga)[0])

    def refuse(*args):
        raise AssertionError("a transfer ran")

    with patch.object(ainfty, "transfer_minimal_model", refuse):
        for order in (3, 4, ainfty.MAX_ARITY):
            assert massey_table(ring, order) == {}
        over = "^transfer arity %d exceeds the budget MAX_ARITY = %d$"
        with pytest.raises(ContractError, match=over % (ainfty.MAX_ARITY + 1, ainfty.MAX_ARITY)):
            massey_table(ring, ainfty.MAX_ARITY + 1)
    assert ring.products._model is None
    ring = _free_ring(3)  # one class per degree: every triple is admitted and read
    assert massey_table(ring) and ring.products._model[0].arity == 3

@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_bracket_terms_are_built_only_inside_walks_on_masseyex_1_2_3_4():
    """The tables of orders 3 and 4 of masseyex(1,2,3,4) walk 4 and 55
    support tuples, those of nonzero reach on whose degrees mu has an
    entry on a run of three or more classes, and ``_BracketWalk._terms``
    runs only inside those walks, once per variable and once for the
    value of each walk's degree tuple: 4 * 3 = 12 times, and 4 * 3 + 51 * 6
    = 318 times with the 51 walks of order 4."""
    dga = masseyex(1, 2, 3, 4)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    counts, terms, walk_flags = {}, ainfty._BracketWalk._terms, fingerprint._walk_flags

    def counted_terms(self, *args):
        counts["terms"] += 1
        counts["outside"] += not counts["depth"]
        return terms(self, *args)

    def counted_walk(*args):
        counts["walks"] += 1
        counts["depth"] += 1
        try:
            return walk_flags(*args)
        finally:
            counts["depth"] -= 1

    for order, walks, built in ((3, 4, 12), (4, 55, 318)):
        counts.update(walks=0, terms=0, outside=0, depth=0)
        with patch.object(ainfty._BracketWalk, "_terms", counted_terms), patch.object(
            fingerprint, "_walk_flags", counted_walk
        ):
            table = massey_table(ring, order)
        assert counts == dict(walks=walks, terms=built, outside=0, depth=0), order
        assert table == degree_scan_massey_table(ring, order)


def _member_rings(dgas):
    """The ring of every member of each DGA and of its mirror."""
    for dga in dgas:
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                yield build_ring(side, aug)


def _table_or_error(table, ring, order):
    try:
        return table(ring, order)
    except ContractError as exc:
        return "ContractError: %s" % exc


def _assert_support_reads_match_the_oracles(rings):
    """The Massey table at orders 3 and 4, its keys in sorted order, the cup
    support, the cup ranks in the standard and a random basis, and the
    annihilator masks of every degree pair."""
    for ring in rings:
        assert list(ring.products.support) == cup_product_support(ring)
        for order in (3, 4):
            want = _table_or_error(degree_scan_massey_table, ring, order)
            got = _table_or_error(massey_table, ring, order)
            assert got == want
            assert isinstance(got, str) or list(got) == sorted(got)
        assert cup_rank_table(ring) == all_pairs_cup_rank_table(ring)
        bases = random_graded_basis(ring.cochain, random.Random(len(ring.cochain.dims())))
        assert cup_rank_table(ring) == all_pairs_cup_rank_table(ring, bases)
        for a, b in product(ring.cochain.degrees(), repeat=2):
            want = apply_block_annihilators(ring, a, b)
            masks = {x: sum(1 << y for y in ys) for x, ys in want.items()}
            assert ring.products.annihilators(a, b) == masks, (a, b)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_support_reads_equal_the_degree_scan_oracles_on_the_examples_and_mirror_bases():
    dgas = [dga for _, dga in bundled_examples()] + mirror_bases()
    _assert_support_reads_match_the_oracles(_member_rings(dgas))


def test_support_reads_equal_the_degree_scan_oracles_on_random_dgas():
    _assert_support_reads_match_the_oracles(_member_rings(random_dgas(20261019, 20)))


def _free_ring(k: int):
    """One generator in each degree 1..k and no differential."""
    dga = parse_dga("modulus 0\n" + "".join("gen a%d %d\n" % (i, i) for i in range(1, k + 1)))
    return build_ring(dga, enumerate_augmentations(dga)[0])


def test_the_massey_table_budget_admits_40_degrees_and_refuses_41(monkeypatch):
    """40 one-dimensional degrees give 64,000 triples, 41 give 68,921 and
    20 give 8,000 triples and 160,000 quadruples; a refusal comes before
    the transfer."""
    refused = "the Massey table has at least %d degree tuples, over the budget MAX_MASSEY_TUPLES = %d"
    ring = _free_ring(40)
    table = massey_table(ring)
    assert len(table) == 64000 and set(table.values()) == {(True, False)}

    def refuse(*args):
        raise AssertionError("a transfer ran")

    with patch.object(ainfty, "transfer_minimal_model", refuse):
        for k, order, total in ((41, 3, 68921), (20, 4, 168000)):
            with pytest.raises(ContractError, match=re.escape(refused % (total, 1 << 16))):
                massey_table(_free_ring(k), order)
    monkeypatch.setattr(fingerprint, "MAX_MASSEY_TUPLES", 64000)
    assert massey_table(ring) == table
    monkeypatch.setattr(fingerprint, "MAX_MASSEY_TUPLES", 63999)
    with pytest.raises(ContractError, match=re.escape(refused % (64000, 63999))):
        massey_table(ring)


def test_a_massey_order_that_admits_no_tuple_fails_fast():
    """Three 3-dimensional degrees admit no tuple of order 5 or more
    (7^5 > 4096), and zero cohomology none at all: the orders stop at the
    first that admits none, and only the transfer's arity budget refuses
    an order above it."""
    spread = parse_dga(
        "modulus 0\n"
        + "".join("gen a%d 7\ngen b%d 11\ngen q%d 19\n" % (i, i, i) for i in (1, 2, 3))
        + "".join("d q%d = a%d b%d\n" % (i, i, i) for i in (1, 2, 3))
    )
    zero = parse_dga("modulus 0\ngen a 1\ngen b 0\nd a = b\n")
    start = time.perf_counter()
    report = compare_mirror(spread, massey_order=16)
    assert report.distinguished and not any(v[1] for p in report.knot.profiles for _, v in p.massey)
    assert {order for p in report.knot.profiles for (order, _), _ in p.massey} == {3, 4}
    refused = "transfer arity 1000000 exceeds the budget MAX_ARITY = 16"
    with pytest.raises(ContractError, match=refused):
        compare_mirror(zero, massey_order=10**6)
    assert time.perf_counter() - start < 1.0


def test_the_tuple_budget_counts_the_admitted_tuples():
    """The count over products of class counts equals the tuples listed
    one by one; a budget one below it refuses, at it admits."""
    rng = random.Random(29)
    for _ in range(60):
        dims = [rng.randint(1, 7) for _ in range(rng.randint(1, 5))]
        massey_order = rng.randint(0, 5)
        counts = [(1 << d) - 1 for d in dims]
        want = sum(
            prod(t) <= DEFAULT_MAX_TUPLES
            for order in range(3, massey_order + 1)
            for t in product(counts, repeat=order)
        )
        with patch.object(fingerprint, "MAX_MASSEY_TUPLES", want):
            _check_tuple_budget(counts, massey_order)
        if want:
            with patch.object(fingerprint, "MAX_MASSEY_TUPLES", want - 1):
                with pytest.raises(ContractError, match="at least %d degree tuples" % want):
                    _check_tuple_budget(counts, massey_order)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_class_of_never_runs_on_a_pair_without_a_chain_level_product(monkeypatch):
    """A spy records, at each ``project`` inside ``ProductTable.pair`` (one per
    m_2 entry), the degree pair being built: only pairs where the
    chain-level m_2 has an entry, and every such pair that was built; no
    ``class_of`` runs there; and every block that ``profile_for`` builds
    lies on the support."""
    building, seen = [], []
    real_pair, real_project = ProductTable.pair, HomologyData.project

    def pair(self, a, b):
        building.append((self.h.canon(a), self.h.canon(b)))
        try:
            return real_pair(self, a, b)
        finally:
            building.pop()

    def project(self, k, vec):
        if building:
            seen.append(building[-1])
        return real_project(self, k, vec)

    def class_of(self, k, vec):
        raise AssertionError("class_of ran on a class pair")

    monkeypatch.setattr(ProductTable, "pair", pair)
    monkeypatch.setattr(HomologyData, "project", project)
    monkeypatch.setattr(HomologyData, "class_of", class_of)
    for ring in _member_rings(mirror_bases()[:4] + random_dgas(20261019, 10)):
        seen.clear()
        profile_for(ring)
        products = set(ring.structure.grouped(2))
        assert set(seen) == {p for p in ring.products._pairs if p in products}
        assert set(ring.products._pairs) <= set(ring.products.support)


def test_a_pair_block_decides_closedness_on_each_class_pair_sum():
    """The class x = [a + b] has m_2(a, a) = m_2(b, b) = u with d u = w != 0,
    and no other entry: neither entry is closed, but their sum m_2(ix, ix)
    is 0, so x x = 0 and nothing is refused."""
    s = AInftyStructure(
        0,
        {0: ("a", "b"), 1: ("c", "u", "e"), 2: ("w",)},
        2,
        {1: {("a",): 0b001, ("b",): 0b001, ("u",): 0b1}, 2: {("a", "a"): 0b010, ("b", "b"): 0b010}},
    )
    h = homology(linearized_complexes(s)[1])
    assert h.dims() == {0: 1, 1: 1} and h.include(0, 1) == 0b11
    table = ProductTable(h, s)
    assert table.pair(0, 0).coords == [[0]]
    assert table.cup(HClass(0, 1), HClass(0, 1)) == HClass(1, 0)


def test_massey_table_counts_a_value_in_its_indeterminacy_as_zero():
    dga = trivial_bracket_dga()
    table = massey_table(build_ring(dga, enumerate_augmentations(dga)[0]))
    assert table[(3, (2, 3, 7))] == (True, False)


def test_massey_table_flags_the_ordered_nonzero_brackets():
    dga = masseyex(1, 4, 9, 20)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    table = massey_table(ring)
    assert table[(3, (-4, -6, -11))] == (True, True)
    assert table[(3, (-6, -11, 20))] == (True, True)
    assert table[(3, (-11, -6, -4))] == (True, False)
    assert all(order == 3 for order, _ in table)


def test_profile_fields_are_sorted_tuples():
    dga = trefoil()
    profile = profile_for(build_ring(dga, enumerate_augmentations(dga)[0]))
    assert isinstance(profile, AugmentationProfile)
    assert profile.dims == ((0, 2), (1, 1))
    assert profile.cup_ranks == (((0, 0), 1),)
    assert list(profile.massey) == sorted(profile.massey)
    assert profile.order_dims == (
        ((1, 0), 2),
        ((1, 1), 1),
        ((2, 0), 5),
        ((2, 1), 4),
        ((2, 2), 1),
    )


def test_fingerprint_orders_profiles_canonically():
    fp = fingerprint_dga(trefoil())
    assert isinstance(fp, Fingerprint)
    assert len(fp.profiles) == 5
    assert list(fp.profiles) == sorted(fp.profiles)


def test_trefoil_mirror_is_indistinguishable():
    report = compare_mirror(trefoil())
    assert report.verdict == "INDISTINGUISHABLE-BY-THESE-INVARIANTS"
    assert not report.distinguished
    assert report.witness is None
    assert (
        report.note
        == "equal fingerprints do not certify an isomorphism; the comparison is inconclusive"
    )
    assert report.knot.profiles == report.mirror.profiles


def test_cup_family_is_distinguished_by_a_cup_rank():
    report = compare_mirror(cupex(1, 3, 7))
    assert report.distinguished
    assert report.witness == (
        "rank of the cup product in bidegree (-5, -3) across augmentations: [0] vs [1]"
    )
    assert report.note == (
        "the named invariant is preserved by every degree-preserving isomorphism"
    )


def test_massey_family_is_distinguished_by_a_bracket_not_by_cups():
    report = compare_mirror(masseyex(1, 4, 9, 20))
    assert report.distinguished
    assert report.witness == (
        "Massey bracket summary (defined, nonzero) in degree tuple"
        " (3, (-11, -6, -4)): [(True, False)] vs [(True, True)]"
    )
    # ring-level data agrees side by side: the cups cannot tell them apart
    knot = report.knot.profiles
    mirror = report.mirror.profiles
    assert sorted(p.dims for p in knot) == sorted(p.dims for p in mirror)
    assert sorted(p.cup_ranks for p in knot) == sorted(p.cup_ranks for p in mirror)
    assert sorted(p.order_dims for p in knot) == sorted(p.order_dims for p in mirror)


def test_comparison_is_symmetric_under_mirroring():
    report = compare_mirror(mirror_dga(cupex(1, 3, 7)))
    assert report.distinguished
    assert report.witness == (
        "rank of the cup product in bidegree (-5, -3) across augmentations: [1] vs [0]"
    )
    assert compare_mirror(mirror_dga(trefoil())).verdict == (
        "INDISTINGUISHABLE-BY-THESE-INVARIANTS"
    )


def test_audit_basis_independence_on_bundled_examples():
    rng = random.Random(20260818)
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        assert audit_basis_independence(build_ring(dga, aug), rng)
    cup = cupex(1, 3, 7)
    assert audit_basis_independence(build_ring(cup, enumerate_augmentations(cup)[0]), rng)


def test_audit_basis_independence_refuses_a_basis_dependent_cup_rank(monkeypatch):
    """Cup ranks are the field the audit reads in two bases: with the rank
    replaced by a count of nonzero products, which a basis change moves,
    it raises.  The rank is replaced wherever the audit reads one: the
    library's table, the oracle's in the random basis, and the basis draw."""
    dga = trefoil()
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    for module in (fingerprint, helpers, theorems):
        monkeypatch.setattr(module, "rank", lambda vectors: sum(1 for v in vectors if v))
    with pytest.raises(InternalConsistencyError) as info:
        audit_basis_independence(ring, random.Random(0))
    assert str(info.value) == "fingerprint changed under a degree-preserving basis change"


def test_profiles_hash_and_compare():
    dga = trefoil()
    augs = enumerate_augmentations(dga)
    p0 = profile_for(build_ring(dga, augs[0]))
    p0_again = profile_for(build_ring(dga, augs[0]))
    # all five trefoil augmentations carry the same invariants
    assert all(profile_for(build_ring(dga, aug)) == p0 for aug in augs[1:])
    assert p0 == p0_again and hash(p0) == hash(p0_again)
    cup = cupex(1, 3, 7)
    other = profile_for(build_ring(cup, enumerate_augmentations(cup)[0]))
    assert p0 != other
    assert len({p0, p0_again, other}) == 2


def test_order_dim_table_is_the_dense_engine_s_nonzero_dims():
    for _, dga in bundled_examples():
        for side in (dga, mirror_dga(dga)):
            for aug in enumerate_augmentations(side):
                ring = build_ring(side, aug)
                dense = {
                    (n, k): d
                    for n in (1, 2)
                    for k, d in order_n_cohomology(ring, n, engine="dense").dims.items()
                    if d
                }
                assert order_dim_table(ring, 2) == dense


def test_order_dim_table_is_the_per_order_loop_at_every_cap():
    dgas = [dga for _, dga in bundled_examples()]
    dgas += [mirror_dga(dga) for dga in dgas] + random_dgas(20261019, 12, 6)
    for dga in dgas:
        for aug in enumerate_augmentations(dga)[:3]:
            for cap in range(5):
                want = per_order_dim_table(build_ring(dga, aug), cap)
                assert order_dim_table(build_ring(dga, aug), cap) == want, (cap, aug)


def _refusal(call, *args):
    try:
        call(*args)
    except ContractError as exc:
        return str(exc)
    return None


def test_order_dim_table_refuses_as_the_per_order_loop(monkeypatch):
    """Each budget refusal, and the first order over MAX_ORDER, is the one the
    loop over n = 1..cap meets first, with its message."""
    dga = masseyex(1, 4, 9, 20)
    aug = enumerate_augmentations(dga)[0]
    mu = build_ring(dga, aug).minimal(4)[0]

    def both(cap):
        got = _refusal(order_dim_table, build_ring(dga, aug), cap)
        assert got == _refusal(per_order_dim_table, build_ring(dga, aug), cap), cap
        return got

    for cap in (5, 7):
        assert both(cap) == "order 5 exceeds the budget MAX_ORDER = 4"
    seen = set()
    for name, module, count in (
        ("MAX_WINDOW_BITS", tilde, tilde._window_bits),
        ("MAX_RELATION_TERMS", ainfty, ainfty._relation_terms),
    ):
        for n in range(1, 5):
            with monkeypatch.context() as patched:
                patched.setattr(module, name, count(mu, n) - 1)
                seen.update(both(cap) for cap in (n, 4, 7))
    assert None not in seen and len(seen) >= 6, seen


def _assert_witness_matches_the_multiset_oracle(left, right):
    """Both directions agree with both oracles; returns the left-to-right witness."""
    for a, b in ((right, left), (left, right)):
        witness = _first_difference(a, b)
        assert witness == multiset_first_difference(a, b) == sorted_union_first_difference(a, b)
    return witness


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_mirror_witness_matches_the_multiset_oracle_on_the_mirror_bases():
    for dga in mirror_bases():
        _assert_witness_matches_the_multiset_oracle(
            fingerprint_dga(dga), fingerprint_dga(mirror_dga(dga))
        )


def test_mirror_witness_matches_the_oracles_between_random_dgas():
    fingerprints = [fingerprint_dga(dga) for dga in random_dgas(20261019, 12)]
    for left, right in zip(fingerprints, fingerprints[1:]):
        _assert_witness_matches_the_multiset_oracle(left, right)


def _profile(dims=(), cups=(), massey=(), orders=()):
    return AugmentationProfile(tuple(dims), tuple(cups), tuple(massey), tuple(orders))


def test_mirror_witness_matches_the_multiset_oracle_on_hand_built_fingerprints():
    a = _profile(dims=[(0, 1)], massey=[((3, (0, 0, 0)), (False, False))], orders=[((1, 0), 1)])
    b = _profile(dims=[(0, 1)], orders=[((1, 0), 2)])
    c = _profile(dims=[(0, 1), (1, 2)])
    d = _profile(dims=[(0, 1)], massey=[((3, (0, 0, 0)), (True, False))])
    e = _profile(dims=[(0, 2)], cups=[((0, 0), 1)])
    f = _profile(dims=[(0, 2)])
    cases = [
        # (False, False) is the massey default: a key missing on one side equals it
        ((a,), (b,), "order-n cohomology dim at (n, degree) (1, 0): [1] vs [2]"),
        ((a,), (c,), "dim of cohomology in degree 1 across augmentations: [0] vs [2]"),
        (
            (a,),
            (d,),
            "Massey bracket summary (defined, nonzero) in degree tuple (3, (0, 0, 0)):"
            " [(False, False)] vs [(True, False)]",
        ),
        ((a, b), (a,), "augmentation count 2 vs 1"),
        ((a, c), (b, c), "order-n cohomology dim at (n, degree) (1, 0): [0, 1] vs [0, 2]"),
        (
            (_profile(dims=[(0, 1)], cups=[((0, 0), 1)]), f),
            (_profile(dims=[(0, 1)]), e),
            "profiles differ only under joint per-augmentation pairing",
        ),
    ]
    for left, right, want in cases:
        got = _assert_witness_matches_the_multiset_oracle(
            Fingerprint(tuple(sorted(left))), Fingerprint(tuple(sorted(right)))
        )
        assert got == want


def _random_massey_field(rng, degrees):
    """Every triple and 4-tuple over these degrees, closed under reversal as
    each order's admitted tuples are, mostly (True, False), with (False,
    False) and (True, True) at random keys, some of them where the
    reversal is (True, False)."""
    flags = [(True, False)] * 6 + [(False, False), (False, False), (True, True)]
    return [
        ((order, t), rng.choice(flags)) for order in (3, 4) for t in product(degrees, repeat=order)
    ]


def _random_profile(rng):
    degrees = sorted(rng.sample(range(-2, 3), rng.randint(1, 3)))
    return _profile(
        dims=[(k, rng.randint(1, 2)) for k in degrees],
        cups=[((r, s), 1) for r in degrees for s in degrees if (r + s) % 3 == 0],
        massey=_random_massey_field(rng, degrees),
        orders=[((1, k), rng.randint(0, 2)) for k in degrees],
    )


def test_opposite_and_witness_match_the_oracles_on_hand_built_fingerprints():
    """Distinct profiles of different dims on each side, so a Massey key is
    missing from some profiles, and (False, False) and (True, True) flags
    at keys whose reversal is (True, False)."""
    knot = _profile(
        dims=[(0, 1), (1, 1)],
        cups=[((0, 1), 1), ((1, 0), 1)],
        massey=[
            ((3, (0, 0, 0)), (True, False)),
            ((3, (0, 0, 1)), (False, False)),  # its reversal (1, 0, 0) is (True, False)
            ((3, (0, 1, 0)), (True, False)),
            ((3, (0, 1, 1)), (True, True)),  # its reversal (1, 1, 0) is (True, False)
            ((3, (1, 0, 0)), (True, False)),
            ((3, (1, 0, 1)), (False, False)),
            ((3, (1, 1, 0)), (True, False)),
            ((3, (1, 1, 1)), (True, True)),
        ],
    )
    small = _profile(dims=[(0, 1)], massey=[((3, (0, 0, 0)), (True, True))])
    fingerprints = [
        Fingerprint(tuple(sorted(side)))
        for side in ([knot, small, small], [knot, knot, small], [small, knot, small])
    ]
    empty = Fingerprint(())
    assert _assert_witness_matches_the_multiset_oracle(empty, empty) == (
        "profiles differ only under joint per-augmentation pairing"
    )
    rng = random.Random(40)
    for _ in range(30):
        fingerprints.append(Fingerprint(tuple(sorted(_random_profile(rng) for _ in range(3)))))
    fields = set()
    for fp in fingerprints:
        flipped = _opposite(fp)
        assert flipped == sorted_opposite(fp)
        assert _opposite(flipped) == fp
        for other in (flipped, fingerprints[0]):
            witness = _assert_witness_matches_the_multiset_oracle(fp, other)
            fields.add((witness.split(" ")[0], len({p.dims for p in fp.profiles})))
    assert _opposite(Fingerprint((knot,))).profiles[0].massey[1:4] == (
        ((3, (0, 0, 1)), (True, False)),
        ((3, (0, 1, 0)), (True, False)),
        ((3, (0, 1, 1)), (True, False)),
    )
    # Massey witnesses among profiles of two and three distinct dims
    assert {("Massey", 2), ("Massey", 3), ("dim", 2)} <= fields


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_opposite_and_witness_match_the_oracles_at_massey_order_4_on_the_mirror_bases():
    """Both Massey orders in one field, and the mirror's own fingerprint."""
    for dga in mirror_bases():
        knot = fingerprint_dga(dga, massey_order=4)
        mirror = _opposite(knot)
        assert mirror == sorted_opposite(knot) == fingerprint_dga(mirror_dga(dga), massey_order=4)
        _assert_witness_matches_the_multiset_oracle(knot, mirror)


def test_the_witness_sorts_the_values_of_one_key_on_masseyex():
    """masseyex(1,4,9,20)'s Massey field lists 729 triples, 589 of them
    (True, False); the knot's and the mirror's differ at 8, the first of
    which, key 102 of 729, is the witness.  Its values are the only ones
    sorted: one list per side."""
    knot = fingerprint_dga(masseyex(1, 4, 9, 20))
    mirror = _opposite(knot)
    fields = [fp.profiles[0].massey for fp in (knot, mirror)]
    assert len(fields[0]) == 729
    assert sum(flags == (True, False) for _, flags in fields[0]) == 589
    spots = fingerprint._differing(fields, (False, False))[1]
    assert (len(spots), spots[0]) == (8, 102)
    lists = []

    def counted(values):
        if isinstance(values, list):
            lists.append(values)
        return sorted(values)

    with patch.object(fingerprint, "sorted", counted, create=True):
        witness = _first_difference(knot, mirror)
    assert witness == (
        "Massey bracket summary (defined, nonzero) in degree tuple (3, (-11, -6, -4)):"
        " [(True, False)] vs [(True, True)]"
    )
    assert lists == [[(True, False)], [(True, True)]]  # one key's values, one list per side


def _report_or_error(compare, dga, **options):
    try:
        return compare(dga, **options)
    except ContractError as exc:
        return "ContractError: %s" % exc


def _assert_one_side_matches_two_sides(dga, **options):
    """The whole report, verdict, witness, note and both fingerprints, agrees
    with the two-sided oracle's; a budget refusal must be the same one."""
    report = _report_or_error(compare_mirror, dga, **options)
    assert report == _report_or_error(two_sided_compare_mirror, dga, **options)
    if not isinstance(report, str):
        assert _opposite(report.knot) == sorted_opposite(report.knot)
    return report


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_compare_mirror_equals_the_two_sided_oracle_on_the_examples_and_mirror_bases():
    verdicts = []
    for dga in [dga for _, dga in bundled_examples()] + mirror_bases():
        for side in (dga, mirror_dga(dga)):
            verdicts.append(_assert_one_side_matches_two_sides(side).distinguished)
    assert verdicts.count(True) == 18 and verdicts.count(False) == 4


def test_compare_mirror_equals_the_two_sided_oracle_on_random_dgas():
    for dga in random_dgas(20261018, 30):
        _assert_one_side_matches_two_sides(dga)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_a_shared_ring_keeps_the_mirror_witness():
    """One degree-0 stabilization: two augmentations, one twist, one ring,
    and its profile counted twice on each side of the witness."""
    witnesses = []
    for base in (cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        dga = stabilize(base, 0)
        assert twist_groups(dga, enumerate_augmentations(dga)) == [[0, 1]]
        report = _assert_one_side_matches_two_sides(dga)
        assert report.distinguished
        assert report.knot.profiles[0] == report.knot.profiles[1]
        witnesses.append(report.witness)
    assert witnesses == [
        "rank of the cup product in bidegree (-5, -3) across augmentations: [0, 0] vs [1, 1]",
        "Massey bracket summary (defined, nonzero) in degree tuple (3, (-11, -6, -4)):"
        " [(True, False), (True, False)] vs [(True, True), (True, True)]",
    ]


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_compare_mirror_equals_the_two_sided_oracle_on_disguised_bases():
    """Unlike ``random_dgas`` draws, these reach the witness: 11 of 20 are
    distinguished, 3 of them with augmentations that share a ring."""
    rng = random.Random(20261018)
    distinguished = shared = 0
    for _ in range(20):
        dga = random_disguised_base(rng)
        if _assert_one_side_matches_two_sides(dga).distinguished:
            distinguished += 1
            augs = enumerate_augmentations(dga)
            shared += len(twist_groups(dga, augs)) < len(augs)
    assert (distinguished, shared) == (11, 3)


def test_compare_mirror_equals_the_two_sided_oracle_at_massey_order_4():
    """The draws random_dga(Random(seed), 4), seeds 1000-1019.  Seed 1003's
    rings walked 82,944 minimal-model systems each, system by system, when
    each bracket listed its values; each table bracket now stops once its
    hull holds 0, and its fingerprint takes milliseconds."""
    for seed in range(1000, 1020):
        dga = random_dga(random.Random(seed), 4)
        _assert_one_side_matches_two_sides(dga, massey_order=4)


def test_compare_mirror_tells_the_order_four_bracket_dga_in_disguise():
    """Stabilizations and elementary isomorphisms keep the order-4 witness."""
    witness = (
        "Massey bracket summary (defined, nonzero) in degree tuple (4, (1, 2, 3, 4)):"
        " [(True, True)] vs [(True, False)]"
    )
    for dga in [order_four_bracket_dga()] + disguised_order_four_bracket_dgas():
        assert not compare_mirror(dga).distinguished
        report = _assert_one_side_matches_two_sides(dga, massey_order=4)
        assert (report.verdict, report.witness) == ("DISTINGUISHED", witness)


def test_opposite_swaps_cup_keys_and_reverses_massey_tuples():
    # Each order's admitted tuples are closed under reversal (admission is a
    # product), and so is the Massey field of every fingerprint.
    profile = _profile(
        dims=[(0, 1), (1, 2)],
        cups=[((0, 1), 1), ((1, 0), 2), ((1, 1), 1)],
        massey=[
            ((3, (0, 1, 1)), (True, True)),
            ((3, (1, 1, 0)), (True, False)),
            ((4, (0, 0, 1, 1)), (False, False)),
            ((4, (1, 1, 0, 0)), (True, False)),
        ],
        orders=[((1, 0), 1), ((2, 1), 3)],
    )
    assert _opposite(Fingerprint((profile,))) == Fingerprint(
        (
            _profile(
                dims=[(0, 1), (1, 2)],
                cups=[((0, 1), 2), ((1, 0), 1), ((1, 1), 1)],
                massey=[
                    ((3, (0, 1, 1)), (True, False)),
                    ((3, (1, 1, 0)), (True, True)),
                    ((4, (0, 0, 1, 1)), (True, False)),
                    ((4, (1, 1, 0, 0)), (False, False)),
                ],
                orders=[((1, 0), 1), ((2, 1), 3)],
            ),
        )
    )


def test_opposite_sorts_the_profiles_again_and_is_an_involution():
    low = _profile(dims=[(0, 1)], cups=[((0, 2), 1)])
    high = _profile(dims=[(0, 1)], cups=[((1, 0), 1)])
    fp = Fingerprint((low, high))
    flipped = _opposite(fp)
    # (0, 2) < (1, 0) but (2, 0) > (0, 1): the opposite of low now sorts last
    assert flipped == Fingerprint(
        (_profile(dims=[(0, 1)], cups=[((0, 1), 1)]), _profile(dims=[(0, 1)], cups=[((2, 0), 1)]))
    )
    assert list(flipped.profiles) == sorted(flipped.profiles)
    assert _opposite(flipped) == fp
    for dga in (cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        knot = fingerprint_dga(dga)
        assert _opposite(_opposite(knot)) == knot != _opposite(knot)


def test_opposite_reverses_each_distinct_profile_once():
    """Repeated profiles keep their multiplicity, sorted again, and share one
    reversed profile per distinct profile."""
    low = _profile(dims=[(0, 1)], cups=[((0, 2), 1)])
    high = _profile(dims=[(0, 1)], cups=[((1, 0), 1)])
    flipped = _opposite(Fingerprint((low, low, high, high, high)))
    opposite_low, opposite_high = (_opposite(Fingerprint((p,))).profiles[0] for p in (low, high))
    assert flipped == Fingerprint((opposite_high,) * 3 + (opposite_low,) * 2)
    assert len({id(p) for p in flipped.profiles}) == 2
    assert _opposite(flipped) == Fingerprint((low, low, high, high, high))
