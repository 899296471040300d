"""Basis-independent fingerprints and the mirror comparison verdicts."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from legch.ainfty import HClass, build_ring
from legch.algebra import mirror_dga
from legch.augment import enumerate_augmentations
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fingerprint import (
    AugmentationProfile,
    Fingerprint,
    audit_basis_independence,
    compare_mirror,
    cup_rank_table,
    fingerprint_dga,
    massey_table,
    order_dim_table,
    profile_for,
    random_graded_basis,
)
from legch.gf2 import rank
from legch.tilde import order_n_cohomology
from helpers import (
    admitted_class_triples,
    chain_massey_triple,
    cup_table,
    every_triple_massey_table,
    oracle_rings,
    random_augmented_dga,
    trivial_bracket_dga,
)


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
        assert cup_rank_table(ring, bases) == cup_rank_table(ring)


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
            assert cup_rank_table(ring, bases) == want


def test_massey_table_equals_the_chain_level_oracle_table():
    for ring in oracle_rings():
        assert massey_table(ring) == _oracle_massey_table(ring)


@given(st.integers(0, 10**6))
@example(288)
@example(603)
@example(2023)
@settings(deadline=None, max_examples=15)
def test_massey_table_equals_the_chain_level_oracle_table_on_random_dgas(seed):
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=10)
    ring = build_ring(dga, aug)
    assert massey_table(ring) == _oracle_massey_table(ring)


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
    dga, aug = random_augmented_dga(random.Random(seed), max_gens=10)
    ring = build_ring(dga, aug)
    assert massey_table(ring) == every_triple_massey_table(ring)


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
