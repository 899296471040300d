"""Basis-independent fingerprints and the mirror comparison verdicts."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from legch import ContractError
from legch.ainfty import HClass, build_ring
from legch.algebra import mirror_dga, stabilize
from legch.augment import enumerate_augmentations
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fingerprint import (
    AugmentationProfile,
    Fingerprint,
    _first_difference,
    _opposite,
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
    disguised_order_four_bracket_dgas,
    every_triple_massey_table,
    mirror_bases,
    multiset_first_difference,
    oracle_rings,
    order_four_bracket_dga,
    random_augmented_dga,
    random_dga,
    random_dgas,
    random_disguised_base,
    trivial_bracket_dga,
    twist_groups,
    two_sided_compare_mirror,
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
    ring = random_augmented_dga(random.Random(seed), max_gens=10)[2]
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
    ring = random_augmented_dga(random.Random(seed), max_gens=10)[2]
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


def _assert_witness_matches_the_multiset_oracle(left, right):
    """Both directions agree with the oracle; returns the left-to-right witness."""
    assert _first_difference(right, left) == multiset_first_difference(right, left)
    witness = _first_difference(left, right)
    assert witness == multiset_first_difference(left, right)
    return witness


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_mirror_witness_matches_the_multiset_oracle_on_the_mirror_bases():
    for dga in mirror_bases():
        _assert_witness_matches_the_multiset_oracle(
            fingerprint_dga(dga), fingerprint_dga(mirror_dga(dga))
        )


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
    profile = _profile(
        dims=[(0, 1), (1, 2)],
        cups=[((0, 1), 1), ((1, 0), 2), ((1, 1), 1)],
        massey=[
            ((3, (0, 1, 1)), (True, True)),
            ((3, (1, 1, 0)), (True, False)),
            ((4, (0, 0, 1, 1)), (False, False)),
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
