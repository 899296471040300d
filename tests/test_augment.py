"""Augmentation enumeration, twisting, and transport."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError, augment
from legch.algebra import (
    DGA,
    ElementaryIso,
    apply_elementary_iso,
    component_k,
    iso_expansion_terms,
    stabilize,
)
from legch.augment import (
    MAX_FREE_GENERATORS,
    Augmentation,
    enumerate_augmentations,
    extend_by_zero,
    transport,
    twist,
)
from legch.families import trefoil
from helpers import poly, random_dga, random_elementary_iso


def test_trefoil_has_exactly_five_augmentations_in_lex_order():
    augs = enumerate_augmentations(trefoil())
    assert len(augs) == 5
    table = [tuple(a(g) for g in ("b1", "b2", "b3")) for a in augs]
    assert table == [
        (0, 0, 1),
        (0, 1, 1),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    ]
    # every augmentation vanishes on the degree-1 crossings
    for a in augs:
        assert a("a1") == 0 and a("a2") == 0


def test_augmentations_kill_the_differential():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        for g in dga.generators:
            total = 0
            for w in dga.d(g):
                prod = 1
                for letter in w:
                    prod &= aug(letter)
                total ^= prod
            assert total == 0


def test_unaugmentable_dga_yields_empty_list():
    dga = DGA(0, ("a",), {"a": 1}, {"a": poly(())})  # d a = 1 forces 1 = 0
    assert enumerate_augmentations(dga) == []


def test_zero_differential_enumerates_all_degree_zero_assignments():
    dga = DGA(0, ("x", "y", "a"), {"x": 0, "y": 0, "a": 2}, {})
    augs = enumerate_augmentations(dga)
    assert len(augs) == 4
    assert [(a("x"), a("y")) for a in augs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _free_zero_dga(count):
    return DGA(0, tuple("x%d" % i for i in range(count)), {"x%d" % i: 0 for i in range(count)}, {})


def test_brute_force_admits_exactly_the_named_budget(monkeypatch):
    tried = []

    def no_assignments(values, repeat):
        tried.append(repeat)
        return iter(())

    # The cap is checked before the 2^k loop, so the loop is stubbed out.
    monkeypatch.setattr(augment, "product", no_assignments)
    assert enumerate_augmentations(_free_zero_dga(MAX_FREE_GENERATORS)) == []
    assert tried == [MAX_FREE_GENERATORS]
    with pytest.raises(ContractError, match="MAX_FREE_GENERATORS is %d" % MAX_FREE_GENERATORS):
        enumerate_augmentations(_free_zero_dga(MAX_FREE_GENERATORS + 1))
    assert tried == [MAX_FREE_GENERATORS]


def test_augmentation_value_lookup_and_describe():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    assert aug("b3") == 1
    assert aug.as_dict()["b2"] == 0
    assert "b3" in aug.describe()
    zero = Augmentation(tuple((g, 0) for g in dga.generators))
    assert zero.describe() == "all generators -> 0"


def test_twist_kills_constants_and_keeps_validity():
    dga = trefoil()
    for aug in enumerate_augmentations(dga):
        twisted = twist(dga, aug)
        for g in twisted.generators:
            assert component_k(twisted.d(g), 0) == frozenset()
        # twisting is still a valid differential
        from legch.algebra import validate_dga

        assert validate_dga(twisted) == []


def test_twist_of_first_trefoil_augmentation_matches_hand_expansion():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]  # b3 -> 1
    twisted = twist(dga, aug)
    assert twisted.d("a1") == poly(("b1",), ("b3",), ("b1", "b2"), ("b1", "b2", "b3"))
    assert twisted.d("a2") == poly(("b1",), ("b3",), ("b2", "b1"), ("b3", "b2", "b1"))


def test_extend_by_zero_covers_new_generators():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    bigger = stabilize(dga, 1)  # adds e1 (deg 1), e2 (deg 0)
    ext = extend_by_zero(aug, bigger)
    assert ext("e2") == 0 and ext("b3") == 1
    # the extension is still an augmentation of the bigger algebra
    assert ext.values in {a.values for a in enumerate_augmentations(bigger)}


def test_transport_follows_elementary_isomorphism():
    dga = trefoil()
    iso = ElementaryIso("b1", poly(("b3",)))
    moved = apply_elementary_iso(dga, iso)
    moved_augs = {a.values for a in enumerate_augmentations(moved)}
    for aug in enumerate_augmentations(dga):
        carried = transport(aug, dga, iso.target, iso.shift)
        assert carried.values in moved_augs


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_random_augmentations_reverify_and_twist_cleanly(seed):
    dga = random_dga(random.Random(seed), max_gens=6)
    augs = enumerate_augmentations(dga)
    seen = set()
    for aug in augs:
        assert aug.values not in seen
        seen.add(aug.values)
        twisted = twist(dga, aug)
        for g in twisted.generators:
            assert component_k(twisted.d(g), 0) == frozenset()


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_random_transport_lands_on_an_augmentation(seed):
    rng = random.Random(seed)
    dga = random_dga(rng, max_gens=6)
    augs = enumerate_augmentations(dga)
    if not augs:
        return
    iso = random_elementary_iso(rng, dga)
    if iso is None:
        return
    try:
        moved = apply_elementary_iso(dga, iso)
    except ContractError as exc:
        assert "MAX_ISO_TERMS" in str(exc)
        return
    moved_values = {a.values for a in enumerate_augmentations(moved)}
    for aug in augs[:4]:
        carried = transport(aug, dga, iso.target, iso.shift)
        assert carried.values in moved_values


def test_transport_draw_1563_is_refused_by_the_iso_budget():
    rng = random.Random(1563)
    dga = random_dga(rng, max_gens=6)
    iso = random_elementary_iso(rng, dga)
    assert iso_expansion_terms(dga, iso) == 9058579
    with pytest.raises(ContractError, match="MAX_ISO_TERMS = 65536"):
        apply_elementary_iso(dga, iso)
