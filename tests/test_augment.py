"""Augmentation enumeration, twisting, and transport."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, augment
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
    per_twist,
    transport,
    twist,
)
from legch.families import bundled_examples, trefoil
from helpers import (
    assert_matches_brute_force,
    first_failure_one_by_one,
    mirror_bases,
    poly,
    random_dga,
    random_dgas,
    random_elementary_iso,
    twist_groups,
)


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


def _letters_dga(occurring, inert):
    """Degree-0 letters x0.. that occur in d a = x0 + x1 + .., which forces
    none of them once there are two, then inert degree-0 letters e0.."""
    names = tuple("x%d" % i for i in range(occurring)) + tuple("e%d" % i for i in range(inert))
    degrees = dict.fromkeys(names, 0)
    degrees["a"] = 1
    return DGA(0, names + ("a",), degrees, {"a": poly(*[(x,) for x in names[:occurring]])})


def test_brute_force_admits_exactly_the_named_budget(monkeypatch):
    """The budget counts every undetermined degree-0 letter; the brute force
    runs over the occurring ones only."""
    tried = []

    def no_trials(eqs, unknown):
        tried.append(len(unknown))
        return 0

    # The cap is checked before the search over 2^k trials, so the search
    # is stubbed out: it admits no trial.
    monkeypatch.setattr(augment, "_search", no_trials)
    budget = "MAX_FREE_GENERATORS is %d" % MAX_FREE_GENERATORS
    for occurring in (MAX_FREE_GENERATORS, 10, 2, 0):
        inert = MAX_FREE_GENERATORS - occurring
        assert enumerate_augmentations(_letters_dga(occurring, inert)) == []
        assert tried[-1] == occurring
        with pytest.raises(ContractError, match=budget):
            enumerate_augmentations(_letters_dga(occurring, inert + 1))
        if occurring:
            with pytest.raises(ContractError, match=budget):
                enumerate_augmentations(_letters_dga(occurring + 1, inert))
    assert tried == [MAX_FREE_GENERATORS, 10, 2, 0]
    monkeypatch.undo()
    # 20 inert letters: 2^20 augmentations from one solution, read on demand.
    augs = enumerate_augmentations(_free_zero_dga(MAX_FREE_GENERATORS))
    assert len(augs) == 1 << MAX_FREE_GENERATORS and len(augs.solutions) == 1
    assert augs[-1].describe() == ", ".join("x%d -> 1" % i for i in range(MAX_FREE_GENERATORS))


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_enumeration_equals_the_brute_force_on_stabilized_examples():
    for base in [dga for _, dga in bundled_examples()] + mirror_bases():
        dga = base
        for _ in range(4):
            assert_matches_brute_force(dga)
            dga = stabilize(dga, 0)


def _path_dga(k):
    """Degree-0 letters b0..b(k-1) on a path: d a_i = b_i b_(i+1)."""
    bs = tuple("b%d" % i for i in range(k))
    aes = tuple("a%d" % i for i in range(k - 1))
    degrees = dict(dict.fromkeys(bs, 0), **dict.fromkeys(aes, 1))
    diff = {a: poly((bs[i], bs[i + 1])) for i, a in enumerate(aes)}
    return DGA(0, aes + bs, degrees, diff)


def test_enumeration_equals_the_brute_force_on_free_generators_and_random_dgas():
    for k in range(13):
        assert_matches_brute_force(_free_zero_dga(k))
    # No two neighbours at 1: the Fibonacci numbers F(k+2).
    fibonacci = [0, 1]
    for k in range(13):
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
        assert_matches_brute_force(_path_dga(k))
        assert len(enumerate_augmentations(_path_dga(k))) == fibonacci[k + 2]
    # b b + b vanishes on both values of b (x^2 = x): no equation, b free.
    repeated = DGA(0, ("b", "a"), {"b": 0, "a": 1}, {"a": poly(("b", "b"), ("b",))})
    assert_matches_brute_force(repeated)
    assert enumerate_augmentations(repeated).solutions == [(0,), (1,)]
    for dga in random_dgas(20261018, 30):
        assert_matches_brute_force(dga)


def _flipped(solutions, s, j):
    row = list(solutions[s])
    row[j] ^= 1
    return solutions[:s] + [tuple(row)] + solutions[s + 1 :]


def _batched_failure(dga, letters, solutions):
    """The message ``_verify_solutions`` raises, None when it passes."""
    try:
        augment._verify_solutions(dga, letters, solutions)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


def test_batched_check_names_the_first_failure_of_the_one_by_one_check():
    """Corrupt one value of the first, a middle or the last solution; both
    checks name the same solution and message, and pass the uncorrupted
    list.  The batched check names the solution by passing every solution
    before it and failing once it is added.  Over every generator a value
    on a nonzero degree is corrupted too; trefoil's d a1 = 1 + .. has a
    constant term."""
    draws = [d for d in random_dgas(20261018, 30) if len(enumerate_augmentations(d).solutions) >= 3]
    for dga in [trefoil()] + draws[:2]:
        augs = enumerate_augmentations(dga)
        cases = [
            (augs.letters, augs.solutions),
            (dga.generators, [tuple(v for _, v in aug.values) for aug in augs]),
        ]
        for letters, solutions in cases:
            assert _batched_failure(dga, letters, solutions) is None
            assert first_failure_one_by_one(dga, letters, solutions) is None
            failures = 0
            for s in sorted({0, len(solutions) // 2, len(solutions) - 1}):
                for j in range(len(letters)):
                    bad = _flipped(solutions, s, j)
                    want = first_failure_one_by_one(dga, letters, bad)
                    if want is None:
                        assert _batched_failure(dga, letters, bad) is None, (s, letters[j])
                        continue
                    failures += 1
                    first, message = want
                    assert _batched_failure(dga, letters, bad[:first]) is None, (s, letters[j])
                    assert _batched_failure(dga, letters, bad[: first + 1]) == message
                    assert _batched_failure(dga, letters, bad) == message, (s, letters[j])
            assert failures


def test_enumeration_interleaves_inert_letters_between_occurring_and_forced_ones():
    """e0..e3 are inert; y is forced to 1 and w to 0; x + z = 1 and u x = 0
    leave three solutions, so 3 * 2^4 augmentations."""
    names = ("e0", "x", "e1", "y", "u", "e2", "z", "w", "e3", "a", "b", "c", "f")
    degrees = dict.fromkeys(names, 0)
    degrees.update(a=1, b=1, c=1, f=1)
    diff = {
        "a": poly((), ("x",), ("z",)),
        "b": poly(("w",)),
        "c": poly((), ("y",)),
        "f": poly(("u", "x")),
    }
    dga = DGA(0, names, degrees, diff)
    augs = enumerate_augmentations(dga)
    assert augs.letters == ("x", "y", "u", "z", "w") and augs.inert == ("e0", "e1", "e2", "e3")
    assert augs.solutions == [(0, 1, 0, 1, 0), (0, 1, 1, 1, 0), (1, 1, 0, 0, 0)]
    assert len(augs) == 48
    assert_matches_brute_force(dga)
    # The same DGA declared in reverse, and with e0 moved to the end.
    for order in (names[::-1], names[1:] + names[:1]):
        assert_matches_brute_force(DGA(0, order, degrees, diff))


def test_a_letter_beside_a_nonzero_degree_letter_is_free_but_splits_twists():
    """x occurs only in d q = x p with |p| = 1, so no equation mentions it,
    yet it changes the twist; e occurs nowhere."""
    dga = DGA(0, ("x", "e", "p", "q"), {"x": 0, "e": 0, "p": 1, "q": 2}, {"q": poly(("x", "p"))})
    augs = enumerate_augmentations(dga)
    assert (augs.letters, augs.solutions, augs.inert) == (("x",), [(0,), (1,)], ("e",))
    assert_matches_brute_force(dga)
    assert twist_groups(dga, augs) == [[0, 1], [2, 3]]
    assert twist(dga, augs[0]) != twist(dga, augs[2])
    assert per_twist(augs, lambda aug: aug("x")) == [0, 0, 1, 1]


def test_unaugmentable_dga_with_inert_letters_has_no_augmentation():
    """Refused by propagation (d a = 1) or only by the brute force
    (x + z = 1 and x + z = 0): 0 augmentations either way, not 2^|I|."""
    inert = {"e0": 0, "e1": 0, "e2": 0}
    rigid = DGA(0, ("e0", "a", "e1", "e2"), dict(inert, a=1), {"a": poly(())})
    names = ("e0", "x", "e1", "z", "e2", "a", "b")
    diff = {"a": poly((), ("x",), ("z",)), "b": poly(("x",), ("z",))}
    both = DGA(0, names, dict(inert, x=0, z=0, a=1, b=1), diff)
    for dga in (rigid, both):
        augs = enumerate_augmentations(dga)
        assert len(augs) == 0 and list(augs) == [] and augs == []
        with pytest.raises(IndexError):
            augs[0]
        assert_matches_brute_force(dga)


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


def test_twist_groups_split_trefoil_and_merge_degree_zero_stabilizations():
    dga = trefoil()
    assert twist_groups(dga, enumerate_augmentations(dga)) == [[0], [1], [2], [3], [4]]
    once = stabilize(dga, 0)  # e1 occurs in no word, so its value changes no twist
    augs = enumerate_augmentations(once)
    assert twist_groups(once, augs) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
    for i, j in twist_groups(once, augs):
        assert twist(once, augs[i]) == twist(once, augs[j])
        assert augs[i].as_dict() != augs[j].as_dict()
    names = tuple("b%d" % i for i in range(4))
    free = DGA(0, names, dict.fromkeys(names, 0), {})
    assert twist_groups(free, enumerate_augmentations(free)) == [list(range(16))]
    assert twist_groups(dga, []) == []


def test_twist_groups_are_ordered_by_first_member_and_share_one_twist():
    """Trefoil's augmentations each differ from the others on one letter at
    least, so a key that left a letter out would merge two of them."""
    dga = trefoil()
    augs = enumerate_augmentations(dga)
    order = [augs[3], augs[0], augs[3], augs[1], augs[0]]
    assert twist_groups(dga, order) == [[0, 2], [1, 4], [3]]
    for draw in random_dgas(20261018, 30):
        augs = enumerate_augmentations(draw)
        for group in twist_groups(draw, augs):
            first = twist(draw, augs[group[0]])
            assert all(twist(draw, augs[i]) == first for i in group)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_per_twist_computes_once_per_group_and_lists_every_member():
    once = stabilize(trefoil(), 0)
    augs = enumerate_augmentations(once)
    seen = []
    results = per_twist(augs, lambda aug: seen.append(aug) or len(seen))
    assert seen == [augs[i] for i in (0, 2, 4, 6, 8)]
    assert results == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    for dga in [stabilize(stabilize(base, 0), 0) for base in mirror_bases()] + random_dgas(20261018, 30):
        augs = enumerate_augmentations(dga)
        seen = []
        results = per_twist(augs, lambda aug: seen.append(aug) or len(seen))
        groups = twist_groups(dga, augs)
        assert seen == [augs[group[0]] for group in groups]
        assert results == [
            number for i in range(len(augs)) for number, group in enumerate(groups, 1) if i in group
        ]


@pytest.mark.parametrize(
    "values, fragment",
    [
        ({"b1": 1, "b2": 0, "a1": 0, "a2": 0}, "does not cover generator b3"),
        ({"b1": 2, "b2": 0, "b3": 0, "a1": 0, "a2": 0}, "value on b1 is not a bit"),
        ({"b1": 0, "b2": 0, "b3": 1, "a1": 1, "a2": 0}, "supported on a1, which has degree 1"),
    ],
)
def test_twist_and_twist_groups_check_every_augmentation_alike(values, fragment):
    dga = trefoil()
    bad = Augmentation(tuple(values.items()))
    with pytest.raises(ContractError, match=fragment):
        twist(dga, bad)
    with pytest.raises(ContractError, match=fragment):
        twist_groups(dga, [*enumerate_augmentations(dga), bad])


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
