"""Augmentation enumeration, twisting, and transport."""

import copy
import random
import time
import tracemalloc

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
    MAX_TWIST_TERMS,
    Augmentation,
    Augmentations,
    _equation,
    enumerate_augmentations,
    extend_by_zero,
    per_twist,
    transport,
    twist,
)
from legch.cli import main
from legch.families import bundled_examples, trefoil
from legch.fileio import serialize_dga
from helpers import (
    assert_matches_brute_force,
    first_failure_one_by_one,
    mirror_bases,
    path_dga,
    poly,
    random_dga,
    random_dgas,
    random_elementary_iso,
    scan_propagation,
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
    """The budget counts every undetermined degree-0 letter, and the search
    runs over exactly those, occurring and inert alike."""
    tried = []

    def no_trials(eqs, free):
        tried.append(len(free))
        return 0

    # The cap is checked before the search over 2^f trials, so the search
    # is stubbed out: it admits no trial.
    monkeypatch.setattr(augment, "_search", no_trials)
    refused = (
        "too many undetermined degree-0 generators (%d) to enumerate, over the budget"
        " MAX_FREE_GENERATORS = %d" % (MAX_FREE_GENERATORS + 1, MAX_FREE_GENERATORS)
    )
    for occurring in (MAX_FREE_GENERATORS, 10, 2, 0):
        inert = MAX_FREE_GENERATORS - occurring
        assert enumerate_augmentations(_letters_dga(occurring, inert)) == []
        assert tried[-1] == occurring + inert
        with pytest.raises(ContractError) as exc:
            enumerate_augmentations(_letters_dga(occurring, inert + 1))
        assert str(exc.value) == refused
        if occurring:
            with pytest.raises(ContractError) as exc:
                enumerate_augmentations(_letters_dga(occurring + 1, inert))
            assert str(exc.value) == refused
    assert tried == [MAX_FREE_GENERATORS] * 4
    monkeypatch.undo()
    # 20 inert letters: 2^20 augmentations with one twist, read on demand.
    augs = enumerate_augmentations(_free_zero_dga(MAX_FREE_GENERATORS))
    assert len(augs) == 1 << MAX_FREE_GENERATORS
    firsts = []
    assert len(per_twist(augs, firsts.append)) == len(augs) and firsts == [augs[0]]
    assert augs[-1].describe() == ", ".join("x%d -> 1" % i for i in range(MAX_FREE_GENERATORS))


def test_the_widest_admitted_system_is_held_as_one_mask():
    """x_0 + .. + x_19 = 0 admits the 2^19 assignments of even parity, kept
    as one mask over the 2^20 trials.  The enumeration's traced peak is
    5.5 MB; with the solutions listed as value tuples it was 147 MB."""
    dga = _letters_dga(MAX_FREE_GENERATORS, 0)
    tracemalloc.start()
    try:
        augs = enumerate_augmentations(dga)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert len(augs) == 1 << 19
    names = ["x%d" % i for i in range(MAX_FREE_GENERATORS)]

    def even(i):
        """The values of the i-th assignment of even parity, ascending: of 2j
        and 2j + 1 the one whose parity is j's."""
        t = 2 * i + (bin(i).count("1") & 1)
        return [t >> (len(names) - 1 - k) & 1 for k in range(len(names))]

    middle = len(augs) // 2
    for i in (0, middle, len(augs) - 1):
        assert [augs[i](x) for x in names] == even(i)
    assert [augs[-1](x) for x in names] == even(len(augs) - 1) == [1] * 20
    window = range(middle - 2, middle + 3)
    values = [[aug(x) for x in names] for aug in augs[middle - 2 : middle + 3]]
    assert values == list(map(even, window))


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_enumeration_equals_the_brute_force_on_stabilized_examples():
    for base in [dga for _, dga in bundled_examples()] + mirror_bases():
        dga = base
        for _ in range(4):
            assert_matches_brute_force(dga)
            dga = stabilize(dga, 0)


def test_enumeration_equals_the_brute_force_on_free_generators_and_random_dgas():
    for k in range(13):
        assert_matches_brute_force(_free_zero_dga(k))
    # No two neighbours at 1: the Fibonacci numbers F(k+2).
    fibonacci = [0, 1]
    for k in range(13):
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
        assert_matches_brute_force(path_dga(k))
        assert len(enumerate_augmentations(path_dga(k))) == fibonacci[k + 2]
    # b b + b vanishes on both values of b (x^2 = x): no equation, b free.
    repeated = DGA(0, ("b", "a"), {"b": 0, "a": 1}, {"a": poly(("b", "b"), ("b",))})
    assert_matches_brute_force(repeated)
    augs = enumerate_augmentations(repeated)
    assert [aug("b") for aug in augs] == [0, 1] and twist_groups(repeated, augs) == [[0], [1]]
    for dga in random_dgas(20261018, 30):
        assert_matches_brute_force(dga)


def _random_system(rng):
    """Equations over up to six letters, each a sum of up to three monomials of
    at most three letters; about half of them derive a clash or 1 = 0."""
    letters = ["x%d" % i for i in range(rng.randint(1, 6))]
    eqs = []
    for _ in range(rng.randint(1, 6)):
        eq = set()
        for _ in range(rng.randint(1, 3)):
            size = rng.choice((0, 1, 1, 2, 2, 3)[: len(letters) + 1])
            eq ^= {frozenset(rng.sample(letters, size))}
        if eq:
            eqs.append(eq)
    return eqs


def test_indexed_propagation_is_the_scan_by_rounds():
    """Same forced values and reduced equations, in order, or both None, as the
    rounds that read every equation; on random systems and random DGAs."""
    systems = [_random_system(random.Random(seed)) for seed in range(3000)]
    for dga in random_dgas(20261019, 200):
        systems.append([eq for eq in (_equation(dga, dga.d(g)) for g in dga.generators) if eq])
    outcomes = set()
    for eqs in systems:
        want = scan_propagation(copy.deepcopy(eqs))
        assert augment._propagate(copy.deepcopy(eqs)) == want, eqs
        outcomes.add(want is None or bool(want[0]))
    assert outcomes == {True, False}


def test_propagation_reads_only_the_equations_of_each_forced_letter():
    """d c_i = b_i + 1 forces 3000 letters, and d a = 1 + b0 .. b2999 rekeys one
    monomial per forced letter; a scan of every equation per forced letter
    reads 9 million equations."""
    letters = ["b%d" % i for i in range(3000)]
    eqs = [{frozenset(), frozenset(letters)}] + [{frozenset([b]), frozenset()} for b in letters]
    start = time.perf_counter()
    assigned, reduced = augment._propagate(eqs)
    assert time.perf_counter() - start < 1.0
    assert assigned == dict.fromkeys(letters, 1) and reduced == []


def _with_ok(augs, ok):
    """``augs`` with its solution mask replaced by ``ok``."""
    changed = copy.copy(augs)
    changed.ok = ok
    return changed


def _trials(augs):
    """The trials of ``augs``' members, ascending."""
    return [t for t in range(1 << len(augs.free)) if augs.ok >> t & 1]


def _batched_failure(dga, augs):
    """The message ``_verify_solutions`` raises, None when it passes."""
    try:
        augment._verify_solutions(dga, augs)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


def test_batched_check_names_the_first_failure_of_the_one_by_one_check():
    """Move the first, a middle or the last member of the solution mask to
    each trial one letter away and to the lowest trial outside the mask;
    both checks name the same member and message, and pass the uncorrupted
    mask.  The batched check names the member by passing every member before
    it and failing once it is added.  Each case must have a corruption that
    both refuse, the move outside the mask at least, so the draws are those
    with a trial that is no augmentation.  The members as trials over every
    generator corrupt forced values and values on a nonzero degree too;
    trefoil's d a1 = 1 + .. has a constant term."""

    def refusing(dga):
        augs = enumerate_augmentations(dga)
        full = (1 << (1 << len(augs.free))) - 1
        return len(twist_groups(dga, augs)) >= 3 and augs.ok != full

    draws = [d for d in random_dgas(20261018, 30) if refusing(d)]
    for dga in [trefoil()] + draws[:2]:
        augs = enumerate_augmentations(dga)
        trials = {int("".join(str(v) for _, v in aug.values), 2) for aug in augs}
        everywhere = Augmentations(dga, dga.generators, {}, sum(1 << t for t in trials))
        assert list(everywhere) == list(augs)
        for case in (augs, everywhere):
            assert _batched_failure(dga, case) is None
            assert first_failure_one_by_one(dga, case) is None
            members, f = _trials(case), len(case.free)
            outside = next(u for u in range(1 << f) if not case.ok >> u & 1)
            failures = 0
            for t in sorted({members[0], members[len(members) // 2], members[-1]}):
                for u in [t ^ 1 << (f - 1 - i) for i in range(f)] + [outside]:
                    bad = _with_ok(case, case.ok & ~(1 << t) | 1 << u)
                    want = first_failure_one_by_one(dga, bad)
                    if want is None:
                        assert u != outside, (t, case.free)
                        assert _batched_failure(dga, bad) is None, (t, u)
                        continue
                    failures += 1
                    first, message = want
                    cut = _trials(bad)[first]
                    before, through = bad.ok & ((1 << cut) - 1), bad.ok & ((2 << cut) - 1)
                    assert _batched_failure(dga, _with_ok(bad, before)) is None
                    assert _batched_failure(dga, _with_ok(bad, through)) == message
                    assert _batched_failure(dga, bad) == message, (t, u)
            assert failures, case.free


def test_the_batched_check_reads_each_free_letter_where_members_read_it():
    """x y + y = 0 has the members 00, 10 and 11 over (x, y).  Members that
    read x and y from each other's trial bits are 00, 01 and 11, and both
    checks refuse 01."""
    dga = DGA(0, ("x", "y", "a"), {"x": 0, "y": 0, "a": 1}, {"a": poly(("x", "y"), ("y",))})
    augs = enumerate_augmentations(dga)
    assert [aug.describe() for aug in augs] == ["all generators -> 0", "x -> 1", "x -> 1, y -> 1"]
    swapped = copy.copy(augs)
    swapped._bits = [(bit, p, one) for (bit, _, _), (_, p, one) in zip(augs._bits, augs._bits[::-1])]
    assert [aug.describe() for aug in swapped] == ["all generators -> 0", "y -> 1", "x -> 1, y -> 1"]
    assert first_failure_one_by_one(dga, swapped) == (1, "augmentation fails to kill d a")
    assert _batched_failure(dga, swapped) == "augmentation fails to kill d a"


def test_enumeration_interleaves_inert_letters_between_occurring_and_forced_ones():
    """e0..e3 are inert; y is forced to 1 and w to 0; x + z = 1 and u x = 0
    leave three twists, each on 2^4 augmentations."""
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
    assert augs.free == ("e0", "x", "e1", "u", "e2", "z", "e3")
    groups = twist_groups(dga, augs)
    firsts = [augs[group[0]] for group in groups]
    assert [tuple(aug(g) for g in "xyuzw") for aug in firsts] == [
        (0, 1, 0, 1, 0),
        (0, 1, 1, 1, 0),
        (1, 1, 0, 0, 0),
    ]
    assert all(aug(e) == 0 for aug in firsts for e in ("e0", "e1", "e2", "e3"))
    assert [len(group) for group in groups] == [16, 16, 16] and len(augs) == 48
    group_of = {i: k for k, group in enumerate(groups) for i in group}
    assert per_twist(augs, lambda aug: aug) == [firsts[group_of[i]] for i in range(48)]
    assert_matches_brute_force(dga)
    # The same DGA declared in reverse, and with e0 moved to the end.
    for order in (names[::-1], names[1:] + names[:1]):
        assert_matches_brute_force(DGA(0, order, degrees, diff))


def test_a_letter_beside_a_nonzero_degree_letter_is_free_but_splits_twists():
    """x occurs only in d q = x p with |p| = 1, so no equation mentions it,
    yet it changes the twist; e occurs nowhere."""
    dga = DGA(0, ("x", "e", "p", "q"), {"x": 0, "e": 0, "p": 1, "q": 2}, {"q": poly(("x", "p"))})
    augs = enumerate_augmentations(dga)
    assert augs.free == ("x", "e")
    assert [aug.describe() for aug in augs] == [
        "all generators -> 0",
        "e -> 1",
        "x -> 1",
        "x -> 1, e -> 1",
    ]
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


def _forced_product(k):
    """d a = 1 + b0 b1 .. bk and d c_i = b_i + 1: every b_i is forced to 1,
    so the one augmentation twists b0 .. bk into 2^(k+1) words."""
    bs = tuple("b%d" % i for i in range(k + 1))
    cs = tuple("c%d" % i for i in range(k + 1))
    degrees = dict(dict.fromkeys(bs, 0), a=1, **dict.fromkeys(cs, 1))
    diff = {"a": poly((), bs), **{c: poly((b,), ()) for b, c in zip(bs, cs)}}
    return DGA(0, bs + ("a",) + cs, degrees, diff)


def test_twist_refuses_over_the_budget_before_it_substitutes(monkeypatch, capsys, tmp_path):
    """The twist of ``_forced_product(k)`` is predicted at 2^(k+1) words for
    b0 .. bk, 1 for the unit and 2 + 1 for each d c_i, and keeps the
    2^(k+1) - 1 nonempty subwords and each b_i.  The prediction is admitted
    at the budget and refused one below it, with no substitution made."""

    def no_substitution(p, images):
        raise AssertionError("substituted over the budget")

    for k in range(1, 8):
        dga = _forced_product(k)
        (aug,) = enumerate_augmentations(dga)
        predicted = 2 ** (k + 1) + 1 + 3 * (k + 1)
        monkeypatch.setattr(augment, "MAX_TWIST_TERMS", predicted)
        twisted = twist(dga, aug)
        assert sum(len(twisted.d(g)) for g in dga.generators) == 2 ** (k + 1) - 1 + k + 1
        monkeypatch.setattr(augment, "MAX_TWIST_TERMS", predicted - 1)
        monkeypatch.setattr(augment, "substitute", no_substitution)
        with pytest.raises(ContractError, match="MAX_TWIST_TERMS = %d$" % (predicted - 1)):
            twist(dga, aug)
        monkeypatch.undo()
    path = tmp_path / "forced24.dga"
    path.write_text(serialize_dga(_forced_product(24)), encoding="utf-8")
    assert main(["linhom", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("over the budget MAX_TWIST_TERMS = %d\n" % MAX_TWIST_TERMS)


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
