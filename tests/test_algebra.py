"""Tensor algebra, differentials, validation, and the safe moves."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError
from legch.algebra import (
    DGA,
    MAX_ISO_TERMS,
    ONE,
    ZERO,
    ElementaryIso,
    apply_elementary_iso,
    assert_valid,
    canon_degree,
    component_k,
    dga_key,
    diff_poly,
    iso_expansion_terms,
    leibniz,
    mirror_dga,
    pmul,
    reduce_terms,
    stabilize,
    substitute,
    validate_dga,
)
from legch.cli import main
from legch.families import bundled_examples
from helpers import (
    mirror_bases,
    poly,
    random_dga,
    random_dgas,
    random_elementary_iso,
    substitute_by_pmul,
    twist_firsts,
)


def test_canon_degree_zero_modulus_is_identity():
    assert canon_degree(0, -7) == -7
    assert canon_degree(0, 12) == 12


def test_canon_degree_positive_modulus_wraps_into_range():
    assert canon_degree(4, -1) == 3
    assert canon_degree(4, 9) == 1
    assert canon_degree(1, 5) == 0


def test_reduce_terms_cancels_duplicate_pairs():
    terms = [("a",), ("a",), ("b",), ("a",)]
    p, cancelled = reduce_terms(terms)
    assert p == poly(("a",), ("b",))
    assert cancelled == 1


def test_pmul_concatenates_and_cancels():
    p = poly(("a",), ("b",))
    q = poly(("c",))
    assert pmul(p, q) == poly(("a", "c"), ("b", "c"))
    assert pmul(p, ZERO) == ZERO
    assert pmul(ONE, p) == p
    # (a + b)(a + b) = aa + ab + ba + bb, nothing cancels in the free algebra
    assert pmul(p, p) == poly(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


def test_component_k_picks_word_lengths():
    p = poly((), ("a",), ("a", "b"))
    assert component_k(p, 0) == ONE
    assert component_k(p, 2) == poly(("a", "b"))
    with pytest.raises(ContractError):
        component_k(p, -1)


def trefoil_like():
    return DGA(
        0,
        ("a1", "a2", "b1", "b2", "b3"),
        {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "b3": 0},
        {
            "a1": poly((), ("b1",), ("b3",), ("b1", "b2", "b3")),
            "a2": poly((), ("b1",), ("b3",), ("b3", "b2", "b1")),
        },
    )


def test_dga_rejects_duplicate_generators():
    with pytest.raises(ContractError):
        DGA(0, ("a", "a"), {"a": 0}, {})


def test_dga_rejects_a_negative_modulus():
    with pytest.raises(ContractError) as raised:
        DGA(-1, ("a",), {"a": 0}, {})
    assert str(raised.value) == "grading modulus must be non-negative"


def test_dga_rejects_missing_degree():
    with pytest.raises(ContractError):
        DGA(0, ("a",), {}, {})


def test_word_key_orders_length_major_then_declaration():
    dga = trefoil_like()
    words = [("b1", "b2"), ("a2",), ("b3",), ("a1", "a2", "b1")]
    assert dga.sorted_terms(frozenset(words)) == [
        ("a2",),
        ("b3",),
        ("b1", "b2"),
        ("a1", "a2", "b1"),
    ]


def test_leibniz_expands_one_letter_at_a_time():
    dga = DGA(0, ("a", "b"), {"a": 1, "b": 0}, {"a": poly(("b", "b"))})
    # d(ab) = (d a) b, since d b = 0
    assert leibniz(dga, ("a", "b")) == poly(("b", "b", "b"))
    # d(aa) = (d a) a + a (d a)
    assert leibniz(dga, ("a", "a")) == poly(("b", "b", "a"), ("a", "b", "b"))


def test_validate_accepts_trefoil_presentation():
    assert validate_dga(trefoil_like()) == []


def test_validate_reports_non_homogeneous_term():
    dga = DGA(0, ("a", "b"), {"a": 1, "b": 1}, {"a": poly(("b",))})
    problems = validate_dga(dga)
    assert len(problems) == 1
    assert "not homogeneous" in problems[0]


def test_validate_reports_square_failure():
    dga = DGA(0, ("a", "b", "c"), {"a": 2, "b": 1, "c": 0}, {"a": poly(("b",)), "b": poly(("c",))})
    problems = validate_dga(dga)
    assert any("d(d a)" in p for p in problems)


def test_validate_reports_undeclared_letter():
    dga = DGA(0, ("a",), {"a": 1}, {"a": poly(("q",))})
    problems = validate_dga(dga)
    assert problems and "undeclared" in problems[0]


def test_assert_valid_raises_contract_error():
    dga = DGA(0, ("a",), {"a": 1}, {"a": poly(("q",))})
    with pytest.raises(ContractError):
        assert_valid(dga)


def test_mirror_reverses_words_and_is_an_involution():
    dga = trefoil_like()
    m = mirror_dga(dga)
    assert m.d("a1") == poly((), ("b1",), ("b3",), ("b3", "b2", "b1"))
    assert mirror_dga(m) == dga
    assert validate_dga(m) == []


def test_stabilize_adds_cancelling_pair():
    dga = trefoil_like()
    bigger = stabilize(dga, 2)
    assert bigger.generators[-2:] == ("e1", "e2")
    assert bigger.degrees["e1"] == 2 and bigger.degrees["e2"] == 1
    assert bigger.d("e1") == poly(("e2",))
    assert validate_dga(bigger) == []
    again = stabilize(bigger, 0)
    assert again.generators[-2:] == ("e1_1", "e2_1")
    assert validate_dga(again) == []


def test_stabilize_rejects_name_collision():
    dga = trefoil_like()
    with pytest.raises(ContractError):
        stabilize(dga, 1, names=("b1", "fresh"))


def test_stabilize_rejects_equal_names():
    with pytest.raises(ContractError) as raised:
        stabilize(trefoil_like(), 0, ("x", "x"))
    assert str(raised.value) == "stabilization names must be distinct"


def test_substitute_replaces_letters_multiplicatively():
    p = poly(("a", "a"))
    image = {"a": poly(("a",), ("b",))}
    assert substitute(p, image) == poly(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_substitute_equals_the_pmul_chain_on_twists_and_isomorphisms():
    """Every twist of the bases and of random DGAs, and random
    elementary isomorphisms, against the letter-by-letter ``pmul`` chain."""
    draws = random_dgas(20261018, 30)
    cases = []
    for dga in [d for _, d in bundled_examples()] + mirror_bases() + draws:
        for aug in twist_firsts(dga):
            images = {g: frozenset({(g,), ()}) for g in dga.generators if aug(g)}
            cases += [(dga.d(g), images) for g in dga.generators]
    rng = random.Random(20261019)
    for dga in draws:
        iso = random_elementary_iso(rng, dga)
        if iso is None or iso_expansion_terms(dga, iso) > MAX_ISO_TERMS:
            continue
        images = {iso.target: frozenset({(iso.target,)}) ^ iso.shift}
        cases += [(dga.d(g), images) for g in dga.generators]
        cases.append((dga.d(iso.target) ^ diff_poly(dga, iso.shift), images))
    assert sum(1 for p, images in cases if p and images) > 100
    for p, images in cases:
        full = substitute(p, images)
        assert full == substitute_by_pmul(p, images)
        # the arity cut agrees with the full image on its short words, and a
        # twist, whose image words have at most one letter, keeps no other
        lengthens = any(len(t) > 1 for image in images.values() for t in image)
        for arity in range(6):
            got, short = substitute(p, images, arity), {w for w in full if len(w) <= arity}
            assert {w for w in got if len(w) <= arity} == short
            assert lengthens or got == short
    # a repeated letter whose image repeats terms: b b -> (b + 1)(b + 1)
    twice = poly(("b", "b"), ("c", "b"))
    images = {"b": poly(("b",), ())}
    assert substitute(twice, images) == substitute_by_pmul(twice, images)
    assert substitute(twice, images) == poly(("b", "b"), ("c", "b"), ("c",), ())


def test_substitute_cancels_a_repeated_letter_before_it_multiplies(capsys, tmp_path):
    """b^k under the twist b -> b + 1 is the sum of b^j over the odd
    binomials C(k, j), and cancelling after every letter keeps at most
    k + 1 terms.  Expanding all 2^k products first builds 65,536 words at
    k = 16, which the memory bound catches before the twist at k = 24,
    2^24 words that way, is tried end to end."""
    images = {"b": poly(("b",), ())}
    word = poly(("b",) * 16)
    tracemalloc.start()
    try:
        got = substitute(word, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == substitute_by_pmul(word, images) == poly(("b",) * 16, ())
    assert peak < 1 << 18
    path = tmp_path / "b24.dga"
    path.write_text("modulus 0\ngen b 0\ngen a 1\nd a = %s + 1\n" % " ".join(["b"] * 24))
    start = time.perf_counter()
    assert main(["linhom", str(path)]) == 0
    assert time.perf_counter() - start < 5
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "augmentation: b -> 1" and "cohomology.total: 2" in rows


def test_elementary_iso_checks_degree_and_target():
    dga = trefoil_like()
    for target, word, message in [
        ("b1", ("a1",), "shift term a1 has degree 1, expected 0"),
        ("b1", ("b1",), "shift of elementary isomorphism mentions its own target b1"),
        ("b1", (), "shift of elementary isomorphism may not contain the unit"),
        ("q", ("a2",), "unknown generator q in elementary isomorphism"),
        ("a1", ("a2", "q"), "unknown generator q in shift"),
    ]:
        with pytest.raises(ContractError) as info:
            ElementaryIso(target, poly(word)).check(dga)
        assert str(info.value) == message
    ElementaryIso("a1", poly(("a2",))).check(dga)  # fine


def test_elementary_iso_preserves_validity_and_is_an_involution():
    dga = trefoil_like()
    iso = ElementaryIso("a1", poly(("a2",)))
    moved = apply_elementary_iso(dga, iso)
    assert validate_dga(moved) == []
    assert moved != dga
    assert apply_elementary_iso(moved, iso) == dga


def test_dga_key_distinguishes_content_not_identity():
    dga = trefoil_like()
    same = trefoil_like()
    assert dga_key(dga) == dga_key(same)
    assert dga_key(mirror_dga(dga)) != dga_key(dga)


def test_diff_poly_squares_to_zero_on_valid_dga():
    dga = trefoil_like()
    for g in dga.generators:
        assert diff_poly(dga, dga.d(g)) == ZERO


def test_diff_poly_is_the_sum_of_every_leibniz_term():
    """One set summed over the words equals the GF(2) fold of every term
    prefix * d(letter) * suffix, and each word's ``leibniz`` the fold of its
    own terms, on random DGAs and sums of their words."""
    for seed, dga in enumerate(random_dgas(20261019, 40)):
        rng = random.Random(seed)
        words = [w for g in dga.generators for w in dga.d(g)] + [(g,) for g in dga.generators]
        for p in [dga.d(g) for g in dga.generators] + [frozenset(rng.sample(words, min(4, len(words))))]:
            terms = {w: [w[:i] + t + w[i + 1 :] for i, g in enumerate(w) for t in dga.d(g)] for w in p}
            assert diff_poly(dga, p) == reduce_terms([t for ts in terms.values() for t in ts])[0]
            assert all(leibniz(dga, w) == reduce_terms(ts)[0] for w, ts in terms.items())


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_random_dgas_are_valid_and_mirror_involutive(seed):
    dga = random_dga(random.Random(seed))
    assert validate_dga(dga) == []
    m = mirror_dga(dga)
    assert validate_dga(m) == []
    assert mirror_dga(m) == dga


@given(st.integers(0, 10**6))
@settings(deadline=None)
def test_random_dga_differential_squares_to_zero(seed):
    dga = random_dga(random.Random(seed))
    for g in dga.generators:
        assert diff_poly(dga, dga.d(g)) == ZERO
