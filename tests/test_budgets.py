"""The named budgets: each refusal's full text through its public entry point,
and the one refusal path they share."""

import pytest

import legch
from legch import ContractError, InternalConsistencyError, ainfty, algebra, augment, fingerprint
from legch import linear, tilde
from legch.ainfty import CheckReport, build_ring, check_an_relations
from legch.algebra import DGA, ElementaryIso, apply_elementary_iso
from legch.augment import enumerate_augmentations, twist
from legch.families import cupex, trefoil
from legch.linear import duality_search
from legch.tilde import order_n_cohomology


def first_ring(dga: DGA):
    return build_ring(dga, enumerate_augmentations(dga)[0])


def closed(count: int, degree: int) -> DGA:
    """``count`` letters of one degree, every differential zero."""
    gens = tuple("x%d" % i for i in range(count))
    return DGA(0, gens, dict.fromkeys(gens, degree))


# (budget, its module, a low value patched in where the natural input past the
# bound is slow, or None, the call through its public entry point, the refusal)
REFUSALS = [
    (
        "MAX_ISO_TERMS",
        algebra,
        2,
        lambda: apply_elementary_iso(trefoil(), ElementaryIso("b1", frozenset({("b2",)}))),
        "elementary isomorphism on b1 would expand the differential to 12 terms,"
        " over the budget MAX_ISO_TERMS = 2",
    ),
    (
        "MAX_FREE_GENERATORS",
        augment,
        None,
        lambda: enumerate_augmentations(closed(21, 0)),
        "too many undetermined degree-0 generators (21) to enumerate,"
        " over the budget MAX_FREE_GENERATORS = 20",
    ),
    (
        "MAX_TWIST_TERMS",
        augment,
        4,
        lambda: twist(trefoil(), enumerate_augmentations(trefoil())[0]),
        "twisting by b3 -> 1 would build 12 terms, over the budget MAX_TWIST_TERMS = 4",
    ),
    (
        "MAX_RELATION_TERMS",
        ainfty,
        5,
        lambda: check_an_relations(first_ring(cupex(1, 3, 7)).structure, 3),
        "the A-infinity relations up to arity 3 take 6 terms,"
        " over the budget MAX_RELATION_TERMS = 5",
    ),
    (
        "MAX_MASSEY_SYSTEMS",
        ainfty,
        None,
        lambda: fingerprint.massey_table(first_ring(trefoil()), 5),
        "the Massey brackets take at least 3989593 defining systems,"
        " over the budget MAX_MASSEY_SYSTEMS = 1048576",
    ),
    (
        "MAX_ARITY",
        ainfty,
        None,
        lambda: first_ring(trefoil()).minimal(17),
        "transfer arity 17 exceeds the budget MAX_ARITY = 16",
    ),
    (
        "MAX_DUALITY_PAIRS",
        linear,
        None,
        lambda: duality_search(first_ring(closed(11, 1))),
        "duality search over 4190209 (kappa, c) candidates,"
        " over the budget MAX_DUALITY_PAIRS = 1048576",
    ),
    (
        "MAX_ORDER",
        tilde,
        None,
        lambda: order_n_cohomology(first_ring(trefoil()), 5),
        "order 5 exceeds the budget MAX_ORDER = 4",
    ),
    (
        "MAX_WINDOW_BITS",
        tilde,
        50,
        lambda: order_n_cohomology(first_ring(trefoil()), 2),
        "order-2 words over 5 letters take 356 window bits, over the budget MAX_WINDOW_BITS = 50",
    ),
    (
        "MAX_MASSEY_TUPLES",
        fingerprint,
        5,
        lambda: fingerprint.massey_table(first_ring(trefoil()), 4),
        "the Massey table has at least 8 degree tuples, over the budget MAX_MASSEY_TUPLES = 5",
    ),
]


@pytest.mark.parametrize(
    "name, module, low, call, text", REFUSALS, ids=[row[0] for row in REFUSALS]
)
def test_every_budget_refuses_with_its_exact_text(monkeypatch, name, module, low, call, text):
    if low is not None:
        monkeypatch.setattr(module, name, low)
    with pytest.raises(ContractError) as refused:
        call()
    assert str(refused.value) == text


def test_check_budget_admits_the_limit_and_refuses_one_more():
    what = "%s takes %d things, over"
    assert legch.check_budget("MAX_THINGS", 7, 7, what, "a walk") is None
    with pytest.raises(ContractError) as refused:
        legch.check_budget("MAX_THINGS", 7, 8, what, "a walk")
    assert str(refused.value) == "a walk takes 8 things, over the budget MAX_THINGS = 7"


@pytest.mark.parametrize("error", [ContractError, InternalConsistencyError])
def test_a_failed_check_report_raises_its_error_with_prefix_and_detail(error):
    CheckReport(True, "").require(error, "never read: ")
    with pytest.raises(error) as failed:
        CheckReport(False, "relation 3 fails on (a, b)", 3, ("a", "b")).require(error, "mu: ")
    assert str(failed.value) == "mu: relation 3 fails on (a, b)"
