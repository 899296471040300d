"""Bundled example DGAs.

``trefoil`` is the Chekanov-Eliashberg algebra of the right-handed
trefoil.  ``cupex`` and ``masseyex`` build two parametrized families of
knot DGAs whose Legendrian mirrors are distinguished by asymmetric cup
products and by Massey products respectively.  Both families consist of
a core of lettered crossings, three or four legs of degree-0 crossings
(x, y, z and, for masseyex, w), and one degree-1 cusp generator per
right cusp; the lettered cusps run t0..t3 (cupex) or t0..t4 (masseyex,
where the odd cusp out is conventionally named t4), and the cusps along
the legs are named tx1, ty1, ... after their leg.

Parameter choices that give two core generators the same grading, or a
core generator grading zero, degrade the mirror-detection arguments;
the builders emit a ``FamilyGradingWarning`` for those.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Sequence, Tuple

from . import ContractError
from .algebra import DGA, Poly, assert_valid

__all__ = [
    "FamilyGradingWarning",
    "FAMILY_NAMES",
    "trefoil",
    "cupex",
    "masseyex",
    "generate_family",
    "bundled_examples",
]


class FamilyGradingWarning(UserWarning):
    """A family was built with colliding or zero core gradings."""


def _poly(*words: Sequence[str]) -> Poly:
    return frozenset(tuple(w) for w in words)


def trefoil() -> DGA:
    """Right-handed trefoil: two degree-1 crossings over three degree-0 ones."""
    diff: Dict[str, Poly] = {
        "a1": _poly((), ("b1",), ("b3",), ("b1", "b2", "b3")),
        "a2": _poly((), ("b1",), ("b3",), ("b3", "b2", "b1")),
    }
    degrees = {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "b3": 0}
    dga = DGA(0, ("a1", "a2", "b1", "b2", "b3"), degrees, diff)
    assert_valid(dga)
    return dga


def _leg(prefix: str, count: int) -> List[str]:
    return ["%s%d" % (prefix, i) for i in range(1, count + 1)]


def _check_params(params: Sequence[int], arity: int, name: str) -> None:
    if len(params) != arity:
        raise ContractError(
            "%s takes %d positive integer parameters, got %d"
            % (name, arity, len(params))
        )
    for value in params:
        if not isinstance(value, int) or value < 1:
            raise ContractError(
                "%s parameters must be positive integers, got %r" % (name, value)
            )


def _warn_core_gradings(name: str, core: Dict[str, int]) -> None:
    by_degree: Dict[int, List[str]] = {}
    for gen, deg in core.items():
        by_degree.setdefault(deg, []).append(gen)
    for deg in sorted(by_degree):
        gens = by_degree[deg]
        if len(gens) > 1:
            warnings.warn(
                "%s grading collision: %s all have degree %d"
                % (name, ", ".join(gens), deg),
                FamilyGradingWarning,
                stacklevel=4,
            )
    if 0 in by_degree:
        warnings.warn(
            "%s zero grading: %s" % (name, ", ".join(by_degree[0])),
            FamilyGradingWarning,
            stacklevel=4,
        )


def _knot(
    name: str, core: Dict[str, int], legs: Dict[str, int], cusps: int, diff: Dict[str, Poly]
) -> DGA:
    """The validated DGA of a family: the ``core`` generators in their
    gradings, then per leg x of n cusps the degree-0 letters x1..x(n+1), the
    lettered cusps t0..t(cusps-1) and the leg cusps tx1..txn, every cusp of
    degree 1.  ``diff`` holds the core and lettered-cusp rows, and each leg
    cusp gets d txi = 1 + xi x(i+1).  Core gradings that collide or are zero
    warn at the family's caller."""
    _warn_core_gradings(name, core)
    degrees = dict(core)
    degrees.update((g, 0) for x, n in legs.items() for g in _leg(x, n + 1))
    degrees.update(("t%d" % i, 1) for i in range(cusps))
    for x, n in legs.items():
        for i in range(1, n + 1):
            degrees["t%s%d" % (x, i)] = 1
            diff["t%s%d" % (x, i)] = _poly((), ("%s%d" % (x, i), "%s%d" % (x, i + 1)))
    dga = DGA(0, tuple(degrees), degrees, diff)
    assert_valid(dga)
    return dga


def cupex(k: int, l: int, m: int) -> DGA:
    """Family whose mirror is detected by asymmetric cup products.

    Core gradings: |a1| = -|a2| = k-l-1, |b1| = -|b2| = k-m-1,
    |c1| = -|c2| = l-m-1; legs x1..x_{k+1}, y1..y_{l+1}, z1..z_{m+1} in
    degree 0 and every cusp in degree 1.
    """
    _check_params((k, l, m), 3, "cupex")
    core = {
        "a1": k - l - 1,
        "a2": l - k + 1,
        "b1": k - m - 1,
        "b2": m - k + 1,
        "c1": l - m - 1,
        "c2": m - l + 1,
    }
    diff: Dict[str, Poly] = {
        "a2": _poly(("y1", "c1", "b2")),
        "b1": _poly(("a1", "y1", "c1")),
        "c2": _poly(("b2", "a1", "y1")),
        "t0": _poly((), ("x%d" % (k + 1), "y%d" % (l + 1), "z%d" % (m + 1))),
        "t1": _poly((), ("x1",), ("x1", "a1", "a2"), ("x1", "b1", "b2")),
        "t2": _poly((), ("y1",), ("a2", "a1", "y1"), ("y1", "c1", "c2")),
        "t3": _poly((), ("z1",), ("b2", "b1", "z1"), ("c2", "c1", "z1")),
    }
    return _knot("cupex(%d,%d,%d)" % (k, l, m), core, dict(x=k, y=l, z=m), 4, diff)


def masseyex(k: int, l: int, m: int, n: int) -> DGA:
    """Family whose mirror is detected by Massey products, not cup ranks.

    Core gradings: |a1| = -|a2| = k-l-1, |b1| = -|b2| = k-n-1,
    |c1| = -|d| = m-n, |c0| = -|f| = l-m-1, |e0| = |e1|+1 = l-n-1; legs
    x1..x_{k+1}, y1..y_{l+1}, z1..z_{m+1}, w1..w_{n+1} in degree 0 and
    every cusp in degree 1.
    """
    _check_params((k, l, m, n), 4, "masseyex")
    core = {
        "a1": k - l - 1,
        "a2": l - k + 1,
        "b1": k - n - 1,
        "b2": n - k + 1,
        "c0": l - m - 1,
        "c1": m - n,
        "d": n - m,
        "f": m - l + 1,
        "e0": l - n - 1,
        "e1": l - n - 2,
    }
    diff: Dict[str, Poly] = {
        "a2": _poly(("y1", "c0", "c1", "b2")),
        "b1": _poly(("a1", "y1", "c0", "c1")),
        "d": _poly(("b2", "a1", "y1", "c0")),
        "f": _poly(("c1", "b2", "a1", "y1")),
        "e0": _poly(("e1",)),
        "t0": _poly((), ("x%d" % (k + 1), "y%d" % (l + 1), "z%d" % (m + 1), "w%d" % (n + 1))),
        "t1": _poly((), ("x1",), ("x1", "a1", "a2"), ("x1", "b1", "b2")),
        "t2": _poly((), ("y1",), ("a2", "a1", "y1"), ("y1", "c0", "f")),
        "t3": _poly((), ("w1",), ("b2", "b1", "w1"), ("d", "c1", "w1")),
        "t4": _poly((), ("z1",), ("f", "c0", "z1"), ("c1", "d", "z1")),
    }
    name = "masseyex(%d,%d,%d,%d)" % (k, l, m, n)
    return _knot(name, core, dict(x=k, y=l, z=m, w=n), 5, diff)


FAMILY_NAMES = ("trefoil", "cupex", "masseyex")


def generate_family(name: str, params: Sequence[int] = ()) -> DGA:
    """Build a bundled family by name; parameters must match its arity."""
    if name == "trefoil":
        if params:
            raise ContractError("trefoil takes no parameters")
        return trefoil()
    if name == "cupex":
        _check_params(tuple(params), 3, "cupex")
        return cupex(*params)
    if name == "masseyex":
        _check_params(tuple(params), 4, "masseyex")
        return masseyex(*params)
    raise ContractError(
        "unknown family %r; choose from %s" % (name, ", ".join(FAMILY_NAMES))
    )


def bundled_examples() -> List[Tuple[str, DGA]]:
    """The three bundled instances exercised throughout the test suite."""
    return [
        ("trefoil", trefoil()),
        ("cupex(1,3,7)", cupex(1, 3, 7)),
        ("masseyex(1,4,9,20)", masseyex(1, 4, 9, 20)),
    ]
