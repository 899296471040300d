"""Augmentations of a Chekanov-Eliashberg DGA and the twisted differential.

An augmentation is a unital GF(2) algebra map to the ground field that is
graded (supported on degree-0 generators) and kills every differential.
Enumeration reduces each equation d(q) = 0 to a boolean polynomial in the
degree-0 generators, propagates forced values, and brute-forces whatever
freedom remains.  ``twist_groups`` groups augmentations that give equal
twisted differentials, and ``per_twist`` runs a per-augmentation
computation once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple, TypeVar

from . import ContractError, InternalConsistencyError
from .algebra import DGA, Poly, substitute

__all__ = [
    "MAX_FREE_GENERATORS",
    "Augmentation",
    "enumerate_augmentations",
    "twist",
    "twist_groups",
    "per_twist",
    "transport",
    "extend_by_zero",
]

# Degree-0 generators left free after propagation that the brute force
# accepts: it tries all 2^k assignments of the k free generators.
MAX_FREE_GENERATORS = 20

T = TypeVar("T")


@dataclass(frozen=True)
class Augmentation:
    """Values of an augmentation on each generator (1 only in degree 0)."""

    values: Tuple[Tuple[str, int], ...]

    @cached_property
    def _lookup(self) -> Dict[str, int]:
        return dict(self.values)

    def __call__(self, name: str) -> int:
        return self._lookup[name]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)

    def describe(self) -> str:
        ones = [g for g, v in self.values if v]
        if not ones:
            return "all generators -> 0"
        return ", ".join("%s -> 1" % g for g in ones)


def _equation(dga: DGA, poly: Poly) -> Set[FrozenSet[str]]:
    """Boolean polynomial (set of monomials) for 'augmentation kills poly'.

    A word containing a nonzero-degree letter evaluates to 0 and is dropped;
    repeated degree-0 letters collapse (x^2 = x over GF(2) values).
    """
    monomials: Set[FrozenSet[str]] = set()
    for w in poly:
        if any(dga.degree(g) != 0 for g in w):
            continue
        m = frozenset(w)
        if m in monomials:
            monomials.discard(m)
        else:
            monomials.add(m)
    return monomials


def _substitute_value(eqs: List[Set[FrozenSet[str]]], var: str, value: int) -> None:
    for eq in eqs:
        touched = [m for m in eq if var in m]
        for m in touched:
            eq.discard(m)
            if value == 1:
                rest = m - {var}
                if rest in eq:
                    eq.discard(rest)
                else:
                    eq.add(rest)


def enumerate_augmentations(dga: DGA) -> List[Augmentation]:
    """All augmentations, ordered lexicographically over the degree-0 generators.

    The order reads each candidate as the tuple of its values on the
    degree-0 generators in declaration order, with 0 before 1.
    """
    zero_gens = [g for g in dga.generators if dga.degree(g) == 0]
    eqs = [_equation(dga, dga.d(g)) for g in dga.generators]
    eqs = [eq for eq in eqs if eq]

    assigned: Dict[str, int] = {}
    # Propagate consequences that admit a single solution.
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            if not eq:
                continue
            if frozenset() in eq and len(eq) == 1:
                return []  # 1 = 0: no augmentation at all
            forced: List[Tuple[str, int]] = []
            if len(eq) == 1:
                (m,) = tuple(eq)
                if len(m) == 1:
                    forced.append((next(iter(m)), 0))
            elif len(eq) == 2 and frozenset() in eq:
                other = next(m for m in eq if m)
                if len(other) == 1:
                    forced.append((next(iter(other)), 1))
                else:
                    # product of variables must equal 1, so each factor is 1
                    forced.extend((v, 1) for v in other)
            for var, value in forced:
                if assigned.get(var, value) != value:
                    return []
                if var not in assigned:
                    assigned[var] = value
                    _substitute_value(eqs, var, value)
                    changed = True
        eqs = [eq for eq in eqs if eq]

    free = [g for g in zero_gens if g not in assigned]
    if len(free) > MAX_FREE_GENERATORS:
        raise ContractError(
            "too many undetermined degree-0 generators (%d) to enumerate; the budget"
            " MAX_FREE_GENERATORS is %d" % (len(free), MAX_FREE_GENERATORS)
        )

    # One trial assignment, updated in place; each solution becomes an
    # Augmentation at once, its (generator, value) pairs shared by all.
    # product runs through the free values in lexicographic order, and the
    # forced values are fixed, so the output is already in the documented order.
    trial = dict.fromkeys(dga.generators, 0)
    trial.update(assigned)
    pairs = {g: ((g, 0), (g, 1)) for g in dga.generators}
    out = []
    for bits in product((0, 1), repeat=len(free)):
        trial.update(zip(free, bits))
        if any(sum(all(trial[v] for v in m) for m in eq) & 1 for eq in eqs):
            continue
        _verify(dga, trial)
        out.append(Augmentation(tuple(pairs[g][trial[g]] for g in dga.generators)))
    return out


def _verify(dga: DGA, values: Dict[str, int]) -> None:
    for g in dga.generators:
        if values[g] and dga.degree(g) != 0:
            raise InternalConsistencyError(
                "augmentation is nonzero on %s of degree %d" % (g, dga.degree(g))
            )
        total = 0
        for w in dga.d(g):
            if all(values[x] == 1 for x in w):
                total ^= 1
        if total:
            raise InternalConsistencyError("augmentation fails to kill d %s" % g)


def _checked_values(dga: DGA, aug: Augmentation) -> Dict[str, int]:
    """The augmentation's values, once they cover every generator, are bits,
    and are nonzero only in degree 0."""
    values = aug.as_dict()
    for g in dga.generators:
        if g not in values:
            raise ContractError("augmentation does not cover generator %s" % g)
        if values[g] not in (0, 1):
            raise ContractError("augmentation value on %s is not a bit" % g)
        if values[g] and dga.degree(g) != 0:
            raise ContractError(
                "augmentation is supported on %s, which has degree %d != 0"
                % (g, dga.degree(g))
            )
    return values


def twist(dga: DGA, aug: Augmentation) -> DGA:
    """Conjugate the differential by the augmentation: substitute q -> q + eps(q).

    The result has the same generators and gradings and no constant terms in
    any differential.
    """
    values = _checked_values(dga, aug)
    images = {
        g: frozenset({(g,), ()}) for g in dga.generators if values[g]
    }
    diff = {g: substitute(dga.d(g), images) for g in dga.generators}
    for g, p in diff.items():
        if () in p:
            raise InternalConsistencyError(
                "twisted differential of %s retains a constant term" % g
            )
    return dga.replace_diff(diff)


def twist_groups(dga: DGA, augs: Sequence[Augmentation]) -> List[List[int]]:
    """Indices of ``augs`` grouped by their values on the letters that occur
    in some word of the differential, groups ordered by their first member.

    Two augmentations in one group give equal twisted DGAs: ``twist``
    builds an image only for a letter of value 1, and ``substitute`` looks
    an image up only for a letter of a word, so a letter that occurs in no
    word changes nothing.  Apart from the twist, ``build_ring`` reads only
    the DGA, so the members' rings are equal, and the relations, retract,
    mu_2/pair, transpose and window checks run on the group's ring are the
    checks each member would have run.  The mirror has the same letters in
    its words, so the groups serve it too.

    Every augmentation passes ``twist``'s contract checks here, in order.

    A degree-0 stabilization adds a letter e1 that occurs in no word, so it
    doubles the augmentations and adds no group.
    """
    occurring = {x for g in dga.generators for w in dga.d(g) for x in w}
    letters = [g for g in dga.generators if g in occurring]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, aug in enumerate(augs):
        values = _checked_values(dga, aug)
        groups.setdefault(tuple(values[g] for g in letters), []).append(i)
    return list(groups.values())


def per_twist(
    dga: DGA, augs: Sequence[Augmentation], compute: Callable[[Augmentation], T]
) -> List[T]:
    """``compute`` once per ``twist_groups`` group, on its first member, and
    its result listed for every member, in the order of ``augs``.

    ``compute`` should read the augmentation only through its ring or twist,
    and keep no ring in its result, so that one ring is alive at a time.
    Every augmentation passes the contract checks before any ``compute``
    (``twist_groups``); then groups run in order of their first member, so
    the first to fail holds the first augmentation whose ``compute`` would
    fail, and fails as it would.
    """
    results: list = [None] * len(augs)
    for group in twist_groups(dga, augs):
        value = compute(augs[group[0]])
        for i in group:
            results[i] = value
    return results


def extend_by_zero(aug: Augmentation, dga: DGA) -> Augmentation:
    """The augmentation of an enlarged DGA that vanishes on the new generators."""
    values = aug.as_dict()
    return Augmentation(tuple((g, values.get(g, 0)) for g in dga.generators))


def transport(aug: Augmentation, dga: DGA, target: str, shift: Poly) -> Augmentation:
    """Augmentation of the image DGA under the elementary isomorphism q_j -> q_j + u.

    Precomposition with the map: the new value on q_j is eps(q_j) + eps(u),
    all other generators keep their values.
    """
    values = aug.as_dict()
    bump = 0
    for w in shift:
        if all(dga.degree(g) == 0 and values[g] == 1 for g in w):
            bump ^= 1
    moved = dict(values)
    moved[target] = (values[target] + bump) % 2
    if moved[target] and dga.degree(target) != 0:
        raise InternalConsistencyError("transported augmentation left degree 0")
    return Augmentation(tuple((g, moved[g]) for g in dga.generators))
