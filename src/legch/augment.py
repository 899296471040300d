"""Augmentations of a Chekanov-Eliashberg DGA and the twisted differential.

An augmentation is a unital GF(2) algebra map to the ground field that is
graded (supported on degree-0 generators) and kills every differential.

Augmentations factor through the letters that occur.  Call a degree-0
generator *inert* when it occurs in no word of any differential (a
degree-0 stabilization adds one), and let I be the set of them.
Enumeration reduces each equation d(q) = 0 to a boolean polynomial in the
degree-0 generators, propagates forced values, and brute-forces only the
undetermined degree-0 letters that occur.  Its solutions, as value tuples
on the occurring degree-0 letters, form the set S, and the augmentations
are S x {0,1}^I.  ``enumerate_augmentations`` returns them as a sequence
(``Augmentations``) that makes each one only when it is read.

Why one check per element of S checks all of S x {0,1}^I.  ``_verify``
makes two checks on a value assignment: no generator of nonzero degree has
value 1, and each d(g) has an even number of words whose letters all have
value 1.  An inert letter has degree 0, so the first check passes whatever
its value; it occurs in no word, so the second never reads it.  Both
checks therefore give one answer on all 2^|I| members of {s} x {0,1}^I,
and ``_verify`` on s with the inert letters at 0 is the check of each of
them.  The equations mention no inert letter either, so they admit exactly
the members of S x {0,1}^I.  A member is s and its inert values over
``dga.generators``, 0 elsewhere, so it covers every generator with bits
that are nonzero only in degree 0: ``_checked_values`` passes on it by
construction, and still runs on every augmentation handed to ``twist``.

One twist per element of S.  ``twist`` builds an image only for a letter
of value 1, and ``substitute`` looks an image up only for a letter of a
word, so an inert letter changes nothing: the members of {s} x {0,1}^I
have one twisted DGA.  Apart from the twist, ``build_ring`` reads only the
DGA, so their rings are equal, and the relation, retract, mu_2/pair,
transpose and window checks run on one ring are the checks each member
would have run.  The mirror has the same letters in its words, so S and I
serve it too.  ``per_twist`` runs a per-augmentation computation once per
element of S.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, product
from operator import index as as_index, itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from . import ContractError, InternalConsistencyError
from .algebra import DGA, Poly, substitute

__all__ = [
    "MAX_FREE_GENERATORS",
    "Augmentation",
    "Augmentations",
    "enumerate_augmentations",
    "twist",
    "per_twist",
    "transport",
    "extend_by_zero",
]

# Degree-0 generators left undetermined after propagation, inert ones
# included, that enumeration accepts.
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


class Augmentations(Sequence[Augmentation]):
    """The augmentations of a DGA, S x {0,1}^I (module docstring), as a
    read-only sequence in the order of ``enumerate_augmentations``.

    ``solutions`` is S: value tuples on ``letters``, the degree-0 generators
    that occur in some word, in declaration order, sorted.  ``inert`` is I.
    Reading walks the degree-0 generators in declaration order.  An inert
    letter branches freely.  An occurring letter splits the current range
    of S into the solutions with value 0 and then those with value 1: the
    range is sorted and agrees on every letter before this one.  Indexing
    follows one path of that walk, narrowing the range by bisection, where
    a branch holds (its range of S) * 2^(inert letters after it) members.
    No list of the members is kept.
    """

    def __init__(self, dga: DGA, letters: Sequence[str], solutions: List[Tuple[int, ...]]):
        self.letters = tuple(letters)
        self.solutions = solutions
        column = {g: j for j, g in enumerate(self.letters)}
        zero = [g for g in dga.generators if dga.degree(g) == 0]
        self.inert = tuple(g for g in zero if g not in column)
        # Per degree-0 generator: its column of S (None if inert) and the
        # number of inert generators after it.
        self._levels: List[Tuple[Optional[int], int]] = []
        later = len(self.inert)
        for g in zero:
            if g not in column:
                later -= 1
            self._levels.append((column.get(g), later))
        # Maximal runs of the walk: (inert, start, end) over the columns of
        # S, or over the inert letters in order.
        self._runs: List[Tuple[bool, int, int]] = []
        done = {False: 0, True: 0}
        for inert, run in groupby(zero, lambda g: g not in column):
            start = done[inert]
            done[inert] += len(list(run))
            self._runs.append((inert, start, done[inert]))
        position = {g: p for p, g in enumerate(dga.generators)}
        self._positions = [position[g] for g in chain(self.letters, self.inert)]
        self._zeros = tuple((g, 0) for g in dga.generators)
        self._ones = tuple((g, 1) for g in dga.generators)

    def __len__(self) -> int:
        return len(self.solutions) << len(self.inert)

    def _make(self, s: int, bits: Tuple[int, ...]) -> Augmentation:
        """The member of solution ``s`` with inert values ``bits``."""
        values = list(self._zeros)
        for p, v in zip(self._positions, chain(self.solutions[s], bits)):
            if v:
                values[p] = self._ones[p]
        return Augmentation(tuple(values))

    def _walk(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """(solution index, inert values) of every member, in order."""
        solutions, runs = self.solutions, self._runs

        def walk(r: int, lo: int, hi: int, bits: Tuple[int, ...]):
            if r == len(runs):
                yield lo, bits
                return
            inert, a, b = runs[r]
            if inert:
                for more in product((0, 1), repeat=b - a):
                    yield from walk(r + 1, lo, hi, bits + more)
                return
            while lo < hi:
                key = solutions[lo][a:b]
                end = lo + 1
                while end < hi and solutions[end][a:b] == key:
                    end += 1
                yield from walk(r + 1, lo, end, bits)
                lo = end

        if solutions:
            yield from walk(0, 0, len(solutions), ())

    def __iter__(self) -> Iterator[Augmentation]:
        return (self._make(s, bits) for s, bits in self._walk())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        size = len(self)
        i = as_index(key)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("augmentation index out of range")
        lo, hi, bits = 0, len(self.solutions), []
        for column, later in self._levels:
            if column is None:
                split = (hi - lo) << later
                bits.append(int(i >= split))
                i -= split * bits[-1]
                continue
            mid = bisect_left(self.solutions, 1, lo, hi, key=itemgetter(column))
            split = (mid - lo) << later
            if i < split:
                hi = mid
            else:
                i -= split
                lo = mid
        return self._make(lo, tuple(bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Augmentations, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def firsts(self) -> Iterator[Augmentation]:
        """The first member of each solution, its inert letters at 0, in the
        order of S, which is the order of the members they come first in."""
        zeros = (0,) * len(self.inert)
        return (self._make(s, zeros) for s in range(len(self.solutions)))


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


def enumerate_augmentations(dga: DGA) -> Augmentations:
    """All augmentations, ordered lexicographically over the degree-0 generators.

    The order reads each candidate as the tuple of its values on the
    degree-0 generators in declaration order, with 0 before 1.  Only the
    undetermined letters that occur are brute-forced, each solution
    verified once; the result is S x {0,1}^I as an ``Augmentations``
    sequence (module docstring).  ``MAX_FREE_GENERATORS`` bounds every
    undetermined degree-0 generator, inert ones included.
    """
    zero_gens = [g for g in dga.generators if dga.degree(g) == 0]
    occurring = {x for g in dga.generators for w in dga.d(g) for x in w}
    letters = [g for g in zero_gens if g in occurring]
    eqs = [_equation(dga, dga.d(g)) for g in dga.generators]
    eqs = [eq for eq in eqs if eq]
    none = Augmentations(dga, letters, [])

    assigned: Dict[str, int] = {}
    # Propagate consequences that admit a single solution.
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            if not eq:
                continue
            if frozenset() in eq and len(eq) == 1:
                return none  # 1 = 0: no augmentation at all
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
                    return none
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

    # One trial assignment, updated in place, with the inert letters at 0.
    # product runs through the unknown values in lexicographic order and the
    # forced values are fixed, so the solutions come out sorted.
    unknown = [g for g in letters if g not in assigned]
    trial = dict.fromkeys(dga.generators, 0)
    trial.update(assigned)
    solutions = []
    for bits in product((0, 1), repeat=len(unknown)):
        trial.update(zip(unknown, bits))
        if any(sum(all(trial[v] for v in m) for m in eq) & 1 for eq in eqs):
            continue
        _verify(dga, trial)
        solutions.append(tuple(trial[g] for g in letters))
    return Augmentations(dga, letters, solutions)


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


def per_twist(augs: Augmentations, compute: Callable[[Augmentation], T]) -> List[T]:
    """``compute`` once per element of S, on its first member (``firsts``),
    and its result listed for every member, in the order of ``augs``.

    ``compute`` should read the augmentation only through its ring or twist,
    and keep no ring in its result, so that one ring is alive at a time.
    The members of one solution share their twist (module docstring), and
    the solutions run in order of their first member, so the first to fail
    holds the first augmentation whose ``compute`` would fail, and fails as
    it would.
    """
    results = [compute(aug) for aug in augs.firsts()]
    return [results[s] for s, _ in augs._walk()]


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
