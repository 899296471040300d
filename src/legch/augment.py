"""Augmentations of a Chekanov-Eliashberg DGA and the twisted differential.

An augmentation is a unital GF(2) algebra map to the ground field that is
graded (supported on degree-0 generators) and kills every differential.

Augmentations factor through the letters that occur.  Call a degree-0
generator *inert* when it occurs in no word of any differential (a
degree-0 stabilization adds one), and let I be the set of them.
Enumeration reduces each equation d(q) = 0 to a boolean polynomial in the
degree-0 generators, propagates forced values, and searches only the
undetermined degree-0 letters that occur.  Its solutions, as value tuples
on the occurring degree-0 letters, form the set S, and the augmentations
are S x {0,1}^I.  ``enumerate_augmentations`` returns them as a sequence
(``Augmentations``) that makes each one only when it is read.

Bit-sliced search.  ``_search`` tests all 2^u assignments of the u
unknown letters at once, one bit per trial.  Trial t gives unknown letter
i the value of bit u-1-i of t, so its values, read in the order of the
unknown letters, are the binary digits of t, most significant first.
``product((0, 1), repeat=u)`` yields those tuples in lexicographic order,
which is the order of their binary values, so ascending t is ``product``
order; the forced values are fixed, so the solutions come out sorted.
Letter i's column has bit t set exactly when bit u-1-i of t is 1: in each
block of 2^(u-i) consecutive trials, the upper 2^(u-1-i), which is the
period the doubling repeats.  Bit t of the AND of a monomial's columns is
1 when all its letters are 1 on trial t (the empty monomial is 1 on every
trial), bit t of the XOR of an equation's monomials is the equation's
value on t, and bit t of ``full & ~OR(equations)`` is 1 when every
equation is 0 on t, the test the per-trial loop made.  ``_rows`` reads
the solutions off ``product`` over each letter's choices (a forced letter
has one), which runs through the trials in ascending t, keeping the
members at the set bits, in time linear in 2^u.

The check of S.  Per solution, the check is: no generator of nonzero
degree has value 1, and each d(g) has an even number of words whose
letters all have value 1, generator by generator in declaration order,
with the degree of g tested before d(g).  ``_verify_solutions`` reads it for
all of S at once.  Letter g's mask has bit s set when g is 1 in solution
s, and every generator outside the solution's letters has mask 0, the
value 0.  Bit s of a mask on a letter of nonzero degree is the first
test on s.  A word's letters all have value 1 on s exactly when bit s of
the AND of their masks is 1, and the empty word, whose letters all do, is
every solution, so bit s of the XOR over d(g) is the parity the second
test reads.  So bit s of g's failure mask is set exactly when the check
of s fails at g.  The first solution in S order whose check fails is the
lowest bit over all generators, and within it the check stops at the
first generator in declaration order with that bit set, on its degree
test if that bit of its degree mask is set: the solution and the
message that the check of one solution at a time raises first.

Why one check per element of S checks all of S x {0,1}^I.  The check of
a value assignment passes on a generator of degree 0 whatever its value,
and reads a letter's value only in words that contain it.  An inert
letter has degree 0 and occurs in no word, so the check gives one answer
on all 2^|I| members of {s} x {0,1}^I, and the check of s with the inert
letters at 0 is the check of each of them.  The equations mention no
inert letter either, so they admit exactly the members of S x {0,1}^I.
A member is s and its inert values over ``dga.generators``, 0 elsewhere,
so it covers every generator with bits that are nonzero only in degree 0:
``_checked_values`` passes on it by construction, and still runs on
every augmentation handed to ``twist``.

One twist per element of S.  ``twist`` builds an image only for a letter
of value 1, and ``substitute`` looks an image up only for a letter of a
word, so an inert letter changes nothing: the members of {s} x {0,1}^I
have one twisted DGA.  Apart from the twist, ``build_ring`` reads only the
DGA, so their rings are equal.  The relations and the retracts hold on one
ring by proof (``build_ring``, ``linear._retract``) exactly when they hold
on each member's, and the mu_2/pair, transpose and window checks run on
one ring are the checks each member would have run.  The mirror has the
same letters in its words, so S and I serve it too.  ``per_twist`` runs a
per-augmentation computation once per element of S.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, groupby, product
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
    undetermined letters that occur are searched, all trials at once
    (``_search``), and S is verified by one batched check
    (``_verify_solutions``); the result is S x {0,1}^I as an
    ``Augmentations`` sequence (module docstring).  ``MAX_FREE_GENERATORS``
    bounds every undetermined degree-0 generator, inert ones included.
    """
    zero_gens = [g for g in dga.generators if dga.degree(g) == 0]
    occurring = {x for g in dga.generators for w in dga.d(g) for x in w}
    letters = [g for g in zero_gens if g in occurring]
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
                return Augmentations(dga, letters, [])  # 1 = 0: no augmentation at all
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
                    return Augmentations(dga, letters, [])
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

    unknown = [g for g in letters if g not in assigned]
    solutions = _rows(_search(eqs, unknown), letters, assigned)
    _verify_solutions(dga, letters, solutions)
    return Augmentations(dga, letters, solutions)


def _search(eqs: List[Set[FrozenSet[str]]], unknown: Sequence[str]) -> int:
    """The trials that solve every equation, as a bitmask over 2^u trials.

    Trial t gives unknown letter i the value of bit u-1-i of t, so trials
    ascend in ``product`` order.  Letter i's column is the mask of trials in
    which it is 1, a monomial is the AND of its letters' columns (all trials
    when empty), an equation the XOR of its monomials, and a trial solves
    the system when no equation is 1 on it (module docstring).
    """
    size = 1 << len(unknown)
    full = (1 << size) - 1
    column = {}
    for i, g in enumerate(unknown):
        half = size >> (i + 1)
        # One period, half trials at 0 then half at 1, repeated by doubling.
        col, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            col |= col << period
            period *= 2
        column[g] = col
    bad = 0
    for eq in eqs:
        value = 0
        for monomial in eq:
            term = full
            for g in monomial:
                term &= column[g]
            value ^= term
        bad |= value
    return full & ~bad


def _rows(ok: int, letters: Sequence[str], assigned: Dict[str, int]) -> List[Tuple[int, ...]]:
    """The solutions of the trials in ``ok``, ascending, as value tuples on
    ``letters``.

    ``product`` over each letter's choices, its assigned value or 0 then 1,
    runs through the trials in ascending order (``_search``), so the rows
    are its members at the set bits of ``ok``, whose binary digits, read
    lowest first, select them in time linear in 2^u.
    """
    choices = [(assigned[g],) if g in assigned else (0, 1) for g in letters]
    return list(compress(product(*choices), map("1".__eq__, bin(ok)[:1:-1])))


def _verify_solutions(
    dga: DGA, letters: Sequence[str], solutions: Sequence[Tuple[int, ...]]
) -> None:
    """Raise ``InternalConsistencyError`` if some solution is not an
    augmentation of ``dga``, with the message of the first failing
    generator of the first such solution in the order of ``solutions``.

    A solution gives each of ``letters`` its value and every other generator
    0.  Letter g's mask has bit s set when g is 1 in solution s.  Per
    generator in declaration order, a nonzero mask of nonzero degree fails
    those solutions, and so does the XOR over d(g)'s words of the AND of
    their letters' masks, where the empty word is every solution.  This is
    the per-solution check, read for all solutions at once (module
    docstring), and the degree failure of a generator is named before its
    differential's, as that check names them.
    """
    if not solutions:
        return
    every = (1 << len(solutions)) - 1
    masks = dict.fromkeys(dga.generators, 0)
    for g, column in zip(letters, zip(*solutions)):
        masks[g] = int("".join(map("01".__getitem__, reversed(column))), 2)
    first: Optional[Tuple[int, str]] = None
    for g in dga.generators:
        nonzero = masks[g] if dga.degree(g) != 0 else 0
        fails = 0
        for w in dga.d(g):
            term = every
            for x in w:
                term &= masks[x]
            fails ^= term
        fails |= nonzero
        if not fails:
            continue
        s = (fails & -fails).bit_length() - 1
        if first is None or s < first[0]:
            if nonzero >> s & 1:
                message = "augmentation is nonzero on %s of degree %d" % (g, dga.degree(g))
            else:
                message = "augmentation fails to kill d %s" % g
            first = (s, message)
    if first is not None:
        raise InternalConsistencyError(first[1])


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
