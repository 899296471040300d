"""Augmentations of a Chekanov-Eliashberg DGA and the twisted differential.

An augmentation is a unital GF(2) algebra map to the ground field that is
graded (supported on degree-0 generators) and kills every differential.

Enumeration reduces each equation d(q) = 0 to a boolean polynomial in the
degree-0 generators, propagates forced values (``_propagate``, through an
index of the monomials by letter), and tests every assignment
of the f undetermined degree-0 generators, the *free letters*, at once
(``_search``).  The solutions stay one bitmask over the 2^f trials, and
``Augmentations`` makes each augmentation only when it is read.

Bit-sliced search.  Trial t gives free letter i the value of bit f-1-i of
t, so its values, read in declaration order, are the binary digits of t,
most significant first.  ``product((0, 1), repeat=f)`` yields those tuples
in lexicographic order, which is the order of their binary values, so
ascending t is lexicographic order; the forced values are fixed, so the
members come out sorted.  Letter i's column has bit t set exactly when bit
f-1-i of t is 1: in each block of 2^(f-i) consecutive trials, the upper
2^(f-1-i), which is the period the doubling repeats.  Bit t of the AND of a
monomial's columns is 1 when all its letters are 1 on trial t (the empty
monomial is 1 on every trial), bit t of the XOR of an equation's monomials
is the equation's value on t, and bit t of ``full & ~OR(equations)`` is 1
when every equation is 0 on t.

The check of the members.  Per member, the check is: no generator of
nonzero degree has value 1, and each d(g) has an even number of words whose
letters all have value 1, generator by generator in declaration order, with
the degree of g tested before d(g).  ``_verify_solutions`` reads it for
every member at once.  A generator's mask has bit t set when it is 1 on
member t: for a free letter, the column of the trial bit that
``Augmentations`` reads its value from, ANDed with the solution mask; the
solution mask itself for a letter forced to 1; 0 for every other one.  Bit
t of a mask on a letter of nonzero degree is the first test on t.  A
word's letters all have value 1 on t exactly when bit t of the AND of their
masks is 1, and the empty word, whose letters all do, is every member, so
bit t of the XOR over d(g) is the parity the second test reads.  So bit t
of g's failure mask is set exactly when the check of t fails at g.  The
first member whose check fails is the lowest bit over all generators, and
within it the check stops at the first generator in declaration order with
that bit set, on its degree test if that bit of its degree mask is set: the
member and the message that the check of one member at a time raises
first.

One twist per inert class.  Call a degree-0 generator *inert* when it
occurs in no word of any differential (a degree-0 stabilization adds one).
No equation mentions it, so it is free and flipping it maps members to
members.  ``twist`` builds an image only for a letter of value 1, and
``substitute`` looks an image up only for a letter of a word, so an inert
letter changes nothing: members that differ only on inert letters have one
twisted DGA.  Apart from the twist, ``build_ring`` reads only the DGA, so
their rings are equal.  The relations and the retracts hold on one ring by
proof (``build_ring``, ``linear._retract``) exactly when they hold on each
member's, and the mu_2/pair, transpose and window checks run on one ring
are the checks each member would have run.  The mirror has the same
letters in its words, so its inert letters are the knot's.  ``per_twist``
keys a member by its trial with the inert bits cleared, which is a member
too and the first of its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import index as as_index
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

from . import ContractError, InternalConsistencyError, check_budget
from .algebra import DGA, Poly, substitute, substitution_terms

__all__ = [
    "MAX_FREE_GENERATORS",
    "MAX_TWIST_TERMS",
    "Augmentation",
    "Augmentations",
    "enumerate_augmentations",
    "twist",
    "per_twist",
    "transport",
    "extend_by_zero",
]

# Degree-0 generators left undetermined after propagation, inert ones
# included, that enumeration accepts: the search tests 2^20 trials at most.
MAX_FREE_GENERATORS = 20

# Words the twist may build before anything cancels (``substitution_terms``),
# counted untruncated at every arity, so a ring built only up to a low arity
# is refused as conservatively as the full one.  The Tier-1 suite's largest
# twist predicts 1,863,373 and takes 0.27 s.  Untruncated, the worst
# admitted, 2,097,151 predicted words none of which cancel, takes 4.4 s at a
# 383 MB peak, and `legch minimal --arity 16` on d a = 1 + b0 .. b19 (2^20
# words) 8.5-13.6 s at 268-301 MB as a process; at the arity their output
# reads, `linhom`, `ring`, `report` and `compare-mirror` on that input keep
# at most 1,351 words of d a and take 0.08-0.17 s at 18 MB (python 3.11.7,
# 2 vCPUs, shared host).
MAX_TWIST_TERMS = 1 << 21

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
    """The augmentations of a DGA as a read-only sequence: the set bits of
    ``ok``, ascending, each a trial over ``free`` (module docstring).

    A member gives the letters of ``assigned`` their values, free letter i
    bit f-1-i of its trial, and every other generator 0.  ``inert`` is the
    mask of trial bits that belong to inert letters.
    """

    def __init__(self, dga: DGA, free: Sequence[str], assigned: Dict[str, int], ok: int):
        self.free = tuple(free)
        self.ok = ok
        self._base = tuple((g, assigned.get(g, 0)) for g in dga.generators)
        top = len(self.free) - 1
        # Per free letter: its trial bit, its position and its value-1 entry.
        self._bits = [(1 << (top - i), dga.index[g], (g, 1)) for i, g in enumerate(self.free)]
        occurring = {x for g in dga.generators for w in dga.d(g) for x in w}
        self.inert = sum(bit for bit, p, _ in self._bits if dga.generators[p] not in occurring)

    def __len__(self) -> int:
        return self.ok.bit_count()

    def _make(self, t: int) -> Augmentation:
        """The member of trial ``t``."""
        values = list(self._base)
        for bit, p, one in self._bits:
            if t & bit:
                values[p] = one
        return Augmentation(tuple(values))

    def descriptions(self) -> Iterator[str]:
        """``Augmentation.describe`` of each member, in order, written from its
        trial with no member made: the assigned 1-letters and the free letters
        whose trial bit is set, in generator order."""
        always = 1 << len(self.free)  # above every trial bit
        bit_of = {p: bit for bit, p, _ in self._bits}
        ones = [
            (bit_of.get(p, always), "%s -> 1" % g)
            for p, (g, value) in enumerate(self._base)
            if value or p in bit_of
        ]
        for t in self._trials():
            t |= always
            yield ", ".join([one for bit, one in ones if t & bit]) or "all generators -> 0"

    def _trials(self) -> Iterator[int]:
        """The set bits of ``ok``, ascending: its binary digits read lowest first."""
        return compress(count(), map("1".__eq__, bin(self.ok)[:1:-1]))

    def __iter__(self) -> Iterator[Augmentation]:
        return map(self._make, self._trials())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        size = len(self)
        i = as_index(key)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("augmentation index out of range")
        # Halve the trial range [t, t + width), shifted down to bit 0 in
        # ``window``, towards the half that holds member i.
        window, width, t = self.ok, 1 << len(self.free), 0
        while width > 1:
            width >>= 1
            low = window & ((1 << width) - 1)
            below = low.bit_count()
            if i < below:
                window = low
            else:
                i -= below
                window >>= width
                t += width
        return self._make(t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Augmentations, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _equation(dga: DGA, poly: Poly) -> Set[FrozenSet[str]]:
    """Boolean polynomial (set of monomials) for 'augmentation kills poly'.

    A word containing a nonzero-degree letter evaluates to 0 and is dropped;
    repeated degree-0 letters collapse (x^2 = x over GF(2) values).
    """
    monomials: Set[FrozenSet[str]] = set()
    degree = dga.degrees.__getitem__  # canonical, so 0 exactly in degree 0
    for w in poly:
        if any(map(degree, w)):
            continue
        m = frozenset(w)
        if m in monomials:
            monomials.discard(m)
        else:
            monomials.add(m)
    return monomials


def _propagate(
    eqs: List[Set[FrozenSet[str]]],
) -> Optional[Tuple[Dict[str, int], List[Set[FrozenSet[str]]]]]:
    """The values unit propagation forces and the nonempty equations they
    reduce ``eqs`` to, or None when it derives 1 = 0 or two values for one
    letter.

    An equation forces x = 0 when it is the monomial x, and every letter of
    m to 1 when it is 1 + m.  Each monomial is a record, [its letters], in
    its equation's table and in the index of each of its letters; a forced
    value reaches exactly the live records of its letter, and only their
    equations are read again.  Substituting 0 drops a record, substituting
    1 rekeys it by its remaining letters (or cancels it with an equal one)
    and adds no index entry: the index stays the size of the input, and
    the work is one pass over it plus the letters of each rekeyed
    monomial, so a monomial of L letters forced one letter at a time costs
    about L^2 / 2 letters.  A scan of every equation per forced letter was
    quadratic in the forced letters.

    Propagation is confluent, so ``free``, ``assigned`` and ``ok`` do not
    depend on the order in which equations are read.  Substitution is the
    exact restriction of an equation, and a rule that fires on an equation
    under some values fires, under more values, on its restriction: it
    forces the same value, or its letter has a value already, the same, or
    the other, and then the restriction is 1 = 0 or the rule clashes.  So
    each value forced in one order is forced in every other, by induction
    along the first order: two orders that reach a fixpoint reach the same
    values and the same reduced equations, and when one order fails, every
    order fails.
    """
    tables: List[Dict[FrozenSet[str], list]] = []
    where: Dict[str, List[Tuple[Dict[FrozenSet[str], list], list]]] = {}
    for eq in eqs:
        table = {m: [m] for m in eq}
        tables.append(table)
        for m, record in table.items():
            for x in m:
                where.setdefault(x, []).append((table, record))
    assigned: Dict[str, int] = {}
    unread = list(tables)
    while unread:
        table = unread.pop()
        if len(table) == 1:
            (m,) = table
            if not m:
                return None  # 1 = 0: no augmentation at all
            forced = [(next(iter(m)), 0)] if len(m) == 1 else []
        elif len(table) == 2 and frozenset() in table:
            # a product of letters equals 1, so each factor is 1
            forced = [(x, 1) for x in max(table, key=len)]
        else:
            continue
        for var, value in forced:
            if var in assigned:
                if assigned[var] != value:
                    return None
                continue
            assigned[var] = value
            for touched, record in where.pop(var, ()):
                m = record[0]
                if touched.get(m) is not record:  # cancelled already
                    continue
                del touched[m]
                if value:
                    rest = m - {var}
                    if rest in touched:
                        del touched[rest]
                    else:
                        record[0] = rest
                        touched[rest] = record
                unread.append(touched)
    return assigned, [set(table) for table in tables if table]


def enumerate_augmentations(dga: DGA) -> Augmentations:
    """All augmentations, ordered lexicographically over the degree-0 generators.

    The order reads each candidate as the tuple of its values on the
    degree-0 generators in declaration order, with 0 before 1.  Forced
    values are propagated first (``_propagate``, whose order does not
    change the result), then every free letter is searched, all trials at
    once (``_search``), and the members are verified by one batched check
    (``_verify_solutions``).
    ``MAX_FREE_GENERATORS`` bounds the free letters, so the trials searched.
    """
    zero_gens = [g for g in dga.generators if dga.degree(g) == 0]
    eqs = [_equation(dga, dga.d(g)) for g in dga.generators]
    eqs = [eq for eq in eqs if eq]

    propagated = _propagate(eqs)
    if propagated is None:
        return Augmentations(dga, (), {}, 0)
    assigned, eqs = propagated

    free = [g for g in zero_gens if g not in assigned]
    what = "too many undetermined degree-0 generators (%d) to enumerate, over"
    check_budget("MAX_FREE_GENERATORS", MAX_FREE_GENERATORS, len(free), what)
    augs = Augmentations(dga, free, assigned, _search(eqs, free))
    _verify_solutions(dga, augs)
    return augs


def _columns(f: int) -> List[int]:
    """Letter i's column over the 2^f trials: the trials in which it is 1."""
    size = 1 << f
    columns = []
    for i in range(f):
        half = size >> (i + 1)
        # One period, half trials at 0 then half at 1, repeated by doubling.
        col, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            col |= col << period
            period *= 2
        columns.append(col)
    return columns


def _search(eqs: List[Set[FrozenSet[str]]], free: Sequence[str]) -> int:
    """The trials that solve every equation, as a bitmask over 2^f trials.

    A monomial is the AND of its letters' columns (all trials when empty),
    an equation the XOR of its monomials, and a trial solves the system
    when no equation is 1 on it (module docstring).
    """
    full = (1 << (1 << len(free))) - 1
    column = dict(zip(free, _columns(len(free))))
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


def _verify_solutions(dga: DGA, augs: Augmentations) -> None:
    """Raise ``InternalConsistencyError`` if some member of ``augs`` is not
    an augmentation of ``dga``, with the message of the first failing
    generator of the first such member.

    Per generator in declaration order, a nonzero mask of nonzero degree
    fails those members, and so does the XOR over d(g)'s words of the AND
    of their letters' masks, where the empty word is every member.  This is
    the per-member check, read for every member at once (module docstring),
    and the degree failure of a generator is named before its
    differential's, as that check names them.
    """
    every = augs.ok
    if not every:
        return
    masks = {g: every if v else 0 for g, v in augs._base}
    # Each free letter reads the column of the trial bit ``_make`` reads.
    f, columns = len(augs.free), _columns(len(augs.free))
    for bit, p, _ in augs._bits:
        masks[dga.generators[p]] = columns[f - bit.bit_length()] & every
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
        t = (fails & -fails).bit_length() - 1
        if first is None or t < first[0]:
            if nonzero >> t & 1:
                message = "augmentation is nonzero on %s of degree %d" % (g, dga.degree(g))
            else:
                message = "augmentation fails to kill d %s" % g
            first = (t, message)
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


def twist(dga: DGA, aug: Augmentation, arity: Optional[int] = None) -> DGA:
    """Conjugate the differential by the augmentation: substitute q -> q + eps(q).

    The result has the same generators and gradings and no constant terms in
    any differential.  Given ``arity``, it holds only the words of length
    <= ``arity`` of the full twist (``substitute``'s arity cut: twisting
    never lengthens a word).  A twist predicted to build more than
    ``MAX_TWIST_TERMS`` words, counted untruncated, is refused before any
    is built.
    """
    values = _checked_values(dga, aug)
    images = {
        g: frozenset({(g,), ()}) for g in dga.generators if values[g]
    }
    # A run g^m gives m + 1 <= 2^m words, so 2^len(w) bounds a word's
    # prediction, and only a DGA over the budget by that bound is counted.
    if sum(1 << len(w) for p in dga.diff.values() for w in p) > MAX_TWIST_TERMS:
        predicted = substitution_terms(dga.diff.values(), images)
        if predicted > MAX_TWIST_TERMS:
            what = "twisting by %s would build %d terms, over"
            check_budget("MAX_TWIST_TERMS", MAX_TWIST_TERMS, predicted, what, aug.describe())
    diff = {g: substitute(dga.d(g), images, arity) for g in dga.generators}
    for g, p in diff.items():
        if () in p:
            raise InternalConsistencyError(
                "twisted differential of %s retains a constant term" % g
            )
    return dga.replace_diff(diff)


def per_twist(augs: Augmentations, compute: Callable[[Augmentation], T]) -> List[T]:
    """``compute`` once per twist, on its first member, and its result listed
    for every member, in the order of ``augs``.

    ``compute`` should read the augmentation only through its ring or twist,
    and keep no ring in its result, so that one ring is alive at a time.
    Members whose trials agree off the inert bits share their twist (module
    docstring), and each class is computed at its first member, so the
    first to fail is the first augmentation whose ``compute`` would fail,
    and fails as it would.
    """
    results: Dict[int, T] = {}
    out = []
    for t in augs._trials():
        key = t & ~augs.inert
        if key not in results:
            results[key] = compute(augs._make(t))
        out.append(results[key])
    return out


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
