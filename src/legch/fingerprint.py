"""Isomorphism-invariant fingerprints and mirror comparison.

A fingerprint collects, per augmentation, data that any degree-preserving
isomorphism of linearized contact cohomology rings must preserve: graded
dimensions, the rank of the cup product in each bidegree, whether each
degree tuple carries a defined (and nonzero modulo indeterminacy) Massey
bracket, and order-n cohomology dimensions.  Ranks and booleans only —
never coordinates, so the data is independent of every basis choice.
A differing fingerprint certifies that no isomorphism exists; equal
fingerprints are inconclusive.  Augmentations that differ only on inert
letters share their twist (``augment.per_twist``), so they share one ring
and its profile, which counts once per member.

Cup ranks are read off the class rows of the pair blocks of the ring's
``ProductTable``, on its ``support``: the bidegrees where the chain-level
m_2 has an entry.  Massey brackets of every order are one code path: the
walk of ``massey_higher`` (``ainfty._BracketWalk``, whose docstrings
prove that the value sets are the chain-level ones and that the outer
layer is a coset) over the ring's one checked minimal model, one walk
per degree tuple with its term lists bound once, asked class tuple by
class tuple on the support only, the degree tuples enumerated
from the entries of mu on their runs, and there only where some class
tuple has every adjacent product 0 (a reach mask per prefix, read off the
product table's annihilator masks) and mu has an entry on the degrees of
a run of three or more classes; the table's degree tuples are
bounded in advance by ``MAX_MASSEY_TUPLES``, and the inner systems of the
walks of order 4 and up by ``MAX_MASSEY_SYSTEMS``.

The Massey field lists every admitted degree tuple, and (True, False),
defined and zero, is its default: every tuple off the support holds it
(the zero system in the ``massey_table`` docstring), and so do most on
it.  Its readers work only on the other entries.  ``massey_table`` fills
the default in one pass and writes the support tuples; ``_opposite``
copies the field and rewrites only the keys of other flags and their
reversals; ``_first_difference`` compares only the keys where the
distinct profiles' values are not all equal.

``compare_mirror`` fingerprints only the knot.  The mirror's A-infinity
structure is the opposite one, m_k^op(x_1..x_k) = m_k(x_k..x_1), so its
fingerprint is ``_opposite`` of the knot's: cup keys swapped, Massey
flags read at reversed tuples, dims and order-n dims kept (the proof is in
the ``compare_mirror`` docstring).  The mirror is still validated, and each
augmentation verified on its differential.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, compress, count, groupby, repeat
from operator import itemgetter, ne, or_
from typing import Dict, List, Optional, Sequence, Tuple

from . import ContractError, check_budget
from .ainfty import AInftyStructure, CohomologyRing, _BracketWalk, _check_arity, build_ring
from .ainfty import check_massey_budget
from .algebra import DGA, assert_valid, mirror_dga
from .augment import Augmentations, _verify_solutions, enumerate_augmentations, per_twist
from .gf2 import bits, rank
from .tilde import _check_lower_orders, order_n_cohomology

__all__ = [
    "AugmentationProfile",
    "Fingerprint",
    "MirrorReport",
    "fingerprint_dga",
    "compare_mirror",
]

DEFAULT_MASSEY_ORDER = 3
DEFAULT_ORDER_CAP = 2
DEFAULT_MAX_TUPLES = 4096
# The Massey field's default flags, (defined, zero): ``massey_table`` fills
# every admitted degree tuple with them, then writes only the support tuples.
_DEFAULT_FLAGS = (True, False)
# Admitted degree tuples of one Massey table, orders 3..massey_order together.
# Near the bound, on a DGA with no differential and one generator per degree
# 1..k, compare-mirror takes 0.05-0.09 s at k = 40 (64,000 triples) and
# 0.08-0.13 s at k = 15 with --massey-order 4 (54,000 tuples), in-process
# (python 3.11, 2 vCPUs); k = 41 is refused at once.
MAX_MASSEY_TUPLES = 1 << 16


@dataclass(frozen=True, order=True)
class AugmentationProfile:
    """Invariants of one augmentation, all basis-independent.

    ``dims``: sorted (degree, dimension) pairs with nonzero dimension.
    ``cup_ranks``: sorted ((r, s), rank) pairs with nonzero rank.
    ``massey``: sorted ((order, degree tuple), (defined, nonzero)) pairs.
    ``order_dims``: sorted ((n, degree), dimension) pairs, n up to the cap.
    """

    dims: Tuple[Tuple[int, int], ...]
    cup_ranks: Tuple[Tuple[Tuple[int, int], int], ...]
    massey: Tuple[Tuple[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]], ...]
    order_dims: Tuple[Tuple[Tuple[int, int], int], ...]


@dataclass(frozen=True)
class Fingerprint:
    """Multiset of per-augmentation profiles, in canonical sorted order."""

    profiles: Tuple[AugmentationProfile, ...]


def cup_rank_table(ring: CohomologyRing) -> Dict[Tuple[int, int], int]:
    """Rank of the cup product per bidegree (nonzero entries only), read off
    the pair blocks' class rows on the product table's ``support``: every
    other pair block is zero (``ProductTable``), of rank 0.  A block's rank
    is that of its entries, the products of the basis classes."""
    table: Dict[Tuple[int, int], int] = {}
    for r, s in ring.products.support:
        value = rank(chain.from_iterable(ring.products.pair(r, s).coords))
        if value:
            table[(r, s)] = value
    return table


def _check_tuple_budget(counts: Sequence[int], massey_order: int) -> None:
    """Refuse a Massey table of more than ``MAX_MASSEY_TUPLES`` admitted
    degree tuples over the orders 3..``massey_order``, before any is built.

    ``counts`` holds each degree's number of nonzero classes, every one at
    least 1, and a tuple is admitted when their product is at most
    ``DEFAULT_MAX_TUPLES``.  Products only grow along a tuple, so a refused
    prefix stays refused: ``ways`` maps each admitted product of the
    current length to its number of tuples, and grows by one degree per
    order, with no tuple listed, up to the first order that admits none.
    """
    ways, total, per_count = {1: 1}, 0, Counter(counts).items()
    for order in range(1, massey_order + 1):
        if not ways:
            return
        grown: Dict[int, int] = {}
        for p, n in ways.items():
            for c, m in per_count:
                if p * c <= DEFAULT_MAX_TUPLES:
                    grown[p * c] = grown.get(p * c, 0) + n * m
        ways = grown
        total += sum(ways.values()) if order >= 3 else 0
        what = "the Massey table has at least %d degree tuples, over"
        check_budget("MAX_MASSEY_TUPLES", MAX_MASSEY_TUPLES, total, what)


def _walk_flags(mu: AInftyStructure, degrees: Tuple[int, ...], dims: Sequence[int], zero):
    """(some bracket defined, some nonzero) over the tuples of nonzero classes
    in these degrees, asked tuple by tuple in product order of one
    ``_BracketWalk`` over mu in these degrees, up to the first nonzero one.
    A bracket with a nonzero adjacent product x_l x_(l+1) is undefined
    (that product is the obstruction of the width-1 run [l, l+1] on every
    branch), so only the other tuples are asked, built position by
    position from ``zero(a, b)`` (``ProductTable.annihilators``), which
    maps each class x of degree a to the mask of the y of degree b with
    x y = 0.  ``massey_table`` calls it only where some such tuple exists
    (its reach) and mu has an entry on a run of three or more classes."""
    combos = [(x,) for x in range(1, 1 << dims[0])]
    for after in map(zero, degrees, degrees[1:]):
        combos = [c + (y,) for c in combos for y in bits(after[c[-1]])]
    defined = False
    for here, nonzero in map(_BracketWalk(mu, degrees).flags, combos):
        if nonzero:
            return True, True
        defined = defined or here
    return defined, False


def _reach(tuples: List[Tuple[int, ...]], reach: dict, pairs: set, zero) -> None:
    """Fill ``reach`` (``massey_table``), which holds every one-degree
    tuple's, at every prefix of these tuples, all of one length, shortest
    first; ``pairs`` is the support and ``zero`` the annihilators of the
    product table."""
    spread: Dict[tuple, int] = {}  # (support pair, reach before it) -> reach past it
    for n in range(2, len(tuples[0]) + 1 if tuples else 0):
        for prefix in {t[:n] for t in tuples}.difference(reach):
            before, pair = reach[prefix[:-1]], prefix[-2:]
            if not before or pair not in pairs:  # off the support every mask is full
                reach[prefix] = before and reach[prefix[-1:]]
            else:
                if (pair, before) not in spread:
                    masks = map(zero(*pair).__getitem__, bits(before))
                    spread[pair, before] = reduce(or_, masks, 0)
                reach[prefix] = spread[pair, before]


def massey_table(
    ring: CohomologyRing, massey_order: int = DEFAULT_MASSEY_ORDER
) -> Dict[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]]:
    """Per degree tuple: does any Massey bracket exist, and any nonzero one?

    Both booleans quantify over all tuples of nonzero classes in the given
    degrees, so they do not depend on a basis choice.  "Nonzero" means 0
    lies outside the affine hull of the value set (``is_trivial``).  Degree
    tuples whose class count exceeds ``DEFAULT_MAX_TUPLES`` are skipped (a
    function of the dimensions alone), and a table of more than
    ``MAX_MASSEY_TUPLES`` admitted tuples is refused before any is built
    (``_check_tuple_budget``).  Products only grow along a tuple, so each
    order's admitted tuples are the previous order's extended by one
    admitted degree, listed in product order; the orders stop at the first
    that admits none.  A tuple of count c extends by the degrees whose
    count n has c n <= ``DEFAULT_MAX_TUPLES``, one list per distinct c.
    Only orders 3 and up are read; a tuple of order 1 or 2 only as the head
    or tail of a longer admitted tuple, and such a head or tail extends
    (its count times that of a class next to it in the longer tuple is at
    most the longer tuple's).  So below order 3 only tuples that extend by
    some degree are kept, those of count c n at most the bound over the
    least count, and with ``massey_order`` below 3 no level is built.

    Every order reads the ring's one checked minimal model, transferred
    once at ``massey_order`` (``ProductTable.minimal``) when some tuple of
    order 3 or more is admitted (otherwise none is read, and only the
    transfer's arity budget ``MAX_ARITY`` is checked), the same way: each
    walked degree tuple gets its own ``_BracketWalk`` (the walk of
    ``massey_higher``, its term lists bound once for the tuple), asked
    class tuple by class tuple for (defined, nonzero) (``_walk_flags``), up
    to the first nonzero tuple; each bracket stops at the first coset after
    which its hull holds 0.  It is asked only on the support tuples that
    reach and on whose degrees mu has an entry on a run of three or more
    classes (below).

    Reach.  A bracket with a nonzero adjacent product is undefined
    (``_walk_flags``), so some bracket in a degree tuple is defined only
    if some tuple of nonzero classes in those degrees has every adjacent
    product 0.  The reach of a degree tuple is the mask of the classes of
    its last degree that end such a class tuple: every nonzero class for
    one degree, and for t + (k) the union, over the x in the reach of t,
    of x's annihilator mask in degree k (``ProductTable.annihilators``).
    So it is nonzero exactly when such a class tuple exists.  Off the
    support every annihilator mask is full, so there the reach of t + (k)
    is full when that of t is nonzero, and no annihilator is built.  Each
    prefix's reach is computed once per call, level by level over the
    prefixes of the order's admitted support tuples (``_reach``), and on a
    support pair once per reach before it.  A support tuple of reach 0 is
    (False, False).

    The support.  Only the degree tuples (k_1..k_n) with a run [l, m],
    l < m, on whose degrees (k_l..k_m) mu_(m-l+1) has an entry can be
    other than (True, False).  They are enumerated per run and per key of
    ``mu.grouped(m - l + 1)`` (the degree tuples where that m_r has an
    entry) as the tuples with that key on the run and admitted heads and
    tails: the head and tail of an admitted tuple are admitted, so each
    admitted support tuple is enumerated at a run with an entry and its
    own key there.

    The zero system.  Take classes x_1..x_n of a degree tuple with every
    adjacent product x_l x_(l+1) = 0, and the system with every variable
    b[l, m], l < m, set to 0.  The partition sum of a run [l, m] is
    multilinear in its blocks' entries, so only the partition into single
    classes can be nonzero, mu_(m-l+1)(x_l..x_m): the adjacent product,
    0, on a run of two classes, and 0 on a longer run where mu_(m-l+1) has
    no entry on (k_l..k_m).  So where mu has no entry on the degrees of any
    run of three or more classes, no obstruction meets this system, and
    its value, the same sum over [1, n], is 0: every bracket with its
    adjacent products 0 is defined and its value set holds 0, and every
    other bracket is undefined.  Such a degree tuple with a class tuple of
    that kind is (True, False) with no walk; off the support it has one,
    as every degree in the table has a nonzero class and every product
    there is 0, and on it its reach says so.  Only the support tuples of
    nonzero reach with an entry of mu on a run of three or more classes
    are walked.

    The fill.  (True, False) is thus the table's default.  Every admitted
    tuple gets it in one ``dict.fromkeys`` over the orders' lists, each
    order's in lexicographic order (each extends the previous order's
    list, in order, by the degrees in ascending order), so the keys come
    sorted and ``profile_for`` reads them as they come.  Then only the
    admitted support tuples are visited: (False, False) where the reach
    is 0, the walk's flags where one is asked, and the default kept
    elsewhere.

    Before the ring's first walk of order 4 or more,
    ``check_massey_budget`` bounds the inner systems those walks visit,
    every order and admitted class tuple together.
    """
    h = ring.cochain
    dim_of = h.dims()
    counts = {k: (1 << dim) - 1 for k, dim in dim_of.items()}
    _check_tuple_budget(list(counts.values()), massey_order)
    # per order l, the admitted keys (l, degree tuple) that are read, and their
    # class-tuple counts where the next order or check_massey_budget reads them
    keys, sizes = ([[(0, ())]], [[1]]) if massey_order >= 3 else ([], [])
    least = min(counts.values(), default=1)
    while keys and len(keys) <= massey_order and keys[-1]:
        l = len(keys)
        # below order 3, a tuple is kept only if it extends
        cap = DEFAULT_MAX_TUPLES // (least if l < 3 else 1)
        admits = cache(lambda c: [((k,), n) for k, n in counts.items() if c * n <= cap])
        keys.append([(l, t + k) for (_, t), c in zip(keys[-1], sizes[-1]) for k, _ in admits(c)])
        if l < 3 or massey_order >= 4:
            sizes.append([c * n for c in sizes[-1] for _, n in admits(c)])
    if massey_order >= 4:
        check_massey_budget(h, zip([t for _, t in chain(*keys[4:])], chain(*sizes[4:])))
    orders = [order for order in range(3, len(keys)) if keys[order]]
    if massey_order >= 3:  # the transfer when a tuple reads it, else only its arity refusal
        mu = ring.minimal(massey_order)[0] if orders else _check_arity(massey_order)
    # a degree of count over DEFAULT_MAX_TUPLES is in no admitted tuple, so it has no reach
    reach = {(k,): (2 << n) - 2 for k, n in counts.items() if n <= DEFAULT_MAX_TUPLES}
    zero = ring.products.annihilators
    table = dict.fromkeys(chain.from_iterable(keys[3:]), _DEFAULT_FLAGS)
    for order in orders:
        support = {
            head + key + tail
            for l in range(order)
            for m in range(l + 2, order + 1)
            for key in mu.grouped(m - l)
            for _, head in keys[l]
            for _, tail in keys[order - m]
        }
        runs = [(l, l + r) for r in range(3, order + 1) for l in range(order + 1 - r)]
        admitted = [t for t in support if (order, t) in table]
        _reach(admitted, reach, set(ring.products.support), zero)
        for prefix in admitted:
            if not reach[prefix]:
                table[order, prefix] = (False, False)
            elif any(prefix[l:m] in mu.grouped(m - l) for l, m in runs):
                table[order, prefix] = _walk_flags(mu, prefix, [dim_of[k] for k in prefix], zero)
    return table


def order_dim_table(
    ring: CohomologyRing, order_cap: int = DEFAULT_ORDER_CAP
) -> Dict[Tuple[int, int], int]:
    """Order-n cohomology dimensions for 1 <= n <= order_cap.

    Dimensions do not depend on the engine, so this always takes the
    perturbation engine, the window complex of the ring's minimal model,
    and asks it once, at the cap: ``order_n_cohomology`` returns every
    lower order's dims from its one window matrix (``legch.tilde``,
    Filtration).  Its refusals are those of a loop over n = 1..order_cap,
    with their messages: the order, window-bit and relation-term budgets
    of each order below the cap are read first, ascending
    (``tilde._check_lower_orders``), then the call at the cap runs the
    checks of the loop's last step, the pair check among them.
    The adjoint structure's window d d = 0 it skips, its A-infinity
    relations up to arity n, holds at every arity on a ring from
    ``build_ring``, which proves it from ``assert_valid`` (once per
    content).  The checks it keeps: the pair check (one pass per
    ring, at every term length, serves every n), the transfer's mu_2 check
    and mu's relations up to its arity (one transfer per ring, at the
    highest arity asked, on the ring's own retract, which
    ``linear._retract`` proves), and the window's relations up to the cap,
    which cover every lower order's (Square zero).
    """
    if order_cap < 1:
        return {}
    _check_lower_orders(ring, order_cap)
    orders = order_n_cohomology(ring, order_cap, engine="perturbation").orders
    return {(n, k): dim for n, dims in orders.items() for k, dim in dims.items()}


def profile_for(
    ring: CohomologyRing,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> AugmentationProfile:
    """All invariants of a single augmentation, cup ranks in the standard
    basis (the one field read in a basis; the tests check that a random
    graded basis gives the same ranks).  The Massey table's keys come
    sorted (``massey_table``)."""
    dims = tuple(sorted((k, d) for k, d in ring.cochain.dims().items() if d))
    cups = tuple(sorted(cup_rank_table(ring).items()))
    massey = tuple(massey_table(ring, massey_order).items())
    orders = tuple(sorted(order_dim_table(ring, order_cap).items()))
    return AugmentationProfile(dims, cups, massey, orders)


def fingerprint_dga(
    dga: DGA, massey_order: int = DEFAULT_MASSEY_ORDER, order_cap: int = DEFAULT_ORDER_CAP
) -> Fingerprint:
    """Fingerprints of every augmentation, as a canonically ordered multiset."""
    _check_options(massey_order, order_cap)
    return _fingerprint(dga, enumerate_augmentations(dga), massey_order, order_cap)


def _check_options(massey_order: int, order_cap: int) -> None:
    """Refuse a negative order before any augmentation is enumerated."""
    if massey_order < 0:
        raise ContractError("Massey order must be nonnegative")
    if order_cap < 0:
        raise ContractError("order cap must be nonnegative")


def _fingerprint(dga: DGA, augs: Augmentations, massey_order: int, order_cap: int) -> Fingerprint:
    """One ring and profile per twist (``augment.per_twist``), and the profile
    counted once per member."""
    options = (massey_order, order_cap)
    profiles = per_twist(augs, lambda aug: profile_for(build_ring(dga, aug), *options))
    return Fingerprint(tuple(sorted(profiles)))


def _opposite(fp: Fingerprint) -> Fingerprint:
    """The fingerprint of the opposite A-infinity structure,
    m_k^op(x_1..x_k) = m_k(x_k..x_1): each cup key (r, s) becomes (s, r),
    each Massey degree tuple is reversed, dims and order-n dims stay, and
    the cup field and then the profiles are sorted again.  Admission is a
    product over the tuple, so each order's admitted tuples are closed
    under reversal: the opposite Massey field has the knot's sorted keys,
    each with the knot's value at its reversed key.  Where the knot's
    flags at k and at rev(k) both are the default (True, False), that is
    the knot's own value, so the field is copied as a list and rewritten
    only at the keys k of other flags, found with their positions in one
    scan (``where``), and at each rev(k) whose flags are the default,
    found by bisection in the sorted field.  Equal profiles sit together
    in a sorted fingerprint, so each distinct one is reversed once and
    repeated; reversal is injective, so the distinct results sort without
    ties."""

    def opposite(p: AugmentationProfile) -> AugmentationProfile:
        massey = list(p.massey)
        where = {item[0]: i for i, item in enumerate(p.massey) if item[1] != _DEFAULT_FLAGS}
        for key, i in where.items():
            r = (key[0], key[1][::-1])
            j = where.get(r)
            massey[i] = (key, _DEFAULT_FLAGS if j is None else p.massey[j][1])
            if j is None:  # the flags at rev(k) are the default: the two swap flags
                massey[bisect_left(massey, (r,))] = (r, p.massey[i][1])
        return AugmentationProfile(
            p.dims,
            tuple(sorted(((s, r), v) for (r, s), v in p.cup_ranks)),
            tuple(massey),
            p.order_dims,
        )

    runs = sorted(
        ((opposite(p), len(list(members))) for p, members in groupby(fp.profiles)),
        key=itemgetter(0),
    )
    return Fingerprint(tuple(chain.from_iterable(repeat(p, n) for p, n in runs)))


@dataclass(frozen=True)
class MirrorReport:
    """Verdict of the fingerprint comparison between a DGA and its mirror."""

    verdict: str  # "DISTINGUISHED" | "INDISTINGUISHABLE-BY-THESE-INVARIANTS"
    witness: Optional[str]
    note: str
    knot: Fingerprint
    mirror: Fingerprint

    @property
    def distinguished(self) -> bool:
        return self.verdict == "DISTINGUISHED"


def _differing(fields: list, missing) -> Tuple[list, List[int]]:
    """The fields on one key list, and the sorted positions where some field
    differs from the first: at every other position all hold one value.
    Fields of equal length whose keys agree wherever their items differ
    share their key list and are kept as they are; otherwise each is
    rewritten on the sorted union of the keys, ``missing`` where it lacks
    one."""
    first = fields[0] if fields else ()
    spots = sorted(set().union(*(compress(count(), map(ne, first, f)) for f in fields[1:])))
    if all(len(f) == len(first) and all(f[j][0] == first[j][0] for j in spots) for f in fields):
        return fields, spots
    keys = sorted(set().union(*(map(itemgetter(0), f) for f in fields)))
    aligned = [tuple(zip(keys, map(dict(f).get, keys, repeat(missing)))) for f in fields]
    return _differing(aligned, missing)


def _first_difference(left: Fingerprint, right: Fingerprint) -> str:
    """The first key, field by field in sorted key order, whose multiset of
    values across the augmentations differs between the sides.  Both sides
    have the same profile count, so a key where every distinct profile of
    both sides holds the same value holds the same multiset on both: only
    the positions ``_differing`` returns are compared, each one's values
    sorted across the augmentations, up to the first that differs.  On the
    Massey field of profiles with equal dims (one key list, as admission
    reads only the per-degree class counts) these are the keys where some
    profile's flags differ from the first's."""
    if len(left.profiles) != len(right.profiles):
        return "augmentation count %d vs %d" % (len(left.profiles), len(right.profiles))
    messages = {
        "dims": "dim of cohomology in degree %s across augmentations: %s vs %s",
        "cup_ranks": "rank of the cup product in bidegree %s across augmentations: %s vs %s",
        "massey": "Massey bracket summary (defined, nonzero) in degree tuple %s: %s vs %s",
        "order_dims": "order-n cohomology dim at (n, degree) %s: %s vs %s",
    }
    # Equal profiles sit together: one field per distinct profile, repeated per member.
    runs = [(p, len(list(run))) for fp in (left, right) for p, run in groupby(fp.profiles)]
    size = len(left.profiles)
    for field in ("dims", "cup_ranks", "massey", "order_dims"):
        missing = (False, False) if field == "massey" else 0
        fields, spots = _differing([getattr(p, field) for p, _ in runs], missing)
        for j in spots:
            values = [f[j][1] for f, (_, n) in zip(fields, runs) for _ in range(n)]
            lv, rv = sorted(values[:size]), sorted(values[size:])
            if lv != rv:
                return messages[field] % (fields[0][j][0], lv, rv)
    return "profiles differ only under joint per-augmentation pairing"


def compare_mirror(
    dga: DGA, massey_order: int = DEFAULT_MASSEY_ORDER, order_cap: int = DEFAULT_ORDER_CAP
) -> MirrorReport:
    """Compare a DGA against its Legendrian mirror by fingerprint.

    Only the knot is fingerprinted; the mirror's fingerprint is
    ``_opposite`` of the knot's.  ``mirror_dga`` reverses every word, and
    each mirror-side step acts on the reversal of knot-side data already
    checked, so it passes exactly when its knot-side twin does and yields
    the opposite value (over GF(2) there are no signs):

    - Augmentations.  A reversed word has the same product of values, and
      mirroring is an involution, so both sides have the same
      augmentations.  Kept: the mirror is validated once (``assert_valid``)
      and every member is verified on its d by one batched check
      (``augment._verify_solutions``).
    - Linear parts, homology and the retract (h, i, p).  Twisting commutes
      with reversal and a one-letter word is its own reversal, so the
      linearized complexes, their homology and the retract are identical.
    - Adjoint structure.  m_k reads the k-letter words, so the mirror's is
      m^op, m_k^op(x_1..x_k) = m_k(x_k..x_1), and its A-infinity relations
      are the knot's read in reverse.
    - Transfer.  With the same (h, i, p) the tree sum mirrors tree by tree
      (each planar tree reflected), so the mirror's minimal model is mu^op.
    - Cup ranks.  {m_2^op(x, y)} spans {m_2(y, x)}, so the rank at (r, s)
      is the knot's at (s, r).
    - Massey flags.  b[l, m] -> b[o + 1 - m, o + 1 - l] maps the defining
      systems of <x_1..x_o> under m^op onto those of <x_o..x_1> under m,
      value for value, so (defined, nonzero) at every order is the knot's
      at the reversed tuple.  The support (an entry of mu on some run of
      the tuple) and the admission (a product over the tuple) reverse
      with it.  A walk reaches every defining system of mu^op, and
      ``check_massey_budget`` sums over a tuple's sub-intervals, which
      reversal permutes.
    - Order-n dims.  Word reversal is an isomorphism of the window
      complexes (rev d rev = d_mirror, Pairs in the ``legch.tilde``
      docstring; the tests check it on every word up to the order), so the
      dims are equal.

    Budgets count the same terms on both sides, and the knot runs first, so
    an error raised on either side was raised on the knot.

    The Massey field's readers here work only on the entries other than
    its default (True, False): ``_opposite`` rewrites only the keys of
    other flags and their reversals (the knot's and the mirror's fields
    hold the same keys, and agree wherever both flags are the default),
    and the witness ``_first_difference`` compares only the keys where the
    distinct profiles' values are not all equal.
    """
    _check_options(massey_order, order_cap)
    augs = enumerate_augmentations(dga)
    knot = _fingerprint(dga, augs, massey_order, order_cap)
    mirror_side = mirror_dga(dga)
    assert_valid(mirror_side)
    _verify_solutions(mirror_side, augs)
    mirror = _opposite(knot)
    if knot == mirror:
        return MirrorReport(
            "INDISTINGUISHABLE-BY-THESE-INVARIANTS",
            None,
            "equal fingerprints do not certify an isomorphism; the comparison is inconclusive",
            knot,
            mirror,
        )
    return MirrorReport(
        "DISTINGUISHED",
        _first_difference(knot, mirror),
        "the named invariant is preserved by every degree-preserving isomorphism",
        knot,
        mirror,
    )
