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
``ProductTable``.  Massey brackets of every order are one code path: the
walk of ``massey_higher`` (``ainfty._BracketWalk``, whose docstrings prove
that the value sets are the chain-level ones and that the outer layer is
a coset) over the ring's checked minimal model, asked class tuple by
class tuple, skipping the degree tuples where mu has no entry on any run;
the walks of order 4 and up are bounded in advance by
``MAX_MASSEY_SYSTEMS``.

``compare_mirror`` fingerprints only the knot.  The mirror's A-infinity
structure is the opposite one, m_k^op(x_1..x_k) = m_k(x_k..x_1), so its
fingerprint is ``_opposite`` of the knot's: cup keys swapped, Massey
tuples reversed, dims and order-n dims kept (the proof is in the
``compare_mirror`` docstring).  The mirror is still validated, and each
augmentation verified on its differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, groupby, repeat
from itertools import product as iproduct
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import ContractError, InternalConsistencyError
from .ainfty import CohomologyRing, _BracketWalk, build_ring, check_massey_budget
from .algebra import DGA, assert_valid, mirror_dga
from .augment import Augmentations, _verify_solutions, enumerate_augmentations, per_twist
from .gf2 import apply_block, rank
from .linear import HomologyData
from .tilde import order_n_cohomology

__all__ = [
    "AugmentationProfile",
    "Fingerprint",
    "MirrorReport",
    "fingerprint_dga",
    "compare_mirror",
    "audit_basis_independence",
    "random_graded_basis",
]

DEFAULT_MASSEY_ORDER = 3
DEFAULT_ORDER_CAP = 2
DEFAULT_MAX_TUPLES = 4096


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


def _standard_bases(h: HomologyData) -> Dict[int, List[int]]:
    return {k: [1 << i for i in range(h.dim(k))] for k in h.degrees()}


def cup_rank_table(
    ring: CohomologyRing, bases: Optional[Dict[int, List[int]]] = None
) -> Dict[Tuple[int, int], int]:
    """Rank of the cup product per bidegree (nonzero entries only), read off
    the pair blocks' class rows."""
    if bases is None:
        bases = _standard_bases(ring.cochain)
    degrees = sorted(bases)
    table: Dict[Tuple[int, int], int] = {}
    for r in degrees:
        for s in degrees:
            coords = ring.products.pair(r, s).coords
            value = rank(apply_block(coords, xv, yv) for xv in bases[r] for yv in bases[s])
            if value:
                table[(r, s)] = value
    return table


def _class_tuples(dims: Sequence[int]) -> int:
    """The number of tuples of nonzero classes in degrees of these dimensions."""
    total = 1
    for d in dims:
        total *= (1 << d) - 1
    return total


def _tuple_space(dims: Sequence[int]) -> bool:
    return _class_tuples(dims) <= DEFAULT_MAX_TUPLES


def _walk_flags(walk: _BracketWalk, degrees: Tuple[int, ...], dims: Sequence[int], zero):
    """(some bracket defined, some nonzero) over the tuples of nonzero classes
    in these degrees, asked tuple by tuple in product order, up to the first
    nonzero one.  A bracket with a nonzero adjacent product x_l x_(l+1) is
    undefined (that product is the obstruction of the width-1 run [l, l+1]
    on every branch), so only the other tuples are asked, built position by
    position from ``zero(a, b)``, which maps each class x of degree a to the
    y of degree b with x y = 0; where the walk is ``flat`` none is asked."""
    combos = [(x,) for x in range(1, 1 << dims[0])]
    for after in map(zero, degrees, degrees[1:]):
        combos = [c + (y,) for c in combos for y in after[c[-1]]]
    if not combos or walk.flat(degrees):
        return bool(combos), False
    defined = False
    for here, nonzero in map(partial(walk.flags, degrees), combos):
        if nonzero:
            return True, True
        defined = defined or here
    return defined, False


def massey_table(
    ring: CohomologyRing, massey_order: int = DEFAULT_MASSEY_ORDER
) -> Dict[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]]:
    """Per degree tuple: does any Massey bracket exist, and any nonzero one?

    Both booleans quantify over all tuples of nonzero classes in the given
    degrees, so they do not depend on a basis choice.  "Nonzero" means 0
    lies outside the affine hull of the value set (``is_trivial``).  Degree
    tuples whose class count exceeds ``DEFAULT_MAX_TUPLES`` are skipped (a
    function of the dimensions alone).

    Every order reads the ring's checked minimal model the same way, with
    one ``_BracketWalk`` (the walk of ``massey_higher``) asked class tuple
    by class tuple for (defined, nonzero) (``_walk_flags``), up to the first
    nonzero tuple; each bracket stops at the first coset after which its
    hull holds 0.  A degree tuple on none of whose runs (k_l..k_m), l < m,
    mu_(m-l+1) has an entry is (True, False) with no walk: there every
    bracket has the zero system, whose obstructions and value are the
    mu_(m-l+1)(x_l..x_m), all 0.  Before the ring's first walk of order 4
    or more, ``check_massey_budget`` bounds those walks' complete systems,
    every order and admitted class tuple together.  The ring is transferred
    once, at ``massey_order``, and that transfer's cuts serve the lower
    orders and the order-n dims up to it.
    """
    h = ring.cochain
    dim_of = h.dims()
    degrees = sorted(dim_of)

    def admitted(order: int):
        tuples = zip(iproduct(degrees, repeat=order), iproduct(dim_of.values(), repeat=order))
        return ((prefix, dims) for prefix, dims in tuples if _tuple_space(dims))

    if massey_order >= 4:
        orders = range(4, massey_order + 1)
        check_massey_budget(
            h, ((p, _class_tuples(dims)) for o in orders for p, dims in admitted(o))
        )
    if massey_order >= 3:
        ring.minimal(massey_order)
    table: Dict[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]] = {}

    @lru_cache(maxsize=None)
    def zero(a: int, b: int) -> Dict[int, List[int]]:
        pair, ys = ring.products.pair(a, b).coords, range(1, 1 << dim_of[b])
        return {x: [y for y in ys if not apply_block(pair, x, y)] for x in range(1, 1 << dim_of[a])}

    for order in range(3, massey_order + 1):
        mu = ring.checked_minimal(order)[0]
        walk = _BracketWalk(mu, order)
        runs = [(l, m, mu.grouped(m - l)) for l in range(order) for m in range(l + 2, order + 1)]
        for prefix, dims in admitted(order):
            table[(order, prefix)] = (True, False)
            for l, m, grouped in runs:
                if prefix[l:m] in grouped:
                    table[(order, prefix)] = _walk_flags(walk, prefix, dims, zero)
                    break
    return table


def order_dim_table(
    ring: CohomologyRing, order_cap: int = DEFAULT_ORDER_CAP
) -> Dict[Tuple[int, int], int]:
    """Order-n cohomology dimensions for 1 <= n <= order_cap.

    Dimensions do not depend on the engine, so this always takes the
    perturbation engine, the window complex of the ring's minimal model.
    The adjoint structure's window d d = 0 it skips, its A-infinity
    relations up to arity n, holds at every arity on a ring from
    ``build_ring``, which proves it from ``assert_valid`` (once per
    content).  The checks it keeps: the pair check (one comparison per
    ring, at every term length, serves every n), the transfer's mu_2 check
    (one transfer per ring, its cuts kept, on the ring's own retract, which
    ``linear._retract`` proves), and the minimal model's relations up to
    arity n.
    """
    table: Dict[Tuple[int, int], int] = {}
    for n in range(1, order_cap + 1):
        result = order_n_cohomology(ring, n, engine="perturbation")
        for degree, dim in sorted(result.dims.items()):
            if dim:
                table[(n, degree)] = dim
    return table


def profile_for(
    ring: CohomologyRing,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
    bases: Optional[Dict[int, List[int]]] = None,
) -> AugmentationProfile:
    """All invariants of a single augmentation."""
    dims = tuple(sorted((k, d) for k, d in ring.cochain.dims().items() if d))
    cups = tuple(sorted(cup_rank_table(ring, bases).items()))
    massey = tuple(sorted(massey_table(ring, massey_order).items()))
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
    every field and then the profiles are sorted again.  Equal profiles sit
    together in a sorted fingerprint, so each distinct one is reversed once
    and repeated; reversal is injective, so the distinct results sort
    without ties."""
    runs = sorted(
        (
            (
                AugmentationProfile(
                    p.dims,
                    tuple(sorted(((s, r), v) for (r, s), v in p.cup_ranks)),
                    tuple(sorted(((o, t[::-1]), v) for (o, t), v in p.massey)),
                    p.order_dims,
                ),
                len(list(members)),
            )
            for p, members in groupby(fp.profiles)
        ),
        key=itemgetter(0),
    )
    return Fingerprint(tuple(chain.from_iterable(repeat(p, n) for p, n in runs)))


def random_graded_basis(h: HomologyData, rng) -> Dict[int, List[int]]:
    """A random degree-preserving change of homology basis (as coordinates)."""
    bases: Dict[int, List[int]] = {}
    for k in h.degrees():
        dim = h.dim(k)
        while True:
            vectors = [rng.randrange(1, 1 << dim) for _ in range(dim)]
            if rank(vectors) == dim:
                bases[k] = vectors
                break
    return bases


def audit_basis_independence(ring: CohomologyRing, rng, **options) -> bool:
    """Recompute one profile in a random basis and insist nothing moved."""
    baseline = profile_for(ring, **options)
    shuffled = profile_for(ring, bases=random_graded_basis(ring.cochain, rng), **options)
    if baseline != shuffled:
        raise InternalConsistencyError(
            "fingerprint changed under a degree-preserving basis change"
        )
    return True


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


def _first_difference(left: Fingerprint, right: Fingerprint) -> str:
    if len(left.profiles) != len(right.profiles):
        return "augmentation count %d vs %d" % (len(left.profiles), len(right.profiles))
    messages = {
        "dims": "dim of cohomology in degree %s across augmentations: %s vs %s",
        "cup_ranks": "rank of the cup product in bidegree %s across augmentations: %s vs %s",
        "massey": "Massey bracket summary (defined, nonzero) in degree tuple %s: %s vs %s",
        "order_dims": "order-n cohomology dim at (n, degree) %s: %s vs %s",
    }
    for field in ("dims", "cup_ranks", "massey", "order_dims"):
        missing = (False, False) if field == "massey" else 0
        lt = [dict(getattr(p, field)) for p in left.profiles]
        rt = [dict(getattr(p, field)) for p in right.profiles]
        # Each key's values, sorted across augmentations, only up to the first that differs.
        for key in sorted({k for t in lt + rt for k in t}):
            lv = sorted(t.get(key, missing) for t in lt)
            rv = sorted(t.get(key, missing) for t in rt)
            if lv != rv:
                return messages[field] % (key, lv, rv)
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
      the tuple) and ``_tuple_space`` (a product over the tuple) reverse
      with it.  A walk reaches every defining system of mu^op, and
      ``check_massey_budget`` sums over a tuple's sub-intervals, which
      reversal permutes.
    - Order-n dims.  Word reversal is an isomorphism of the window
      complexes (``reflection_compare`` checks rev d rev = d_mirror), so the
      dims are equal.

    Budgets count the same terms on both sides, and the knot runs first, so
    an error raised on either side was raised on the knot.
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
