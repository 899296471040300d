"""Isomorphism-invariant fingerprints and mirror comparison.

A fingerprint collects, per augmentation, data that any degree-preserving
isomorphism of linearized contact cohomology rings must preserve: graded
dimensions, the rank of the cup product in each bidegree, whether each
degree tuple carries a defined (and nonzero modulo indeterminacy) Massey
bracket, and order-n cohomology dimensions.  Ranks and booleans only —
never coordinates, so the data is independent of every basis choice.
A differing fingerprint certifies that no isomorphism exists; equal
fingerprints are inconclusive.

Cup ranks and triple brackets are read off the ring's ``ProductTable``:
each bidegree's rank off the class rows of its pair block, and each degree
triple's (defined, nonzero) from one flags pass over its pair blocks and
its block of the ring's transferred p_3, run only where mu_2 or p_3 has an
entry (every other triple is (True, False)).  Brackets of order 4 and up
enumerate defining systems class tuple by class tuple (``massey_higher``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from . import InternalConsistencyError
from .ainfty import (
    DEFAULT_MAX_SYSTEMS,
    CohomologyRing,
    HClass,
    build_ring,
    massey_higher,
)
from .algebra import DGA, mirror_dga
from .augment import enumerate_augmentations
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


def _tuple_space(dims: Sequence[int]) -> bool:
    total = 1
    for d in dims:
        total *= (1 << d) - 1
        if total > DEFAULT_MAX_TUPLES:
            return False
    return True


def massey_table(
    ring: CohomologyRing,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    max_systems: int = DEFAULT_MAX_SYSTEMS,
) -> Dict[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]]:
    """Per degree tuple: does any Massey bracket exist, and any nonzero one?

    Both booleans quantify over all tuples of nonzero classes in the given
    degrees, so they do not depend on a basis choice.  "Nonzero" means the
    value coset omits zero; truncated defining-system enumerations are never
    counted as nonzero.  Degree tuples whose class count exceeds
    ``DEFAULT_MAX_TUPLES`` are skipped (a function of the dimensions alone).

    A degree triple (a, b, c) takes a flags pass of the product table only
    where mu_2 of the ring's transfer has an entry in degrees (a, b) or
    (b, c), or its p_3 one in (a, b, c); every other triple is (True, False)
    (see "Support" in ``ProductTable``).  Higher orders enumerate defining
    systems class tuple by class tuple.
    """
    h = ring.cochain
    dim_of = h.dims()
    degrees = sorted(dim_of)
    table: Dict[Tuple[int, Tuple[int, ...]], Tuple[bool, bool]] = {}
    for order in range(3, massey_order + 1):
        if order == 3:
            mu = ring.minimal(3)[0]
            cups = {tuple(map(mu.degree_of.get, w)) for w in mu.tables[2]}
        for prefix in iproduct(degrees, repeat=order):
            dims = [dim_of[k] for k in prefix]
            if not _tuple_space(dims):
                continue
            if order == 3:
                a, b, c = prefix
                support = (a, b) in cups or (b, c) in cups or prefix in ring.products.triples
                table[(order, prefix)] = ring.products.flags(a, b, c) if support else (True, False)
                continue
            defined = nonzero = False
            for combo in iproduct(*(range(1, 1 << d) for d in dims)):
                classes = [HClass(k, v) for k, v in zip(prefix, combo)]
                result = massey_higher(h, ring.structure, classes, cap=max_systems)
                defined = defined or result.defined
                if result.defined and not result.truncated and not result.is_trivial():
                    nonzero = True
                    break
            table[(order, prefix)] = (defined, nonzero)
    return table


def order_dim_table(
    ring: CohomologyRing, order_cap: int = DEFAULT_ORDER_CAP
) -> Dict[Tuple[int, int], int]:
    """Order-n cohomology dimensions for 1 <= n <= order_cap.

    Dimensions do not depend on the engine, so this always takes the
    perturbation engine, the window complex of the ring's minimal model.
    The adjoint structure's window d d = 0 it skips, its A-infinity
    relations up to arity n, follows from the checks it keeps:
    ``assert_valid`` (once per content), the pair check (one comparison per
    ring, at every term length, serves every n), the transfer's retract and
    mu_2 checks (one transfer per ring, its cuts kept), and the minimal
    model's relations up to arity n.
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
    max_systems: int = DEFAULT_MAX_SYSTEMS,
    bases: Optional[Dict[int, List[int]]] = None,
) -> AugmentationProfile:
    """All invariants of a single augmentation."""
    dims = tuple(sorted((k, d) for k, d in ring.cochain.dims().items() if d))
    cups = tuple(sorted(cup_rank_table(ring, bases).items()))
    massey = tuple(sorted(massey_table(ring, massey_order, max_systems).items()))
    orders = tuple(sorted(order_dim_table(ring, order_cap).items()))
    return AugmentationProfile(dims, cups, massey, orders)


def fingerprint_dga(
    dga: DGA,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
    max_systems: int = DEFAULT_MAX_SYSTEMS,
) -> Fingerprint:
    """Fingerprints of every augmentation, as a canonically ordered multiset."""
    profiles = [
        profile_for(build_ring(dga, aug), massey_order, order_cap, max_systems)
        for aug in enumerate_augmentations(dga)
    ]
    return Fingerprint(tuple(sorted(profiles)))


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


def _field_multiset(fp: Fingerprint, field: str) -> Dict:
    tables = [dict(getattr(p, field)) for p in fp.profiles]
    keys = sorted({k for t in tables for k in t})
    return {k: sorted(t.get(k, _missing(field)) for t in tables) for k in keys}


def _missing(field: str):
    return (False, False) if field == "massey" else 0


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
        lt, rt = _field_multiset(left, field), _field_multiset(right, field)
        for key in sorted(set(lt) | set(rt)):
            miss = [_missing(field)] * len(left.profiles)
            lv, rv = lt.get(key, miss), rt.get(key, miss)
            if lv != rv:
                return messages[field] % (key, lv, rv)
    return "profiles differ only under joint per-augmentation pairing"


def compare_mirror(
    dga: DGA,
    massey_order: int = DEFAULT_MASSEY_ORDER,
    order_cap: int = DEFAULT_ORDER_CAP,
    max_systems: int = DEFAULT_MAX_SYSTEMS,
) -> MirrorReport:
    """Compare a DGA against its Legendrian mirror by fingerprint."""
    args = (massey_order, order_cap, max_systems)
    knot = fingerprint_dga(dga, *args)
    mirror = fingerprint_dga(mirror_dga(dga), *args)
    if Counter(knot.profiles) == Counter(mirror.profiles):
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
