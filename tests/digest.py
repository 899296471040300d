"""One sha256 per layer over a fixed corpus of rings, so that a refactor can
show in one command that it changed no result.  ``PYTHONPATH=src python
tests/digest.py``, run from the repository root, prints ``rings N`` and one
``layer sha256`` row per layer, then a ``refusals sha256`` row; two trees
give equal rows exactly when every layer's results are equal on the corpus
(up to a hash collision).  The seconds it took go to stderr.  Pytest does
not collect it.

The corpus is ``helpers.proved_rings()`` and the rings of up to three twists
of each of ``helpers.random_dgas(seed, 150)`` for seeds 0, 1 and 2.  Each
ring's value of a layer is written in a canonical form, dicts and sets
sorted, so the digests do not depend on ``PYTHONHASHSEED``; a ``ContractError``
is the value ``refused: <its text>``.  No corpus ring is refused, so the
``refusals`` row digests every layer on a few rings past a budget, built
with ``limits.py``'s constructors (``refusal_rings``).

A last row, ``arities``, digests the same layers on rings built only up to
the arity that the command reading each layer builds (``build_ring``'s
``arity``; ``ARITY``), the corpus and the refusal rings alike.  It equals a
digest of the full-arity rows, and the script exits 1, naming the layer on
stderr, if any layer's hash at its arity differs from its full-arity one.
"""

import hashlib
import sys
import time
import warnings
from functools import cache

from helpers import proved_twists, random_dgas, twist_firsts
from legch import ContractError
from legch.ainfty import build_ring, check_ainfty_morphism
from legch.families import FamilyGradingWarning
from legch.fileio import parse_dga
from legch.fingerprint import cup_rank_table, massey_table, order_dim_table
from legch.tilde import order_n_cohomology
from limits import graded, raised_path


@cache
def twists():
    """The (DGA, augmentation) pairs of the corpus, in a fixed order."""
    pairs = proved_twists()
    for seed in range(3):
        for dga in random_dgas(seed, 150):
            pairs += [(dga, aug) for aug in twist_firsts(dga)[:3]]
    return pairs


def corpus(arity=None):
    """The rings of the corpus, in a fixed order, built up to ``arity``."""
    return (build_ring(dga, aug, arity) for dga, aug in twists())


def refusal_rings(arity=None):
    """Rings a layer refuses: graded(41) is over MAX_MASSEY_TUPLES at Massey
    order 3, graded(20) at order 4, and raised_path(1000) over
    MAX_WINDOW_BITS at order 2."""
    for text in (graded(41), graded(20), raised_path(1000)):
        dga = parse_dga(text)
        yield build_ring(dga, twist_firsts(dga)[0], arity)


def canonical(value):
    """``value`` with every dict and set sorted, nested containers as tuples."""
    if isinstance(value, dict):
        return tuple(sorted(((canonical(k), canonical(v)) for k, v in value.items()), key=repr))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(canonical, value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(map(canonical, value))
    return value


def refused(layer):
    """``layer`` with a ``ContractError`` returned as its text."""

    def read(ring):
        try:
            return layer(ring)
        except ContractError as exc:
            return "refused: %s" % exc

    return read


def orders(ring, engine):
    return order_n_cohomology(ring, 2, engine).orders


def transferred(ring):
    mu, inclusion = ring.minimal(4)
    return {r: mu.tables.get(r, {}) for r in range(1, 5)}, inclusion.tables


def inclusion_check(ring):
    mu, inclusion = ring.minimal(4)
    return check_ainfty_morphism(inclusion, mu, ring.structure, 4)


LAYERS = [
    ("representatives", lambda ring: ring.cochain.reps),
    ("pair_blocks", lambda ring: [(ab, ring.products.pair(*ab)) for ab in ring.products.support]),
    ("cup_ranks", cup_rank_table),
    ("massey_3", refused(lambda ring: massey_table(ring, 3))),
    ("massey_4", refused(lambda ring: massey_table(ring, 4))),
    ("order_dims_2", refused(lambda ring: order_dim_table(ring, 2))),
    ("dense_orders_2", refused(lambda ring: orders(ring, "dense"))),
    ("perturbation_orders_2", refused(lambda ring: orders(ring, "perturbation"))),
    ("transferred_4", refused(transferred)),
    ("inclusion_4", refused(inclusion_check)),
]

# The arity of the ring that the command reading each layer builds: linhom
# (1), ring (2), compare-mirror at Massey order 2, 3 and 4 (2, 3, 4),
# ordern --n 2 on either engine (2) and minimal --arity 4 (4).
ARITY = {
    "representatives": 1,
    "pair_blocks": 2,
    "cup_ranks": 2,
    "massey_3": 3,
    "massey_4": 4,
    "order_dims_2": 2,
    "dense_orders_2": 2,
    "perturbation_orders_2": 2,
    "transferred_4": 4,
    "inclusion_4": 4,
}


def layer_hashes(rings, layers=LAYERS):
    """One sha256 per layer of ``layers`` over ``rings``, and the number of rings."""
    hashes = {name: hashlib.sha256() for name, _ in layers}
    count = 0
    for ring in rings:
        count += 1
        for name, layer in layers:
            hashes[name].update(repr(canonical(layer(ring))).encode() + b"\n")
    return count, hashes


def at_arities(rings):
    """``layer_hashes`` with each layer read on ``rings(arity)``, its ``ARITY``."""
    hashes = {}
    for arity in sorted(set(ARITY.values())):
        layers = [(name, layer) for name, layer in LAYERS if ARITY[name] == arity]
        hashes.update(layer_hashes(rings(arity), layers)[1])
    return hashes


def main():
    warnings.simplefilter("ignore", FamilyGradingWarning)
    start = time.perf_counter()
    rings, hashes = layer_hashes(corpus())
    print("rings %d" % rings)
    for name, _ in LAYERS:
        print("%s %s" % (name, hashes[name].hexdigest()))
    refusals = layer_hashes(refusal_rings())[1]
    print("refusals %s" % hashlib.sha256(b"".join(h.digest() for h in refusals.values())).hexdigest())
    full = [(name, whole[name].digest()) for whole in (hashes, refusals) for name, _ in LAYERS]
    cut = [(name, part[name].digest()) for part in map(at_arities, (corpus, refusal_rings))
           for name, _ in LAYERS]
    print("arities %s" % hashlib.sha256(b"".join(digest for _, digest in cut)).hexdigest())
    differing = sorted({a for (a, x), (_, y) in zip(full, cut) if x != y})
    for name in differing:
        print("%s differs at arity %d from the full ring" % (name, ARITY[name]), file=sys.stderr)
    print("%.1f s" % (time.perf_counter() - start), file=sys.stderr)
    return int(bool(differing))


if __name__ == "__main__":
    sys.exit(main())
