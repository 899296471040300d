"""One sha256 per layer over a fixed corpus of rings, so that a refactor can
show in one command that it changed no result.  ``PYTHONPATH=src python
tests/digest.py``, run from the repository root, prints ``rings N`` and one
``layer sha256`` row per layer; two trees give equal rows exactly when every
layer's results are equal on the corpus (up to a hash collision).  The
seconds it took go to stderr.  Pytest does not collect it.

The corpus is ``helpers.proved_rings()`` and the rings of up to three twists
of each of ``helpers.random_dgas(seed, 150)`` for seeds 0, 1 and 2.  Each
ring's value of a layer is written in a canonical form, dicts and sets
sorted, so the digests do not depend on ``PYTHONHASHSEED``; a ``ContractError``
is the value ``refused: <its text>``.
"""

import hashlib
import sys
import time
import warnings

from helpers import proved_rings, random_dgas, twist_firsts
from legch import ContractError
from legch.ainfty import build_ring
from legch.families import FamilyGradingWarning
from legch.fingerprint import cup_rank_table, massey_table, order_dim_table
from legch.tilde import order_n_cohomology


def corpus():
    """The rings of the corpus, in a fixed order."""
    yield from proved_rings()
    for seed in range(3):
        for dga in random_dgas(seed, 150):
            for aug in twist_firsts(dga)[:3]:
                yield build_ring(dga, aug)


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
]


def main():
    warnings.simplefilter("ignore", FamilyGradingWarning)
    start = time.perf_counter()
    hashes = {name: hashlib.sha256() for name, _ in LAYERS}
    rings = 0
    for ring in corpus():
        rings += 1
        for name, layer in LAYERS:
            hashes[name].update(repr(canonical(layer(ring))).encode() + b"\n")
    print("rings %d" % rings)
    for name, _ in LAYERS:
        print("%s %s" % (name, hashes[name].hexdigest()))
    print("%.1f s" % (time.perf_counter() - start), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
