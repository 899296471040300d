"""Acceptance suite: one test per advertised guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  Every test here completes in well under a minute.
"""

import os
import random
import subprocess
import sys

import pytest

from legch import fingerprint
from legch.ainfty import (
    HClass,
    adjoint_structure,
    build_ring,
    check_ainfty_morphism,
    check_an_relations,
    cup_product,
    massey_triple,
    transfer_minimal_model,
)
from legch.algebra import mirror_dga, stabilize
from legch.augment import enumerate_augmentations, extend_by_zero, transport, twist
from legch.cli import main
from legch.families import bundled_examples, cupex, masseyex, trefoil
from legch.fileio import serialize_dga
from legch.fingerprint import cup_rank_table, massey_table
from legch.linear import duality_search, homology
from legch.tilde import check_order_n_transpose, tilde_complex

from helpers import _apply_if_small, apply, random_augmented_dga, random_elementary_iso
from theorems import dense_order_n, reflection_compare, splitting_check_n2


@pytest.fixture(scope="module")
def dga_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("dgas")
    paths = {}
    for name, dga in [("trefoil", trefoil()), ("cupex", cupex(1, 3, 7))]:
        path = root / ("%s.dga" % name)
        path.write_text(serialize_dga(dga), encoding="utf-8")
        paths[name] = str(path)
    return paths


def cli_rows(capsys, *argv):
    assert main(list(argv)) == 0
    return dict(
        line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
    )


def degree_labelled_classes(ring):
    """label -> HClass for every one-dimensional degree of the cochain homology."""
    out = {}
    for k, d in ring.cochain.dims().items():
        for i in range(d):
            out[ring.cochain.label(k, 1 << i)] = HClass(k, 1 << i)
    return out


def test_criterion_1_trefoil_augmentations_dimensions_and_products(capsys, dga_files):
    rows = cli_rows(capsys, "augs", dga_files["trefoil"])
    assert rows["augmentations"] == "5"

    # the first augmentation is the one sending b3 to 1 and the rest to 0
    assert rows["augmentation.0"] == "b3 -> 1"
    rows = cli_rows(capsys, "linhom", dga_files["trefoil"], "--aug", "0")
    assert rows["cohomology.dim.1"] == "1"
    assert rows["cohomology.dim.0"] == "2"

    rows = cli_rows(capsys, "ring", dga_files["trefoil"], "--aug", "0")
    assert rows["basis.0"] == "[b2] [b1+b3]"
    assert rows["basis.1"] == "[a1]"
    assert rows["product.[b2].[b1+b3]"] == "[a1]"
    assert rows["product.[b1+b3].[b2]"] == "[a1]"

    # exact equality for every product of basis classes: only those two survive
    ring = build_ring(trefoil(), enumerate_augmentations(trefoil())[0])
    h = ring.cochain
    basis = [(k, 1 << i) for k in (0, 1) for i in range(h.dim(k))]
    nonzero = {}
    for kx, x in basis:
        for ky, y in basis:
            prod = cup_product(h, ring.structure, HClass(kx, x), HClass(ky, y))
            if prod.coords:
                nonzero[(h.label(kx, x), h.label(ky, y))] = h.label(
                    prod.degree, prod.coords
                )
    assert nonzero == {
        ("[b2]", "[b1+b3]"): "[a1]",
        ("[b1+b3]", "[b2]"): "[a1]",
    }


def test_criterion_2_trefoil_operation_tables_entry_for_entry():
    dga = trefoil()
    aug = enumerate_augmentations(dga)[0]
    s = adjoint_structure(twist(dga, aug))
    assert s.basis == {0: ("b1", "b2", "b3"), 1: ("a1", "a2")}
    assert s.arity == 3
    assert set(s.tables) == {1, 2, 3}  # every operation of arity >= 4 vanishes
    assert s.tables[1] == {("b1",): 0b11, ("b3",): 0b11}
    assert s.tables[2] == {("b1", "b2"): 0b01, ("b2", "b1"): 0b10}
    assert s.tables[3] == {("b1", "b2", "b3"): 0b01, ("b3", "b2", "b1"): 0b10}


def test_criterion_3_relations_and_morphism_equations():
    jobs = [build_ring(dga, enumerate_augmentations(dga)[0]) for _, dga in bundled_examples()]
    rng = random.Random(20260818)
    for _ in range(25):
        dga, aug, ring = random_augmented_dga(rng, max_gens=8)
        assert len(dga.generators) <= 8
        jobs.append(ring)
    for ring in jobs:
        s = ring.structure
        report = check_an_relations(s, 4)
        assert report.ok, report
        mu, f = transfer_minimal_model(ring.cochain, s, 3)
        morphism = check_ainfty_morphism(f, mu, s, 3)
        assert morphism.ok, morphism


def test_criterion_4_cup_products_distinguish_cupex_from_its_mirror(capsys, dga_files):
    assert main(["compare-mirror", dga_files["cupex"]]) == 0
    out = capsys.readouterr().out
    rows = dict(line.split(": ", 1) for line in out.splitlines())
    assert rows["verdict"] == "DISTINGUISHED"
    assert "rank of the cup product" in rows["witness"]

    dga = cupex(1, 3, 7)
    ring = build_ring(dga, enumerate_augmentations(dga)[0])
    cls = degree_labelled_classes(ring)
    h, s = ring.cochain, ring.structure

    def cup(x, y):
        prod = cup_product(h, s, cls[x], cls[y])
        return h.label(prod.degree, prod.coords) if prod.coords else "0"

    assert cup("[c1]", "[b2]") == "[a2]"
    assert cup("[a1]", "[c1]") == "[b1]"
    assert cup("[b2]", "[a1]") == "[c2]"
    for left, right in [("[a1]", "[a2]"), ("[b1]", "[b2]"), ("[c1]", "[c2]")]:
        assert cup(left, right) == "[t0]"
        assert cup(right, left) == "[t0]"


def test_criterion_5_massey_products_distinguish_masseyex_from_its_mirror(monkeypatch):
    dga = masseyex(1, 4, 9, 20)
    aug = enumerate_augmentations(dga)[0]
    mirror = mirror_dga(dga)
    maug = enumerate_augmentations(mirror)[0]
    ring = build_ring(dga, aug)
    mring = build_ring(mirror, maug)

    # cup-level fingerprints of the two sides agree
    assert ring.cochain.dims() == mring.cochain.dims()
    assert cup_rank_table(ring) == cup_rank_table(mring)

    cls = degree_labelled_classes(ring)
    h, s = ring.cochain, ring.structure
    first = massey_triple(h, s, cls["[c0]"], cls["[c1]"], cls["[b2]"])
    assert first.defined and not first.is_trivial()
    assert (first.degree, first.value) == (cls["[a2]"].degree, cls["[a2]"].coords)
    second = massey_triple(h, s, cls["[a1]"], cls["[c0]"], cls["[c1]"])
    assert second.defined and not second.is_trivial()
    assert (second.degree, second.value) == (cls["[b1]"].degree, cls["[b1]"].coords)

    # the mirror admits no defined nonzero bracket in those ordered degree triples
    mcls = degree_labelled_classes(mring)
    mh, ms = mring.cochain, mring.structure
    for degrees in [(-6, -11, 20), (-4, -6, -11)]:
        args = [next(c for c in mcls.values() if c.degree == k) for k in degrees]
        result = massey_triple(mh, ms, *args)
        assert not (result.defined and not result.is_trivial())
    monkeypatch.setattr(fingerprint, "DEFAULT_MAX_TUPLES", 400000)
    table = massey_table(mring, 3)
    assert table[(3, (-6, -11, 20))] == (True, False)
    assert table[(3, (-4, -6, -11))] == (True, False)


def test_criterion_6_duality_certificates_and_dimension_relations():
    dga = trefoil()
    for i, aug in enumerate(enumerate_augmentations(dga)):
        cert = duality_search(build_ring(dga, aug))
        assert cert.ok
        if i == 0:
            assert cert.gram == [[0, 1], [1, 0]]

    cup = cupex(1, 3, 7)
    caug = enumerate_augmentations(cup)[0]
    cert = duality_search(build_ring(cup, caug))
    assert cert.ok
    labels = [(k, lbl) for k, _, lbl in cert.complement]
    assert labels == [
        (-7, "[b1]"),
        (-5, "[c1]"),
        (-3, "[a1]"),
        (3, "[a2]"),
        (5, "[c2]"),
        (7, "[b2]"),
    ]
    size = len(labels)
    for i in range(size):
        for j in range(size):
            assert cert.gram[i][j] == (1 if i + j == size - 1 else 0)

    for _, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            codims = ring.cochain.dims()
            homdims = ring.chain.dims()
            for k in set(codims) | {-v for v in homdims}:
                lhs = codims.get(k, 0)
                rhs = homdims.get(-k, 0)
                if k == 1:
                    assert lhs == rhs + 1
                elif k == -1:
                    assert lhs + 1 == rhs
                else:
                    assert lhs == rhs


def test_criterion_7_order_n_cohomology_suite():
    for _, dga in bundled_examples():
        for aug in enumerate_augmentations(dga):
            ring = build_ring(dga, aug)
            # bit-exact transpose agreement at every order up to 3
            for n in (1, 2, 3):
                result = dense_order_n(ring, n)
                assert result.transpose_entries > 0
                if len(dga.generators) <= 5:
                    entries = check_order_n_transpose(ring, n)
                    assert entries == result.transpose_entries

            # the minimal model computes the same order-n dimensions
            mu, _ = transfer_minimal_model(ring.cochain, ring.structure, 3)
            for n in (1, 2, 3):
                small = tilde_complex(mu, n)
                want = dense_order_n(ring, n)
                assert homology(small.differential).dims() == want.dims

            # order-2 splitting identity per degree
            report = splitting_check_n2(ring)
            assert report.ok, report

        # knot and mirror have equal order-n dimensions
        for n in (2, 3):
            reflection = reflection_compare(dga, n)
            assert reflection.ok
            for row in reflection.rows:
                assert row.dims == row.mirror_dims


def test_criterion_8_invariance_under_stabilization_and_isomorphism():
    for _, dga in bundled_examples():
        augs = enumerate_augmentations(dga)
        for aug in augs:
            base = build_ring(dga, aug).cochain.dims()
            bigger = stabilize(dga, 2)
            extended = extend_by_zero(aug, bigger)
            assert build_ring(bigger, extended).cochain.dims() == base

        # 50 accepted random elementary isomorphisms, augmentation transported
        rng = random.Random(99)
        aug = augs[0]
        base = build_ring(dga, aug).cochain.dims()
        accepted = 0
        current, current_aug = dga, aug
        while accepted < 50:
            if accepted % 10 == 0:
                current, current_aug = dga, aug  # restart to keep terms small
            iso = random_elementary_iso(rng, current)
            if iso is None:
                continue
            bigger = _apply_if_small(current, iso, budget=600)
            if bigger is None:
                continue
            current_aug = transport(current_aug, current, iso.target, iso.shift)
            current = bigger
            accepted += 1
            assert build_ring(current, current_aug).cochain.dims() == base

    # transferred mu_3 agrees with the direct triple bracket when defined
    for _, dga in bundled_examples():
        aug = enumerate_augmentations(dga)[0]
        ring = build_ring(dga, aug)
        h, s = ring.cochain, ring.structure
        mu, _ = transfer_minimal_model(h, s, 3)
        classes = [
            HClass(k, 1 << i) for k in sorted(h.dims()) for i in range(h.dim(k))
        ]
        checked = 0
        for x in classes:
            for y in classes:
                for z in classes:
                    result = massey_triple(h, s, x, y, z)
                    if not result.defined:
                        continue
                    key = tuple(
                        h.label(c.degree, c.coords) for c in (x, y, z)
                    )
                    _, vec = apply(mu, 
                        [(x.degree, x.coords), (y.degree, y.coords), (z.degree, z.coords)]
                    )
                    assert vec == result.value, key
                    checked += 1
        assert checked > 0


def test_criterion_9_cli_output_is_deterministic(capsys, dga_files):
    path = dga_files["trefoil"]
    commands = [
        ("validate", path),
        ("augs", path),
        ("linhom", path),
        ("ring", path),
        ("massey", path, "--classes", "0:1,0:1,0:1"),
        ("minimal", path),
        ("ordern", path, "--n", "2"),
        ("duality", path),
        ("mirror", path),
        ("family", "cupex", "--params", "1,3,7"),
        ("compare-mirror", path),
        ("report", path),
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            assert main(list(argv)) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], argv
        assert runs[0]

    # fresh interpreters with different hash seeds and thread counts agree
    for argv in commands:
        outputs = []
        for seed, threads in (("0", "1"), ("1042", "4")):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-m", "legch", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
