"""End-to-end command-line behaviour: rows, exit codes, determinism."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from legch import ContractError, InternalConsistencyError, ainfty, algebra, cli, fingerprint
from legch.ainfty import MAX_ARITY, MAX_MASSEY_SYSTEMS, MAX_RELATION_TERMS
from legch.augment import MAX_FREE_GENERATORS, enumerate_augmentations, twist
from legch.algebra import DGA, mirror_dga, stabilize
from legch.cli import build_parser, main
from legch.families import cupex, masseyex, trefoil
from legch.fileio import bundled_text, parse_dga, serialize_dga
from helpers import (
    one_ring_per_augmentation,
    order_four_bracket_dga,
    path_dga,
    random_dga,
    random_dgas,
)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.dga"
    path.write_text(bundled_text("trefoil.dga"), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return [line.split(": ", 1) for line in out.splitlines()]


def test_validate_reports_counts(capsys, trefoil_file):
    code, out, err = run_cli(capsys, "validate", trefoil_file)
    assert code == 0 and err == ""
    assert rows_of(out) == [
        ["generators", "5"],
        ["modulus", "0"],
        ["valid", "yes"],
    ]


def test_validate_lists_findings_but_still_exits_zero(capsys, tmp_path):
    path = tmp_path / "broken.dga"
    path.write_text("modulus 0\ngen x 1\ngen y 1\nd x = y\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["valid"] == "no"
    assert "finding.0" in lines


def test_augs_table_frozen(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "augs", trefoil_file)
    assert code == 0
    assert rows_of(out) == [
        ["augmentations", "5"],
        ["augmentation.0", "b3 -> 1"],
        ["augmentation.1", "b2 -> 1, b3 -> 1"],
        ["augmentation.2", "b1 -> 1"],
        ["augmentation.3", "b1 -> 1, b2 -> 1"],
        ["augmentation.4", "b1 -> 1, b2 -> 1, b3 -> 1"],
    ]


def test_augs_note_when_linearization_unavailable(capsys, tmp_path):
    path = tmp_path / "rigid.dga"
    path.write_text("modulus 0\ngen x 1\nd x = 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "augs", str(path))
    assert code == 0
    assert rows_of(out) == [
        ["augmentations", "0"],
        ["note", "no augmentations; linearization unavailable"],
    ]
    code, _, err = run_cli(capsys, "linhom", str(path))
    assert code == 1
    assert err.strip() == "error: no augmentations; linearization unavailable"


def test_linhom_dimensions(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "linhom", trefoil_file)
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["augmentation"] == "b3 -> 1"
    assert lines["cohomology.dim.0"] == "2"
    assert lines["cohomology.dim.1"] == "1"
    assert lines["cohomology.total"] == "3"
    assert lines["homology.dim.0"] == "2"
    assert lines["homology.dim.1"] == "1"
    assert lines["homology.total"] == "3"


def test_linhom_rejects_out_of_range_augmentation(capsys, trefoil_file):
    code, _, err = run_cli(capsys, "linhom", trefoil_file, "--aug", "7")
    assert code == 1
    assert err.strip() == "error: augmentation index 7 out of range; there are 5"


def test_ring_products(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "ring", trefoil_file)
    assert code == 0
    assert rows_of(out) == [
        ["augmentation", "b3 -> 1"],
        ["basis.0", "[b2] [b1+b3]"],
        ["basis.1", "[a1]"],
        ["product.[b2].[b1+b3]", "[a1]"],
        ["product.[b1+b3].[b2]", "[a1]"],
    ]


def test_massey_triple_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "massey", trefoil_file, "--classes", "0:1,0:1,0:1")
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["classes"] == "[b2], [b2], [b2]"
    assert lines["status"] == "defined"
    assert lines["degree"] == "1"
    assert lines["value"] == "0"
    assert lines["indeterminacy.dim"] == "1"
    assert lines["indeterminacy.0"] == "[a1]"
    assert lines["trivial"] == "yes"
    assert lines["systems"] == "1"
    assert lines["truncated"] == "no"
    assert "values" not in lines


def test_massey_undefined_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "massey", trefoil_file, "--classes", "0:1,0:2,0:2")
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["status"] == "undefined"
    assert lines["witness"] == "first pair has nonzero product [a1]"


def test_massey_order_four(capsys, trefoil_file):
    code, out, _ = run_cli(
        capsys, "massey", trefoil_file, "--classes", "0:1,0:1,0:1,0:1"
    )
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["status"] == "defined"
    assert lines["values"] == "2"
    assert lines["systems"] == "256"
    assert lines["trivial"] == "yes"


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("0:1,0:1", "at least 3"),
        ("0:9,0:1,0:1", "not a nonzero vector"),
        ("0:x,0:1,0:1", "DEGREE:MASK"),
        ("0:1,,0:1", "empty class"),
    ],
)
def test_massey_rejects_bad_class_specs(capsys, trefoil_file, spec, fragment):
    code, _, err = run_cli(capsys, "massey", trefoil_file, "--classes", spec)
    assert code == 1
    assert fragment in err


def test_minimal_model_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "minimal", trefoil_file)
    assert code == 0
    assert rows_of(out) == [
        ["augmentation", "b3 -> 1"],
        ["arity", "3"],
        ["basis.0", "[b2] [b1+b3]"],
        ["basis.1", "[a1]"],
        ["m2([b2],[b1+b3])", "[a1]"],
        ["m2([b1+b3],[b2])", "[a1]"],
        ["m3([b2],[b2],[b1+b3])", "[a1]"],
        ["m3([b2],[b1+b3],[b2])", "[a1]"],
        ["relations", "ok up to arity 3"],
        ["inclusion", "ok up to arity 3"],
    ]


def test_minimal_refuses_an_arity_above_the_budget(capsys, trefoil_file):
    code, out, err = run_cli(capsys, "minimal", trefoil_file, "--arity", str(MAX_ARITY + 1))
    assert code == 1
    assert out == ""
    assert "MAX_ARITY = %d" % MAX_ARITY in err


def test_orders_above_the_budget_are_refused_with_its_name(capsys, tmp_path):
    path = tmp_path / "c.dga"
    path.write_text(serialize_dga(cupex(1, 3, 7)), encoding="utf-8")
    for argv in (("ordern", "--n", "5"), ("compare-mirror", "--order-cap", "5")):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, ""), argv
        assert err == "error: order 5 exceeds the budget MAX_ORDER = 4\n", argv


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--massey-order", "-3", "Massey order must be nonnegative"),
        ("--order-cap", "-1", "order cap must be nonnegative"),
    ],
)
def test_compare_mirror_refuses_a_bad_cap_before_enumerating(
    capsys, trefoil_file, monkeypatch, option, value, message
):
    def refuse(dga):
        raise AssertionError("augmentations enumerated")

    monkeypatch.setattr(fingerprint, "enumerate_augmentations", refuse)
    code, out, err = run_cli(capsys, "compare-mirror", option, value, trefoil_file)
    assert (code, out, err) == (1, "", "error: %s\n" % message)
    with pytest.raises(ContractError, match=message):
        fingerprint.fingerprint_dga(trefoil(), **{option[2:].replace("-", "_"): int(value)})


@pytest.mark.parametrize("classes", ["0:1,0:1,0:1", "0:1,0:1,0:1,0:1"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_massey_refuses_a_nonpositive_cap_for_any_class_count(capsys, trefoil_file, classes, cap):
    """There is no system cap any more: ``--max-systems`` is a usage error."""
    code, out, err = run_cli(
        capsys, "massey", trefoil_file, "--classes", classes, "--max-systems", cap
    )
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --max-systems %s\n" % cap


@pytest.mark.parametrize("command", ["massey --classes 0:1,0:1,0:1,0:1", "compare-mirror"])
def test_max_systems_is_a_usage_error(capsys, trefoil_file, command):
    code, out, err = run_cli(capsys, *command.split(), trefoil_file, "--max-systems", "64")
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --max-systems 64\n")


def test_massey_walks_over_the_budget_are_refused_before_any_walk(capsys, trefoil_file, monkeypatch):
    """Trefoil's rings take 4,928,414 inner systems at orders 4 and 5, and six
    degree-0 classes 4^12 in one walk; the budget is counted first."""

    def refuse(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(fingerprint, "_BracketWalk", refuse)
    monkeypatch.setattr(cli, "massey_higher", refuse)
    for argv in (
        ("compare-mirror", "--massey-order", "5"),
        ("massey", "--classes", ",".join(["0:1"] * 6)),
    ):
        code, out, err = run_cli(capsys, *argv, trefoil_file)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: the Massey brackets take at least "), argv
        assert err.endswith(" over the budget MAX_MASSEY_SYSTEMS = %d\n" % MAX_MASSEY_SYSTEMS)


def test_the_massey_budget_counts_the_inner_systems_the_walk_visits(capsys, tmp_path):
    """Four degree-0 classes over five free degree-0 generators walk 2^15
    inner systems, admitted, and report the 2^25 complete ones; over seven
    generators they would walk 2^21, refused."""
    for k, code_want in ((5, 0), (7, 1)):
        path = tmp_path / ("free%d.dga" % k)
        path.write_text("modulus 0\n" + "".join("gen b%d 0\n" % i for i in range(k)))
        code, out, err = run_cli(capsys, "massey", "--classes", "0:1,0:1,0:1,0:1", str(path))
        assert code == code_want, err
        if code:
            assert (out, err) == ("", "error: the Massey brackets take at least 2097152 defining"
                                  " systems, over the budget MAX_MASSEY_SYSTEMS = 1048576\n")
        else:
            assert ["systems", "33554432"] in rows_of(out)


def test_a_massey_table_over_the_budget_is_refused_at_once(capsys, tmp_path, monkeypatch):
    """One generator per degree 1..k and no differential: 41 degrees, or 20 at
    order 4, give more than 2^16 admitted degree tuples."""

    def refuse(*args):
        raise AssertionError("a transfer ran")

    monkeypatch.setattr(ainfty, "transfer_minimal_model", refuse)
    for k, argv in ((41, ()), (20, ("--massey-order", "4"))):
        path = tmp_path / ("free%d.dga" % k)
        path.write_text("modulus 0\n" + "".join("gen a%d %d\n" % (i, i) for i in range(1, k + 1)))
        code, out, err = run_cli(capsys, "compare-mirror", *argv, str(path))
        assert (code, out) == (1, ""), k
        assert err.startswith("error: the Massey table has at least "), k
        assert err.endswith(" over the budget MAX_MASSEY_TUPLES = 65536\n"), k


def test_compare_mirror_on_trefoil_at_massey_order_4_is_pinned(capsys, trefoil_file):
    """Every byte of the order-4 report, as the chain-level walk printed it."""
    code, out, _ = run_cli(capsys, "compare-mirror", "--massey-order", "4", trefoil_file)
    assert code == 0
    pinned = os.path.join(os.path.dirname(__file__), "data", "trefoil_compare_mirror_order4.txt")
    with open(pinned, encoding="utf-8") as fh:
        assert out == fh.read()


def test_compare_mirror_needs_order_4_to_tell_the_order_four_bracket_dga(capsys, tmp_path):
    """The paper's application at order 4: brackets of order 3 and below
    miss the difference, the order-4 bracket in degrees (1, 2, 3, 4) finds it."""
    path = tmp_path / "abce.dga"
    path.write_text(serialize_dga(order_four_bracket_dga()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "compare-mirror", "--massey-order", "3", str(path))
    assert code == 0
    assert rows_of(out)[0] == ["verdict", "INDISTINGUISHABLE-BY-THESE-INVARIANTS"]
    code, out, _ = run_cli(capsys, "compare-mirror", "--massey-order", "4", str(path))
    assert code == 0
    assert rows_of(out)[:2] == [
        ["verdict", "DISTINGUISHED"],
        [
            "witness",
            "Massey bracket summary (defined, nonzero) in degree tuple (4, (1, 2, 3, 4)):"
            " [(True, True)] vs [(True, False)]",
        ],
    ]


def test_augs_refuses_more_free_generators_than_the_budget(capsys, tmp_path):
    path = tmp_path / "wide.dga"
    count = MAX_FREE_GENERATORS + 1
    path.write_text(
        "modulus 0\n" + "".join("gen x%d 0\n" % i for i in range(count)), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "augs", str(path))
    assert code == 1
    assert out == ""
    assert "(%d)" % count in err
    assert "over the budget MAX_FREE_GENERATORS = %d" % MAX_FREE_GENERATORS in err


def test_linhom_admits_twists_whose_relation_check_is_over_the_budget(capsys, tmp_path):
    """Augmentation 5 of this draw twists into a structure whose relation check
    takes 21546201 terms.  ``build_ring`` proves the relations rather than
    checking them, so ``linhom`` prints its rows, while ``adjoint_structure``,
    which checks them, still refuses with the budget's name."""
    dga = random_dga(random.Random(1), 6, moduli=(1,))
    path = tmp_path / "long_words.dga"
    path.write_text(serialize_dga(dga), encoding="utf-8")
    code, out, err = run_cli(capsys, "linhom", str(path), "--aug", "5")
    assert code == 0 and out and err == ""
    twisted = twist(dga, enumerate_augmentations(dga)[5])
    with pytest.raises(ContractError, match="take 21546201 terms") as refused:
        ainfty.adjoint_structure(twisted)
    assert "MAX_RELATION_TERMS = %d" % MAX_RELATION_TERMS in str(refused.value)


def test_ordern_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "ordern", trefoil_file, "--n", "2")
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["order"] == "2"
    assert lines["engine"] == "dense"
    assert lines["complex.dim"] == "30"
    assert int(lines["transpose.entries"]) > 0
    assert lines["dim.0"] == "5"
    assert lines["dim.1"] == "4"
    assert lines["dim.2"] == "1"
    assert lines["total"] == "10"


def test_ordern_validation_errors(capsys, trefoil_file):
    code, _, err = run_cli(capsys, "ordern", trefoil_file, "--n", "0")
    assert code == 1 and "order must be at least 1" in err
    code, _, err = run_cli(capsys, "ordern", trefoil_file, "--engine", "magic")
    assert code == 1 and "invalid choice" in err


def test_duality_failure_rows(capsys, tmp_path):
    path = tmp_path / "path6.dga"
    path.write_text(serialize_dga(path_dga(6)), encoding="utf-8")
    code, out, err = run_cli(capsys, "duality", str(path))
    assert code == 0 and err == ""
    assert rows_of(out) == [
        ["augmentation", "all generators -> 0"],
        ["status", "no certificate"],
        ["reason", "no (kappa, c, complement) choice yields a symmetric nondegenerate pairing"],
        ["pairs.tried", "496"],
        ["complements.tried", "7936"],
    ]


def test_duality_certificate_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "duality", trefoil_file)
    assert code == 0
    assert rows_of(out) == [
        ["augmentation", "b3 -> 1"],
        ["status", "certificate"],
        ["kappa", "[a1+a2]"],
        ["c", "[a1]"],
        ["complement.0", "degree 0 class [b2]"],
        ["complement.1", "degree 0 class [b1+b3]"],
        ["gram.0", "0 1"],
        ["gram.1", "1 0"],
    ]


def test_mirror_emits_a_reversed_dga_file(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "mirror", trefoil_file)
    assert code == 0
    assert out == serialize_dga(mirror_dga(trefoil()))
    assert "d a1 = 1 + b1 + b3 + b3 b2 b1" in out
    assert parse_dga(out) == mirror_dga(trefoil())


def test_family_trefoil_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "family", "trefoil")
    assert code == 0
    assert out == serialize_dga(trefoil())
    assert parse_dga(out) == trefoil()


def test_family_cupex_with_params(capsys):
    code, out, _ = run_cli(capsys, "family", "cupex", "--params", "1,3,7")
    assert code == 0
    assert not out.startswith("#")
    assert parse_dga(out) == cupex(1, 3, 7)


def test_family_warnings_become_comments(capsys):
    code, out, _ = run_cli(capsys, "family", "cupex", "--params", "2,2,5")
    assert code == 0
    head = out.splitlines()[0]
    assert head.startswith("# warning: cupex(2,2,5) grading collision")
    parsed = parse_dga(out)  # comments are skipped by the parser
    assert len(parsed.generators) == 13 + 2 * (2 + 2 + 5)


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("family", "cupex", "--params", "1,3"), "cupex takes 3"),
        (("family", "nosuch"), "unknown family"),
        (("family", "cupex", "--params", "1,x,3"), "comma-separated integers"),
        (("linhom", "/nonexistent/path.dga"), "cannot read"),
        (("frobnicate",), "invalid choice"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert fragment in err


def test_undecodable_input_file_exits_one_without_a_traceback(tmp_path):
    path = tmp_path / "bad.dga"
    path.write_bytes(b"modulus 0\ngen a \xff\xfe 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "legch", "validate", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_pipe_exits_one_without_a_traceback(tmp_path):
    # 20000 findings make 1.5 MB of report rows, far more than a pipe buffer,
    # so the child is still writing rows when the reader closes its end.
    path = tmp_path / "inhomogeneous.dga"
    gens = "".join("gen g%d 0\n" % i for i in range(20000))
    diffs = "".join("d g%d = 1\n" % i for i in range(20000))
    path.write_text("modulus 0\n" + gens + diffs, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "legch", "validate", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(1) == b"g"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert err == b""


def test_mirror_on_a_closed_stdout_pipe_exits_one(tmp_path):
    # 20000 generators, each with a differential, make about 1 MB of mirror
    # output, far more than a pipe buffer.
    n = 20000
    path = tmp_path / "wide.dga"
    lines = ["modulus 0"]
    lines += ["gen a%d 1" % i for i in range(n)] + ["gen b%d 0" % i for i in range(n)]
    lines += ["d a%d = b%d b%d" % (i, i, (i + 1) % n) for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "legch", "mirror", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(1) == b"m"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""


_TOKENS = st.sampled_from(
    ["gen", "d", "=", "+", "0", "1", "-2", "7", "a", "b", "a1", "b_2", "x y", "#", "9" * 40]
)
_GRAMMAR_TEXT = st.builds(
    lambda head, lines: "\n".join([head] + lines),
    st.sampled_from(["modulus 0", "modulus 3", "modulus -1", "modulus x", ""]),
    st.lists(st.lists(_TOKENS, max_size=7).map(" ".join), max_size=8),
)


@given(st.one_of(st.text(max_size=200), _GRAMMAR_TEXT))
@settings(deadline=None, max_examples=300)
def test_arbitrary_text_raises_only_contract_errors(text):
    try:
        parse_dga(text)
    except ContractError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.dga")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


def test_internal_failures_exit_two(capsys, trefoil_file, monkeypatch):
    import legch.cli as cli

    def explode(dga, aug):
        raise InternalConsistencyError("synthetic failure")

    monkeypatch.setattr(cli, "build_ring", explode)
    code, _, err = run_cli(capsys, "linhom", trefoil_file)
    assert code == 2
    assert err.strip() == "internal consistency failure: synthetic failure"


def test_compare_mirror_validates_the_knot_and_its_mirror_once_each(capsys, tmp_path, monkeypatch):
    path = tmp_path / "m.dga"
    path.write_text(serialize_dga(masseyex(1, 4, 9, 20)), encoding="utf-8")
    monkeypatch.setattr(algebra, "_VALIDATED", OrderedDict())
    calls = []
    real = algebra.validate_dga
    monkeypatch.setattr(algebra, "validate_dga", lambda dga: calls.append(dga) or real(dga))
    code, out, _ = run_cli(capsys, "compare-mirror", str(path))
    assert code == 0 and "verdict: DISTINGUISHED" in out
    # The knot at load (its order-n builds share that memo), the mirror once.
    assert [c.generators == calls[0].generators for c in calls] == [True, True]
    assert algebra.dga_key(calls[1]) != algebra.dga_key(calls[0])


def test_compare_mirror_rows(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "compare-mirror", trefoil_file)
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["verdict"] == "INDISTINGUISHABLE-BY-THESE-INVARIANTS"
    assert "witness" not in lines
    assert lines["augmentations"] == "5"
    assert lines["knot.0.dims"] == "0:2 1:1"
    assert lines["knot.0.cup_rank.0.0"] == "1"
    assert lines["knot.0.massey.nonzero"] == "0"
    assert lines["knot.0.order1.dims"] == "0:2 1:1"
    assert lines["knot.0.order2.dims"] == "0:5 1:4 2:1"
    assert lines["mirror.4.order2.dims"] == "0:5 1:4 2:1"


def test_report_covers_every_augmentation(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "report", trefoil_file)
    assert code == 0
    lines = dict(rows_of(out))
    assert lines["generators"] == "5"
    assert lines["augmentations"] == "5"
    for i in range(5):
        assert lines["aug.%d.duality" % i] == "certificate"
        assert lines["aug.%d.cohomology.dim.0" % i] == "2"


def _stabilized(dga, count):
    for _ in range(count):
        dga = stabilize(dga, 0)
    return dga


def _twist_group_inputs():
    """Inputs whose augmentations share rings or do not: the bundled bases
    with 0-3 degree-0 stabilizations, k free degree-0 generators with d = 0
    (2^k augmentations, one twist) and seeded draws."""
    for base in (trefoil(), cupex(1, 3, 7), masseyex(1, 4, 9, 20)):
        for count in range(4):
            yield _stabilized(base, count)
    for k in range(9):
        names = tuple("b%d" % i for i in range(k))
        yield DGA(0, names, dict.fromkeys(names, 0), {})
    yield from random_dgas(20261018, 30)


@pytest.mark.filterwarnings("ignore::legch.families.FamilyGradingWarning")
def test_report_and_compare_mirror_equal_one_ring_per_augmentation(capsys, tmp_path):
    path = tmp_path / "in.dga"
    for dga in _twist_group_inputs():
        path.write_text(serialize_dga(dga), encoding="utf-8")
        for command in ("report", "compare-mirror"):
            got = run_cli(capsys, command, str(path))
            with one_ring_per_augmentation():
                want = run_cli(capsys, command, str(path))
            assert got == want, (command, dga)
            assert got[0] == 0


@pytest.mark.parametrize("command", ["report", "compare-mirror"])
def test_the_first_failing_augmentation_names_the_error_as_with_one_ring_each(
    capsys, tmp_path, monkeypatch, command
):
    """A twist that fails on every augmentation with b2 -> 1: trefoil with
    two degree-0 stabilizations puts the first such augmentation, 4 of 20,
    first in its group, so the error names it."""
    path = tmp_path / "in.dga"
    path.write_text(serialize_dga(_stabilized(trefoil(), 2)), encoding="utf-8")
    real_twist = ainfty.twist

    def failing(dga, aug):
        if aug("b2"):
            raise InternalConsistencyError("twist fails on %s" % aug.describe())
        return real_twist(dga, aug)

    monkeypatch.setattr(ainfty, "twist", failing)
    got = run_cli(capsys, command, str(path))
    with one_ring_per_augmentation():
        assert run_cli(capsys, command, str(path)) == got
    assert got == (2, "", "internal consistency failure: twist fails on b2 -> 1, b3 -> 1\n")


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["report", "compare-mirror"])
def test_per_augmentation_rows_are_streamed(tmp_path, command):
    """From 4 to 12 free degree-0 generators (16 to 4096 augmentations, one
    twist) the command's peak grows by under 40 bytes per augmentation: its
    rows are written as they are made, not gathered first, and its
    augmentations are made as they are read, not listed."""
    build_parser()
    codes, peaks = [], []
    for k in (4, 12):
        names = tuple("b%d" % i for i in range(k))
        path = tmp_path / ("free%d.dga" % k)
        path.write_text(serialize_dga(DGA(0, names, dict.fromkeys(names, 0), {})), encoding="utf-8")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            peaks.append(_traced_peak(lambda: codes.append(main([command, str(path)]))))
    assert codes == [0, 0]
    assert peaks[1] <= peaks[0] + 40 * (4096 - 16), peaks


def test_structured_format_changes_only_the_separator(capsys, trefoil_file):
    _, text_out, _ = run_cli(capsys, "linhom", trefoil_file)
    _, structured_out, _ = run_cli(
        capsys, "linhom", trefoil_file, "--format", "structured"
    )
    assert structured_out == text_out.replace(": ", " = ")
    assert " = " in structured_out


def test_repeated_runs_are_byte_identical(capsys, trefoil_file):
    for argv in (
        ("ring", trefoil_file),
        ("report", trefoil_file),
        ("compare-mirror", trefoil_file),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_one_parser_per_process_leaves_each_call_as_a_fresh_run(capsys, monkeypatch, trefoil_file):
    # A usage error and --help leave the parser early; the call after them
    # must still print what a fresh process prints.
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    for argv in (
        ("linhom", trefoil_file),
        ("ordern", "--n", "x", trefoil_file),
        ("--help",),
        ("ring", "--format", "structured", trefoil_file),
    ):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "legch", *argv], capture_output=True, text=True, timeout=120
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_subprocess_runs_agree_across_hash_seeds(trefoil_file):
    outputs = []
    for seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "legch", "ring", trefoil_file],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"product.[b2].[b1+b3]" in outputs[0]
