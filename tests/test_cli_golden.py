"""Golden CLI output: stdout and exit code of 13 commands on three inputs.

``cli_golden.json`` pins every byte the CLI writes to stdout, and its exit
code, for each command on the bundled trefoil, cupex(1,3,7) and
masseyex(1,4,9,20).  Any change to rendering, row order or a computed
value fails here.
"""

import json
import os

import pytest

from legch.cli import main
from legch.families import generate_family
from legch.fileio import serialize_dga

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

INPUTS = {
    "trefoil": ((), "0:1,0:1,0:1"),
    "cupex": ((1, 3, 7), "-7:1,-5:1,-3:1"),
    "masseyex": ((1, 4, 9, 20), "-6:1,-11:1,20:1"),
}


def cases():
    """(case id, argv with FILE standing for the input's path)."""
    out = []
    for name, (params, classes) in INPUTS.items():
        family = ["family", name]
        if params:
            family += ["--params", ",".join(map(str, params))]
        commands = [
            ["validate", "FILE"],
            ["augs", "FILE"],
            ["linhom", "FILE"],
            ["ring", "FILE"],
            ["massey", "FILE", "--classes=" + classes],
            ["minimal", "FILE"],
            ["ordern", "FILE", "--n", "2"],
            ["ordern", "FILE", "--n", "2", "--engine", "dense"],
            ["duality", "FILE"],
            ["mirror", "FILE"],
            family,
            ["compare-mirror", "FILE"],
            ["report", "FILE"],
        ]
        for argv in commands:
            out.append(("%s:%s" % (name, " ".join(argv[:1] + argv[2:])), name, argv))
    return out


def run_case(capsys, tmp_path, name, argv):
    params = INPUTS[name][0]
    path = tmp_path / ("%s.dga" % name)
    if not path.exists():
        path.write_text(serialize_dga(generate_family(name, params)), encoding="utf-8")
    code = main([str(path) if a == "FILE" else a for a in argv])
    return {"exit": code, "stdout": capsys.readouterr().out}


CASES = cases()
with open(GOLDEN, encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def test_golden_covers_every_case():
    assert sorted(EXPECTED) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, tmp_path, case_id, name, argv):
    assert run_case(capsys, tmp_path, name, argv) == EXPECTED[case_id]
