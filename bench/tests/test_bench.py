"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_workload_runs_one_round_and_prints_the_declared_metrics(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(inputs.WORKLOADS[workload]) * (1 + trace)
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(inputs.WORKLOADS)


@pytest.fixture(scope="module")
def quick_setup(tmp_path_factory):
    runner = run.Runner(run.import_legch(), tmp_path_factory.mktemp("work"))
    return runner, run.set_up("quick", 5, runner, run.HostClock())


def test_a_corrupted_reference_fails_its_jobs_and_only_those(quick_setup):
    runner, setup = quick_setup
    spec = inputs.WORKLOADS["quick"][3]
    good = setup.references[spec]
    setup.references[spec] = good[:-1] + [good[-1] + " "]
    try:
        m = run.Measured()
        run.run_round(setup, runner, m)
    finally:
        setup.references[spec] = good
    assert m.failed == 1 and len(m.times) == len(inputs.WORKLOADS["quick"])
    m = run.Measured()
    run.run_round(setup, runner, m)
    assert m.failed == 0


def test_generated_inputs_are_valid_distinct_disguises():
    from legch.augment import enumerate_augmentations
    from legch.algebra import validate_dga
    from legch.fileio import parse_dga

    for workload, specs in inputs.WORKLOADS.items():
        bases = {spec.base: spec.base.build() for spec in specs}
        jobs = [job for batch in islice(inputs.rounds(workload, 9, bases), 2) for job in batch]
        assert len({job.text for job in jobs}) == len(jobs)
        for job in jobs:
            dga = parse_dga(job.text)
            base = parse_dga(bases[job.spec.base].text())
            assert validate_dga(dga) == []
            assert len(dga.generators) == len(base.generators) + 2 * job.spec.stabs
            assert len(enumerate_augmentations(dga)) == len(enumerate_augmentations(base))


def test_the_same_seed_gives_the_same_inputs_sha256():
    def digest(workload, seed):
        bases = {spec.base: spec.base.build() for spec in inputs.WORKLOADS[workload]}
        stream = inputs.rounds(workload, seed, bases)
        return inputs.inputs_sha256([next(stream) for _ in range(3)])

    for workload in inputs.WORKLOADS:
        assert digest(workload, 7) == digest(workload, 7)
        assert digest(workload, 7) != digest(workload, 8)


def test_the_tail_is_the_highest_percentile_with_ten_jobs_beyond_it():
    times = [float(i) for i in range(1, 201)]
    assert run.tail(times) == (95, 190.0)
    assert run.tail(times[:100]) == (90, 90.0)
    assert run.tail(times[:12]) == (50, 6.0)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work-*", "_out", "__pycache__"))
    proc = _run("quick", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
