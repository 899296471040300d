"""Closed-loop benchmark of the ``legch`` command line.

One client, one job at a time, in this process: each job calls
``legch.cli.main(argv)`` on a generated ``.dga`` file, and its output is
checked against the output of the job's base input (see ``inputs.py``).
Times are wall-clock times scaled to a reference host speed (see
``HostClock``); the raw wall-clock figures are printed too.

    python3 bench/run.py --workload mirror --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced rounds with rounds traced per layer and prints the per-layer
metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The ``legch`` package is imported from ``src/`` next to this directory.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from inputs import CUPEX_137, MASSEYEX_1_4_9_20, TREFOIL, WORKLOADS, Base, Job  # noqa: E402
from tracer import Tracer  # noqa: E402

# On a VM whose host CPUs are shared, the speed of pure-Python code can swing
# by tens of percent within seconds.  So every time the benchmark reports is
# scaled to a reference speed: multiplied by CAL_REF_S over the time of a
# fixed probe loop, probed just before and just after the timed interval.
# CAL_REF_S is about the probe's time on a 2-vCPU VM at 2.1 GHz.
CAL_ITERATIONS = 5000
CAL_REF_S = 0.0012

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Rounds generated during set-up and covered by inputs.sha256.  Later rounds
# continue the same seeded stream and are generated outside the timed
# region.
POOL_ROUNDS = 10
# A run is a fixed number of rounds: --seconds over the workload's round
# time (scaled job time of one round) at the commit that defined the
# benchmark.  So every run of a seed does the same jobs, on every commit,
# and a faster program finishes sooner.
ROUND_S = {"mirror": 2.5, "ordern": 2.7, "minimal": 3.4, "quick": 0.22}
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# Rows that depend on the presentation rather than on the invariants:
# augmentation descriptions, word counts of the order-n complex, the engine
# chosen from |V|, and transferred operations of arity >= 3, which the
# disguise changes up to A-infinity isomorphism (the CLI itself checks the
# A-infinity relations and the inclusion morphism and exits 2 if they fail).
EXCLUDED_KEY = re.compile(
    r"(augmentation(\.\d+)?|aug\.\d+|complex\.dim|transpose\.entries|engine|m([3-9]|\d\d+)\(.*\))\Z"
)
# Values the test suite pins, checked on base outputs during set-up.
PINNED: Dict[str, List[Tuple[Tuple[str, ...], Base, str]]] = {
    "mirror": [
        (("compare-mirror",), CUPEX_137, "verdict: DISTINGUISHED"),
        (("compare-mirror",), MASSEYEX_1_4_9_20, "verdict: DISTINGUISHED"),
    ],
    "ordern": [
        (("ordern", "--n", "3"), CUPEX_137, "complex.dim: 44135"),
        (("ordern", "--n", "3"), CUPEX_137, "transpose.entries: 106531"),
        (("ordern", "--n", "2"), MASSEYEX_1_4_9_20, "complex.dim: 7656"),
        (("ordern", "--n", "2"), MASSEYEX_1_4_9_20, "transpose.entries: 13523"),
    ],
    "minimal": [],
    "quick": [(("augs",), TREFOIL, "augmentations: 5")],
}


def import_legch():
    """Import ``legch.cli`` from this checkout's ``src``, or exit."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import legch.cli
    except ImportError as exc:
        raise SystemExit("bench: cannot import legch from %s: %s" % (src, exc))
    if Path(legch.cli.__file__).resolve().parent != (src / "legch").resolve():
        raise SystemExit("bench: imported legch from %s, not %s" % (legch.cli.__file__, src))
    return legch.cli


def comparable(output: str, added_generators: int) -> List[str]:
    """The rows of a report that must match the base's, byte for byte."""
    rows = []
    for line in output.splitlines():
        key, _, value = line.partition(": ")
        if EXCLUDED_KEY.match(key):
            continue
        if key == "generators" and value.isdigit():
            line = "generators: %d" % (int(value) - added_generators)
        rows.append(line)
    return rows


def probe_s() -> float:
    """Time of a fixed loop of dict and int work.

    It allocates no object the garbage collector tracks, so its time does
    not depend on how much memory the jobs before it left behind.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) ^ i
        acc ^= i * 7
    return time.perf_counter() - start


class HostClock:
    """Scales consecutive intervals to the reference host speed.

    Each ``lap`` probes the host and returns the speed factor for the
    interval since the previous lap: CAL_REF_S over the mean of the probes
    at its two ends.  ``total`` sums the scaled intervals; probe time is in
    none of them.
    """

    def __init__(self):
        self.total = 0.0
        self._probe = probe_s()
        self._start = time.perf_counter()

    def lap(self) -> float:
        elapsed = time.perf_counter() - self._start
        after = probe_s()
        factor = 2 * CAL_REF_S / (self._probe + after)
        self.total += elapsed * factor
        self._probe, self._start = after, time.perf_counter()
        return factor


class Runner:
    """Runs CLI jobs in-process on files in a private work directory."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.path = str(work / "job.dga")

    def run(self, argv: Sequence[str], text: str, tracer: Optional[Tracer] = None) -> Tuple[int, str, float]:
        """Exit code, stdout and wall time of one job."""
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        args = [*argv, self.path]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.job(self.cli.main, args) if tracer else self.cli.main(args)
            except Exception as exc:  # a traceback is a failed job, not a failed run
                print("job raised %r" % exc, file=sys.__stderr__)
                code = -1
        return code, out.getvalue(), time.perf_counter() - start


@dataclass
class Setup:
    references: Dict[inputs.Spec, List[str]]
    stream: Iterator[List[Job]]
    sha256: str
    problems: List[str]
    seconds: float


def set_up(workload: str, seed: int, runner: Runner, clock: HostClock) -> Setup:
    """Bases, reference outputs, pinned-value checks and the input pool.

    The reference runs go through the same code as the jobs, so they also
    serve as the warm-up.  ``clock`` was started before ``legch`` was
    imported; its laps after each reference run and at the end time the
    set-up.
    """
    specs = WORKLOADS[workload]
    bases = {spec.base: spec.base.build() for spec in specs}
    problems = []
    outputs: Dict[Tuple[Tuple[str, ...], Base], str] = {}

    def base_output(argv, base) -> str:
        if (argv, base) not in outputs:
            text = bases[base].text() if base in bases else base.build().text()
            code, out, _ = runner.run(argv, text)
            clock.lap()
            if code != 0:
                problems.append("%s %s exits %s on its base input" % (" ".join(argv), base.name, code))
            outputs[(argv, base)] = out
        return outputs[(argv, base)]

    references = {spec: comparable(base_output(spec.argv, spec.base), 0) for spec in specs}
    for argv, base, row in PINNED[workload]:
        if row not in base_output(argv, base).splitlines():
            problems.append("%s %s lacks the pinned row %r" % (" ".join(argv), base.name, row))
    stream = inputs.rounds(workload, seed, bases)
    pool = list(itertools.islice(stream, POOL_ROUNDS))
    clock.lap()
    return Setup(references, itertools.chain(pool, stream), inputs.inputs_sha256(pool), problems, clock.total)


@dataclass
class Measured:
    """Job times scaled to the reference host speed, and the raw wall times."""

    times: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    failed: int = 0
    rounds: int = 0


def run_round(setup: Setup, runner: Runner, m: Measured, tracer: Optional[Tracer] = None) -> None:
    """Run the next round of jobs, probing host speed around each, and check each output."""
    clock = HostClock()
    for job in next(setup.stream):
        code, out, elapsed = runner.run(job.spec.argv, job.text, tracer)
        m.times.append(elapsed * clock.lap())
        m.wall.append(elapsed)
        if code != 0 or comparable(out, 2 * job.spec.stabs) != setup.references[job.spec]:
            m.failed += 1
            print("failed: %s (exit %s)" % (job.spec.name, code))
    m.rounds += 1


def tail(times: Sequence[float]) -> Tuple[float, float]:
    """(p, time at p) for the highest p in a fixed ladder with at least ten jobs beyond it.

    Nearest rank; with fewer than 20 jobs it falls back to the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            break
    else:
        p, rank = 50, -(-n // 2)
    return p, ordered[int(rank) - 1]


def setup_samples(workload: str, seed: int) -> List[float]:
    """Set-up times of fresh processes that set up the same workload and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit("bench: set-up process failed:\n%s" % proc.stderr)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(setup: Setup, m: Measured, workload: str, seed: int) -> Dict[str, float]:
    p, tail_s = tail(m.times)
    setups = [setup.seconds] + setup_samples(workload, seed)
    print("%d rounds, %.3f s of scaled job time" % (m.rounds, sum(m.times)))
    print("latency_tail_s is p%g of %d jobs" % (p, len(m.times)))
    print("setup_s samples: %s" % " ".join("%.4f" % s for s in setups))
    print("wall clock: p50 %.4f s, p%g %.4f s, %.4f jobs/s"
          % (statistics.median(m.wall), p, tail(m.wall)[1], len(m.wall) / sum(m.wall)))
    return {
        "latency_p50_s": statistics.median(m.times),
        "latency_tail_s": tail_s,
        "jobs_per_s": len(m.times) / sum(m.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(setup: Setup, runner: Runner, rounds: int, workload: str, seed: int) -> Tuple[Measured, Dict[str, float]]:
    """Alternate untraced and traced rounds, so both see the same mix of jobs."""
    plain, traced, tracer = Measured(), Measured(), Tracer()
    while plain.rounds + traced.rounds < rounds:
        run_round(setup, runner, plain)
        tracer.install()
        try:
            run_round(setup, runner, traced, tracer)
        finally:
            tracer.uninstall()
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("spans-%s-%d.jsonl" % (workload, seed)))
    overhead = statistics.mean(traced.times) / statistics.mean(plain.times)
    metrics = tracer.metrics(len(traced.times), overhead, sum(traced.times) / sum(traced.wall))
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print("traced %d jobs, alternating with %d untraced; self times account for %.6f of traced job time"
          % (len(traced.times), len(plain.times), accounted / metrics["trace.job_s"]))
    return Measured(plain.times + traced.times, plain.wall + traced.wall, plain.failed + traced.failed), metrics


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    clock = HostClock()
    cli = import_legch()
    work = HERE / ("_work-%d" % os.getpid())
    work.mkdir()
    try:
        runner = Runner(cli, work)
        setup = set_up(args.workload, args.seed, runner, clock)
        if args.setup_only:
            print(json.dumps({"setup_s": setup.seconds}))
            return 0
        print("inputs.sha256 %s %s (seed %d, first %d rounds of %d jobs)"
              % (args.workload, setup.sha256, args.seed, POOL_ROUNDS, len(WORKLOADS[args.workload])))
        for problem in setup.problems:
            print("set-up problem: %s" % problem)
        rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        if args.trace:
            m, metrics = per_layer(setup, runner, rounds, args.workload, args.seed)
        else:
            m = Measured()
            while m.rounds < rounds:
                run_round(setup, runner, m)
            metrics = end_to_end(setup, m, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%s: %d jobs, %d failed (failed_ratio %g)" % (args.workload, len(m.times), m.failed, m.failed / len(m.times)))
    print(json.dumps({
        "correct": m.failed == 0 and not setup.problems,
        "attempted": len(m.times),
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
