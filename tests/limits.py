"""The limits table: each row runs one ``legch`` command on one input and
checks its exit code, stdout, stderr, wall time and peak RSS; checks across
runs follow.  ``PYTHONPATH=src python tests/limits.py``, run from the
repository root, prints one JSON object per row and check and exits 1 if any
failed.  Pytest does not collect it."""

import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import legch
from helpers import random_dgas
from legch import ContractError
from legch.ainfty import build_ring
from legch.augment import Augmentation
from legch.fileio import parse_dga, serialize_dga

# Children import the legch imported here, by an absolute path: each runs in
# its own temporary directory.
ENV = dict(os.environ, PYTHONPATH=str(Path(legch.__file__).resolve().parents[1]))
DATA = Path(__file__).resolve().parent / "data"

# argv: PIPE ARGS...  A fresh interpreter whose only child is `legch ARGS`, so
# RUSAGE_CHILDREN reads the command's own peak RSS: a child of the runner would
# start its ru_maxrss from the runner's peak.  With PIPE 1 the command's stdout
# is a pipe closed after one byte.  Writes "exit seconds MB" to ./report.
WRAPPER = """import resource, subprocess, sys, time
start, pipe = time.perf_counter(), sys.argv[1] == "1"
proc = subprocess.Popen([sys.executable, "-m", "legch", *sys.argv[2:]],
                        stdout=subprocess.PIPE if pipe else None)
if pipe:
    proc.stdout.read(1)
    proc.stdout.close()
code, seconds = proc.wait(), time.perf_counter() - start
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss >> (10 * (sys.platform == "darwin"))
open("report", "w").write("%d %.3f %.1f" % (code, seconds, kb / 1024))
"""


@dataclass(frozen=True)
class Row:
    """``legch ARGV INPUT`` and what it must do."""

    input: object  # a name in LITERALS, (generator, sizes...), or a legch argv that prints it
    argv: str
    lines: tuple = ()  # each occurs in stdout
    seconds: float = 60
    budget: str = None
    count: int = None  # stdout's line count
    exit: object = 0  # a code, "nonzero", or None where a closed pipe makes it the reader's
    stderr: tuple = None  # ("exact" | "suffix" | "substring", text)
    golden: str = None  # a file under tests/data that stdout equals
    rss_mb: float = None
    pipe: bool = False  # the reader closes stdout after one byte
    env: tuple = ()  # (name, value) pairs

    @property
    def name(self):
        """The row as a shell command."""
        env = "".join("%s=%s " % pair for pair in self.env)
        return "%slegch %s %s%s" % (env, self.argv, _label(self.input), " | head -c 1" * self.pipe)


def _label(spec):
    if isinstance(spec, str):
        return spec + ".dga"
    if callable(spec[0]):
        return "%s(%s)" % (spec[0].__name__, ", ".join(map(str, spec[1:])))
    return "<(legch %s)" % " ".join(_label(a) if isinstance(a, tuple) else a for a in spec)


def row(input, argv, *lines, **checks):
    return Row(input, argv, lines, **checks)


def bound(budget, input, argv, *lines, seconds=10, **checks):
    """A row at or near ``budget``."""
    return Row(input, argv, lines, seconds, budget, **checks)


def refusal(budget, input, argv, stderr=None, seconds=10):
    """Exit 1 on a ``ContractError``, no stdout, stderr ending "over the budget NAME = N"."""
    stderr = stderr or ("suffix", "over the budget %s = %d" % (budget, BUDGETS[budget]))
    return Row(input, argv, (), seconds, budget, count=0, exit=1, stderr=stderr)


def _dga(gens, diffs=(), modulus=0):
    lines = ["modulus %d" % modulus] + ["gen %s %d" % g for g in gens]
    return "".join(line + "\n" for line in lines + ["d %s = %s" % d for d in diffs])


def free_letters(k):
    return _dga(("b%d" % i, 0) for i in range(k))


def two_degrees(k0, k5):
    """k0 free degree-0 and k5 closed degree-5 letters, and no differential."""
    return _dga([("b%d" % i, 0) for i in range(k0)] + [("c%d" % i, 5) for i in range(k5)])


def graded(k):
    """One generator per degree 1..k and no differential."""
    return _dga(("a%d" % i, i) for i in range(1, k + 1))


def layered(d, k):
    """k closed letters in each of degrees 1..d and no differential."""
    return _dga(("a%d_%d" % (i, j), i) for i in range(1, d + 1) for j in range(k))


def path(k, cyclic=False):
    """d a_i = b_i b_(i+1) on k degree-0 letters, indices mod k if ``cyclic``."""
    gens = [("a%d" % i, 1) for i in range(k - 1 + cyclic)] + [("b%d" % i, 0) for i in range(k)]
    return _dga(gens, [("a%d" % i, "b%d b%d" % (i, (i + 1) % k)) for i in range(k - 1 + cyclic)])


def raised_path(k):
    """d a_i = b_i b_(i+1) on k degree-2 letters, |a_i| = 5: k^2 class pairs on one degree pair."""
    gens = [("a%d" % i, 5) for i in range(k - 1)] + [("b%d" % i, 2) for i in range(k)]
    return _dga(gens, [("a%d" % i, "b%d b%d" % (i, i + 1)) for i in range(k - 1)])


def parity(k):
    """d a = x_0 + .. + x_(k-1): k undetermined letters."""
    gens = [("x%d" % i, 0) for i in range(k)] + [("a", 1)]
    return _dga(gens, [("a", " + ".join("x%d" % i for i in range(k)))])


def forced(k):
    """d a = 1 + b0 .. bk and d c_i = b_i + 1: every b_i is forced to 1."""
    bs, cs = ["b%d" % i for i in range(k + 1)], ["c%d" % i for i in range(k + 1)]
    gens = [(b, 0) for b in bs] + [("a", 1)] + [(c, 1) for c in cs]
    return _dga(gens, [("a", "1 + " + " ".join(bs))] + [(c, b + " + 1") for b, c in zip(bs, cs)])


def killed(k):
    """k degree-0 letters, b_1..b_(k-1) killed by d c_i = b_i, and d a = b1 b0 + .. + b(k-1) b0."""
    gens = [("b%d" % i, 0) for i in range(k)] + [("c%d" % i, 1) for i in range(1, k)] + [("a", 1)]
    products = " + ".join("b%d b0" % i for i in range(1, k))
    return _dga(gens, [("c%d" % i, "b%d" % i) for i in range(1, k)] + [("a", products)])


def sums(k):
    """d e = a_0 + z_0 + .. + a_(k-1) + z_(k-1) and d a_i = d z_i = y_i: d(d e) sums 2k words."""
    gens = [(x + str(i), 1) for x in "az" for i in range(k)] + [("y%d" % i, 0) for i in range(k)]
    terms = " + ".join("a%d + z%d" % (i, i) for i in range(k))
    diffs = [("e", terms)] + [(x + str(i), "y%d" % i) for x in "az" for i in range(k)]
    return _dga(gens + [("e", 2)], diffs)


def closed(kx, ky):
    """kx closed degree-1 and ky closed degree -1 letters: every product is zero."""
    return _dga([("x%d" % i, 1) for i in range(kx)] + [("y%d" % i, -1) for i in range(ky)])


def seeded(seed):
    return serialize_dga(random_dgas(seed, 1, 4)[0])


TREFOIL, MASSEYEX = ("family", "trefoil"), ("family", "masseyex", "--params", "1,4,9,20")
CUPEX, CUPEX_112 = (("family", "cupex", "--params", p) for p in ("1,3,7", "1,1,2"))
LITERALS = {
    "abce": "modulus 0\ngen a 1\ngen b 2\ngen c 3\ngen e 4\ngen q 11\nd q = a b c e\n",
    # three 3-dimensional degrees: no tuple of order 5 or more is admitted (7^5 > 4096)
    "spread": _dga([(x + str(i), d) for i in (1, 2, 3) for x, d in zip("abq", (7, 11, 19))],
                   [("q%d" % i, "a%d b%d" % (i, i)) for i in (1, 2, 3)]),
    "zero": "modulus 0\ngen a 1\ngen b 0\nd a = b\n",  # zero cohomology admits no Massey tuple
    "dd": "modulus 0\ngen a 2\ngen b 1\ngen c 0\nd a = b\nd b = c\n",  # d d a = c
    # 200 degree-1 letters and d c = a1 a2: 1.6 * 10^9 window bits at order 2
    "window": _dga([("a%d" % i, 1) for i in range(1, 201)] + [("c", 1)], [("c", "a1 a2")], 2),
}
# literal, not imported: a changed constant fails its refusal rows
BUDGETS = {"MAX_MASSEY_SYSTEMS": 1048576, "MAX_MASSEY_TUPLES": 65536, "MAX_DUALITY_PAIRS": 1048576,
           "MAX_FREE_GENERATORS": 20, "MAX_TWIST_TERMS": 2097152, "MAX_WINDOW_BITS": 2147483648}
DISTINGUISHED, SAME = "verdict: DISTINGUISHED", "verdict: INDISTINGUISHABLE-BY-THESE-INVARIANTS"
KNOT, AUGS_18 = "knot.0.massey.nonzero: ", "augmentations: 262144"
CLOSED = dict(exit="nonzero", stderr=("exact", ""), pipe=True)
SEEDED = [[row(input, argv, env=(("PYTHONHASHSEED", str(seed)),)) for seed in (0, 1)]
          for input, argv in ((MASSEYEX, "compare-mirror"), (CUPEX_112, "ordern --n 3"))]

ROWS = [
    KNOT_SIDE := row(MASSEYEX, "compare-mirror", DISTINGUISHED, KNOT + "4"),
    MIRROR_SIDE := row(("mirror", MASSEYEX), "compare-mirror", DISTINGUISHED),
    row(MASSEYEX, "massey --classes=-6:1,-11:1,20:1", "value: [a2]", "trivial: no"),
    row(("family", "masseyex", "--params", "1,2,3,4"), "minimal --arity 8",
        "inclusion: ok up to arity 8"),
    row(CUPEX, "ordern --n 3", "engine: perturbation", "complex.dim: 44135",
        "transpose.entries: 106531"),
    refusal("MAX_ORDER", CUPEX, "ordern --n 5",
            ("exact", "error: order 5 exceeds the budget MAX_ORDER = 4\n"), 60),
    row("abce", "compare-mirror --massey-order 3", SAME),
    row("abce", "compare-mirror --massey-order 4", DISTINGUISHED, "witness: Massey bracket summary"
        " (defined, nonzero) in degree tuple (4, (1, 2, 3, 4)): [(True, True)] vs [(True, False)]"),
    row(TREFOIL, "compare-mirror --massey-order 4", seconds=5,
        golden="trefoil_compare_mirror_order4.txt"),
    # its rings admit 82,944 complete defining systems each; the table stops at the first
    # coset holding 0
    row((seeded, 1003), "compare-mirror --massey-order 4", SAME, seconds=5),
    refusal("MAX_MASSEY_SYSTEMS", TREFOIL, "compare-mirror --massey-order 5"),
    # k one-dimensional degrees: k^3 triples and no product; 68,921 triples at k = 41, and
    # 8,000 triples plus 160,000 quadruples at k = 20, order 4
    bound("MAX_MASSEY_TUPLES", (graded, 40), "compare-mirror", SAME, KNOT + "0"),
    refusal("MAX_MASSEY_TUPLES", (graded, 41), "compare-mirror"),
    refusal("MAX_MASSEY_TUPLES", (graded, 20), "compare-mirror --massey-order 4"),
    # 63^2 class pairs per degree pair and no triple: the table lists no pair it cannot extend
    row((layered, 300, 6), "compare-mirror --order-cap 1", SAME, seconds=3, rss_mb=60),
    bound("MAX_ARITY", "spread", "compare-mirror --massey-order 16", DISTINGUISHED, KNOT + "0"),
    refusal("MAX_ARITY", "zero", "compare-mirror --massey-order 1000000",
            ("substring", "transfer arity 1000000 exceeds the budget MAX_ARITY = 16")),
    bound("MAX_ARITY", TREFOIL, "minimal --arity 16", "inclusion: ok up to arity 16"),
    bound("MAX_ARITY", MASSEYEX, "minimal --arity 16", "inclusion: ok up to arity 16"),
    # 10^6 class pairs, no product: the mu_2 check builds no zero pair block
    row((graded, 1000), "minimal --arity 2", seconds=3, rss_mb=60),
    refusal("MAX_ARITY", TREFOIL, "minimal --arity 17",
            ("exact", "error: transfer arity 17 exceeds the budget MAX_ARITY = 16\n")),
    # four degree-0 classes over five free letters: 2^15 inner systems walked, 2^25 complete
    bound("MAX_MASSEY_SYSTEMS", (free_letters, 5), "massey --classes 0:1,0:1,0:1,0:1",
          "systems: 33554432"),
    # at the bound: inner variables of dims 7, 7 and 6, so 2^20 inner systems, each with a
    # coset of 2^13 complete ones; 3.4-4.5 s at 25.8-25.9 MB as a process (python 3.11, 2 vCPUs)
    bound("MAX_MASSEY_SYSTEMS", (two_degrees, 7, 6), "massey --classes 0:1,0:1,0:1,5:1",
          "systems: 8589934592", "trivial: yes", seconds=20),
    DENSE := row(CUPEX_112, "ordern --n 3", "engine: dense", "complex.dim: 9723",
                 "transpose.entries: 19822", "total: 317"),
    PERTURBATION := row(CUPEX_112, "ordern --n 3 --engine perturbation"),
    bound("MAX_ORDER", MASSEYEX, "ordern --n 4", "complex.dim: 57955920",
          "transpose.entries: 205681979", seconds=60),
    # every order 1..4 from one window per ring
    bound("MAX_ORDER", MASSEYEX, "compare-mirror --order-cap 4", DISTINGUISHED,
          "knot.0.order1.dims: -20:1 -11:1 -6:1 -4:1 1:1 4:1 6:1 11:1 20:1", seconds=5),
    refusal("MAX_ORDER", MASSEYEX, "compare-mirror --order-cap 7",
            ("exact", "error: order 5 exceeds the budget MAX_ORDER = 4\n")),
    *sum(SEEDED, []),
    row(CUPEX, "compare-mirror", **dict(CLOSED, exit=None)),
    # about 1 MB of mirror output, far more than a pipe buffer
    row((path, 20000, True), "mirror", **CLOSED),
    row((free_letters, 16), "report", "augmentations: 65536", seconds=30, count=196611),
    # rows are streamed: compare-mirror holds little more than the enumeration
    row((free_letters, 16), "compare-mirror", rss_mb=80),
    row((free_letters, 16), "report", **CLOSED),
    row((free_letters, 18), "augs", AUGS_18, count=262145),
    row((free_letters, 18), "report", AUGS_18, count=786435),
    # the augmentations are made as they are read, never listed
    row((free_letters, 18), "compare-mirror", AUGS_18, count=2097155, rss_mb=45),
    # 20 undetermined letters, F(22) = 17711 augmentations
    bound("MAX_FREE_GENERATORS", (path, 20), "augs", "augmentations: 17711", count=17712),
    # cohomology {0: 10, 1: 9}: 8 degree-1 entries and no degree -1 entries
    row((path, 10), "report", "augmentations: 144", "aug.0.duality: no certificate: no"
        " (kappa, c, complement) choice yields a symmetric nondegenerate pairing", seconds=10),
    row((path, 10), "duality", "pairs.tried: 130816", "complements.tried: 130816", seconds=10),
    # kd = cd = 10, every product zero, so every kappa fails the rank bound
    bound("MAX_DUALITY_PAIRS", (closed, 10, 9), "duality", "pairs.tried: 523776"),
    refusal("MAX_DUALITY_PAIRS", (closed, 11, 0), "duality"),
    # the 2^19 assignments of even parity, never listed: the peak stays near the interpreter's
    bound("MAX_FREE_GENERATORS", (parity, 20), "augs", "augmentations: 524288", count=524289,
          rss_mb=30),
    refusal("MAX_FREE_GENERATORS", (parity, 21), "augs"),
    # the twist would build 2^25 words
    refusal("MAX_TWIST_TERMS", (forced, 24), "linhom"),
    # propagation forces 3001 letters, reading only the equations of each
    row((forced, 3000), "augs", "augmentations: 1", count=2, seconds=2),
    # d(d e) sums 16,000 words into one set
    row((sums, 8000), "validate", "valid: yes", seconds=1.5),
    # m_2 has an entry in 2999 rows of a 3000 x 3000 block: its rows hold only their entries
    row((killed, 3000), "ring", "basis.0: [b0]", rss_mb=45),
    # 10^6 class pairs on the support pair (2, 2) and 999 m_2 entries: the pair block is
    # built entry by entry, then class_of runs on every class pair
    row((raised_path, 1000), "ring", "product.[b998].[b999]: [a998]", count=1002, seconds=8,
        rss_mb=60),
    bound("MAX_WINDOW_BITS", "window", "ordern --n 2", "complex.dim: 40602", "total: 40600"),
    refusal("MAX_WINDOW_BITS", CUPEX, "ordern --n 4 --engine dense", seconds=60),
    *(refusal(None, "dd", c, ("substring", "invalid DGA: d(d a) != 0"), 60)
      for c in ("linhom", "ring", "report", "compare-mirror")),
]


def _lines(path, prefixes=""):
    with open(path, encoding="utf-8", errors="replace") as f:
        return [line.rstrip("\n") for line in f if line.startswith(prefixes)]


def same_lines(a, b, start=""):
    """The lines of two outputs that start with ``start``, one prefix or a tuple, are equal."""
    return [] if _lines(a, start) == _lines(b, start) else ["%s lines differ" % (start or "all",)]


def mirror_swap(knot, mirror):
    """Each output's knot. lines are the other's mirror. lines."""
    return ["the %s's knot. lines are not the other's mirror. lines" % side
            for side, a, b in (("knot", knot, mirror), ("mirror", mirror, knot))
            if ["mirror." + x[5:] for x in _lines(a, "knot.")] != _lines(b, "mirror.")]


def build_ring_refuses_dd():
    dga = parse_dga(LITERALS["dd"])
    try:
        build_ring(dga, Augmentation(tuple((g, 0) for g in dga.generators)))
    except ContractError as exc:
        return [] if "invalid DGA: d(d a) != 0" in str(exc) else ["refused with %s" % exc]
    return ["build_ring accepted a DGA with d d != 0"]


CHECKS = [
    ("compare-mirror on a mirror swaps the sides", mirror_swap, KNOT_SIDE, MIRROR_SIDE),
    ("the dense and perturbation engines agree", partial(same_lines, start=("dim.", "total:")),
     DENSE, PERTURBATION),
    *(("legch %s does not depend on the hash seed" % a.argv, same_lines, a, b) for a, b in SEEDED),
    ("build_ring refuses d d != 0 in-process", build_ring_refuses_dd),
]


@cache
def input_file(spec, work):
    """The file in ``work`` that holds input ``spec``, written once; a tuple
    inside a legch argv stands for that input's file."""
    if isinstance(spec, str):
        text = LITERALS[spec]
    elif callable(spec[0]):
        text = spec[0](*spec[1:])
    else:
        argv = [input_file(a, work) if isinstance(a, tuple) else a for a in spec]
        text = subprocess.run([sys.executable, "-m", "legch", *argv], env=ENV, check=True,
                              capture_output=True, text=True, timeout=60).stdout
    path = Path(work, "input%d.dga" % input_file.cache_info().currsize)
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(row, cwd, path):
    """Run one row in ``cwd``: its exit, seconds, peak RSS and failed checks."""
    cwd.mkdir()
    out, err = cwd / "stdout", cwd / "stderr"
    cmd = [sys.executable, "-c", WRAPPER, "%d" % row.pipe, *row.argv.split(), path]
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        proc = subprocess.Popen(cmd, cwd=cwd, env=dict(ENV, **dict(row.env)), stdout=stdout,
                                stderr=stderr, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=row.seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"failures": ["killed at the %g s ceiling" % row.seconds]}
    code, seconds, mb = (cwd / "report").read_text().split()
    code, mb, count, missing = int(code), float(mb), 0, set(row.lines)
    with open(out, encoding="utf-8", errors="replace") as f:  # a pipe row's file stays empty
        for count, line in enumerate(f, 1):
            missing.discard(line.rstrip("\n"))
    got, (kind, text) = err.read_text(encoding="utf-8", errors="replace"), row.stderr or ("", "")
    checks = [
        (row.exit is None or (code != 0 if row.exit == "nonzero" else code == row.exit),
         "exit %d, want %s" % (code, row.exit)),
        (row.rss_mb is None or mb < row.rss_mb, "peak RSS %.1f MB, want < %s" % (mb, row.rss_mb)),
        (row.count is None or count == row.count, "%d stdout lines, want %s" % (count, row.count)),
        (not row.golden or out.read_bytes() == (DATA / str(row.golden)).read_bytes(),
         "stdout differs from tests/data/%s" % row.golden),
        (got == text if kind == "exact" else got.endswith(text + "\n") if kind == "suffix"
         else text in got, "stderr %r, want %s %r" % (got[-300:], kind, text)),
        *((line not in missing, "no stdout line %r" % line) for line in row.lines),
    ]
    failures = [message for ok, message in checks if not ok]
    return {"exit": code, "seconds": float(seconds), "peak_mb": mb, "failures": failures}


def report(name, budget, job):
    """Print ``job()``'s result as one JSON object; True if it failed."""
    try:
        result = job()
    except Exception as exc:  # a row that cannot run fails, and the others still run
        result = {"failures": ["%s: %s" % (type(exc).__name__, exc)]}
    blank = dict(name=name, budget=budget, exit=None, seconds=None, peak_mb=None)
    print(json.dumps({**blank, **result}), flush=True)
    return bool(result["failures"])


def main():
    """Run every row, then every check; 1 if any failed."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = {row: Path(tmp, "row%d" % i) for i, row in enumerate(ROWS)}
        failed = [report(r.name, r.budget, lambda: run(r, cwd[r], input_file(r.input, tmp)))
                  for r in ROWS]
        failed += [report(name, None, lambda: {"failures": check(*(cwd[r] / "stdout" for r in rs))})
                   for name, check, *rs in CHECKS]
    return int(any(failed))


if __name__ == "__main__":
    sys.exit(main())
