"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` replaces chosen public functions of ``legch`` modules
with wrappers, in the defining module and in every ``legch`` module that
imported the name, and ``uninstall`` puts the originals back.  Spans
(name, start, end, parent) are kept in memory on a stack; a layer's self
time is its span's time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


def _count(result) -> int:
    return 1


# (module, function, counters): each counter is (metric name, function of
# the return value giving the amount to add).
SPANNED: List[Tuple[str, str, Tuple[Tuple[str, Callable], ...]]] = [
    ("fileio", "parse_dga", ()),
    ("algebra", "validate_dga", ()),
    ("algebra", "mirror_dga", ()),
    ("augment", "enumerate_augmentations", (("augment.augmentations", len),)),
    ("linear", "linearized_complexes", ()),
    (
        "linear",
        "homology",
        (("linear.homology.calls", _count), ("linear.homology.basis_size", lambda r: r.total_dim())),
    ),
    ("linear", "duality_search", ()),
    ("ainfty", "adjoint_structure", ()),
    ("ainfty", "transfer_minimal_model", ()),
    ("ainfty", "check_an_relations", ()),
    ("ainfty", "check_ainfty_morphism", ()),
    (
        "ainfty",
        "massey_triple",
        (("ainfty.massey_triple.calls", _count), ("ainfty.massey.systems", lambda r: r.systems)),
    ),
    ("ainfty", "massey_higher", (("ainfty.massey.systems", lambda r: r.systems),)),
    ("tilde", "check_order_n_transpose", (("tilde.transpose_entries", int),)),
    ("tilde", "tilde_complex", ()),
    (
        "tilde",
        "order_n_cohomology",
        (
            ("tilde.complex_dim", lambda r: r.complex_dim),
            ("tilde.engine.dense.calls", lambda r: r.engine == "dense"),
            ("tilde.engine.perturbation.calls", lambda r: r.engine == "perturbation"),
        ),
    ),
    ("fingerprint", "fingerprint_dga", ()),
    ("fingerprint", "cup_rank_table", ()),
    ("fingerprint", "massey_table", ()),
    ("fingerprint", "order_dim_table", ()),
]
# Hot functions: counted, but a span per call would cost more than the call.
COUNTED: List[Tuple[str, str, str]] = [("ainfty", "cup_product", "ainfty.cup_product.calls")]

ROOT = "cli"


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, func, counters in SPANNED:
        names.append("%s.%s.self_s" % (module, func))
        names.extend(name for name, _ in counters)
    names.extend(name for _, _, name in COUNTED)
    names += ["cli.self_s", "trace.job_s", "trace.overhead_ratio"]
    return list(dict.fromkeys(names))


class Tracer:
    """Spans and counters for the jobs run while installed."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def job(self, func: Callable, *args):
        """Run one job as a root span."""
        index = self._open(ROOT)
        try:
            return func(*args)
        finally:
            self._close(index)

    def _spanned(self, name: str, func: Callable, counters) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            for metric, amount in counters:
                self.counts[metric] += amount(result)
            return result

        return wrapper

    def _counted(self, metric: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    def _rebind(self, original: object, wrapper: object) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "legch" and not modname.startswith("legch."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, func, counters in SPANNED:
            original = getattr(sys.modules["legch." + module], func)
            self._rebind(original, self._spanned("%s.%s" % (module, func), original, counters))
        for module, func, metric in COUNTED:
            original = getattr(sys.modules["legch." + module], func)
            self._rebind(original, self._counted(metric, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return totals

    def job_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def metrics(self, jobs: int, overhead_ratio: float, scale: float) -> Dict[str, float]:
        """Per-job self times (multiplied by ``scale``) and counts, and the overhead of tracing."""
        selfs = self.self_times()
        out: Dict[str, float] = {}
        for name in metric_names():
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[: -len(".self_s")], 0.0) * scale / jobs
            else:
                out[name] = self.counts.get(name, 0.0) / jobs
        out["trace.job_s"] = self.job_time() * scale / jobs
        out["trace.overhead_ratio"] = overhead_ratio
        return out
