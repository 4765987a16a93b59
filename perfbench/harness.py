"""Shared measurement plumbing: timers, statistics, set-up timing, memory.

Nothing here imports the program under test, so the entry point can report
a missing source tree before any import of it is attempted.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

clock = time.perf_counter

#: Environment every child process of the benchmark runs with: one BLAS /
#: OpenMP thread, so the measured work never fans out over hidden threads.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Slack, in seconds, of the check that an op's layer times fit its wall
#: time: the service reports its times in ms rounded to 3 decimals.
OVERRUN_TOL_S = 1e-5


def child_env(src_dir) -> dict:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(src_dir)
    return env


class LayerTimer:
    """Accumulates per-layer wall times of one op, when tracing is on.

    ``timer("layer")`` is a context manager timing one call into a layer;
    with tracing off it is a shared no-op, so untraced ops pay nothing
    beyond the attribute lookup.
    """

    _NOOP = nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: dict[str, float] = {}

    def __call__(self, layer: str):
        return _Span(self, layer) if self.enabled else self._NOOP

    def add(self, layer: str, seconds: float) -> None:
        self.times[layer] = self.times.get(layer, 0.0) + seconds


class _Span:
    __slots__ = ("_timer", "_layer", "_t0")

    def __init__(self, timer: LayerTimer, layer: str):
        self._timer = timer
        self._layer = layer

    def __enter__(self):
        self._t0 = clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._timer.add(self._layer, clock() - self._t0)
        return False


@dataclass
class OpRecord:
    """One measured operation."""

    cls: str
    seconds: float
    ok: bool
    traced: bool = False
    #: Per-layer wall seconds (traced ops only).
    layers: dict = field(default_factory=dict)
    #: Per-layer counts and ratios (traced ops only).
    counts: dict = field(default_factory=dict)
    #: Names of the checks this op failed.
    problems: list = field(default_factory=list)
    #: The op completed but its output failed a check (``ok`` is False
    #: too).  An op that raised or was refused is failed, not wrong.
    wrong: bool = False


def kind(cls: str) -> str:
    """The kind of an op class named ``kind:detail`` (the whole name if bare)."""
    return cls.split(":", 1)[0]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def geomean(xs):
    xs = list(xs)
    if not xs:
        return 0.0
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(xs, q):
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ys = sorted(xs)
    if not ys:
        return 0.0
    k = max(0, min(len(ys) - 1, math.ceil(q / 100 * len(ys)) - 1))
    return ys[k]


def class_medians(records) -> dict:
    """Median seconds per op class over successful ops."""
    by_cls: dict[str, list] = {}
    for r in records:
        if r.ok:
            by_cls.setdefault(r.cls, []).append(r.seconds)
    return {c: median(v) for c, v in by_cls.items()}


def latency_of_classes(records) -> float:
    """Geometric mean over op classes of each class's median, in seconds.

    Each class is one kind of operation (one problem, one ensemble, one
    request type), so no percentile is ever taken across classes whose
    costs differ several-fold.
    """
    return geomean(class_medians(records).values())


def timed_setup(fn, repeats: int = SETUP_REPEATS, discard=None):
    """Run ``fn()`` ``repeats`` times; returns (median seconds, last result).

    ``discard(result)`` releases every result but the last, outside the
    timed part, so a set-up that owns a server stops the ones it does not
    keep.
    """
    times = []
    for i in range(repeats):
        t0 = clock()
        result = fn()
        times.append(clock() - t0)
        if discard is not None and i < repeats - 1:
            discard(result)
    return median(times), result


def child_import_seconds(src_dir, modules) -> float:
    """Start a fresh interpreter that imports ``modules``; returns its wall.

    A new request process pays this before its first plan, and no earlier
    import in this process can warm it.
    """
    code = "import " + ", ".join(modules)
    t0 = clock()
    # No timeout: with one, subprocess polls for the child's exit in sleeps
    # of up to 50 ms, and the measured time would come in 50 ms steps.
    subprocess.run([sys.executable, "-c", code], env=child_env(src_dir), check=True)
    return clock() - t0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) of ``pid`` and its child processes."""
    pids = [pid]
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    total_kib = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def run_rounds(seconds: float, round_fn, min_rounds: int = 1) -> tuple:
    """Run whole rounds ``round_fn(index)`` until ``seconds`` of wall time
    have passed (at least ``min_rounds``); returns ``(rounds, measured)``,
    ``measured`` being the sum of the seconds each round reports as measured
    (op time, checks excluded).

    A run never stops inside a round, so every run attempts the same mix of
    operations whatever its length and the machine's speed.
    """
    measured = 0.0
    rounds = 0
    t0 = clock()
    while rounds < min_rounds or clock() - t0 < seconds:
        gc.collect()
        measured += round_fn(rounds)
        rounds += 1
    return rounds, measured


@dataclass
class WorkloadResult:
    """What a workload hands back to the entry point."""

    records: list
    setup_s: float
    peak_rss_mb: float
    ops_per_s: float
    #: The workload's ``latency_p50_ms``, in seconds.
    latency_s: float
    plan_samples_per_s: float
    #: Human-readable per-run accounting lines.
    lines: list = field(default_factory=list)
    #: Per-layer metrics of the traced run, name -> (value, unit).
    layers: dict = field(default_factory=dict)
    #: Output checks that failed outside any single op (name list).
    problems: list = field(default_factory=list)


def layer_summary(records, time_layers, count_layers, top_layers,
                  overhead_kind=None):
    """Per-op medians of the traced ops' layer times and counts.

    ``top_layers`` are disjoint parts of an op (no one nests in another);
    the rest of the op's wall is its unattributed remainder.
    Returns ``(metrics, lines, overrun)``: ``metrics`` maps each layer metric
    to ``(value, unit)``; ``lines`` is a table of each time metric's share of
    the traced op time, the unattributed remainder and the tracing overhead
    (traced minus untraced latency, over the classes of ``overhead_kind``
    when given, so both sides hold the same kinds of op); ``overrun`` is the
    number of ops whose top layers sum to more than their wall time, or one
    of whose top layers is negative (a layer derived as a span minus its
    children, when the children outlast the span).
    """
    traced = [r for r in records if r.traced and r.ok]
    untraced = [r for r in records if not r.traced and r.ok]
    metrics: dict[str, tuple] = {}
    total_op = sum(r.seconds for r in traced) or 1.0
    lines = ["per-layer, traced ops (median per op; share = layer total / op total)"]
    for name in time_layers:
        vals = [r.layers.get(name, 0.0) for r in traced]
        metrics[name] = (median(vals) * 1e3, "ms")
        lines.append(
            f"  {name:26s} {median(vals) * 1e3:11.3f} ms   share "
            f"{sum(vals) / total_op:6.1%}"
        )
    for name, unit in count_layers:
        vals = [r.counts.get(name, 0.0) for r in traced]
        metrics[name] = (median(vals), unit)
        lines.append(f"  {name:26s} {median(vals):11.4g} {unit}")
    rest = [r.seconds - sum(r.layers.get(k, 0.0) for k in top_layers) for r in traced]
    overrun = sum(
        1 for r, x in zip(traced, rest)
        if x < -OVERRUN_TOL_S
        or any(r.layers.get(k, 0.0) < -OVERRUN_TOL_S for k in top_layers)
    )
    def same(recs):
        return [r for r in recs if overhead_kind is None or kind(r.cls) == overhead_kind]

    op_ms = latency_of_classes(same(traced)) * 1e3
    base_ms = latency_of_classes(same(untraced)) * 1e3
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.unattributed_ms"] = (median(rest) * 1e3, "ms")
    metrics["trace.overhead_ms"] = (op_ms - base_ms, "ms")
    lines.append(
        f"  {'trace.unattributed_ms':26s} {median(rest) * 1e3:11.3f} ms   share "
        f"{sum(rest) / total_op:6.1%}"
    )
    lines.append(
        f"  latency traced {op_ms:.3f} ms vs untraced {base_ms:.3f} ms: tracing "
        f"overhead {op_ms - base_ms:+.3f} ms ({len(traced)} traced, "
        f"{len(untraced)} untraced ops)"
    )
    if overrun:
        lines.append(f"  layer times exceed the op wall on {overrun} ops")
    return metrics, lines, overrun
