"""Repo benchmark: cold plan requests, fault ensembles and the plan service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_paper --seed 1 --seconds 10 --trace 0

Workloads: ``plan_paper``, ``plan_scale``, ``ensemble``, ``serve`` (see
README.md).  Each run prints per-class accounting lines and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run, every one of
them named, 0 where the workload does not pass through that layer.
"""

from __future__ import annotations

import os

from harness import THREAD_PINS

# Before numpy is imported anywhere: one BLAS / OpenMP thread.
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("plan_paper", "plan_scale", "ensemble", "serve")


def metric_units(section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json at the repository root names them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "plan_paper":
        import plan_workload

        return plan_workload.run(plan_workload.PAPER_PROBLEMS, seed, seconds, trace, SRC)
    if name == "plan_scale":
        import plan_workload

        return plan_workload.run(plan_workload.SCALE_PROBLEMS, seed, seconds, trace, SRC)
    if name == "ensemble":
        import ensemble_workload

        return ensemble_workload.run(seed, seconds, trace, SRC)
    import serve_workload

    return serve_workload.run(seed, seconds, trace, SRC, ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in res.lines:
        print(line)
    attempted = len(res.records)
    failed = sum(1 for r in res.records if not r.ok)
    if args.trace:
        metrics = {
            name: _metric(res.layers.get(name, (0.0, unit))[0], unit)
            for name, unit in metric_units("per_layer").items()
        }
    else:
        values = {
            "setup_s": res.setup_s,
            "ops_per_s": res.ops_per_s,
            "latency_p50_ms": res.latency_s * 1e3,
            "plan_samples_per_s": res.plan_samples_per_s,
            "peak_rss_mb": res.peak_rss_mb,
        }
        metrics = {name: _metric(values[name], unit)
                   for name, unit in metric_units("end_to_end").items()}
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    wrong = sum(1 for r in res.records if r.wrong)
    if wrong:
        print(f"CHECK FAILED: {wrong} ops returned output that failed its checks")
    print(json.dumps({
        "correct": not res.problems and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
