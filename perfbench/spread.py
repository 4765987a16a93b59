"""Run one workload over several seeds and report each metric's spread.

For each metric: the median of the runs' values, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile distance
as a share of the median, beside the metric's bound from BENCHMARK.json.
Run from the repository root::

    python3 perfbench/spread.py --workload plan_paper --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list] = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=900)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # Workload-specific metrics printed as "  name = value unit" lines.
        for line in out.stdout.splitlines():
            name, eq, rest = line.strip().partition(" = ")
            if eq and name.replace("_", "").isalnum():
                values.setdefault(name, []).append(float(rest.split()[0]))
    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:26s} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.1%} "
              f"{'' if bound is None else bound}")
    print(f"(failed, attempted) per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
