"""Smoke test of the benchmark: every workload at minimal length, checks on.

Also shows that the output checks catch faults: a plan that drops a layer
and a tampered makespan must each fail their check, and layer times that
outlast their op must fail the traced run.  The entry point must
print every metric BENCHMARK.json names, and refuse to run without the
program's source tree.

Run from the repository root::

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from harness import THREAD_PINS  # noqa: E402

os.environ.update(THREAD_PINS)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import ensemble_workload  # noqa: E402
import plan_workload  # noqa: E402
import serve_workload  # noqa: E402
from harness import LayerTimer, OpRecord, layer_summary  # noqa: E402

SMALL = ("gnmt16", "C", 16)


class PlanChecksCatchFaults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = plan_workload.plan_request(SMALL, LayerTimer(False))

    def test_clean_request_passes(self):
        self.assertEqual(plan_workload.check_request(self.out), [])

    def test_dropped_layer_fails(self):
        plan = json.loads(self.out["payload"])
        bad = copy.deepcopy(plan)
        bad["stages"][-1]["layer_hi"] -= 1
        cluster = self.out["cluster"]
        ids = [d.global_id for d in cluster.devices]
        n = self.out["profile"].num_layers
        self.assertEqual(checks.check_plan_dict(plan, n, ids, self.out["gbs"]), [])
        self.assertTrue(checks.check_plan_dict(bad, n, ids, self.out["gbs"]))

    def test_shared_device_fails(self):
        plan = json.loads(self.out["payload"])
        self.assertGreater(len(plan["stages"]), 1)
        plan["stages"][1]["devices"][0] = plan["stages"][0]["devices"][0]
        ids = [d.global_id for d in self.out["cluster"].devices]
        self.assertTrue(checks.check_plan_dict(
            plan, self.out["profile"].num_layers, ids, self.out["gbs"]))

    def test_tampered_makespan_fails(self):
        execution = self.out["execution"]
        plan = execution.plan
        expected = checks.expected_busy(self.out["profile"], plan)
        busy = [[execution.trace.busy_time(d.resource_key) for d in st.devices]
                for st in plan.stages]
        self.assertEqual(checks.check_clean_trace(expected, busy,
                                                  execution.iteration_time), [])
        self.assertTrue(checks.check_clean_trace(
            expected, busy, 0.5 * max(max(b) for b in busy)))
        busy[0][0] *= 1.001
        self.assertTrue(checks.check_clean_trace(expected, busy,
                                                 execution.iteration_time))

    def test_beaten_winner_fails(self):
        lat = self.out["result"].estimate.latency
        self.assertEqual(checks.check_not_beaten(lat, {"pure-DP": lat}), [])
        self.assertTrue(checks.check_not_beaten(lat, {"pure-DP": 0.9 * lat}))


class LayerTimesFitTheOp(unittest.TestCase):
    def overrun(self, layers):
        rec = OpRecord("op", 0.010, True, True, layers)
        return layer_summary([rec], tuple(layers), (), tuple(layers))[2]

    def test_layers_within_the_wall_pass(self):
        self.assertEqual(self.overrun({"a": 0.004, "b": 0.005}), 0)

    def test_layers_beyond_the_wall_fail(self):
        self.assertEqual(self.overrun({"a": 0.006, "b": 0.005}), 1)

    def test_children_outlasting_their_span_fail(self):
        # A remainder derived as span minus children goes negative.
        self.assertEqual(self.overrun({"a": 0.004, "b": -0.001}), 1)


class WorkloadsAtMinimalLength(unittest.TestCase):
    def assert_clean(self, res, time_layers):
        self.assertTrue(res.records)
        self.assertEqual([r.problems for r in res.records if not r.ok], [])
        self.assertEqual(res.problems, [])
        for name in time_layers:
            self.assertIn(name, res.layers)
        self.assertIn("trace.overhead_ms", res.layers)
        for r in res.records:
            if r.traced:
                self.assertTrue(r.layers)
        self.assertGreater(res.setup_s, 0)
        self.assertGreater(res.ops_per_s, 0)
        self.assertGreater(res.plan_samples_per_s, 0)
        self.assertGreater(res.peak_rss_mb, 0)

    def test_plan(self):
        res = plan_workload.run((SMALL,), seed=1, seconds=0, trace=True,
                                src_dir=SRC)
        self.assert_clean(res, plan_workload.TIME_LAYERS)
        # One problem: as many rounds as the fewest requests a run makes,
        # alternately traced and untraced.
        self.assertEqual(len(res.records), plan_workload.MIN_REQUESTS)

    def test_ensemble(self):
        res = ensemble_workload.run(seed=1, seconds=0, trace=True, src_dir=SRC,
                                    problems=(SMALL,))
        self.assert_clean(res, ensemble_workload.TIME_LAYERS)
        self.assertEqual(res.layers["planner.search_ms"][0], 0.0)

    def test_serve(self):
        res = serve_workload.run(
            seed=1, seconds=0, trace=True, src_dir=SRC, root=ROOT,
            hot=(SMALL[:2],), miss=(("resnet50", "A"),), hits_per_hot=2,
        )
        self.assert_clean(res, serve_workload.TIME_LAYERS)
        self.assertEqual(sorted(r.cls for r in res.records), [
            "check:gnmt16/C/dapple", "check:gnmt16/C/zb2bp",
            "hit:gnmt16/C", "hit:gnmt16/C", "miss:resnet50/A"])
        self.assertFalse((ROOT / ".perfbench_work").exists())
        for name in serve_workload.SERVICE_SPANS:
            self.assertIn(name, res.layers)


class EntryPoint(unittest.TestCase):
    def run_bench(self, cwd, trace):
        return subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "plan_paper",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_prints_every_metric(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_bench(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            res = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            want = {m["name"]: m["unit"] for m in bench[section]}
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
            if section == "end_to_end":
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_refuses_without_source_tree(self):
        work = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(work, ignore_errors=True)
        try:
            shutil.copytree(HERE, work / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", work)
            proc = self.run_bench(work, 0)
        finally:
            shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
