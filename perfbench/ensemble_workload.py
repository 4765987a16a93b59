"""``ensemble``: closed-loop fault ensembles on the Table V winners.

One op is one 32-seed ``run_ensemble`` (default batched engine) under a
1.5x ``SlowDevice`` straggler plus 5% ``ComputeJitter``, on one pipelined
Table V winner under one schedule, ``dapple`` or ``zb2bp``.  The winners are
planned during set-up, so the op never enters the planner: a planner change
must not move this workload.  ``zb2bp`` lowers to a different op mix (split
BI/BW backwards).

A round is every (winner, schedule) pair once, in an order drawn from the
seed; the ensemble's perturbation seeds are derived from it too.  A run
makes whole rounds until ``--seconds`` have passed.
"""

from __future__ import annotations

import gc
import math
import random

from harness import (
    OpRecord,
    WorkloadResult,
    child_import_seconds,
    clock,
    geomean,
    latency_of_classes,
    layer_summary,
    median,
    run_rounds,
    self_peak_rss_mb,
    timed_setup,
)
from plan_workload import PAPER_PROBLEMS, REQUEST_MODULES, problem_name

NUM_SEEDS = 32
SCHEDULES = ("dapple", "zb2bp")
#: Ops per round whose report is re-derived by the checks (a repeat call
#: and per-seed evaluations on the separate compiled path).
DEEP_CHECKS_PER_ROUND = 2
SEEDS_PER_DEEP_CHECK = 1

TIME_LAYERS = ("planner.search_ms", "runtime.build_ms", "sim.batched_ms",
               "faults.summary_ms")
COUNT_LAYERS = (("runtime.graph_ops", "count"),)
TOP_LAYERS = ("runtime.build_ms", "sim.batched_ms", "faults.summary_ms")


def fault_models():
    from repro.faults import ComputeJitter, SlowDevice

    return (SlowDevice(factor=1.5), ComputeJitter(sigma=0.05))


def plan_winners(problems):
    """Plan each problem from fresh objects; keep the pipelined winners."""
    from repro.cluster import config_by_name
    from repro.core.planner import plan_best
    from repro.core.profiler import profile_model
    from repro.models import PAPER_FIGURES, get_model

    out = []
    for problem in problems:
        model, config, devices = problem
        profile = profile_model(get_model(model))
        cluster = config_by_name(config, devices)
        plan = plan_best(profile, cluster, PAPER_FIGURES[model].global_batch_size).plan
        if plan.num_stages > 1:
            out.append((problem_name(problem), profile, cluster, plan))
    return out


def check_report(report, seeds, profile, plan) -> list:
    """Cheap properties every report must have."""
    from checks import expected_busy

    problems = []
    if [o.seed for o in report.outcomes] != list(seeds):
        problems.append("report seeds differ from the requested seeds")
    if len(report.makespans) != len(seeds) or not all(
        math.isfinite(x) and x > 0 for x in report.makespans
    ):
        problems.append("makespans missing, non-finite or not positive")
    busiest = max(expected_busy(profile, plan))
    if report.clean.makespan < busiest * (1 - 1e-9):
        problems.append(
            f"clean makespan {report.clean.makespan!r} s below the busiest "
            f"device's profiled {busiest!r} s"
        )
    for o in (report.clean, *report.outcomes):
        if len(o.stage_bubbles) != plan.num_stages or not all(
            0.0 <= b < 1.0 for b in o.stage_bubbles
        ):
            problems.append(f"seed {o.seed}: stage bubble fractions out of range")
            break
    return problems


def deep_check(report, args, seeds, rng) -> list:
    """Repeat call is identical; sampled seeds match the per-seed path."""
    from repro.faults import run_ensemble
    from repro.faults.analysis import evaluate_seed

    profile, cluster, plan, models, schedule = args
    problems = []
    again = run_ensemble(profile, cluster, plan, models, seeds, schedule=schedule)
    if not report.identical(again):
        problems.append("repeat run_ensemble call returned a different report")
    for j in rng.sample(range(len(seeds)), SEEDS_PER_DEEP_CHECK):
        single = evaluate_seed(profile, cluster, plan, models, seeds[j],
                               schedule=schedule, sim_engine="compiled")
        if single != report.outcomes[j]:
            problems.append(f"seed {seeds[j]}: batched outcome differs from "
                            "evaluate_seed(sim_engine='compiled')")
    return problems


def _span_totals(spans) -> dict:
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def run(seed: int, seconds: float, trace: bool, src_dir,
        problems=PAPER_PROBLEMS) -> WorkloadResult:
    import repro.obs as obs
    from repro.faults import run_ensemble

    def setup():
        child_import_seconds(src_dir, REQUEST_MODULES)
        return plan_winners(problems)

    setup_s, winners = timed_setup(setup)
    ops = [(w, s) for w in winners for s in SCHEDULES]
    models = fault_models()
    rng = random.Random(seed)
    seeds = [seed * NUM_SEEDS + k for k in range(NUM_SEEDS)]
    records: list[OpRecord] = []
    samples_per_s: dict[str, float] = {}

    def one_round(index: int) -> float:
        order = list(ops)
        rng.shuffle(order)
        deep = set(rng.sample(range(len(order)),
                              min(DEEP_CHECKS_PER_ROUND, len(order))))
        traced = trace and index % 2 == 0
        measured = 0.0
        for k, ((name, profile, cluster, plan), schedule) in enumerate(order):
            cls = f"{name}/{schedule}"
            # Release the previous report first: peak memory is then one
            # ensemble's, not two.
            report = None
            gc.collect()
            if traced:
                obs.enable(reset_state=True)
            t0 = clock()
            try:
                report = run_ensemble(profile, cluster, plan, models, seeds,
                                      schedule=schedule)
            except Exception as e:  # a failed op is counted, not fatal
                dt = clock() - t0
                obs.disable()
                measured += dt
                records.append(OpRecord(cls, dt, False, traced,
                                        problems=[f"{type(e).__name__}: {e}"]))
                continue
            dt = clock() - t0
            measured += dt
            layers, counts = {}, {}
            if traced:
                obs.disable()
                spans = obs.tracer().spans()
                tot = _span_totals(spans)
                layers = {
                    "planner.search_ms": tot.get("planner.search", 0.0),
                    "runtime.build_ms": tot.get("runtime.build_graph", 0.0),
                    "sim.batched_ms": tot.get("sim.run_batched", 0.0),
                }
                layers["faults.summary_ms"] = (
                    tot.get("faults.run_ensemble", 0.0)
                    - layers["runtime.build_ms"] - layers["sim.batched_ms"]
                )
                counts["runtime.graph_ops"] = sum(
                    s.attrs.get("ops", 0) for s in spans
                    if s.name == "runtime.build_graph"
                )
                obs.reset()
            issues = check_report(report, seeds, profile, plan)
            if k in deep:
                issues += deep_check(
                    report, (profile, cluster, plan, models, schedule), seeds, rng
                )
            records.append(OpRecord(cls, dt, not issues, traced, layers, counts, issues,
                                    wrong=bool(issues)))
            if not issues:
                samples_per_s[cls] = plan.global_batch_size / report.clean_makespan
        return measured

    t_start = clock()
    rounds, measured = run_rounds(seconds, one_round, 2 if trace else 1)
    wall = clock() - t_start
    failed = [r for r in records if not r.ok]
    done = len(records) - len(failed)
    lines = [
        f"{len(records)} ensembles of {NUM_SEEDS} seeds in {rounds} rounds of "
        f"{len(ops)} (winner, schedule) pairs ({measured:.2f} s measured, "
        f"{wall:.2f} s with checks); {len(failed)} failed",
        f"  scenarios_per_s = {NUM_SEEDS * done / measured:.3f} 1/s",
    ]
    for r in failed[:3]:
        lines.append(f"  FAILED {r.cls}: {'; '.join(r.problems)[:300]}")
    for schedule in SCHEDULES:
        mine = [r for r in records if r.cls.endswith("/" + schedule)]
        bad = sum(1 for r in mine if not r.ok)
        lines.append(f"  {schedule:8s} attempted {len(mine):3d} failed {bad}  median "
                     f"{median([r.seconds for r in mine]) * 1e3:9.2f} ms")
    result = WorkloadResult(
        records=records,
        setup_s=setup_s,
        peak_rss_mb=self_peak_rss_mb(),
        ops_per_s=done / measured,
        latency_s=latency_of_classes(records),
        plan_samples_per_s=geomean(samples_per_s.values()),
        lines=lines,
    )
    if trace:
        metrics, table, overrun = layer_summary(
            records, TIME_LAYERS, COUNT_LAYERS, TOP_LAYERS
        )
        result.layers = metrics
        result.lines += table
        if overrun:
            result.problems.append(f"layer times exceed the wall time of {overrun} ops")
    return result
