"""``plan_paper`` and ``plan_scale``: closed-loop cold plan requests.

One op is one cold plan request, the path a new user of the planner pays:
``profile_model`` -> ``plan_best`` -> build and simulate the winner under the
``dapple`` schedule -> ``stage_bubble_fractions`` + ``critical_path`` ->
``plan_to_dict`` and JSON.  Every op builds fresh model, profile and cluster
objects and passes no plan cache, so nothing an earlier op computed (the
planner's per-(profile, cluster) scanner memo included) is reused.

A round is one request per problem, in an order drawn from the seed; a run
makes whole rounds until ``--seconds`` have passed.
"""

from __future__ import annotations

import gc
import json
import math
import random

from harness import (
    LayerTimer,
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

#: The paper's Table V problem set: six models x configs A/B/C, 16 GPUs.
PAPER_MODELS = ("resnet50", "vgg19", "gnmt16", "bert48", "xlnet36", "amoebanet36")
PAPER_PROBLEMS = tuple((m, c, 16) for m in PAPER_MODELS for c in "ABC")

#: A(8x8), 64 GPUs: search is most of the op and the cost model's
#: per-machine-pair transfer accounting grows with machine count.
SCALE_PROBLEMS = (("bert48", "A", 64), ("gnmt16", "A", 64), ("xlnet36", "A", 64))

#: Modules a plan request touches, imported by a fresh interpreter at set-up.
REQUEST_MODULES = (
    "repro.core.profiler", "repro.core.planner", "repro.runtime.executor",
    "repro.sim", "repro.faults.analysis", "repro.core.serialization",
)

#: Fewest requests a run makes.  The planner keeps the scanners of its last
#: 8 (profile, cluster) pairs alive, so the process's peak memory settles
#: only once a run has made more requests than that.
MIN_REQUESTS = 9

TIME_LAYERS = (
    "profiler.profile_ms", "planner.search_ms", "runtime.build_ms", "sim.run_ms",
    "analysis.bubbles_ms", "analysis.critical_path_ms", "serialization.plan_ms",
)
COUNT_LAYERS = (
    ("planner.plans_evaluated", "count"), ("planner.states_explored", "count"),
    ("planner.feasible_ratio", "ratio"), ("runtime.graph_ops", "count"),
)


def problem_name(problem) -> str:
    model, config, devices = problem
    return f"{model}/{config}/{devices}"


def plan_request(problem, timer):
    """One cold plan request; returns everything the checks need."""
    from repro.cluster import config_by_name
    from repro.core.planner import plan_best
    from repro.core.profiler import profile_model
    from repro.core.serialization import plan_to_dict
    from repro.faults.analysis import critical_path, stage_bubble_fractions
    from repro.models import PAPER_FIGURES, get_model
    from repro.runtime.executor import ExecutionResult, PipelineExecutor
    from repro.sim import Simulator

    model, config, devices = problem
    graph = get_model(model)
    with timer("profiler.profile_ms"):
        profile = profile_model(graph)
    cluster = config_by_name(config, devices)
    gbs = PAPER_FIGURES[model].global_batch_size
    with timer("planner.search_ms"):
        result = plan_best(profile, cluster, gbs)
    with timer("runtime.build_ms"):
        executor = PipelineExecutor(profile, cluster, result.plan, schedule="dapple")
        task_graph = executor.build_graph()
    with timer("sim.run_ms"):
        sim = Simulator(task_graph, engine="compiled").run()
    execution = ExecutionResult(
        plan=result.plan, iteration_time=sim.makespan, trace=sim.trace,
        memory=sim.memory, schedule=executor.schedule, recompute=False,
        pipe_schedule=executor.pipe_schedule,
    )
    with timer("analysis.bubbles_ms"):
        bubbles = stage_bubble_fractions(execution)
    with timer("analysis.critical_path_ms"):
        path = critical_path(task_graph, sim.trace)
    with timer("serialization.plan_ms"):
        payload = json.dumps(plan_to_dict(result.plan))
    return {
        "profile": profile, "cluster": cluster, "gbs": gbs, "result": result,
        "execution": execution, "graph_ops": len(task_graph),
        "bubbles": bubbles, "path": path, "payload": payload,
    }


def check_request(out) -> list:
    """The first satellite's plan properties, on one request's outputs."""
    from checks import (
        check_clean_trace, check_not_beaten, check_plan_dict, expected_busy,
        largest_divisor_leq,
    )
    from repro.core import Planner, evaluate_plan
    from repro.core.plan import ParallelPlan, Stage

    profile, cluster, gbs = out["profile"], out["cluster"], out["gbs"]
    plan = out["result"].plan
    execution = out["execution"]
    problems = check_plan_dict(
        json.loads(out["payload"]), profile.num_layers,
        [d.global_id for d in cluster.devices], gbs,
    )
    if problems:
        return problems
    busy = [[execution.trace.busy_time(d.resource_key) for d in st.devices]
            for st in plan.stages]
    problems += check_clean_trace(
        expected_busy(profile, plan), busy, execution.iteration_time
    )
    if not out["path"]:
        problems.append("empty critical path")
    if len(out["bubbles"]) != plan.num_stages:
        problems.append("bubble fractions do not cover every stage")

    # Rivals: pure data parallelism with per-device micro-batches at the
    # profiling size (gradient accumulation), and the balanced straight
    # pipeline.  The search must never return a plan slower than either.
    planner = Planner(profile, cluster, gbs)
    g = cluster.num_devices
    b = profile.graph.profile_batch
    dp = ParallelPlan(
        profile.graph, [Stage(0, profile.num_layers, tuple(cluster.devices))],
        gbs, largest_divisor_leq(gbs, max(1, gbs // (b * g))),
    )
    rivals = {}
    for name, rival in (("pure-DP", dp), ("straight", planner.straight_plan())):
        if rival is not None and planner.plan_fits_memory(rival):
            rivals[name] = evaluate_plan(profile, cluster, rival).latency
    problems += check_not_beaten(out["result"].estimate.latency, rivals)
    return problems


def run(problems, seed: int, seconds: float, trace: bool,
        src_dir) -> WorkloadResult:
    def setup():
        child_import_seconds(src_dir, REQUEST_MODULES)
        return list(problems)

    # A third-of-a-second set-up is at the mercy of the machine's noise:
    # take the median of more of them.
    setup_s, todo = timed_setup(setup, repeats=7)
    rng = random.Random(seed)
    records: list[OpRecord] = []
    samples_per_s: dict[str, float] = {}

    def one_round(index: int) -> float:
        order = list(todo)
        rng.shuffle(order)
        # Traced runs alternate traced and untraced rounds, so the tracing
        # overhead is measured within one run.
        traced = trace and index % 2 == 0
        measured = 0.0
        for problem in order:
            timer = LayerTimer(traced)
            # Release the previous request's outputs first: peak memory is
            # then one request's, not two.
            out = None
            gc.collect()
            t0 = clock()
            try:
                out = plan_request(problem, timer)
            except Exception as e:  # a failed request is counted, not fatal
                dt = clock() - t0
                records.append(OpRecord(problem_name(problem), dt, False, traced,
                                        problems=[f"{type(e).__name__}: {e}"]))
                measured += dt
                continue
            dt = clock() - t0
            measured += dt
            issues = check_request(out)
            result = out["result"]
            counts = {}
            if traced:
                counts = {
                    "planner.plans_evaluated": result.plans_evaluated,
                    "planner.states_explored": result.states_explored,
                    "planner.feasible_ratio": (
                        (result.plans_evaluated - result.infeasible_plans)
                        / max(1, result.plans_evaluated)
                    ),
                    "runtime.graph_ops": out["graph_ops"],
                }
            records.append(OpRecord(problem_name(problem), dt, not issues, traced,
                                    dict(timer.times), counts, issues,
                                    wrong=bool(issues)))
            if not issues:
                samples_per_s[problem_name(problem)] = (
                    out["gbs"] / out["execution"].iteration_time
                )
        return measured

    t_start = clock()
    min_rounds = max(2 if trace else 1, math.ceil(MIN_REQUESTS / len(todo)))
    rounds, measured = run_rounds(seconds, one_round, min_rounds)
    wall = clock() - t_start
    ok = [r for r in records if r.ok]
    lines = [
        f"{len(records)} requests in {rounds} rounds of {len(todo)} problems "
        f"({measured:.2f} s measured, {wall:.2f} s with checks); "
        f"{len(records) - len(ok)} failed",
    ]
    for name in sorted({r.cls for r in records}):
        mine = [r for r in records if r.cls == name]
        bad = [r for r in mine if not r.ok]
        med = median([r.seconds for r in mine]) * 1e3
        lines.append(f"  {name:22s} attempted {len(mine):3d} failed {len(bad)}  "
                     f"median {med:9.2f} ms  GBS/sim {samples_per_s.get(name, 0):9.2f}")
        for r in bad[:1]:
            lines.append(f"    FAILED: {'; '.join(r.problems)[:300]}")
    result = WorkloadResult(
        records=records,
        setup_s=setup_s,
        peak_rss_mb=self_peak_rss_mb(),
        ops_per_s=len(ok) / measured,
        latency_s=latency_of_classes(records),
        plan_samples_per_s=geomean(samples_per_s.values()),
        lines=lines,
    )
    if trace:
        metrics, table, overrun = layer_summary(
            records, TIME_LAYERS, COUNT_LAYERS, TIME_LAYERS
        )
        result.layers = metrics
        result.lines += table
        if overrun:
            result.problems.append(f"layer times exceed the wall time of {overrun} ops")
    return result
