"""``serve``: an open loop against ``repro serve`` in its own process.

Requests arrive on a fixed period (the only load source is this one thread
of this one process), in a class order drawn from the seed, and each is
timed from the moment it was due, so a stall also charges the requests
queued behind it.  Three classes:

* **hit**: a hot problem, already planned in set-up -> plan-cache read;
* **miss**: a problem never requested before in this run -> search, then
  cache and artifact-store writes;
* **check**: a hot problem with ``check: true`` under ``dapple`` or
  ``zb2bp`` -> cache read plus the conformance battery in a worker.

Each run starts a fresh service with a fresh data directory.  The rate sits
well below what two workers sustain, so the numbers describe service cost,
not a queue growing without bound.  The offered rate is fixed, so the
throughput reported is the service's own: the rate its workers sustain on
the measured mix, from the worker time each job reports.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time

from harness import (
    OpRecord,
    WorkloadResult,
    child_env,
    class_medians,
    clock,
    geomean,
    kind,
    layer_summary,
    median,
    percentile,
    run_rounds,
    timed_setup,
    tree_peak_rss_mb,
)
from plan_workload import PAPER_MODELS

#: Hot problems (Table V, 16 GPUs, paper GBS), planned once during set-up:
#: each paper model once, on configs A, B, C in turn.
HOT = tuple((m, "ABC"[k % 3]) for k, m in enumerate(PAPER_MODELS))
#: Never-seen problems: each paper model on configs A and B at twice the
#: paper's global batch size, so no hot entry can answer them.
MISS = tuple((m, c) for m in PAPER_MODELS for c in "AB")
#: No traffic record of the service exists.  Hits per miss follow
#: benchmarks/perf_serve.py, which repeats each cold request 8 times warm:
#: 16 hits of each of 6 hot problems per 12 misses.
HITS_PER_HOT = 16
CHECK_SCHEDULES = ("dapple", "zb2bp")
#: Offered load, requests per second (one round = 120 requests = 7.5 s).
RATE = 16.0
#: A job is polled at intervals of a quarter of its age, from 3 ms up to
#: PlanClient.wait's default of 20 ms: a hit is seen within a few ms of
#: finishing, and a search's polls do not crowd the CPUs it runs on.
POLL_S = 0.003
POLL_MAX_S = 0.02
POLL_AGE_SHARE = 0.25
#: Hits needed before their p95 is reported.
MIN_TAIL_SAMPLES = 200
REQUEST_TIMEOUT_S = 120.0

TIME_LAYERS = ("generator.lateness_ms", "client.submit_ms", "client.wait_ms",
               "client.fetch_ms", "serve.queue_wait_ms", "serve.dispatch_ms",
               "serve.exec_ms", "serve.serialize_ms")
#: Disjoint parts of a request: the service's own times fall between the
#: submission and the poll that sees the job done, so HTTP and polling time
#: is the unattributed rest.
TOP_LAYERS = ("generator.lateness_ms", "serve.queue_wait_ms", "serve.dispatch_ms",
              "serve.exec_ms", "serve.serialize_ms", "client.fetch_ms")
COUNT_LAYERS = (("client.polls", "count"),)
#: Spans the service emits inside a request, read from its trace log:
#: layer metric -> (span name, request kind whose median it reports).
SERVICE_SPANS = {"planner.search_ms": ("planner.search", "miss"),
                 "runtime.build_ms": ("runtime.build_graph", "check")}


def hot_body(model, config):
    return {"model": model, "config": config, "devices": 16}


def miss_body(model, config):
    from repro.models import PAPER_FIGURES

    return {"model": model, "config": config, "devices": 16,
            "gbs": 2 * PAPER_FIGURES[model].global_batch_size}


def kind_latencies(records) -> dict:
    """Latency per request kind, in seconds, over successful requests.

    Hits are all cache reads of one cost, so their p50 and p95 are taken
    over every hit (p95 only with ``MIN_TAIL_SAMPLES`` of them).  Misses and
    checks cost several-fold more on a large model than on a small one, so
    theirs is the geometric mean of each problem's median.
    """
    hits = [r.seconds for r in records if r.ok and kind(r.cls) == "hit"]
    def per_problem(k):
        return geomean(class_medians([r for r in records if kind(r.cls) == k]).values())

    return {
        "hit_latency_p50_ms": median(hits),
        "hit_latency_p95_ms": (percentile(hits, 95)
                               if len(hits) >= MIN_TAIL_SAMPLES else None),
        "miss_latency_p50_ms": per_problem("miss"),
        "check_latency_p50_ms": per_problem("check"),
    }


def round_requests(hot, miss, hits_per_hot, rng):
    """One round's (class, body) list in a seeded order.

    A class is a kind (hit, miss, check) and a problem, e.g.
    ``check:bert48/A/zb2bp``: problems of one kind differ several-fold in
    cost, so latency is summarized per class.
    """
    reqs = [(f"hit:{m}/{c}", hot_body(m, c))
            for m, c in hot for _ in range(hits_per_hot)]
    reqs += [(f"check:{m}/{c}/{s}", dict(hot_body(m, c), check=True, schedule=s))
             for m, c in hot for s in CHECK_SCHEDULES]
    reqs += [(f"miss:{m}/{c}", miss_body(m, c)) for m, c in miss]
    rng.shuffle(reqs)
    return reqs


class Service:
    """One ``repro serve`` process with its own data directory.

    With ``trace_log`` the service writes its spans there when it exits, and
    :meth:`close` reads them into ``spans``: trace id -> {span name: summed
    seconds} plus ``"graph_ops"``, the ops of its built graphs.
    """

    def __init__(self, src_dir, work_dir, workers: int, trace_log: bool = False):
        from repro.serve import PlanClient

        self.data_dir = work_dir
        self.trace_log = work_dir / "spans.jsonl" if trace_log else None
        self.spans: dict[str, dict] = {}
        os.makedirs(work_dir, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--data-dir", str(work_dir),
             "--exec", "fork",
             *(["--trace", str(self.trace_log)] if trace_log else [])],
            env=child_env(src_dir), stdout=subprocess.PIPE, text=True,
        )
        line = self._first_line(timeout=60.0)
        if not line.startswith("serving"):
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split()[-1]
        self.client = PlanClient(self.url, timeout=REQUEST_TIMEOUT_S)

    def _first_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def close(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.trace_log is not None and self.trace_log.exists():
            self.spans = read_spans(self.trace_log)
        shutil.rmtree(self.data_dir, ignore_errors=True)


def read_spans(path) -> dict:
    """Per trace id: summed span seconds by name, and built graph ops."""
    out: dict[str, dict] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("type") != "span" or not rec.get("trace_id"):
                continue
            mine = out.setdefault(rec["trace_id"], {})
            mine[rec["name"]] = mine.get(rec["name"], 0.0) + rec["dur"]
            if rec["name"] == "runtime.build_graph":
                mine["graph_ops"] = mine.get("graph_ops", 0) + rec["attrs"].get("ops", 0)
    return out


def fetch(client, body):
    """Closed-loop request used by set-up: submit, wait, fetch."""
    job = client.wait(client.submit(body)["job_id"], timeout=REQUEST_TIMEOUT_S,
                      poll_interval=POLL_S)
    return client.result(job)


def drive(client, schedule, traced: bool):
    """Run one open-loop round; returns (records, responses, lateness, errors).

    ``schedule`` is a list of (due offset seconds, class, body).  Submits
    each request when due, polls each outstanding job when its next poll is
    due, and fetches each result when its job is done.  ``responses`` holds
    ``(record, body, result, timing, trace_id)`` per completed request,
    ``timing`` being the job summary's split of the service's time.
    """
    from repro.serve import ServiceError

    records, responses, lateness = [], [], []
    errors = {"429": 0, "5xx": 0, "other": 0}
    pending: dict[str, dict] = {}
    t0 = clock()
    i = 0
    while i < len(schedule) or pending:
        now = clock() - t0
        if i < len(schedule) and schedule[i][0] <= now:
            due, cls, body = schedule[i]
            traced_op = traced and i % 2 == 0
            i += 1
            t_sub = clock() - t0
            lateness.append(t_sub - due)
            try:
                job_id = client.submit(body)["job_id"]
            except ServiceError as e:
                key = "429" if e.status == 429 else (
                    "5xx" if e.status and e.status >= 500 else "other")
                errors[key] += 1
                records.append(OpRecord(cls, clock() - t0 - due, False, traced_op,
                                        problems=[f"submit: {e}"]))
                continue
            t_ret = clock() - t0
            pending[job_id] = {"due": due, "cls": cls, "body": body,
                               "sub": t_sub, "ret": t_ret, "polls": 0,
                               "next": t_ret + POLL_S, "traced": traced_op}
            continue
        for job_id in [j for j, p in pending.items() if p["next"] <= now]:
            p = pending[job_id]
            p["polls"] += 1
            try:
                job = client.job(job_id)
                if job["state"] not in ("done", "failed"):
                    t = clock() - t0
                    p["next"] = t + min(POLL_MAX_S,
                                        max(POLL_S, POLL_AGE_SHARE * (t - p["sub"])))
                    continue
                t_done = clock() - t0
                if job["state"] == "failed":
                    raise ServiceError(f"job failed: {job.get('error')}", body=job)
                result = client.result(job)
            except ServiceError as e:
                key = "5xx" if e.status and e.status >= 500 else "other"
                errors[key] += 1
                del pending[job_id]
                records.append(OpRecord(p["cls"], clock() - t0 - p["due"], False,
                                        p["traced"], problems=[str(e)]))
                continue
            t_end = clock() - t0
            del pending[job_id]
            timing = job.get("summary", {}).get("timing") or {}
            layers = {}
            if p["traced"]:
                layers = {
                    "generator.lateness_ms": p["sub"] - p["due"],
                    "client.submit_ms": p["ret"] - p["sub"],
                    "client.wait_ms": t_done - p["ret"],
                    "client.fetch_ms": t_end - t_done,
                }
                for name in ("queue_wait", "dispatch", "exec", "serialize"):
                    layers[f"serve.{name}_ms"] = timing.get(f"{name}_ms", 0.0) / 1e3
            rec = OpRecord(p["cls"], t_end - p["due"], True, p["traced"], layers,
                           {"client.polls": p["polls"]} if p["traced"] else {})
            records.append(rec)
            responses.append((rec, p["body"], result, timing, job.get("trace_id")))
        wake = [p["next"] for p in pending.values()]
        if i < len(schedule):
            wake.append(schedule[i][0])
        wait = min(wake, default=0.0) - (clock() - t0)
        if wait > 0:
            time.sleep(wait)
    return records, responses, lateness, errors


def check_responses(responses):
    """Served plans equal in-process ``plan_best``; cache and check flags.

    Marks failing records (``ok = False``, ``wrong = True``) and returns the
    served plans' GBS over their simulated iteration time, per hot problem
    whose requests all passed (misses are left out: their plans depend on
    how many rounds, and so how many beam widths, a run reached).
    """
    from checks import check_plan_dict, check_same_plan
    from repro.core.planner import plan_best
    from repro.core.serialization import plan_to_dict
    from repro.runtime.executor import PipelineExecutor
    from repro.serve.protocol import decode_plan_request
    from repro.sim import Simulator

    direct: dict[str, tuple] = {}
    samples_per_s, failed_keys = {}, set()
    for rec, body, served, _, _ in responses:
        key = json.dumps({k: body[k] for k in ("model", "config", "devices", "gbs",
                                                "planner") if k in body},
                         sort_keys=True)
        if key not in direct:
            profile, cluster, gbs, cfg = decode_plan_request(body).resolve()
            direct[key] = (profile, cluster, gbs, plan_best(profile, cluster, gbs, cfg))
        profile, cluster, gbs, result = direct[key]
        issues = check_plan_dict(served["plan"], profile.num_layers,
                                 [d.global_id for d in cluster.devices], gbs)
        issues += check_same_plan(served["plan"], plan_to_dict(result.plan))
        if served["estimate"]["latency"] != result.estimate.latency:
            issues.append("served latency differs from in-process plan_best")
        want_hit = kind(rec.cls) != "miss"
        if served.get("cache_hit") is not want_hit:
            issues.append(f"{rec.cls} request served with cache_hit="
                          f"{served.get('cache_hit')}")
        if kind(rec.cls) == "check":
            chk = served.get("check") or {}
            if chk.get("ok") is not True or chk.get("violations"):
                issues.append(f"check not ok: {chk.get('violations') or chk}")
        if issues:
            rec.ok = False
            rec.wrong = True
            rec.problems += issues
            failed_keys.add(key)
        elif want_hit and key not in samples_per_s:
            graph = PipelineExecutor(profile, cluster, result.plan).build_graph()
            makespan = Simulator(graph, engine="compiled").run().makespan
            samples_per_s[key] = gbs / makespan
    return {k: v for k, v in samples_per_s.items() if k not in failed_keys}


def service_layers(responses, spans):
    """Per-layer metrics of the traced run read from the service's output.

    The planner's counts come from the miss responses' ``counters``; search
    and graph-build times and graph sizes from the spans the service logged
    for each traced request (``SERVICE_SPANS``), as a median over the
    requests of the kind that pays them.
    """
    counters = [served["counters"] for rec, _, served, _, _ in responses
                if kind(rec.cls) == "miss"]
    metrics = {
        "planner.plans_evaluated": (
            median([c["plans_evaluated"] for c in counters]), "count"),
        "planner.states_explored": (
            median([c["states_explored"] for c in counters]), "count"),
        "planner.feasible_ratio": (median([
            (c["plans_evaluated"] - c["infeasible_plans"])
            / max(1, c["plans_evaluated"]) for c in counters]), "ratio"),
    }
    traced = [(rec, spans.get(tid, {})) for rec, _, _, _, tid in responses
              if rec.traced and rec.ok]
    for name, (span, k) in SERVICE_SPANS.items():
        mine = [own for rec, own in traced if kind(rec.cls) == k]
        metrics[name] = (median([own.get(span, 0.0) for own in mine]) * 1e3, "ms")
    metrics["runtime.graph_ops"] = (median([
        own.get("graph_ops", 0) for rec, own in traced
        if kind(rec.cls) == SERVICE_SPANS["runtime.build_ms"][1]]), "count")
    return metrics


def run(seed: int, seconds: float, trace: bool, src_dir, root,
        hot=HOT, miss=MISS, hits_per_hot=HITS_PER_HOT) -> WorkloadResult:
    work_root = root / ".perfbench_work"
    workers = min(2, len(os.sched_getaffinity(0)))
    started = []

    def setup():
        svc = Service(src_dir, work_root / f"serve-{os.getpid()}-{len(started)}",
                      workers, trace_log=trace)
        started.append(svc)
        for p in hot:
            fetch(svc.client, hot_body(*p))
        return svc

    try:
        setup_s, svc = timed_setup(setup, discard=Service.close)
        rng = random.Random(seed)
        records, responses, lateness = [], [], []
        errors = {"429": 0, "5xx": 0, "other": 0}
        before = svc.client.cache_stats()["served"]
        walls = []

        def one_round(index: int) -> float:
            reqs = round_requests(hot, miss, hits_per_hot, rng)
            # Every round must bring problems the service has never seen: a
            # later round asks for a slightly wider beam, which changes the
            # problem's cache key but hardly its search cost.
            for cls, body in reqs:
                if kind(cls) == "miss" and index:
                    body["planner"] = {"beam_width": 48 + index}
            schedule = [(k / RATE, cls, body) for k, (cls, body) in enumerate(reqs)]
            t0 = clock()
            recs, resp, late, errs = drive(svc.client, schedule, trace)
            walls.append(clock() - t0)
            records.extend(recs)
            responses.extend(resp)
            lateness.extend(late)
            for k, v in errs.items():
                errors[k] += v
            return walls[-1]

        rounds, _ = run_rounds(seconds, one_round)
        after = svc.client.cache_stats()["served"]
        peak = tree_peak_rss_mb(svc.proc.pid)
    finally:
        for s in started:
            s.close()
        shutil.rmtree(work_root, ignore_errors=True)

    samples_per_s = check_responses(responses)
    done = after["jobs_done"] - before["jobs_done"]
    hit_ratio = (after["cache_hits"] - before["cache_hits"]) / max(1, done)
    # Worker time of each completed request: the pool call (dispatch and
    # execution) and storing its artifacts.
    served = [r for r in responses if r[0].ok]
    busy_s = sum(sum(t.get(f"{k}_ms", 0.0) for k in ("dispatch", "exec", "serialize"))
                 for _, _, _, t, _ in served) / 1e3
    lines = [
        f"{len(records)} requests in {rounds} rounds at {RATE:g}/s "
        f"({sum(walls):.2f} s, {len(records) / sum(walls):.2f}/s achieved); "
        f"{sum(1 for r in records if not r.ok)} failed; "
        f"429: {errors['429']}, 5xx: {errors['5xx']}, other errors: {errors['other']}",
        f"  worker time {busy_s:.2f} s on {workers} workers: "
        f"{busy_s / workers / sum(walls):.0%} busy",
        f"  generator lateness: median {median(lateness) * 1e3:.3f} ms, "
        f"max {max(lateness) * 1e3:.3f} ms; plan-cache hit ratio {hit_ratio:.3f}",
    ]
    kinds = kind_latencies(records)
    for k in ("hit", "miss", "check"):
        mine = [r for r in records if kind(r.cls) == k]
        bad = sum(1 for r in mine if not r.ok)
        lines.append(f"  {k:6s} attempted {len(mine):4d} failed {bad}")
    lines += [f"  {name} = {value * 1e3:.3f} ms" if value is not None
              else f"  {name}: not reported (needs {MIN_TAIL_SAMPLES} hits)"
              for name, value in kinds.items()]
    for r in [r for r in records if not r.ok][:3]:
        lines.append(f"  FAILED {r.cls}: {'; '.join(r.problems)[:300]}")
    result = WorkloadResult(
        records=records,
        setup_s=setup_s,
        peak_rss_mb=peak,
        ops_per_s=workers * len(served) / busy_s if busy_s else 0.0,
        latency_s=geomean([kinds["hit_latency_p50_ms"], kinds["miss_latency_p50_ms"],
                           kinds["check_latency_p50_ms"]]),
        plan_samples_per_s=geomean(samples_per_s.values()),
        lines=lines,
    )
    if trace:
        metrics, table, overrun = layer_summary(
            records, TIME_LAYERS, COUNT_LAYERS, TOP_LAYERS, overhead_kind="hit"
        )
        spans = service_layers(responses, svc.spans)
        metrics.update(spans)
        metrics["plancache.hit_ratio"] = (hit_ratio, "ratio")
        result.layers = metrics
        result.lines += table
        result.lines.append(
            f"  service spans: planner.search {spans['planner.search_ms'][0]:.3f} ms "
            f"per miss, runtime.build_graph {spans['runtime.build_ms'][0]:.3f} ms "
            f"per check (median)"
        )
        if overrun:
            result.problems.append(f"layer times exceed the wall time of {overrun} ops")
    return result
