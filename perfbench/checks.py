"""Output checks, computed apart from the program's own code paths.

Each check returns a list of problem strings (empty = passed), so a caller
can count an op as failed and say why.  The checks take plain inputs — a
serialized plan, per-device busy times, a makespan — so the smoke test can
feed them deliberately broken outputs and see them fail.
"""

from __future__ import annotations

#: Relative tolerance for sums of floating-point op durations: a device's
#: busy time is the sum of its ops' durations, each ``fwd`` or ``bwd`` of
#: the profile, so only the summation order differs (~1e-13 relative today).
REL_TOL = 1e-9


def largest_divisor_leq(n: int, cap: int) -> int:
    """Largest divisor of ``n`` that is at most ``cap`` (at least 1)."""
    cap = max(1, min(cap, n))
    for d in range(cap, 0, -1):
        if n % d == 0:
            return d
    return 1


def check_plan_dict(plan: dict, num_layers: int, device_ids, gbs: int) -> list:
    """A served plan covers [0, N) contiguously on disjoint cluster devices.

    ``plan`` is the JSON form (``repro.core.serialization.plan_to_dict``),
    i.e. exactly what a client receives; ``device_ids`` are the global ids
    of the cluster's devices.  Also checks that the micro-batch count M
    divides the global batch size.
    """
    problems = []
    stages = plan.get("stages") or []
    if not stages:
        return ["plan has no stages"]
    if plan.get("num_layers") != num_layers:
        problems.append(f"plan says {plan.get('num_layers')} layers, model has {num_layers}")
    lo = 0
    for i, st in enumerate(stages):
        if st["layer_lo"] != lo:
            problems.append(f"stage {i} starts at layer {st['layer_lo']}, expected {lo}")
        if st["layer_hi"] <= st["layer_lo"]:
            problems.append(f"stage {i} is empty: [{st['layer_lo']}, {st['layer_hi']})")
        lo = st["layer_hi"]
    if lo != num_layers:
        problems.append(f"stages end at layer {lo}, model has {num_layers}")
    seen: set = set()
    valid = set(device_ids)
    for i, st in enumerate(stages):
        devs = st["devices"]
        if not devs:
            problems.append(f"stage {i} has no devices")
        for d in devs:
            if d in seen:
                problems.append(f"device {d} used by more than one stage")
            if d not in valid:
                problems.append(f"device {d} is not in the cluster")
            seen.add(d)
    m = plan.get("num_micro_batches")
    if plan.get("global_batch_size") != gbs:
        problems.append(f"plan GBS {plan.get('global_batch_size')} != requested {gbs}")
    if not isinstance(m, int) or m < 1 or gbs % m:
        problems.append(f"M={m} does not divide GBS={gbs}")
    return problems


def expected_busy(profile, plan) -> list:
    """Per-stage busy seconds of each device on a clean trace.

    M micro-batches, each a forward and a backward of the stage's layers at
    the per-device batch (GBS / M split evenly over the stage's replicas).
    """
    m = plan.num_micro_batches
    out = []
    for st in plan.stages:
        b = plan.global_batch_size / m / len(st.devices)
        out.append(m * (profile.fwd_time(st.layer_lo, st.layer_hi, b)
                        + profile.bwd_time(st.layer_lo, st.layer_hi, b)))
    return out


def check_clean_trace(expected: list, busy: list, makespan: float) -> list:
    """Busy time per device matches the profile; makespan bounds them all.

    ``expected[i]`` is stage ``i``'s busy seconds from :func:`expected_busy`;
    ``busy[i]`` lists the busy seconds each of its devices shows in the
    simulated trace.
    """
    problems = []
    for i, (want, got) in enumerate(zip(expected, busy)):
        for d, b in enumerate(got):
            if abs(b - want) > REL_TOL * max(abs(want), 1e-30):
                problems.append(
                    f"stage {i} device {d}: busy {b!r} s, profile says {want!r} s"
                )
    top = max(max(g) for g in busy if g)
    if makespan < top * (1 - REL_TOL):
        problems.append(f"makespan {makespan!r} s below the busiest device's {top!r} s")
    return problems


def check_not_beaten(winner_latency: float, rivals: dict) -> list:
    """The winner's analytic latency is no higher than each feasible rival's."""
    return [
        f"winner latency {winner_latency!r} s above {name} plan's {lat!r} s"
        for name, lat in rivals.items()
        if winner_latency > lat * (1 + REL_TOL)
    ]


def check_same_plan(served: dict, direct: dict) -> list:
    """A served plan equals the in-process plan for the same request."""
    keys = ("stages", "num_micro_batches", "global_batch_size", "num_layers")
    diff = [k for k in keys if served.get(k) != direct.get(k)]
    return [f"served plan differs from in-process plan_best in {diff}"] if diff else []
