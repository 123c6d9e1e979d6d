"""Wall-clock benchmark of the replicated mini-JVM.

One command runs one seeded workload from the repository root, checks
its outputs against independent references, and prints one JSON line
with every metric by name and unit::

    python3 perfbench/run.py --workload kv_tcp --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures
an untraced half and a traced half of the window and reports the
per-layer metrics (spans are written under ``.perfbench/``).  The
metric names and units come from ``BENCHMARK.json``.

Two further modes do not print a benchmark result:

* ``--self-test`` corrupts one expected transcript line and one
  expected response and requires each check to fail (and the clean
  references to pass);
* ``--count-check`` runs a fixed amount of traced work twice, under
  ``PYTHONHASHSEED`` 1 and 2, and lists which per-layer counts repeat
  exactly — the ones a count claim may cite.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ======================================================================
# Metric assembly
# ======================================================================
def end_to_end(wl, win, setups, host, scaled=True):
    """The end-to-end figures.  With ``scaled``, every set-up, and every
    operation of a ``host_scaled`` workload, has its time divided by the
    host's slowdown around it (``hostspeed``); without, the figures are
    as measured."""
    from workloads import SpecBatch, median, spec_figures

    def slowdowns(intervals, apply):
        return [host.slowdown(*iv) if apply else 1.0 for iv in intervals]

    setup_slow = slowdowns([iv for iv, _t in setups], scaled)
    setup_s = median([t / slow for (_iv, t), slow in
                      zip(setups, setup_slow)])
    slow = slowdowns(win.intervals, scaled and wl.host_scaled)
    if isinstance(wl, SpecBatch):
        instr_per_s, rps, p50_ms = spec_figures(win, slow)
    else:
        busy_s = sum(t / f for t, f in zip(win.service, slow))
        instr_per_s = sum(win.op_instr) / busy_s
        # The open loop's arrival rate, not the program, sets its
        # completed / elapsed; what the program sets there is requests
        # per busy second.
        rps = win.completed / (busy_s if wl.open_loop else win.elapsed_s)
        p50_ms = median([t / f for t, f in zip(win.latencies, slow)]) * 1e3
    return {
        "setup_s": setup_s,
        "primary_instr_per_s": instr_per_s,
        "throughput_rps": rps,
        "latency_p50_ms": p50_ms,
    }


def per_layer(wl, plain, traced, tr, setup_tr, extra):
    """Per-layer metrics of a traced run.  ``plain`` is the untraced
    half's window (request-loop timings), ``traced`` the traced half's
    window, ``tr`` its tracer."""
    from workloads import SPEC_JOBS, median, percentile

    calls, total, self_s, counts = tr.calls, tr.total_s, tr.self_s, \
        tr.counts
    roots = ("job.primary", "job.replay", "fleet.pump")
    root_total = sum(total[r] for r in roots)
    root_self = sum(self_s[r] for r in roots)

    def ratio(a, b):
        return a / b if b else 0.0

    def busy_per_op(win):
        return ratio(sum(win.service), len(win.service))

    m = {
        "runtime.run_slice_self_s": self_s["runtime.run_slice"],
        "runtime.slices": calls["runtime.run_slice"],
        "runtime.instructions": counts["runtime.instructions"],
        "runtime.blocks_compiled": counts["runtime.blocks_compiled"],
        "runtime.block_cache_hits": counts["runtime.block_cache_hits"],
        "runtime.gc_s": total["runtime.gc"],
        "runtime.gc_count": calls["runtime.gc"],
        "minijava.compile_s": setup_tr.total_s["minijava.compile"],
        "strategy.log_calls": calls["strategy.log"],
        "strategy.log_s": self_s["strategy.log"],
        "channel.flush_s": self_s["channel.flush"],
        "channel.flushes": counts["channel.messages"],
        "channel.records_per_flush": ratio(counts["channel.records"],
                                           counts["channel.messages"]),
        "channel.bytes": counts["channel.bytes"],
        "transport.send_s": self_s["transport.send"],
        "transport.ack_wait_s": total["transport.ack_wait"],
        "transport.ack_waits": calls["transport.ack_wait"],
        "transport.ack_wait_share": ratio(total["transport.ack_wait"],
                                          root_total),
        "transport.mux_poll_s": self_s["transport.mux_poll"],
        "transport.reconnects": sum(t.stats.reconnects
                                    for t in tr.transports),
        "transport.retransmits": sum(t.stats.retransmits
                                     for t in tr.transports),
        "commit.output_commits": calls["commit.output_commit"],
        "commit.output_commit_self_s": self_s["commit.output_commit"],
        "machine.replay_backup_s": total["machine.replay_backup"],
        "machine.parse_log_s": total["machine.parse_log"],
        "machine.replay_instr_per_s": ratio(plain.replay_instr,
                                            plain.replay_s),
        "checkpoint.capture_s": total["checkpoint.capture"],
        "checkpoint.compose_s": total["checkpoint.compose"],
        "checkpoint.restore_s": total["checkpoint.restore"],
        "checkpoint.count": counts["checkpoint.count"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "steady.emit_s": total["steady.emit"],
        "digest.compute_s": total["digest.compute"],
        "digest.items_hashed": counts["digest.items_hashed"],
        "digest.reuse_ratio": ratio(
            counts["digest.items_reused"],
            counts["digest.items_reused"] + counts["digest.items_hashed"]),
        "voting.tally_add_s": total["voting.tally_add"],
        "fleet.latency_p90_ms": percentile(plain.latencies, 90) * 1e3,
        "fleet.latency_p99_ms": percentile(plain.latencies, 99) * 1e3,
        "fleet.queue_wait_p50_ms": median(plain.queue_waits) * 1e3,
        "fleet.queue_wait_p99_ms": percentile(plain.queue_waits, 99) * 1e3,
        "fleet.service_p50_ms": median(plain.service) * 1e3,
        "fleet.service_p99_ms": percentile(plain.service, 99) * 1e3,
        "fleet.generator_lag_p99_ms":
            percentile(plain.generator_lag, 99) * 1e3,
        "failover_gap_ms": median(plain.failover_gaps
                                  + traced.failover_gaps) * 1e3,
        "failed_share": ratio(wl.failed, wl.attempted),
        "trace.overhead": ratio(busy_per_op(traced), busy_per_op(plain)),
        "trace.attributed_share": 1.0 - ratio(root_self, root_total),
        "trace.spans": len(tr.spans) + tr.dropped,
    }
    m.update(extra.get("groups", {}))
    ratios = extra.get("overhead", {})
    for name, strategy in SPEC_JOBS:
        key = f"{name}/{strategy}"
        m[f"replication.overhead_ratio.{name}.{strategy}"] = \
            ratios.get(key, 0.0)
    return m


GROUP_FIELDS = ("supervisor.failovers", "supervisor.failover_pump_s",
                "supervisor.recovery_tail_records",
                "supervisor.records_replayed",
                "supervisor.requests_requeued", "voting.votes_cast",
                "voting.quorum_certs", "voting.outputs_gated",
                "voting.depositions")


def group_stats(wl, fleet, plain, traced, marks):
    """Recovery and quorum counters of both halves (a run has only a
    few failovers), read from the groups' own reports past ``marks``
    and their quorum metrics."""
    from repro.replication.voting import VotingGroup

    out = dict.fromkeys(GROUP_FIELDS, 0)
    if fleet is None:
        return out
    for group, (n_reports, quorum) in zip(fleet.groups, marks):
        for report in group.reports[n_reports:]:
            rm = report.recovery_metrics
            if rm is not None:
                out["supervisor.recovery_tail_records"] += \
                    rm.recovery_tail_records
                out["supervisor.records_replayed"] += rm.records_replayed
                out["supervisor.requests_requeued"] += rm.requests_requeued
        if isinstance(group, VotingGroup):
            gm = group.metrics
            out["voting.votes_cast"] += gm.votes_cast - quorum[0]
            out["voting.quorum_certs"] += gm.quorum_certs - quorum[1]
            out["voting.outputs_gated"] += gm.outputs_gated - quorum[2]
    gaps = plain.failover_gaps + traced.failover_gaps
    if wl.name == "kv_voting":
        out["voting.depositions"] = len(gaps)
    else:
        out["supervisor.failovers"] = len(gaps)
        out["supervisor.failover_pump_s"] = sum(gaps)
    return out


def group_marks(fleet):
    marks = []
    for group in fleet.groups:
        gm = getattr(group, "metrics", None)
        quorum = ((gm.votes_cast, gm.quorum_certs, gm.outputs_gated)
                  if gm is not None else (0, 0, 0))
        marks.append((len(group.reports), quorum))
    return marks


# ======================================================================
# Cost-model cross-check (spec_batch traced run; reported, not gated)
# ======================================================================
def cost_model_check(wl) -> None:
    from repro.harness.costs import CostModel

    model = CostModel()
    measured_of = {
        "communication": ("channel.flush", "transport.send"),
        "lock_acquire": ("strategy.log",),
        "pessimistic": ("commit.output_commit", "transport.ack_wait"),
    }
    for job, info in sorted(wl.inspected.items()):
        breakdown = model.primary_breakdown(info["metrics"], "lock_sync")
        comps = [c for c in measured_of if c in breakdown]
        measured = {c: sum(info["self_s"].get(n, 0.0)
                           for n in measured_of[c]) for c in comps}
        model_rank = sorted(comps, key=lambda c: -breakdown[c])
        measured_rank = sorted(comps, key=lambda c: -measured[c])
        log(f"cost-model cross-check {job} (model units vs measured "
            f"layer self-time; 'misc' has no single layer and is left out)")
        for c in comps:
            log(f"  {c:14s} model {breakdown[c]:14.0f} "
                f"(rank {model_rank.index(c) + 1})  measured "
                f"{measured[c] * 1e3:9.2f} ms "
                f"(rank {measured_rank.index(c) + 1})")
        verdict = ("rankings agree" if model_rank == measured_rank
                   else "RANKINGS DISAGREE: model "
                   + " > ".join(model_rank) + "; measured "
                   + " > ".join(measured_rank))
        log(f"  {verdict}")


# ======================================================================
# One benchmark run
# ======================================================================
def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostspeed import NEIGHBOURS, HostSpeed
    from tracer import NullTracer, Tracer, install_layers
    from workloads import SETUP_MIN_REPEATS, SETUP_PHASE_S, WORKLOADS, \
        SpecBatch, median, percentile

    wl = WORKLOADS[name](seed)
    host = HostSpeed()
    #: ((start, end), seconds) of every set-up.
    setups = []
    setup_tr = Tracer()

    def set_up(keep=False):
        # Each set-up starts from a collected host heap, so host GC
        # passes fall at the same points in every set-up.
        gc.collect()
        host.sample(NEIGHBOURS)
        t0 = perf_counter()
        built = wl.setup()
        t1 = perf_counter()
        host.sample(NEIGHBOURS)
        setups.append(((t0, t1), t1 - t0))
        if keep:
            return built
        wl.discard(built)
        return None

    def set_up_phase():
        start = perf_counter()
        n = 0
        while n < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_PHASE_S:
            set_up()
            n += 1

    set_up_phase()
    if trace:
        install_layers(setup_tr)
    state = set_up(keep=True)
    if trace:
        setup_tr.uninstall()
    wl.schedule(seconds)

    if not trace:
        win = wl.measure(state, seconds, NullTracer(), host)
        wl.finish(state)
        # A second phase after the window, so that set-up time is judged
        # at two points of the run.
        set_up_phase()
        metrics = end_to_end(wl, win, setups, host)
        raw = end_to_end(wl, win, setups, host, scaled=False)
        log(f"{name}: as measured, unscaled: " + " ".join(
            f"{k}={v:.6g}" for k, v in raw.items()))
        log(f"{name}: {len(host.took)} host-speed samples, median "
            f"{host.median_ms():.3f} ms")
        times = [t for _span, t in setups]
        log(f"{name}: {len(setups)} set-ups, fastest "
            f"{min(times):.4f}s, median {median(times):.4f}s")
        log(f"{name}: {win.completed} operations in {win.elapsed_s:.2f}s, "
            f"{len(win.latencies)} latency samples, {len(win.failover_gaps)} "
            f"failover(s); latency ms " + " ".join(
                f"p{q}={percentile(win.latencies, q) * 1e3:.2f}"
                for q in (50, 75, 90, 95, 99)))
    else:
        extra = {}
        fleet = None if isinstance(wl, SpecBatch) else state
        marks = group_marks(fleet) if fleet is not None else []
        plain = wl.measure(state, seconds / 2, NullTracer())
        if isinstance(wl, SpecBatch):
            unrep = wl.unreplicated_seconds(state)
            extra["overhead"] = {job: primary_s / unrep[job.split("/")[0]]
                                 for job, primary_s, _r, _pm in plain.jobs}
        tr = Tracer()
        install_layers(tr)
        try:
            traced = wl.measure(state, seconds / 2, tr)
        finally:
            tr.uninstall()
        wl.finish(state)
        extra["groups"] = group_stats(wl, fleet, plain, traced, marks)
        metrics = per_layer(wl, plain, traced, tr, setup_tr, extra)
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{name}-seed{seed}.jsonl")
        tr.write_spans(path)
        log(f"{name}: {len(tr.spans)} spans written to {path}")
        if isinstance(wl, SpecBatch):
            cost_model_check(wl)
    for problem in wl.problems[:20]:
        log(f"FAIL: {problem}")
    return {
        "correct": wl.failed == 0 and not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }


def emit(result: dict, spec: dict, trace: bool) -> int:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    produced = result["metrics"]
    if set(units) != set(produced):
        log(f"metric set mismatch: missing "
            f"{sorted(set(units) - set(produced))}, undeclared "
            f"{sorted(set(produced) - set(units))}")
        return 3
    result["metrics"] = {k: {"value": float(produced[k]), "unit": units[k]}
                         for k in units}
    print(json.dumps(result))
    return 0


# ======================================================================
# Self-test: every correctness check must be able to fail
# ======================================================================
def self_test() -> int:
    import copy

    from repro.fleet import Fleet
    from repro.fleet.traffic import TrafficSpec, generate, \
        reference_responses
    from tracer import NullTracer
    from workloads import PROFILE, SpecBatch, Window, check_job, \
        check_responses

    ok = True

    def expect(label, failed, want_failure):
        nonlocal ok
        good = failed == want_failure
        ok = ok and good
        log(f"self-test {label}: check "
            f"{'failed' if failed else 'passed'} "
            f"({'as required' if good else 'WRONG'})")

    # spec_batch: run one job for real, then judge it against the clean
    # reference and against one with a corrupted transcript line.
    spec = SpecBatch(0)
    evidence = spec.run_job(spec.setup(), "mpegaudio", "lock_sync",
                            NullTracer(), Window())
    captured = {"primary": evidence["primary"],
                "replay": evidence["replay"], "fp": evidence["fps"]}
    ref = spec.references["mpegaudio"]
    expect("spec clean reference", bool(check_job(
        "mpegaudio", ref, captured["primary"], captured["replay"],
        *captured["fp"])), False)
    bad = copy.deepcopy(ref)
    bad["console"][0] = bad["console"][0] + "!"
    expect("spec corrupted transcript line", bool(check_job(
        "mpegaudio", bad, captured["primary"], captured["replay"],
        *captured["fp"])), True)
    expect("spec mismatched state digests", bool(check_job(
        "mpegaudio", ref, captured["primary"], captured["replay"],
        captured["fp"][0], captured["fp"][0] ^ 1)), True)

    # kv_*: serve real traffic, then judge the responses against the
    # serial reference and against one with a corrupted response.
    fleet = Fleet(2, profile=PROFILE)
    fleet.start()
    requests = generate(TrafficSpec(qps=300.0, n_requests=60, keyspace=64,
                                    seed=7))
    for req in requests:
        shard = fleet.submit(req.text)
        fleet.groups[shard].pump()
    fleet.stop()
    expected = reference_responses(requests)

    def responses_for(req):
        return fleet.groups[fleet.route(req.text)].env.responses.get(req.rid)

    duplicates = sum(g.env.responses.duplicates for g in fleet.groups)
    failed, _ = check_responses(requests, responses_for, expected,
                                duplicates)
    expect("kv clean reference", failed > 0, False)
    corrupted = dict(expected)
    corrupted[requests[17].rid] += "!"
    failed, _ = check_responses(requests, responses_for, corrupted,
                                duplicates)
    expect("kv corrupted response", failed > 0, True)
    failed, _ = check_responses(requests, responses_for, expected, 1)
    expect("kv duplicated response", failed > 0, True)
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ======================================================================
# Count repeatability
# ======================================================================
def count_run(name: str, seed: int) -> dict:
    """Fixed traced work (one spec pass, or the first
    ``count_requests`` requests served back to back) and every count it
    produced."""
    from tracer import Tracer, install_layers
    from workloads import WORKLOADS, SpecBatch, Window

    wl = WORKLOADS[name](seed)
    state = wl.setup()
    tr = Tracer()
    install_layers(tr)
    window = Window()
    try:
        if isinstance(wl, SpecBatch):
            window = wl.measure(state, 0.0, tr)
        else:
            wl.schedule(wl.count_requests / max(wl.qps, 1.0) + 1.0)
            if not wl.open_loop:
                wl.pool(wl.count_requests)
            for req in wl.requests[:wl.count_requests]:
                wl.next_index += 1
                wl.attempted += 1
                wl.serve_one(state, req, tr, window)
    finally:
        tr.uninstall()
    wl.finish(state)
    counts = {f"calls.{k}": v for k, v in tr.calls.items()}
    counts.update({f"count.{k}": v for k, v in tr.counts.items()})
    for job, _primary_s, _replay_s, pm in window.jobs:
        for field in ("records_sent", "bytes_sent", "reschedules",
                      "instructions", "lock_records", "schedule_records",
                      "messages_sent"):
            counts[f"job.{job}.{field}"] = getattr(pm, field)
    counts["failed"] = wl.failed
    return counts


def count_check(name: str, seed: int) -> int:
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--count-run"],
            env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            log(proc.stderr)
            return proc.returncode
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = runs
    citable, varying = [], []
    for key in sorted(set(a) | set(b)):
        same = a.get(key) == b.get(key)
        (citable if same else varying).append(key)
        print(f"{'repeats' if same else 'VARIES '}  {key}: "
              f"{a.get(key)} / {b.get(key)}")
    print(json.dumps({"workload": name, "seed": seed,
                      "citable_counts": citable,
                      "varying_counts": varying}))
    return 0


# ======================================================================
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--count-check", action="store_true")
    parser.add_argument("--count-run", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no program sources under {SRC}: run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.self_test:
        return self_test()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"--workload must be one of {sorted(WORKLOADS)}")
        return 2
    if args.count_check:
        return count_check(args.workload, args.seed)
    if args.count_run:
        print(json.dumps(count_run(args.workload, args.seed)))
        return 0
    spec = load_spec()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return emit(result, spec, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
