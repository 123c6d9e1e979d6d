"""The four benchmark workloads and their correctness checks.

Each workload has a ``setup`` (compile and boot/arm, timed), a
``measure`` that runs for a wall-clock window and may be called more
than once on the same state (the traced run measures an untraced half
and a traced half), and a ``finish`` that tears the state down and
checks every output against an independent reference.

* ``spec_batch`` — the six SPEC-JVM98 analogues at the ``bench``
  profile on the ``block`` engine, each run as a replicated primary
  (``ReplicatedJVM``) and then replayed by a full-log backup, over the
  in-memory transport.  The seed fixes the job order.
* ``kv_tcp`` — 2 primary-backup ``ReplicaGroup`` shards serving
  ``db_server`` over real loopback TCP, driven by one closed-loop
  client (send, wait for the reply, send the next).
* ``kv_failover`` — 3 ``ReplicaGroup`` shards over the in-memory
  transport (instant delivery: latency is CPU time only) with steady
  delta checkpoints, verification on, and seeded primary crashes;
  open-loop Poisson arrivals.
* ``kv_voting`` — 3 ``VotingGroup`` shards of n=3 over the in-memory
  transport with periodic digests and one seeded lying proposer;
  open-loop Poisson arrivals.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.env.environment import Environment
from repro.fleet import Fleet
from repro.fleet.traffic import Request, TrafficSpec, generate, \
    reference_responses
from repro.replication.config import ReplicationConfig
from repro.replication.digest import compute_state_digest
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.runtime.jvm import JVMConfig
from repro.workloads import BY_NAME, DB_SERVER

from hostspeed import NEIGHBOURS

PROFILE = "bench"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: (program, strategy) jobs of ``spec_batch``.
SPEC_JOBS: Tuple[Tuple[str, str], ...] = (
    ("jess", "lock_sync"), ("jack", "lock_sync"),
    ("compress", "lock_sync"), ("db", "lock_sync"),
    ("db", "thread_sched"), ("mpegaudio", "lock_sync"),
    ("mtrt", "lock_sync"), ("mtrt", "thread_sched"),
)

#: Jobs whose traced layer self-times the cost-model cross-check
#: compares with the model's Figure-3 components (the two lock-heavy
#: programs, where the components are largest).
COST_CHECK_JOBS = {("db", "lock_sync"), ("jack", "lock_sync")}

#: Each set-up phase, one before the window and one after it, repeats
#: the set-up for at least this many seconds and this many times;
#: ``setup_s`` is the median scaled set-up of both phases.
SETUP_PHASE_S = 1.0
SETUP_MIN_REPEATS = 5
#: After the window closes, queued requests get this long to drain
#: before the ones still queued count as failed.
DRAIN_GRACE_S = 2.0
#: The open loop sleeps until this long before a due time, then spins.
SPIN_S = 0.002
#: The open loop takes a host-speed sample while the next arrival is at
#: least this far off (a sample takes about 1 ms).
PROBE_SLACK_S = 0.004


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Window:
    """What one ``measure`` call observed."""

    elapsed_s: float = 0.0
    #: Per operation (job or request) latency, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Per operation busy time (primary + replay, or pump), seconds.
    service: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    generator_lag: List[float] = field(default_factory=list)
    replay_instr: int = 0
    replay_s: float = 0.0
    #: Pump durations of pumps that met a crash or deposition.
    failover_gaps: List[float] = field(default_factory=list)
    completed: int = 0
    #: Per operation: its wall-clock (start, end), which places it
    #: among the host-speed samples.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Per request (kv_*): primary instructions its pump executed.
    op_instr: List[int] = field(default_factory=list)
    #: Per job run (spec_batch): (job, primary_s, replay_s, primary
    #: metrics).
    jobs: List[Tuple[str, float, float, object]] = field(
        default_factory=list)


# ======================================================================
# Correctness checks (pure functions: the self-test feeds them
# corrupted references and requires a failure)
# ======================================================================
def load_references() -> Dict[str, Dict]:
    with open(REFERENCES) as fh:
        return json.load(fh)["programs"]


def stable_outputs(env: Environment) -> Dict[str, object]:
    """Console lines and file hashes: what a job must reproduce."""
    return {
        "console": env.console.transcript().splitlines(),
        "files": {path: hashlib.sha256(
            env.fs.contents(path).encode()).hexdigest()
            for path in sorted(env.fs.paths())},
    }


def check_job(job: str, reference: Dict, primary: Dict, replay_console,
              fp_primary: int, fp_backup: int) -> List[str]:
    """Problems with one spec job; empty when it is correct."""
    problems = []
    if primary["console"] != reference["console"]:
        problems.append(f"{job}: console differs from the step oracle")
    if primary["files"] != reference["files"]:
        problems.append(f"{job}: files differ from the step oracle")
    if replay_console != primary["console"]:
        problems.append(f"{job}: backup replay changed the console")
    if fp_primary != fp_backup:
        problems.append(f"{job}: primary/backup state digests differ")
    return problems


def check_responses(served: Sequence[Request], responses_for,
                    expected: Dict[str, str], duplicates: int
                    ) -> Tuple[int, List[str]]:
    """Failed count and problems: every served request must have
    exactly one committed response equal to the reference."""
    failed = 0
    problems = []
    for req in served:
        answer = responses_for(req)
        if answer != expected[req.rid]:
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"{req.rid}: got {answer!r}, want {expected[req.rid]!r}")
    if duplicates:
        failed += duplicates
        problems.append(f"{duplicates} duplicated response(s)")
    return failed, problems


# ======================================================================
# spec_batch
# ======================================================================
class SpecBatch:
    name = "spec_batch"
    open_loop = False
    #: Every wall second of a job is CPU work (in-memory transport), so
    #: the end-to-end figures scale job times to the reference host.
    host_scaled = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.order = list(SPEC_JOBS)
        rng.shuffle(self.order)
        self.references = load_references()
        self.failed = 0
        self.attempted = 0
        self.problems: List[str] = []
        #: Traced layer self-times of the COST_CHECK_JOBS, by job.
        self.inspected: Dict[str, Dict] = {}

    def setup(self) -> Dict:
        return {name: BY_NAME[name].compile(PROFILE)
                for name in sorted({n for n, _ in SPEC_JOBS})}

    def discard(self, registries) -> None:
        pass

    def schedule(self, seconds: float) -> None:
        pass

    def run_job(self, registries, name: str, strategy: str, tracer,
                window: Window) -> Dict:
        """Run one job, check it, and return the evidence it was
        checked on (outputs, replay console, state fingerprints)."""
        workload = BY_NAME[name]
        job = f"{name}/{strategy}"
        self.attempted += 1
        # Start every job from a collected host heap, so the garbage of
        # the jobs before it (which the seed orders) is not paid here.
        gc.collect()
        env = Environment()
        workload.prepare_env(env, PROFILE)
        machine = ReplicatedJVM(
            registries[name], env=env,
            config=ReplicationConfig(
                strategy=strategy, jvm_config=JVMConfig(engine="block")))
        tracer.rid = job
        self_s = getattr(tracer, "self_s", None)
        inspect = self_s is not None and (name, strategy) in COST_CHECK_JOBS
        before = dict(self_s) if inspect else {}
        with tracer.span("job.primary"):
            t0 = job_start = perf_counter()
            result = machine.run(workload.main_class)
            primary_s = perf_counter() - t0
        if inspect:
            self.inspected[job] = {
                "metrics": machine.primary_metrics,
                "self_s": {k: v - before.get(k, 0.0)
                           for k, v in self_s.items()}}
        primary = stable_outputs(env)
        fp_primary = compute_state_digest(
            machine.primary_jvm, env).fingerprint()
        with tracer.span("job.replay"):
            t0 = perf_counter()
            replay = machine.replay_backup(workload.main_class)
            replay_s = perf_counter() - t0
        window.intervals.append((job_start, t0 + replay_s))
        tracer.rid = None
        fp_backup = compute_state_digest(machine.backup_jvm, env).fingerprint()
        replay_console = env.console.transcript().splitlines()
        problems = check_job(job, self.references[name], primary,
                             replay_console, fp_primary, fp_backup)
        if result.outcome != "primary_completed" \
                or not result.final_result.ok or not replay.ok:
            problems.append(f"{job}: run did not complete cleanly")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        pm, bm = machine.primary_metrics, machine.backup_metrics
        window.replay_instr += bm.instructions
        window.replay_s += replay_s
        window.service.append(primary_s + replay_s)
        window.latencies.append(primary_s + replay_s)
        window.jobs.append((job, primary_s, replay_s, pm))
        return {"primary": primary, "replay": replay_console,
                "fps": (fp_primary, fp_backup)}

    def measure(self, registries, seconds: float, tracer,
                host=None) -> Window:
        """Cycle through the job list in seed order until the window
        closes, after at least one whole pass; ``host`` (a
        ``HostSpeed``), when given, is sampled between jobs.

        One operation is one job: a replicated primary run and its
        backup replay.  Job times are too unequal (0.1 s to 1.7 s) to
        pool, so the end-to-end figures are built per job, over its runs
        in the window (``spec_figures``)."""
        window = Window()
        start = perf_counter()
        while window.completed < len(self.order) \
                or perf_counter() - start < seconds:
            if host is not None:
                host.sample(NEIGHBOURS)
            name, strategy = self.order[window.completed % len(self.order)]
            self.run_job(registries, name, strategy, tracer, window)
            window.completed += 1
        if host is not None:
            host.sample(NEIGHBOURS)
        window.elapsed_s = perf_counter() - start
        return window

    def unreplicated_seconds(self, registries) -> Dict[str, float]:
        """Wall time of each program run unreplicated (block engine)."""
        out = {}
        for name in sorted({n for n, _ in SPEC_JOBS}):
            workload = BY_NAME[name]
            env = Environment()
            workload.prepare_env(env, PROFILE)
            t0 = perf_counter()
            result, _jvm = run_unreplicated(
                registries[name], workload.main_class, env=env,
                jvm_config=JVMConfig(engine="block"))
            out[name] = perf_counter() - t0
            if not result.ok:
                self.problems.append(f"{name}: unreplicated run failed")
        return out

    def finish(self, registries) -> None:
        pass


def spec_figures(window: Window, slowdowns: Sequence[float]
                 ) -> Tuple[float, float, float]:
    """``spec_batch``'s (primary_instr_per_s, throughput_rps,
    latency_p50_ms) from each job's median over its runs, times divided
    by the host's slowdown around each run: a pass's median latency is
    the sum of its jobs' medians (primary + replay), its throughput the
    inverse, and the instruction rate is a pass's primary instructions
    over the sum of its jobs' median primary times."""
    runs: Dict[str, List[Tuple[float, float, int]]] = {}
    for (job, primary_s, replay_s, pm), slow in zip(window.jobs, slowdowns):
        runs.setdefault(job, []).append(
            (primary_s / slow, (primary_s + replay_s) / slow,
             pm.instructions))
    primary_s = sum(statistics.median(p for p, _l, _i in rs)
                    for rs in runs.values())
    pass_s = sum(statistics.median(lat for _p, lat, _i in rs)
                 for rs in runs.values())
    instr = sum(rs[0][2] for rs in runs.values())
    return instr / primary_s, 1.0 / pass_s, pass_s * 1e3


# ======================================================================
# kv_* — fleets of replica groups serving db_server
# ======================================================================
class KvFleet:
    """Shared request loop: build the fleet, route one request per pump,
    time it, and check every response at the end."""

    name = ""
    n_shards = 3
    open_loop = True
    #: In memory, a request's latency is CPU time and queueing behind
    #: CPU time, so the end-to-end figures scale it to the reference
    #: host (see ``hostspeed``).
    host_scaled = True
    qps = 0.0
    #: Requests the count-repeatability run serves (enough to reach the
    #: workload's checkpoints, crashes or deposition).
    count_requests = 300

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.keyspace = int(DB_SERVER.params_for(PROFILE)["keyspace"])
        self.requests: List[Request] = []
        self.served: List[Request] = []
        self.next_index = 0
        self.offset_ms = 0.0
        self.failed = 0
        self.attempted = 0
        self.problems: List[str] = []

    # -- construction --------------------------------------------------
    def config(self) -> ReplicationConfig:
        raise NotImplementedError

    def fleet_kwargs(self) -> Dict:
        return {}

    def setup(self) -> Fleet:
        fleet = Fleet(self.n_shards, profile=PROFILE, config=self.config(),
                      **self.fleet_kwargs())
        fleet.start()
        return fleet

    def discard(self, fleet: Fleet) -> None:
        """Tear down a setup that will not serve traffic."""
        fleet.stop()

    def schedule(self, seconds: float) -> None:
        """The seeded request list: Poisson arrivals at ``qps`` over
        ``seconds`` for the open loop.  The closed loop uses only the
        order and mix, and grows its list as the client consumes it."""
        self.traffic_seed = self.rng.randrange(1 << 30)
        if self.open_loop:
            reqs = self._generate(int(self.qps * seconds * 1.5) + 100)
            self.requests = [r for r in reqs
                             if r.arrival_ms < seconds * 1000.0]

    def _generate(self, n: int) -> List[Request]:
        # The closed loop ignores arrival times; any positive rate will do.
        return generate(TrafficSpec(qps=max(self.qps, 1.0), n_requests=n,
                                    n_clients=8, keyspace=self.keyspace,
                                    seed=self.traffic_seed))

    def pool(self, n: int) -> None:
        """Grow the closed loop's list to at least ``n`` requests.  A
        longer list from the same seed keeps the shorter one as its
        prefix, so the requests already sent keep their place."""
        if len(self.requests) < n:
            self.requests = self._generate(max(n, 2 * len(self.requests)))

    # -- one request ---------------------------------------------------
    def serve_one(self, fleet: Fleet, req: Request, tracer,
                  window: Window) -> float:
        """Submit ``req``, pump its shard once; returns the end time."""
        shard = fleet.submit(req.text)
        group = fleet.groups[shard]
        before = group.failures_survived
        jvm = group.active_jvm
        instr = jvm.instructions
        tracer.rid = req.rid
        with tracer.span("fleet.pump"):
            t0 = perf_counter()
            group.pump()
            t1 = perf_counter()
        tracer.rid = None
        after_jvm = group.active_jvm or group.final_jvm
        executed = max(0, after_jvm.instructions - instr) \
            if after_jvm is not None else 0
        window.op_instr.append(executed)
        window.service.append(t1 - t0)
        if group.failures_survived > before:
            window.failover_gaps.append(t1 - t0)
        self.served.append(req)
        window.completed += 1
        return t1

    # -- measurement ---------------------------------------------------
    def measure(self, fleet: Fleet, seconds: float, tracer,
                host=None) -> Window:
        """``host`` (a ``HostSpeed``), when given, is sampled while the
        open loop waits for the next arrival."""
        if self.open_loop:
            return self._measure_open(fleet, seconds, tracer, host)
        return self._measure_closed(fleet, seconds, tracer)

    def _measure_closed(self, fleet, seconds, tracer) -> Window:
        window = Window()
        start = perf_counter()
        while perf_counter() - start < seconds:
            self.pool(self.next_index + 1)
            req = self.requests[self.next_index]
            self.next_index += 1
            self.attempted += 1
            sent = perf_counter()
            done = self.serve_one(fleet, req, tracer, window)
            window.latencies.append(done - sent)
            window.intervals.append((sent, done))
        window.elapsed_s = perf_counter() - start
        return window

    def _measure_open(self, fleet, seconds, tracer, host) -> Window:
        """Pace arrivals against the wall clock; time each request
        from its due time; serve in due order, one request per pump."""
        window = Window()
        base = self.offset_ms / 1000.0
        todo = []
        while self.next_index < len(self.requests) and \
                self.requests[self.next_index].arrival_ms < \
                self.offset_ms + seconds * 1000.0:
            todo.append(self.requests[self.next_index])
            self.next_index += 1
        self.offset_ms += seconds * 1000.0
        self.attempted += len(todo)
        queue: deque = deque()
        i = 0
        start = perf_counter()
        deadline = seconds + DRAIN_GRACE_S
        while i < len(todo) or queue:
            now = perf_counter() - start
            if now > deadline:
                break
            while i < len(todo) and todo[i].arrival_ms / 1000.0 - base <= now:
                due = todo[i].arrival_ms / 1000.0 - base
                window.generator_lag.append(now - due)
                queue.append((todo[i], due))
                i += 1
            if not queue:
                # Sample the host's speed while the next arrival is far
                # enough off; otherwise sleep to just short of its due
                # time, then spin: wake-up jitter would otherwise land
                # in the latency.
                wait = todo[i].arrival_ms / 1000.0 - base - now
                if host is not None and wait > PROBE_SLACK_S:
                    host.sample()
                elif wait > SPIN_S:
                    time.sleep(wait - SPIN_S)
                continue
            req, due = queue.popleft()
            window.queue_waits.append(perf_counter() - start - due)
            done = self.serve_one(fleet, req, tracer, window) - start
            window.latencies.append(done - due)
            window.intervals.append((start + due, start + done))
        window.elapsed_s = perf_counter() - start
        unserved = len(queue) + (len(todo) - i)
        if unserved:
            self.failed += unserved
            self.problems.append(
                f"{unserved} request(s) still queued at the end")
        return window

    # -- teardown and check -------------------------------------------
    def finish(self, fleet: Fleet) -> None:
        fleet.stop()
        expected = reference_responses(self.requests[:self.next_index])
        duplicates = sum(g.env.responses.duplicates for g in fleet.groups)
        failed, problems = check_responses(
            self.served,
            lambda req: fleet.groups[fleet.route(req.text)]
            .env.responses.get(req.rid),
            expected, duplicates)
        self.failed += failed
        self.problems.extend(problems)


class KvTcp(KvFleet):
    name = "kv_tcp"
    n_shards = 2
    open_loop = False
    #: A request's latency is a loopback ack wait, which host load does
    #: not stretch: its figures stay as measured.
    host_scaled = False

    def config(self) -> ReplicationConfig:
        return ReplicationConfig(transport="socket")


class KvFailover(KvFleet):
    name = "kv_failover"
    n_shards = 3
    qps = 150.0
    count_requests = 2000
    #: Steady delta checkpoints every this many qualifying slices.
    checkpoint_interval = 512
    #: Crashes per shard, one in each generation 0..crashes-1.
    crashes = 4
    #: Injector events per crash, drawn from this range (a request
    #: costs a handful of events, so crashes spread over the run).
    crash_events = (900, 1400)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        lo, hi = self.crash_events
        self.crash_plan = {
            shard: {gen: self.rng.randrange(lo, hi)
                    for gen in range(self.crashes)}
            for shard in range(self.n_shards)
        }

    def config(self) -> ReplicationConfig:
        return ReplicationConfig(
            checkpoint_interval=self.checkpoint_interval,
            verify_checkpoints=True)

    def fleet_kwargs(self) -> Dict:
        return {"crash_schedule_for": lambda shard: self.crash_plan[shard]}


class KvVoting(KvFleet):
    name = "kv_voting"
    n_shards = 3
    qps = 80.0
    count_requests = 900
    digest_interval = 8
    #: Output ordinal range for the proposer's one seeded lie.
    lie_outputs = (60, 240)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.lie_shard = self.rng.randrange(self.n_shards)
        self.lie_output = self.rng.randrange(*self.lie_outputs)

    def config(self) -> ReplicationConfig:
        return ReplicationConfig(
            voting=True, n_members=3, strategy="thread_sched",
            digest_interval=self.digest_interval,
            lie_at=("output", self.lie_output), lie_member=0)

    def fleet_kwargs(self) -> Dict:
        return {"lie_shard": self.lie_shard}


WORKLOADS = {cls.name: cls for cls in (SpecBatch, KvTcp, KvFailover,
                                        KvVoting)}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
