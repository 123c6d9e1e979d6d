"""Replica-group supervision: surviving repeated failures.

:class:`~repro.replication.machine.ReplicatedJVM` proves the paper's
core protocol for *one* failover: primary dies, cold backup replays the
log, continues as the sole machine.  A real deployment cannot stop
there — after the backup promotes, the system is running without a
spare, and the next fault would be fatal.  :class:`ReplicaGroup` closes
the loop with **checkpoint-based re-integration**:

1. every *generation* (epoch) begins with the primary snapshotting its
   complete state (:mod:`repro.replication.checkpoint`) and shipping it
   through the ordinary log channel to a freshly spun-up backup;
2. the backup reassembles the snapshot, restores it into a new JVM, and
   *verifies the state digest* before adopting it — a torn or corrupted
   transfer is rejected, not silently adopted;
3. once the checkpoint is acknowledged, the log is truncated at the
   checkpoint boundary on both sides: replay starts from the snapshot,
   so the prefix is dead weight and the log no longer grows without
   bound across the run;
4. every shipped record travels inside an
   :class:`~repro.replication.records.EpochRecord` envelope stamped
   with the generation; the receive side fences out records from any
   other generation, so a deposed primary that keeps transmitting
   (split brain) is provably discarded;
5. when the failure detector fires, the backup replays checkpoint +
   post-checkpoint log, resolves the uncertain output exactly-once,
   is promoted, and the cycle restarts at (1) with the next epoch.

The transfer itself is crashable: checkpoint chunks pass through the
same :class:`~repro.replication.commit.CrashInjector` event counter as
log records, so a sweep can kill the primary mid-transfer.  Because
chunk assembly is idempotent and the supervisor retains the previous
generation's basis (checkpoint + fenced execution records) until the
new transfer completes, a mid-transfer death re-runs recovery from the
old basis — replay is deterministic, so the re-promoted replica reaches
the identical state and simply re-ships its snapshot under a fresh
epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.classfile.loader import ClassRegistry
from repro.env.channel import Channel
from repro.env.environment import Environment
from repro.env.port import INGEST_SIGNATURE
from repro.errors import (
    AlreadyRanError,
    PrimaryCrashed,
    RecoveryError,
    ReplicationError,
)
from repro.replication.checkpoint import (
    DEFAULT_CHUNK_BYTES,
    Checkpoint,
    CheckpointAssembler,
    CheckpointChunkRecord,
    first_dispatch_vid,
    restore_checkpoint,
    take_checkpoint,
)
from repro.replication.commit import CrashInjector, EpochFence, LogShipper
from repro.replication.config import (
    ReplicaSettings,
    ReplicationConfig,
    config_from_kwargs,
)
from repro.replication.failure import FailureDetector
from repro.replication.machine import parse_log
from repro.replication.metrics import ReplicationMetrics
from repro.replication.ndnatives import BackupNativePolicy, PrimaryNativePolicy
from repro.replication.records import decode_record
from repro.replication.sehandlers import SideEffectHandler, SideEffectManager
from repro.replication.steady import SteadyCheckpointer, SteadyHooks
from repro.replication.strategy import resolve_strategy
from repro.replication.transport import Transport, make_transport
from repro.runtime.jvm import JVM, JVMConfig, RunHooks, RunResult
from repro.runtime.natives import NativeRegistry
from repro.runtime.stdlib import default_natives


def default_generation_settings(generation: int) -> ReplicaSettings:
    """Per-generation non-determinism sources.  Each replica gets its
    own scheduler seed, clock skew, and entropy stream — replication
    must succeed despite them (restriction R0)."""
    return ReplicaSettings(
        scheduler_seed=101 + 91 * generation,
        clock_offset_ms=13 * generation,
        entropy_seed=7001 + 97 * generation,
    )


class _GroupHeartbeatHooks(RunHooks):
    """Transport-level heartbeats from the active primary's run loop."""

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._channel.heartbeat()


# ======================================================================
# Membership state machine (quorum-voting groups)
# ======================================================================
class MemberState:
    """Lifecycle states of one voting-group member.

    ``HEALTHY → SUSPECTED`` on missed heartbeats and back on resumed
    beats or a quorum-matching vote (a slow member is not a faulty
    member); ``→ CONVICTED`` only on hard evidence — outvoted by a
    quorum certificate, equivocation, or an explicit fence — and then
    only a checkpoint re-arm returns it to ``HEALTHY``.
    """

    HEALTHY = "healthy"
    SUSPECTED = "suspected"
    CONVICTED = "convicted"


@dataclass
class MemberSlot:
    """Bookkeeping for one member slot of a voting group.

    The slot's identity (index, pinned execution engine) outlives any
    one incarnation of the member: quarantine destroys the runtime but
    keeps the slot, and a re-arm builds a fresh runtime into it.
    """

    index: int
    engine: str
    detector: FailureDetector
    state: str = MemberState.HEALTHY
    role: str = "follower"               # "proposer" | "follower"
    conviction: str = ""
    #: How many times this slot's runtime has been (re)built — used to
    #: give every incarnation a distinct environment session name.
    incarnation: int = 0
    quarantines: int = 0
    rearms: int = 0

    @property
    def healthy(self) -> bool:
        return self.state != MemberState.CONVICTED

    def suspect(self) -> bool:
        """Mark suspected; returns True on a fresh HEALTHY→SUSPECTED
        transition (convicted members stay convicted)."""
        if self.state != MemberState.HEALTHY:
            return False
        self.state = MemberState.SUSPECTED
        return True

    def absolve(self) -> bool:
        """A suspected member proved itself (resumed beats or a vote
        matching the quorum certificate); returns True if a suspicion
        was actually cleared."""
        if self.state != MemberState.SUSPECTED:
            return False
        self.state = MemberState.HEALTHY
        self.detector.absolve()
        return True

    def convict(self, reason: str) -> None:
        """Hard evidence of a fault: permanent until :meth:`rearm`."""
        if self.state == MemberState.CONVICTED:
            return
        self.state = MemberState.CONVICTED
        self.conviction = reason
        self.quarantines += 1
        self.detector.convict(reason)

    def rearm(self) -> None:
        """Rebuilt from a digest-verified checkpoint: clean slate."""
        self.state = MemberState.HEALTHY
        self.conviction = ""
        self.rearms += 1
        self.detector.rearm()


@dataclass
class GenerationReport:
    """What happened while one epoch's primary held the role."""

    generation: int
    outcome: str = "pending"
    #: Injector event count at the crash (None when no crash fired).
    crash_event: Optional[int] = None
    #: Total injector events observed this generation.
    events: int = 0
    detection_intervals: Optional[int] = None
    checkpoint_bytes: int = 0
    checkpoint_chunks: int = 0
    primary_metrics: Optional[ReplicationMetrics] = None
    #: Metrics of the recovery replay that *produced* this generation's
    #: primary (None for generation 0's fresh boot).
    recovery_metrics: Optional[ReplicationMetrics] = None
    #: Steady-state delta checkpoints adopted while this generation
    #: held the primary role (0 when checkpoint_interval is off).
    steady_checkpoints: int = 0


@dataclass
class GroupResult:
    """Outcome of one replica-group run."""

    outcome: str                      # always "completed" on return
    result: RunResult
    generations: List[GenerationReport]
    failures_survived: int

    @property
    def final_generation(self) -> int:
        return self.generations[-1].generation

    @property
    def records_fenced(self) -> int:
        total = 0
        for report in self.generations:
            for metrics in (report.primary_metrics, report.recovery_metrics):
                if metrics is not None:
                    total += metrics.records_fenced
        return total

    @property
    def checkpoint_bytes_shipped(self) -> int:
        return sum(r.checkpoint_bytes for r in self.generations
                   if r.outcome != "completed_in_recovery")


@dataclass
class _Generation:
    """Everything one armed generation owns: the instrumented primary
    and its channel-side plumbing.  Kept in one bundle so the crash
    path (which can fire during transfer *or* during execution) always
    has the right handles."""

    generation: int
    jvm: JVM
    se_manager: SideEffectManager
    transport: Transport
    channel: Channel
    metrics: ReplicationMetrics
    injector: CrashInjector
    shipper: LogShipper
    report: GenerationReport
    transfer_ok: bool = False
    #: Steady-state emitter, installed once the arm transfer completes.
    steady: Optional[SteadyCheckpointer] = None


class ReplicaGroup:
    """Primary + backup over a transport, surviving *k* failovers.

    ``crash_schedule`` maps generation -> injector crash event (a dict,
    or a sequence indexed by generation); generations without an entry
    run until program completion.  Each generation gets a fresh
    transport from ``transport`` (a spec string, a
    :class:`~repro.replication.transport.Transport` template whose
    ``fresh()`` re-arms it, or a ``factory(generation)`` callable — the
    callable form is how sweeps give every generation deterministic,
    distinct fault seeds)."""

    def __init__(
        self,
        registry: ClassRegistry,
        natives: Optional[NativeRegistry] = None,
        env: Optional[Environment] = None,
        *,
        config: Optional[ReplicationConfig] = None,
        **kwargs,
    ) -> None:
        config = config_from_kwargs(config, kwargs, owner="ReplicaGroup")
        self.config = config
        self._strategy = resolve_strategy(config.strategy)
        self.registry = registry
        self.natives = natives or default_natives()
        self.env = env or Environment()
        self.crash_schedule = config.crash_schedule
        self.max_failures = config.max_failures
        self._transport_spec = config.transport
        self._transport_template_used = False
        self._settings_for = config.settings_for or default_generation_settings
        self.base_config = config.jvm_config or JVMConfig()
        self.batch_records = config.batch_records
        self.detector = FailureDetector(config.detector_timeout)
        self._extra_se_handlers = list(config.se_handlers)
        self.chunk_bytes = (DEFAULT_CHUNK_BYTES if config.chunk_bytes is None
                            else config.chunk_bytes)
        self.checkpoint_interval = config.checkpoint_interval

        #: Per-generation reports, appended as the run progresses.
        self.reports: List[GenerationReport] = []
        #: The machine that produced the final output (for digest checks).
        self.final_jvm: Optional[JVM] = None

        # --- recovery basis: everything the surviving side knows -------
        #: Recovery basis: the last fully transferred and adopted
        #: checkpoint — arm-time full, then every adopted steady one.
        self._ckpt: Optional[Checkpoint] = None
        #: Scratch-restore sessions attached for steady verification.
        self._verify_sessions = 0
        #: Epoch that shipped (and therefore stamps) the basis records.
        self._ckpt_epoch = -1
        #: Raw (still epoch-wrapped) records delivered after the basis
        #: checkpoint, captured when that epoch's primary crashed.
        self._exec_raw: List[bytes] = []
        #: Raw leavings of deposed primaries whose transfer never
        #: completed — retained only so the fence can provably discard
        #: them at the next recovery.
        self._stale_raw: List[bytes] = []
        self._ran = False
        self._failures = 0

        # --- serving lifecycle state -----------------------------------
        #: Request port name when serving (None = classic run()).
        self._serve_port: Optional[str] = None
        #: ``len(port.consumed)`` at basis-checkpoint adoption: live
        #: takes already accounted for by the checkpoint itself.
        self._port_basis = 0
        self._serve_main: Optional[str] = None
        self._serve_args: Optional[List[str]] = None
        self._serve_result: Optional[GroupResult] = None
        self._gen: Optional[_Generation] = None
        self._generation = 0

    @property
    def failures_survived(self) -> int:
        return self._failures

    @property
    def generation(self) -> int:
        """Epoch of the currently armed generation (serving mode)."""
        return self._generation

    @property
    def active_jvm(self) -> Optional[JVM]:
        """The machine currently holding the primary role, if armed."""
        return self._gen.jvm if self._gen is not None else None

    @property
    def strategy(self) -> str:
        return self._strategy.name

    # ==================================================================
    # Plumbing
    # ==================================================================
    def _crash_at(self, generation: int) -> Optional[int]:
        schedule = self.crash_schedule
        if schedule is None:
            return None
        if isinstance(schedule, dict):
            return schedule.get(generation)
        if isinstance(schedule, (list, tuple)):
            return (schedule[generation]
                    if generation < len(schedule) else None)
        raise ReplicationError(
            "crash_schedule must be a dict or sequence of crash events"
        )

    def _make_transport(self, generation: int) -> Transport:
        spec = self._transport_spec
        if isinstance(spec, Transport):
            if self._transport_template_used:
                return spec.fresh()
            self._transport_template_used = True
            return spec
        if callable(spec):
            built = spec(generation)
            return (built if isinstance(built, Transport)
                    else make_transport(built))
        return make_transport(spec)

    def _make_se_manager(self) -> SideEffectManager:
        manager = SideEffectManager()
        for handler in self._extra_se_handlers:
            manager.add_handler(handler.fresh())
        return manager

    def _config_for(self, generation: int) -> JVMConfig:
        return replace(
            self.base_config,
            scheduler_seed=self._settings_for(generation).scheduler_seed,
        )

    @staticmethod
    def _finish_metrics(jvm: JVM, metrics: ReplicationMetrics,
                        transport: Optional[Transport] = None) -> None:
        metrics.instructions = jvm.instructions
        metrics.cf_changes = sum(t.br_cnt for t in jvm.scheduler.threads)
        metrics.heavy_ops = jvm.heavy_ops
        metrics.native_calls = jvm.native_calls
        metrics.locks_acquired = jvm.sync.total_acquisitions
        metrics.objects_locked = jvm.sync.monitors_created
        metrics.largest_l_asn = jvm.sync.largest_l_asn
        metrics.reschedules = jvm.scheduler.reschedules
        metrics.engine = jvm.config.engine
        metrics.blocks_compiled = jvm.interpreter.blocks_compiled
        metrics.block_cache_hits = jvm.interpreter.block_cache_hits
        if transport is not None:
            stats = transport.stats
            metrics.retransmits = stats.retransmits
            metrics.messages_dropped = stats.messages_dropped
            metrics.messages_duplicated = stats.messages_duplicated
            metrics.backpressure_stalls = stats.backpressure_stalls
            metrics.heartbeats_sent = stats.heartbeats_sent
            metrics.heartbeats_delivered = stats.heartbeats_delivered

    # ==================================================================
    # Recovery (build the next primary from the basis)
    # ==================================================================
    def _has_uncertain_tail(self, policy: BackupNativePolicy,
                            jvm: JVM) -> bool:
        return any(
            policy.has_uncertain_tail(t.vid) for t in jvm.scheduler.threads
        )

    def _recover(self, generation: int, main_class: str,
                 args: Optional[List[str]]
                 ) -> Tuple[JVM, SideEffectManager, Optional[RunResult],
                            ReplicationMetrics]:
        """Replay the basis into a promoted, quiescent machine.

        Restores the basis checkpoint (or boots from the identical
        initial state when no checkpoint ever completed), fences the
        retained raw log down to the basis epoch, replays it in hold
        mode, resolves the uncertain output tail exactly-once, and
        applies promotion cleanup.  Returns the machine, its side-effect
        manager, the program result if replay ran to completion (the
        recovered machine finished as sole survivor), and the replay's
        metrics."""
        metrics = ReplicationMetrics(role="backup")
        settings = self._settings_for(generation)
        session = self.env.attach(
            f"replica-g{generation}",
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        config = self._config_for(generation)
        se_manager = self._make_se_manager()

        fence = EpochFence(max(self._ckpt_epoch, 0), metrics)
        inner = fence.filter_raw(list(self._exec_raw)
                                 + list(self._stale_raw))

        if self._ckpt is not None:
            jvm = restore_checkpoint(
                self._ckpt, self.registry, self.natives, session, config,
                name=f"replica-g{generation}", se_manager=se_manager,
            )
            metrics.checkpoints_restored += 1
        else:
            jvm = JVM(self.registry, self.natives, session, config,
                      name=f"replica-g{generation}")
            jvm.bootstrap(main_class, args)

        parsed = parse_log(inner)
        metrics.recovery_tail_records = parsed.total
        self._reconcile_port(parsed, metrics)
        for record in parsed.side_effects:
            se_manager.receive(record)
        policy = BackupNativePolicy(
            parsed.results, parsed.intents, se_manager, metrics
        )
        policy.hold_when_drained = True
        if self._ckpt is not None:
            # A steady (mid-generation) basis carries the crashed
            # primary's per-thread native numbering; the tail's records
            # hold absolute seqs, so replay must resume the counters.
            policy.seed_seqs(self._ckpt.native_seqs)
        jvm.native_policy = policy
        driver = self._strategy.make_backup(parsed, metrics, settings, config)
        driver.install(jvm)
        driver.set_hold(True)
        controller = getattr(driver, "controller", None)
        if controller is not None and hasattr(controller, "tail_gate"):
            controller.tail_gate = policy.has_uncertain_tail
        if (controller is not None and self._ckpt is not None
                and hasattr(controller, "set_resume_vid")):
            controller.set_resume_vid(first_dispatch_vid(jvm))
        if self._ckpt is not None:
            # A steady basis was captured with the descheduled thread
            # still `current`; the resume vid is recorded above, so
            # normalize the scheduler exactly as the primary's requeue
            # did (no-op for quiescent arm-time checkpoints).
            jvm.scheduler.release_current()
        jvm.sync.reevaluate_parked()

        result = jvm.run_to_completion(pause_on_starvation=True)
        if result is None and self._has_uncertain_tail(policy, jvm):
            # The paper's uncertain output: intent delivered, marker
            # lost.  Admit exactly that native — the strategy keeps
            # holding everything else — and let test/confirm/re-execute
            # resolve it exactly-once.
            policy.tail_resolution = True
            if controller is not None and hasattr(controller, "starving"):
                controller.starving = False
            jvm.sync.reevaluate_parked()
            result = jvm.run_to_completion(pause_on_starvation=True)
        if result is None and policy.remaining():
            raise RecoveryError(
                f"recovery for generation {generation} stalled with "
                f"{policy.remaining()} unreplayed native record(s)"
            )
        self._promote(jvm, se_manager)
        return jvm, se_manager, result, metrics

    def _promote(self, jvm: JVM, se_manager: SideEffectManager) -> None:
        """Strip replay-era residue before the machine takes the
        primary role (or is checkpointed as one)."""
        # Lock ids are a per-generation naming scheme; the next
        # generation's strategy assigns fresh ones.
        for obj in jvm.heap.objects:
            monitor = getattr(obj, "monitor", None)
            if monitor is not None:
                monitor.l_id = None
        jvm.sync.notify_wakes_all = False
        jvm.scheduler.release_current()
        jvm.scheduler.last_reason = None
        # Volatile environment state (open fds, console position) must
        # be live before the promoted machine touches the environment;
        # no-op if the uncertain-tail path already restored it.
        se_manager.restore(jvm.session)

    # ==================================================================
    # State transfer (sender + receiver halves of re-integration)
    # ==================================================================
    def _adopt_checkpoint(self, channel: Channel,
                          metrics: ReplicationMetrics, generation: int,
                          n_chunks: int, shipper: LogShipper) -> None:
        """The fresh backup's half: reassemble the delivered chunks,
        verify the snapshot restores to the sender's digest, then
        truncate the chunk prefix from the shared log."""
        fence = EpochFence(generation, metrics)
        assembler = CheckpointAssembler()
        checkpoint: Optional[Checkpoint] = None
        for data in fence.filter_raw(channel.backup_log()):
            record = decode_record(data)
            if isinstance(record, CheckpointChunkRecord):
                assembled = assembler.feed(record)
                if assembled is not None:
                    checkpoint = assembled
        if checkpoint is None:
            raise ReplicationError(
                f"checkpoint transfer for generation {generation} was "
                f"acknowledged but never assembled"
            )
        # Digest verification by restore into a scratch machine: the
        # snapshot is adopted only if it reproduces the sender's state.
        verify_session = self.env.attach(f"verify-g{generation}")
        try:
            restore_checkpoint(
                checkpoint, self.registry, self.natives, verify_session,
                self._config_for(generation),
                name=f"verify-g{generation}",
                se_manager=self._make_se_manager(),
            )
        finally:
            verify_session.destroy()
        shipper.truncate_at_checkpoint(n_chunks)
        self._ckpt = checkpoint
        self._ckpt_epoch = generation
        self._exec_raw = []
        self._stale_raw = []
        if self._serve_port is not None:
            # Every request consumed so far is baked into the basis
            # checkpoint; only post-checkpoint recv records count at
            # the next reconciliation.
            self._port_basis = len(self.env.port(self._serve_port).consumed)

    def _verify_steady(self, checkpoint: Checkpoint) -> None:
        """Scratch-restore an adopted steady checkpoint —
        :func:`restore_checkpoint` re-derives the state digest and
        refuses the snapshot on any mismatch, so a delta-composition
        bug is caught at adoption, not at the next failover."""
        self._verify_sessions += 1
        session = self.env.attach(f"steady-verify-{self._verify_sessions}")
        try:
            restore_checkpoint(
                checkpoint, self.registry, self.natives, session,
                self._config_for(self._generation),
                name="steady-verify", se_manager=self._make_se_manager(),
            )
        finally:
            session.destroy()

    def _adopt_steady(self, composed: Checkpoint) -> None:
        """Move the recovery basis to the adopted steady checkpoint
        (already composed, and verified when ``verify_checkpoints``)."""
        self._ckpt = composed
        if self._gen is not None:
            self._gen.report.steady_checkpoints += 1
        if self._serve_port is not None:
            # Requests consumed so far are baked into the new basis;
            # only post-checkpoint recv records count at the next
            # reconciliation.
            self._port_basis = len(self.env.port(self._serve_port).consumed)

    def _reconcile_port(self, parsed,
                        metrics: Optional[ReplicationMetrics] = None
                        ) -> None:
        """Exactly-once request consumption across a failover.

        ``port.consumed`` counts live takes since the run began; the
        basis accounts for ``_port_basis`` of them (baked into the
        checkpoint) plus one ``Server.recv`` result record per take
        whose flush survived the crash.  Every reply performs output
        commit first, so an *answered* request's recv record is always
        delivered — the overhang can only be unanswered requests
        consumed in the crash window.  Those are lost in flight:
        un-consume them and requeue at the front, preserving order.
        Re-running after a torn transfer is a no-op (same basis, no
        takes in between)."""
        if self._serve_port is None:
            return
        survived = sum(
            1
            for records in parsed.results.values()
            for record in records
            if record.signature == INGEST_SIGNATURE
        )
        port = self.env.port(self._serve_port)
        accounted = self._port_basis + survived
        lost = port.consumed[accounted:]
        if lost:
            del port.consumed[accounted:]
            port.requeue(lost)
            if metrics is not None:
                metrics.requests_requeued += len(lost)

    # ==================================================================
    # The generation loop
    # ==================================================================
    def _boot(self, main_class: str, args: Optional[List[str]]
              ) -> Tuple[JVM, SideEffectManager]:
        """Generation 0's fresh boot: identical initial state, no replay."""
        settings = self._settings_for(0)
        session = self.env.attach(
            "replica-g0",
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        jvm = JVM(self.registry, self.natives, session,
                  self._config_for(0), name="replica-g0")
        jvm.bootstrap(main_class, args)
        return jvm, self._make_se_manager()

    def _arm(self, jvm: JVM, se_manager: SideEffectManager,
             generation: int,
             recovery_metrics: Optional[ReplicationMetrics]) -> _Generation:
        """Instrument ``jvm`` as this generation's primary and perform
        the checkpoint transfer to the fresh backup.  May raise
        :class:`PrimaryCrashed` mid-transfer; ``self._gen`` is already
        populated by then so the crash path has the handles."""
        transport = self._make_transport(generation)
        channel = Channel(batch_records=self.batch_records,
                          transport=transport)
        self.detector.reset(
            source=(lambda t: lambda: t.stats.heartbeats_delivered)(
                transport
            )
        )
        metrics = ReplicationMetrics(role="primary")
        injector = CrashInjector(self._crash_at(generation))
        shipper = LogShipper(channel, metrics, injector, epoch=generation)
        report = GenerationReport(generation=generation,
                                  recovery_metrics=recovery_metrics)
        gen = _Generation(generation, jvm, se_manager, transport, channel,
                          metrics, injector, shipper, report)
        self._gen = gen

        # Quiescent snapshot first, then primary instrumentation —
        # the checkpoint must not contain primary-side hooks.
        checkpoint = take_checkpoint(jvm, se_manager, generation=generation)
        if self.checkpoint_interval is not None:
            # Open the dirty window at the capture point: everything
            # mutated from here on belongs to the first steady delta.
            jvm.heap.advance_era()
        chunks = checkpoint.to_chunks(self.chunk_bytes)
        report.checkpoint_bytes = checkpoint.byte_size
        report.checkpoint_chunks = len(chunks)

        jvm.native_policy = PrimaryNativePolicy(shipper, metrics, se_manager)
        driver = self._strategy.make_primary(
            shipper, metrics, self._settings_for(generation),
            self._config_for(generation),
        )
        driver.install(jvm)
        jvm.run_hooks = _GroupHeartbeatHooks(channel)
        jvm.sync.reevaluate_parked()

        for chunk in chunks:
            shipper.log(chunk)
            metrics.checkpoint_records += 1
            metrics.checkpoint_bytes += len(chunk.data)
        shipper.checkpoint_commit()
        self._adopt_checkpoint(channel, metrics, generation, len(chunks),
                               shipper)
        gen.transfer_ok = True
        if self.checkpoint_interval is not None:
            # Steady-state emission only once the arm transfer is fully
            # adopted: a truncation can therefore never race the
            # re-integration transfer — the log the arm chunks travel
            # through is only ever cut at the adoption boundary itself.
            gen.steady = SteadyCheckpointer(
                shipper, channel, metrics, se_manager,
                interval=self.checkpoint_interval,
                generation=generation,
                chunk_bytes=self.chunk_bytes,
                basis=self._ckpt,
                verify_restore=(self._verify_steady
                                if self.config.verify_checkpoints
                                else None),
                on_adopt=self._adopt_steady,
            )
            jvm.run_hooks = SteadyHooks(jvm.run_hooks, gen.steady)
        return gen

    def _dispose_crash(self, gen: _Generation) -> None:
        """Crash bookkeeping: metrics, report, basis capture, teardown."""
        self._failures += 1
        self._finish_metrics(gen.jvm, gen.metrics, gen.transport)
        gen.report.outcome = ("crashed" if gen.transfer_ok
                              else "crashed_in_transfer")
        gen.report.crash_event = gen.injector.events
        gen.report.events = gen.injector.events
        gen.report.primary_metrics = gen.metrics
        # Fail-stop: volatile state and buffered records die with the
        # primary.
        gen.jvm.session.destroy()
        gen.channel.crash_primary()
        gen.report.detection_intervals = self.detector.await_detection()
        raw = gen.channel.backup_log()
        if gen.transfer_ok:
            # The fresh backup holds checkpoint + post-transfer
            # records: that is the new recovery basis.
            self._exec_raw = raw
            self._stale_raw = []
        else:
            # Torn transfer: the old basis stands; these stamped
            # leavings exist only to be fenced.
            self._stale_raw.extend(raw)
        self.reports.append(gen.report)
        gen.transport.close()

    def _complete(self, gen: _Generation, result: RunResult) -> GroupResult:
        """Normal-completion bookkeeping for the active generation."""
        gen.channel.settle()
        self._finish_metrics(gen.jvm, gen.metrics, gen.transport)
        gen.report.outcome = "completed"
        gen.report.events = gen.injector.events
        gen.report.primary_metrics = gen.metrics
        self.reports.append(gen.report)
        gen.transport.close()
        self.final_jvm = gen.jvm
        return GroupResult("completed", result, self.reports, self._failures)

    def _complete_in_recovery(self, jvm: JVM, result: RunResult,
                              generation: int,
                              recovery_metrics: ReplicationMetrics
                              ) -> GroupResult:
        """The program finished during replay: the recovered machine is
        the sole survivor and its output is final."""
        self._finish_metrics(jvm, recovery_metrics)
        self.final_jvm = jvm
        self.reports.append(GenerationReport(
            generation=generation,
            outcome="completed_in_recovery",
            recovery_metrics=recovery_metrics,
        ))
        return GroupResult("completed", result, self.reports, self._failures)

    def _check_budget(self, generation: int) -> None:
        if generation > self.max_failures:
            raise ReplicationError(
                f"replica group exhausted its failover budget "
                f"({self.max_failures}) — giving up"
            )

    def run(self, main_class: str, args: Optional[List[str]] = None
            ) -> GroupResult:
        """Run under supervision until the program completes, surviving
        every scheduled failure along the way."""
        if self._ran:
            raise AlreadyRanError(
                "ReplicaGroup.run() may only be called once; build a "
                "fresh group for another run"
            )
        self._ran = True
        jvm: Optional[JVM] = None
        se_manager: Optional[SideEffectManager] = None
        recovery_metrics: Optional[ReplicationMetrics] = None
        generation = 0

        while True:
            self._check_budget(generation)
            if jvm is None:
                if generation == 0 and self._ckpt is None \
                        and not self._stale_raw:
                    jvm, se_manager = self._boot(main_class, args)
                    recovery_metrics = None
                else:
                    jvm, se_manager, recovered, recovery_metrics = \
                        self._recover(generation, main_class, args)
                    if recovered is not None:
                        return self._complete_in_recovery(
                            jvm, recovered, generation, recovery_metrics
                        )
            try:
                gen = self._arm(jvm, se_manager, generation,
                                recovery_metrics)
                recovery_metrics = None
                result = jvm.run_to_completion()
                return self._complete(gen, result)
            except PrimaryCrashed:
                self._dispose_crash(self._gen)
                jvm = None
                se_manager = None
                generation += 1

    # ==================================================================
    # Serving lifecycle (resumable request/response operation)
    # ==================================================================
    def start_serving(self, main_class: str,
                      args: Optional[List[str]] = None, *,
                      port: str) -> None:
        """Boot generation 0, arm it (checkpoint transfer to the fresh
        backup), and drive it to its first request wait.

        From here the group alternates between :meth:`submit` /
        :meth:`pump` and failover: a primary crash during any pump is
        absorbed transparently — recovery replays the basis, the
        request port is reconciled for exactly-once consumption, the
        promoted machine re-arms a fresh backup under the next epoch,
        and serving resumes."""
        if self._ran:
            raise AlreadyRanError(
                "this ReplicaGroup already ran; build a fresh group"
            )
        self._ran = True
        self._serve_port = port
        self._serve_main = main_class
        self._serve_args = list(args) if args else None
        jvm, se_manager = self._boot(main_class, self._serve_args)
        self._arm_serving(jvm, se_manager, None)
        self.pump()

    @property
    def serving(self) -> bool:
        """True while the program is parked waiting for requests."""
        return self._ran and self._serve_port is not None \
            and self._serve_result is None

    @property
    def serve_result(self) -> Optional[GroupResult]:
        return self._serve_result

    def submit(self, request: str) -> None:
        """Queue a request without driving the machine."""
        if self._serve_port is None:
            raise ReplicationError(
                "not serving: call start_serving() first"
            )
        self.env.port(self._serve_port).push(request)

    def serve(self, request: str) -> Optional[str]:
        """Deliver one request and pump to the next quiescent point;
        returns the committed response text (None if the program exited
        without answering)."""
        from repro.env.port import request_id

        self.submit(request)
        self.pump()
        return self.env.responses.get(request_id(request))

    def pump(self) -> bool:
        """Drive the active generation until it parks on an empty port
        or the program completes, absorbing any primary crash along the
        way.  Returns True while still serving."""
        if self._serve_result is not None:
            return False
        while True:
            gen = self._gen
            try:
                result = gen.jvm.run_to_completion(pause_on_starvation=True)
                if result is None and gen.steady is not None:
                    # Parked on the empty request port: a quiescent
                    # point — emit if the interval elapsed.  A crash
                    # injected mid-emission falls through to the
                    # failover arm below, like any other.
                    gen.steady.note_park(gen.jvm)
            except PrimaryCrashed:
                self._dispose_crash(gen)
                self._generation += 1
                self._check_budget(self._generation)
                jvm, se_manager, recovered, recovery_metrics = \
                    self._recover(self._generation, self._serve_main,
                                  self._serve_args)
                if recovered is not None:
                    self._serve_result = self._complete_in_recovery(
                        jvm, recovered, self._generation, recovery_metrics
                    )
                    return False
                self._arm_serving(jvm, se_manager, recovery_metrics)
                if self._serve_result is not None:
                    return False
                continue
            if result is None:
                return True                # parked, waiting for requests
            self._serve_result = self._complete(gen, result)
            return False

    def stop_serving(self, stop_request: str) -> GroupResult:
        """Deliver ``stop_request`` and run the program to completion."""
        self.submit(stop_request)
        self.pump()
        if self._serve_result is None:
            raise ReplicationError(
                f"group still serving after stop request {stop_request!r}"
            )
        return self._serve_result

    def _arm_serving(self, jvm: JVM, se_manager: SideEffectManager,
                     recovery_metrics: Optional[ReplicationMetrics]) -> None:
        """Arm a generation for serving, absorbing crashes that strike
        during the checkpoint transfer itself."""
        while True:
            try:
                self._arm(jvm, se_manager, self._generation,
                          recovery_metrics)
                return
            except PrimaryCrashed:
                self._dispose_crash(self._gen)
                self._generation += 1
                self._check_budget(self._generation)
                jvm, se_manager, recovered, recovery_metrics = \
                    self._recover(self._generation, self._serve_main,
                                  self._serve_args)
                if recovered is not None:
                    self._serve_result = self._complete_in_recovery(
                        jvm, recovered, self._generation, recovery_metrics
                    )
                    return
