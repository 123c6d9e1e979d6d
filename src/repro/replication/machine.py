"""The fault-tolerant JVM facade: primary-backup replication.

:class:`ReplicatedJVM` wires a program, an environment, a coordination
strategy, and a log transport into the paper's architecture:

* the **primary** executes the program with the strategy's hooks
  installed, buffering log records over the channel and performing
  output commit before every output command;
* the **backup is cold**: during normal operation it only accumulates
  the log (the transport's delivered list).  When the primary
  fail-stops (via :class:`~repro.replication.commit.CrashInjector`),
  the failure detector fires and a fresh JVM is built from the
  *identical initial state* (same class registry), which replays the
  log — reproducing lock acquisitions or the thread schedule, adopting
  native results, restoring volatile environment state through
  side-effect handlers, and resolving the one uncertain output — then
  continues live as the new sole machine.

Primary and backup deliberately differ in scheduler seed, clock offset,
and entropy seed: replication must succeed *despite* divergent
non-determinism, which is the paper's entire point.

Strategies resolve through the registry in
:mod:`repro.replication.strategy` (``register_strategy`` adds new ones
without editing this file); transports through
:mod:`repro.replication.transport` (in-memory by default, seeded fault
injection and real localhost TCP as alternatives).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.classfile.loader import ClassRegistry
from repro.env.channel import Channel
from repro.env.environment import Environment
from repro.env.port import INGEST_SIGNATURE, request_id
from repro.errors import AlreadyRanError, PrimaryCrashed, ReplicationError
from repro.replication.commit import CrashInjector, LogShipper
from repro.replication.config import (
    DEFAULT_BACKUP,
    DEFAULT_PRIMARY,
    ReplicaSettings,
    ReplicationConfig,
    config_from_kwargs,
)
from repro.replication.digest import (
    DigestEmitter,
    DigestRecord,
    DigestVerifier,
)
from repro.replication.failure import FailureDetector
from repro.replication.metrics import ReplicationMetrics
from repro.replication.ndnatives import BackupNativePolicy, PrimaryNativePolicy
from repro.replication.checkpoint import (
    Checkpoint,
    first_dispatch_vid,
    restore_checkpoint,
)
from repro.replication.records import (
    IdMap,
    LockAcqRecord,
    LockIntervalRecord,
    NativeResultRecord,
    OutputIntentRecord,
    ScheduleRecord,
    SideEffectRecord,
    decode_record,
)
from repro.replication.sehandlers import SideEffectHandler, SideEffectManager
from repro.replication.steady import SteadyCheckpointer, SteadyHooks
from repro.replication.strategy import (
    CoordinationStrategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
)
from repro.replication.transport import Transport, make_transport
from repro.runtime.jvm import JVM, JVMConfig, RunHooks, RunResult
from repro.runtime.natives import NativeRegistry
from repro.runtime.stdlib import default_natives

#: The built-in strategy names (kept for back-compat; the live set is
#: :func:`repro.replication.strategy.strategy_names`).
STRATEGIES = ("lock_sync", "thread_sched", "lock_intervals")

_UNSET = object()


@dataclass
class FailoverResult:
    """Outcome of one replicated run."""

    outcome: str  # "primary_completed" | "failover_completed"
    primary_result: Optional[RunResult]
    backup_result: Optional[RunResult]
    primary_metrics: ReplicationMetrics
    backup_metrics: Optional[ReplicationMetrics]
    crash_event: Optional[int] = None
    detection_intervals: Optional[int] = None

    @property
    def final_result(self) -> RunResult:
        return self.backup_result if self.backup_result is not None \
            else self.primary_result

    @property
    def failed_over(self) -> bool:
        return self.outcome == "failover_completed"


class _HeartbeatHooks(RunHooks):
    """Ship transport-level heartbeats from the primary's run loop;
    the failure detector counts them as the backup sees them."""

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._channel.heartbeat()


class _PrimaryHooks(_HeartbeatHooks):
    """Heartbeats plus the end-of-run state digest."""

    def __init__(self, channel: Channel, emitter: DigestEmitter) -> None:
        super().__init__(channel)
        self._emitter = emitter

    def on_exit(self, jvm, result) -> None:
        self._emitter.emit_final()


class _VerifierHooks(RunHooks):
    """Backup-side digest comparison at slice boundaries and exit."""

    def __init__(self, verifier: DigestVerifier) -> None:
        self._verifier = verifier

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._verifier.check_slice(jvm)

    def on_exit(self, jvm, result) -> None:
        self._verifier.check_final(jvm)


@dataclass
class ParsedLog:
    """The delivered log, partitioned by record type.  Plug-in record
    types land in :attr:`extra` (keyed by class name) unless a parse
    rule was registered via :func:`register_log_record`."""

    id_maps: List[IdMap] = field(default_factory=list)
    lock_acqs: List[LockAcqRecord] = field(default_factory=list)
    schedules: List[ScheduleRecord] = field(default_factory=list)
    results: Dict[Tuple[int, ...], List[NativeResultRecord]] = field(
        default_factory=dict
    )
    intents: Dict[Tuple[int, ...], List[OutputIntentRecord]] = field(
        default_factory=dict
    )
    intervals: List[LockIntervalRecord] = field(default_factory=list)
    side_effects: List[SideEffectRecord] = field(default_factory=list)
    digests: List[DigestRecord] = field(default_factory=list)
    extra: Dict[str, list] = field(default_factory=dict)
    total: int = 0


#: Back-compat alias (parse_log used to return a private class).
_ParsedLog = ParsedLog


_PARSE_RULES: Dict[Type, Callable[[ParsedLog, object], None]] = {
    IdMap: lambda p, r: p.id_maps.append(r),
    LockAcqRecord: lambda p, r: p.lock_acqs.append(r),
    ScheduleRecord: lambda p, r: p.schedules.append(r),
    NativeResultRecord:
        lambda p, r: p.results.setdefault(r.t_id, []).append(r),
    OutputIntentRecord:
        lambda p, r: p.intents.setdefault(r.t_id, []).append(r),
    LockIntervalRecord: lambda p, r: p.intervals.append(r),
    SideEffectRecord: lambda p, r: p.side_effects.append(r),
    DigestRecord: lambda p, r: p.digests.append(r),
}


def register_log_record(record_type: Type,
                        rule: Optional[Callable[[ParsedLog, object], None]]
                        = None) -> None:
    """Give a plug-in record type a home in :class:`ParsedLog`.

    ``rule(parsed, record)`` buckets one decoded record; with no rule
    the record goes to ``parsed.extra[record_type.__name__]`` (which is
    also where unregistered types land, so calling this is optional —
    it exists to let plug-ins claim a custom bucket or redirect a type).
    """
    if rule is None:
        name = record_type.__name__
        rule = lambda p, r: p.extra.setdefault(name, []).append(r)  # noqa: E731
    _PARSE_RULES[record_type] = rule


def parse_log(raw_records: List[bytes]) -> ParsedLog:
    """Decode and partition the delivered log.  Dispatch is by record
    type through a rule table, so strategy plug-ins can register new
    record types without touching this function."""
    parsed = ParsedLog()
    for data in raw_records:
        record = decode_record(data)
        parsed.total += 1
        rule = _PARSE_RULES.get(type(record))
        if rule is not None:
            rule(parsed, record)
        else:
            parsed.extra.setdefault(type(record).__name__, []).append(record)
    return parsed


class ReplicatedJVM:
    """One fault-tolerant JVM: a primary, a log channel, a cold backup."""

    def __init__(
        self,
        registry: ClassRegistry,
        natives: Optional[NativeRegistry] = None,
        env: Optional[Environment] = None,
        *,
        config: Optional[ReplicationConfig] = None,
        **kwargs,
    ) -> None:
        config = config_from_kwargs(config, kwargs, owner="ReplicatedJVM")
        self.config = config
        self._strategy = resolve_strategy(config.strategy)
        self.registry = registry
        self.natives = natives or default_natives()
        self.env = env or Environment()
        self.crash_at = config.crash_at
        self.primary_settings = config.primary
        self.backup_settings = config.backup
        self.base_config = config.jvm_config or JVMConfig()
        self._transport_spec = config.transport
        self.transport = make_transport(config.transport)
        self.channel = Channel(batch_records=config.batch_records,
                               transport=self.transport)
        self.detector = FailureDetector(
            config.detector_timeout,
            source=lambda: self.transport.stats.heartbeats_delivered,
        )
        self._extra_se_handlers = list(config.se_handlers)
        #: Emit a :class:`DigestRecord` every N replicated scheduling
        #: events (plus one final digest at primary exit).  ``None``
        #: disables digest checkpoints entirely.
        self.digest_interval = config.digest_interval
        self._digest_emitter: Optional[DigestEmitter] = None
        self._digest_verifier: Optional[DigestVerifier] = None

        #: Steady-state incremental checkpointing: emit a delta
        #: checkpoint every N slices and truncate the delivered log at
        #: each adoption (None = off; the log grows for the whole run).
        self.checkpoint_interval = config.checkpoint_interval
        if config.hot_backup and config.checkpoint_interval is not None:
            raise ReplicationError(
                "hot_backup replays the delivered log as it arrives; "
                "steady-state checkpoint truncation would drop records "
                "out from under it — use one or the other"
            )
        self._steady: Optional[SteadyCheckpointer] = None
        self._primary_se_manager: Optional[SideEffectManager] = None
        self._backup_from_basis = False
        self._verify_sessions = 0
        #: ``len(port.consumed)`` at the last checkpoint adoption: live
        #: takes already baked into the basis snapshot (serving mode).
        self._port_basis = 0

        self.hot_backup = config.hot_backup
        self.primary_jvm: Optional[JVM] = None
        self.backup_jvm: Optional[JVM] = None
        self.primary_metrics = ReplicationMetrics(role="primary")
        self.backup_metrics: Optional[ReplicationMetrics] = None
        self.shipper: Optional[LogShipper] = None
        self._backup_driver = None
        self._ran = False
        self._fed_records = 0
        self._hot_result: Optional[RunResult] = None
        self.hot_precrash_instructions = 0
        # -- serving lifecycle state --------------------------------------
        self._serve_port: Optional[str] = None
        self._serve_main: Optional[str] = None
        self._serve_args: Optional[List[str]] = None
        self._serve_result: Optional[FailoverResult] = None
        self._active_jvm: Optional[JVM] = None
        self._serve_crash_event: Optional[int] = None
        self._serve_detection: Optional[int] = None

    @property
    def strategy(self) -> str:
        """Name of the resolved coordination strategy."""
        return self._strategy.name

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def clone(self, *, env: Optional[Environment] = None, crash_at=_UNSET,
              hot_backup=_UNSET, transport=_UNSET, strategy=_UNSET,
              detector_timeout=_UNSET,
              digest_interval=_UNSET, checkpoint_interval=_UNSET,
              verify_checkpoints=_UNSET) -> "ReplicatedJVM":
        """A fresh, runnable machine with this one's configuration.

        A ReplicatedJVM is single-shot (:class:`AlreadyRanError`);
        crash-point sweeps and benchmark repetitions clone the template
        instead of hand re-constructing it.  The clone gets a *new*
        environment (pass ``env=`` to supply one), a fresh transport of
        the same configuration, and *fresh* side-effect handlers
        (``SideEffectHandler.fresh()``), so no run-accumulated handler
        or fault-counter state leaks between sweep iterations; keyword
        overrides adjust the copy.
        """
        if transport is _UNSET:
            spec = self._transport_spec
            if isinstance(spec, str) or callable(spec):
                transport = spec          # re-buildable by make_transport
            else:
                transport = self.transport.fresh()
        overrides = {
            "transport": transport,
            "se_handlers": tuple(h.fresh() for h in self._extra_se_handlers),
        }
        if strategy is not _UNSET:
            overrides["strategy"] = strategy
        if crash_at is not _UNSET:
            overrides["crash_at"] = crash_at
        if hot_backup is not _UNSET:
            overrides["hot_backup"] = hot_backup
        if detector_timeout is not _UNSET:
            overrides["detector_timeout"] = detector_timeout
        if digest_interval is not _UNSET:
            overrides["digest_interval"] = digest_interval
        if checkpoint_interval is not _UNSET:
            overrides["checkpoint_interval"] = checkpoint_interval
        if verify_checkpoints is not _UNSET:
            overrides["verify_checkpoints"] = verify_checkpoints
        return ReplicatedJVM(
            self.registry,
            natives=self.natives,
            env=env or Environment(),
            config=self.config.merged(**overrides),
        )

    def close(self) -> None:
        """Release transport resources (socket transports hold a
        listener and a receiver thread); the delivered log survives."""
        self.transport.close()

    # ==================================================================
    # Construction of the two replicas
    # ==================================================================
    def _make_se_manager(self) -> SideEffectManager:
        manager = SideEffectManager()
        for handler in self._extra_se_handlers:
            manager.add_handler(handler)
        return manager

    def _build_primary(self) -> JVM:
        settings = self.primary_settings
        session = self.env.attach(
            "primary",
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        config = replace(self.base_config, scheduler_seed=settings.scheduler_seed)
        jvm = JVM(self.registry, self.natives, session, config, name="primary")
        self.shipper = LogShipper(
            self.channel, self.primary_metrics, CrashInjector(self.crash_at)
        )
        se_manager = self._make_se_manager()
        self._primary_se_manager = se_manager
        jvm.native_policy = PrimaryNativePolicy(
            self.shipper, self.primary_metrics, se_manager
        )
        driver = self._strategy.make_primary(
            self.shipper, self.primary_metrics, settings, config
        )
        driver.install(jvm)
        if self.digest_interval is not None:
            emitter = DigestEmitter(
                self.shipper, self.primary_metrics, self.env,
                interval=self.digest_interval,
                lockstep=self._strategy.lockstep_digest,
            )
            emitter.jvm = jvm
            self.shipper.on_record = emitter.observe
            self._digest_emitter = emitter
            jvm.run_hooks = _PrimaryHooks(self.channel, emitter)
        else:
            jvm.run_hooks = _HeartbeatHooks(self.channel)
        if self.checkpoint_interval is not None:
            self._steady = SteadyCheckpointer(
                self.shipper, self.channel, self.primary_metrics,
                se_manager,
                interval=self.checkpoint_interval,
                verify_restore=(self._verify_adopted
                                if self.config.verify_checkpoints else None),
                on_adopt=self._on_steady_adopt,
            )
            jvm.run_hooks = SteadyHooks(jvm.run_hooks, self._steady)
        self.primary_jvm = jvm
        return jvm

    def _verify_adopted(self, checkpoint: Checkpoint) -> None:
        """Restore the composed checkpoint into a scratch machine —
        :func:`restore_checkpoint` re-derives the state digest and
        refuses the snapshot on any mismatch, so a composition bug is
        caught at adoption, not at the next failover."""
        self._verify_sessions += 1
        session = self.env.attach(f"ckpt-verify-{self._verify_sessions}")
        try:
            restore_checkpoint(
                checkpoint, self.registry, self.natives, session,
                replace(self.base_config,
                        scheduler_seed=self.backup_settings.scheduler_seed),
                name="ckpt-verify", se_manager=self._make_se_manager(),
            )
        finally:
            session.destroy()

    def _on_steady_adopt(self, checkpoint: Checkpoint) -> None:
        if self._serve_port is not None:
            # Requests consumed so far are baked into the basis; only
            # post-checkpoint recv records count at reconciliation.
            self._port_basis = len(
                self.env.port(self._serve_port).consumed
            )

    def _build_backup(self) -> JVM:
        settings = self.backup_settings
        session = self.env.attach(
            "backup",
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        config = replace(self.base_config, scheduler_seed=settings.scheduler_seed)
        metrics = ReplicationMetrics(role="backup")
        self.backup_metrics = metrics
        se_manager = self._make_se_manager()

        basis = self._steady.basis if self._steady is not None else None
        self._backup_from_basis = basis is not None
        if basis is not None:
            # Steady-state recovery: restore the last adopted checkpoint
            # (digest-verified) and replay only the retained tail.
            jvm = restore_checkpoint(
                basis, self.registry, self.natives, session, config,
                name="backup", se_manager=se_manager,
            )
            metrics.checkpoints_restored += 1
        else:
            jvm = JVM(self.registry, self.natives, session, config,
                      name="backup")

        parsed = parse_log(self.channel.backup_log())
        metrics.recovery_tail_records = parsed.total
        for record in parsed.side_effects:
            se_manager.receive(record)
        policy = BackupNativePolicy(
            parsed.results, parsed.intents, se_manager, metrics
        )
        policy.hold_when_drained = self.hot_backup
        if basis is not None:
            policy.seed_seqs(basis.native_seqs)
        jvm.native_policy = policy
        self._backup_se_manager = se_manager
        driver = self._strategy.make_backup(parsed, metrics, settings, config)
        driver.install(jvm)
        driver.set_hold(self.hot_backup)
        self._backup_driver = driver
        if basis is not None:
            # The snapshot was captured with the descheduled thread
            # still `current`; replay resumes by dispatching it first
            # (the tail's first ScheduleRecord deschedules it at the
            # captured progress point), then normalizes the scheduler
            # the same way the primary's requeue did.
            controller = getattr(driver, "controller", None)
            if controller is not None \
                    and hasattr(controller, "set_resume_vid"):
                controller.set_resume_vid(first_dispatch_vid(jvm))
            jvm.scheduler.release_current()
            jvm.sync.reevaluate_parked()
        if self.digest_interval is not None:
            source = driver.digest_epoch_source()
            if basis is not None and source is not None:
                # Retained DigestRecords carry absolute epochs; the
                # replay's consumed count restarts at the truncation
                # point, so offset it by the basis capture epoch.
                base_epoch = basis.sched_epoch
                tail_source = source
                source = lambda: base_epoch + tail_source()  # noqa: E731
            verifier = DigestVerifier(
                parsed.digests, self.env, epoch_source=source,
            )
            self._digest_verifier = verifier
            jvm.run_hooks = _VerifierHooks(verifier)
        self.backup_jvm = jvm
        return jvm

    # ==================================================================
    # Execution
    # ==================================================================
    def run(self, main_class: str, args: Optional[List[str]] = None
            ) -> FailoverResult:
        """Run with fault tolerance.  If the primary fail-stops (per
        ``crash_at``), the backup detects it, replays, and finishes.

        With ``hot_backup=True`` the backup JVM runs *during* normal
        operation: every flushed log message is applied immediately
        (the paper's 'keeping the backup updated would require only
        minor modifications'), so recovery at failover is nearly
        instantaneous — only the undelivered tail remains."""
        if self._ran:
            raise AlreadyRanError(
                "ReplicatedJVM.run() may only be called once; use "
                "ReplicatedJVM.clone() to build a fresh machine with "
                "the same configuration"
            )
        self._ran = True
        primary = self._build_primary()
        if self.hot_backup:
            backup = self._build_backup()
            backup.bootstrap(main_class, args)
            outer_on_flush = self.channel.on_flush

            def pumping_flush(n_records: int, n_bytes: int) -> None:
                outer_on_flush(n_records, n_bytes)
                self._pump_hot_backup()

            self.channel.on_flush = pumping_flush
        try:
            result = primary.run(main_class, args)
            self.channel.settle()
            self._finish_metrics(primary, self.primary_metrics)
            backup_result = None
            if self.hot_backup:
                backup_result = self._finish_hot_backup()
            return FailoverResult(
                outcome="primary_completed",
                primary_result=result,
                backup_result=None,
                primary_metrics=self.primary_metrics,
                backup_metrics=self.backup_metrics,
            )
        except PrimaryCrashed:
            self._finish_metrics(primary, self.primary_metrics)
            crash_event = self.shipper.injector.events
            # Fail-stop: volatile state and buffered records are gone.
            primary.session.destroy()
            self.channel.crash_primary()
            detection = self.detector.await_detection()

        if self.hot_backup:
            backup = self.backup_jvm
            #: How far the hot backup had already replayed when the
            #: primary died — the recovery-time advantage over a cold
            #: backup, measurable by tests and benchmarks.
            self.hot_precrash_instructions = backup.instructions
            self._pump_hot_backup()          # any tail delivered pre-crash
            backup_result = self._finish_hot_backup()
        else:
            backup = self._build_backup()
            if self._backup_from_basis:
                # The basis checkpoint already contains the bootstrapped
                # (mid-run) state; re-bootstrapping would corrupt it.
                backup_result = backup.run_to_completion()
            else:
                backup_result = backup.run(main_class, args)
            self._finish_metrics(backup, self.backup_metrics)
        return FailoverResult(
            outcome="failover_completed",
            primary_result=None,
            backup_result=backup_result,
            primary_metrics=self.primary_metrics,
            backup_metrics=self.backup_metrics,
            crash_event=crash_event,
            detection_intervals=detection,
        )

    # ==================================================================
    # Hot backup plumbing
    # ==================================================================
    def _pump_hot_backup(self) -> None:
        """Feed newly delivered records to the live backup and let it
        replay until it needs log that has not arrived yet."""
        if self._hot_result is not None:
            return
        delivered = self.channel.delivered
        new_raw = delivered[self._fed_records:]
        self._fed_records = len(delivered)
        if new_raw:
            parsed = parse_log(new_raw)
            for record in parsed.side_effects:
                self._backup_se_manager.receive(record)
            self.backup_jvm.native_policy.extend(
                parsed.results, parsed.intents
            )
            self._backup_driver.extend_from(parsed)
            if self._digest_verifier is not None and parsed.digests:
                self._digest_verifier.extend(parsed.digests)
            self.backup_jvm.sync.reevaluate_parked()
        result = self.backup_jvm.run_to_completion(pause_on_starvation=True)
        if result is not None:
            self._hot_result = result

    def _finish_hot_backup(self) -> RunResult:
        """Release hold mode and drive the hot backup to completion."""
        self._pump_hot_backup()
        if self._hot_result is None:
            backup = self.backup_jvm
            backup.native_policy.hold_when_drained = False
            self._backup_driver.set_hold(False)
            controller = backup.scheduler.controller
            if hasattr(controller, "hold_when_drained"):
                controller.starving = False
            backup.sync.reevaluate_parked()
            self._hot_result = backup.run_to_completion()
        self._finish_metrics(self.backup_jvm, self.backup_metrics)
        return self._hot_result

    def replay_backup(self, main_class: str,
                      args: Optional[List[str]] = None) -> RunResult:
        """Replay the *complete* log at the backup (no crash needed).

        This is the measurement behind Figure 2's backup bars: the
        primary ran to completion; the backup re-executes the program
        driven entirely by the log.  Call after :meth:`run` returned
        ``primary_completed``.
        """
        if self.channel.pending_records:
            self.channel.settle()
        backup = self._build_backup()
        if self._backup_from_basis:
            result = backup.run_to_completion()
        else:
            result = backup.run(main_class, args)
        self._finish_metrics(backup, self.backup_metrics)
        return result

    # ==================================================================
    # Serving lifecycle (resumable request/response operation)
    # ==================================================================
    def start_serving(self, main_class: str,
                      args: Optional[List[str]] = None, *,
                      port: str) -> None:
        """Boot the primary and drive it to its first request wait.

        Instead of one ``run()`` to completion, the machine alternates
        between :meth:`serve`/:meth:`pump` (drive until it parks on an
        empty request port — ``Server.recv`` at a safe point) and
        delivery of new requests via :meth:`submit`.  A primary crash
        during any pump fails over transparently: the backup replays
        the delivered log, resolves the uncertain tail, reconciles the
        request port (requests consumed by the dead primary whose recv
        record never arrived are requeued), and continues serving."""
        if self._ran:
            raise AlreadyRanError(
                "this ReplicatedJVM already ran; clone() a fresh machine"
            )
        if self.hot_backup:
            raise ReplicationError(
                "serving mode drives the backup only at failover; "
                "hot_backup is not supported here"
            )
        self._ran = True
        self._serve_port = port
        self._serve_main = main_class
        self._serve_args = list(args) if args else None
        primary = self._build_primary()
        primary.bootstrap(main_class, self._serve_args)
        self._active_jvm = primary
        self._pump()

    @property
    def serving(self) -> bool:
        """True while the program is parked waiting for requests."""
        return self._ran and self._serve_result is None \
            and self._serve_port is not None

    @property
    def serve_result(self) -> Optional[FailoverResult]:
        return self._serve_result

    def submit(self, request: str) -> None:
        """Queue a request without driving the machine."""
        if self._serve_port is None:
            raise ReplicationError(
                "not serving: call start_serving() first"
            )
        self.env.port(self._serve_port).push(request)

    def serve(self, request: str) -> Optional[str]:
        """Deliver one request and pump until the machine parks again;
        returns the committed response text (None if the program exited
        without answering — e.g. a shutdown command)."""
        self.submit(request)
        self._pump()
        return self.env.responses.get(request_id(request))

    def pump(self) -> bool:
        """Drive the active machine until it parks on an empty port or
        the program completes.  Returns True while still serving."""
        self._pump()
        return self._serve_result is None

    def stop_serving(self, stop_request: str) -> FailoverResult:
        """Deliver ``stop_request`` and run the program to completion."""
        self.submit(stop_request)
        self._pump()
        if self._serve_result is None:
            raise ReplicationError(
                "program still serving after stop request "
                f"{stop_request!r}"
            )
        return self._serve_result

    def _pump(self) -> None:
        if self._serve_result is not None:
            return
        while True:
            jvm = self._active_jvm
            try:
                result = jvm.run_to_completion(pause_on_starvation=True)
                if (result is None and self._steady is not None
                        and jvm is self.primary_jvm):
                    # Parked on the empty request port: a quiescent
                    # point — emit a checkpoint if the interval elapsed.
                    # A crash injected mid-emission lands in the
                    # failover path below, like any other.
                    self._steady.note_park(jvm)
            except PrimaryCrashed:
                self._failover_serving()
                if self._serve_result is not None:
                    return
                continue
            if result is None:
                return                     # parked, waiting for requests
            if jvm is self.primary_jvm:
                self.channel.settle()
                self._finish_metrics(jvm, self.primary_metrics)
                self._serve_result = FailoverResult(
                    outcome="primary_completed",
                    primary_result=result,
                    backup_result=None,
                    primary_metrics=self.primary_metrics,
                    backup_metrics=self.backup_metrics,
                )
            else:
                self._finish_metrics(jvm, self.backup_metrics)
                self._serve_result = FailoverResult(
                    outcome="failover_completed",
                    primary_result=None,
                    backup_result=result,
                    primary_metrics=self.primary_metrics,
                    backup_metrics=self.backup_metrics,
                    crash_event=self._serve_crash_event,
                    detection_intervals=self._serve_detection,
                )
            return

    def _failover_serving(self) -> None:
        """The serving-mode failover: replay, resolve the tail,
        reconcile the request port, promote the backup to live serving."""
        primary = self.primary_jvm
        self._finish_metrics(primary, self.primary_metrics)
        self._serve_crash_event = self.shipper.injector.events
        primary.session.destroy()
        self.channel.crash_primary()
        self._serve_detection = self.detector.await_detection()

        backup = self._build_backup()
        policy = backup.native_policy
        # Replay in hold mode: past-the-log execution must wait until
        # the port has been reconciled, or a live recv could consume a
        # request out of order with the requeued lost ones.
        policy.hold_when_drained = True
        self._backup_driver.set_hold(True)
        controller = getattr(self._backup_driver, "controller", None)
        if controller is not None and hasattr(controller, "tail_gate"):
            controller.tail_gate = policy.has_uncertain_tail
        if not self._backup_from_basis:
            backup.bootstrap(self._serve_main, self._serve_args)
        result = backup.run_to_completion(pause_on_starvation=True)
        if result is None and any(
            policy.has_uncertain_tail(t.vid) for t in backup.scheduler.threads
        ):
            # Admit exactly the uncertain output — the strategy keeps
            # holding everything else — and let test/confirm/re-execute
            # resolve it exactly-once.
            policy.tail_resolution = True
            controller = backup.scheduler.controller
            if hasattr(controller, "starving"):
                controller.starving = False
            backup.sync.reevaluate_parked()
            result = backup.run_to_completion(pause_on_starvation=True)

        self._reconcile_port()

        policy.hold_when_drained = False
        self._release_hold(backup)
        self._active_jvm = backup
        if result is not None:             # program finished during replay
            self._finish_metrics(backup, self.backup_metrics)
            self._serve_result = FailoverResult(
                outcome="failover_completed",
                primary_result=None,
                backup_result=result,
                primary_metrics=self.primary_metrics,
                backup_metrics=self.backup_metrics,
                crash_event=self._serve_crash_event,
                detection_intervals=self._serve_detection,
            )

    def _release_hold(self, backup: JVM) -> None:
        self._backup_driver.set_hold(False)
        controller = backup.scheduler.controller
        if hasattr(controller, "starving"):
            controller.starving = False
        backup.sync.reevaluate_parked()

    def _reconcile_port(self) -> None:
        """Exactly-once request consumption across the failover.

        ``port.consumed`` counts live takes at the dead primary; the
        surviving log holds a ``Server.recv`` result record for each
        take whose log batch was flushed before the crash.  Every reply
        forces an output commit first, so any *answered* request's recv
        record is guaranteed delivered — the mismatch can only be
        unanswered requests consumed in the crash window.  Those are
        lost in flight: un-consume them (truncate ``consumed``) and
        requeue them at the front, preserving arrival order."""
        port = self.env.port(self._serve_port)
        parsed = parse_log(self.channel.backup_log())
        survived = sum(
            1
            for records in parsed.results.values()
            for record in records
            if record.signature == INGEST_SIGNATURE
        )
        # Takes before the last adopted checkpoint were truncated out of
        # the log but are baked into the recovery basis — already
        # accounted for, not lost.
        accounted = self._port_basis + survived
        lost = port.consumed[accounted:]
        if lost:
            del port.consumed[accounted:]
            port.requeue(lost)
            if self.backup_metrics is not None:
                self.backup_metrics.requests_requeued += len(lost)

    # ==================================================================
    def _finish_metrics(self, jvm: JVM, metrics: ReplicationMetrics) -> None:
        metrics.instructions = jvm.instructions
        metrics.cf_changes = sum(t.br_cnt for t in jvm.scheduler.threads)
        metrics.engine = jvm.config.engine
        metrics.blocks_compiled = jvm.interpreter.blocks_compiled
        metrics.block_cache_hits = jvm.interpreter.block_cache_hits
        metrics.heavy_ops = jvm.heavy_ops
        metrics.native_calls = jvm.native_calls
        metrics.locks_acquired = jvm.sync.total_acquisitions
        metrics.objects_locked = jvm.sync.monitors_created
        metrics.largest_l_asn = jvm.sync.largest_l_asn
        metrics.reschedules = jvm.scheduler.reschedules
        if metrics.role == "primary":
            stats = self.transport.stats
            metrics.retransmits = stats.retransmits
            metrics.messages_dropped = stats.messages_dropped
            metrics.messages_duplicated = stats.messages_duplicated
            metrics.backpressure_stalls = stats.backpressure_stalls
            metrics.heartbeats_sent = stats.heartbeats_sent
            metrics.heartbeats_delivered = stats.heartbeats_delivered


def run_unreplicated(
    registry: ClassRegistry,
    main_class: str,
    args: Optional[List[str]] = None,
    *,
    env: Optional[Environment] = None,
    natives: Optional[NativeRegistry] = None,
    settings: ReplicaSettings = DEFAULT_PRIMARY,
    jvm_config: Optional[JVMConfig] = None,
) -> Tuple[RunResult, JVM]:
    """Run the original, unreplicated JVM (the performance baseline)."""
    env = env or Environment()
    session = env.attach(
        "baseline",
        clock_offset_ms=settings.clock_offset_ms,
        entropy_seed=settings.entropy_seed,
    )
    config = replace(
        jvm_config or JVMConfig(), scheduler_seed=settings.scheduler_seed
    )
    jvm = JVM(registry, natives or default_natives(), session, config,
              name="baseline")
    result = jvm.run(main_class, args)
    return result, jvm
