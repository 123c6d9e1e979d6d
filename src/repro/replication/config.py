"""One configuration surface for the replication layer.

:class:`ReplicatedJVM` and :class:`ReplicaGroup` grew overlapping
constructor keyword lists (strategy, transport, batching, detector,
crash injection, ...) that were spelled slightly differently at every
call site.  :class:`ReplicationConfig` is the single object that now
carries all of it: construct machines as
``ReplicatedJVM(registry, env=env, config=ReplicationConfig(...))``.

The old keyword arguments still work through a deprecation shim (they
are merged into the config and a :class:`DeprecationWarning` is
emitted); see DESIGN.md for the migration note.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.runtime.jvm import JVMConfig


@dataclass(frozen=True)
class ReplicaSettings:
    """Per-replica sources of non-determinism (deliberately different
    between primary and backup — restriction R0's assumption that
    replica environments are 'sufficiently different')."""

    scheduler_seed: int
    clock_offset_ms: int
    entropy_seed: int


DEFAULT_PRIMARY = ReplicaSettings(
    scheduler_seed=101, clock_offset_ms=0, entropy_seed=7001
)
DEFAULT_BACKUP = ReplicaSettings(
    scheduler_seed=202, clock_offset_ms=137, entropy_seed=9002
)


@dataclass(frozen=True)
class ReplicationConfig:
    """Everything configurable about a replicated machine.

    Shared knobs apply to both :class:`ReplicatedJVM` (one pair, one
    run) and :class:`ReplicaGroup` (generations + re-integration); the
    pair-only and group-only sections are ignored by the other class.
    """

    # -- shared ---------------------------------------------------------
    #: Coordination strategy: a name from the strategy registry or a
    #: CoordinationStrategy instance.
    strategy: Any = "lock_sync"
    #: Transport spec: None (in-memory), a profile name, "socket", a
    #: Transport instance, or a factory (see ``make_transport``; groups
    #: also accept a ``factory(generation)``).
    transport: Any = None
    #: Log records buffered per channel flush.
    batch_records: int = 64
    #: Missed heartbeat intervals before the failure detector fires.
    detector_timeout: int = 3
    #: Base JVM tunables (per-replica scheduler seeds are layered on).
    jvm_config: Optional[JVMConfig] = None
    #: Extra side-effect handlers beyond the stdlib's file/console/response.
    se_handlers: Sequence[Any] = ()
    #: Emit a DigestRecord every N replicated events (None = off).
    digest_interval: Optional[int] = None
    #: Steady-state incremental checkpointing: capture a delta
    #: checkpoint every N execution slices (None = off).  The backup
    #: side adopts each checkpoint and truncates its retained log to
    #: the tail, bounding both log memory and recovery replay.
    checkpoint_interval: Optional[int] = None
    #: Verify every adopted checkpoint by restoring it into a scratch
    #: JVM and comparing digests (catches composition bugs; costs one
    #: restore per adoption — disable for throughput benchmarks).
    verify_checkpoints: bool = True

    # -- pair only (ReplicatedJVM) --------------------------------------
    #: Injector event at which the primary fail-stops (None = never).
    crash_at: Optional[int] = None
    #: Run the backup JVM during normal operation (replay-as-you-go).
    hot_backup: bool = False
    primary: ReplicaSettings = DEFAULT_PRIMARY
    backup: ReplicaSettings = DEFAULT_BACKUP

    # -- group only (ReplicaGroup) --------------------------------------
    #: generation -> crash event (dict or sequence; None = no crashes).
    crash_schedule: Any = None
    #: Failover budget before the group gives up.
    max_failures: int = 8
    #: ``settings_for(generation)`` -> ReplicaSettings (None = default).
    settings_for: Optional[Callable[[int], ReplicaSettings]] = None
    #: Checkpoint transfer chunk size (None = DEFAULT_CHUNK_BYTES).
    chunk_bytes: Optional[int] = None

    # -- voting only (VotingGroup) --------------------------------------
    #: Byzantine mode: run ``n_members = 2f+1`` replicas that ballot on
    #: epoch digests and output payloads; no output is released without
    #: a quorum certificate, and an outvoted member is quarantined and
    #: re-armed through the checkpoint-transfer path.
    voting: bool = False
    #: Group size; must be odd (n = 2f+1).  f = (n-1)//2 members may
    #: lie or flip bits without the group losing exactly-once outputs.
    n_members: int = 3
    #: Multi-variant execution guard: ``"step+slice"`` pins members to
    #: alternating execution engines so any engine-specific miscompute
    #: is outvoted *and* reported as a VariantDivergence.  None runs
    #: every member on the configured base engine.
    variants: Optional[str] = None
    #: Escalate a VariantDivergence from an alarm to a raised
    #: :class:`~repro.errors.VariantDivergenceError` (fail-stop MVEE).
    variant_fail_stop: bool = False
    #: Seeded corruption injector: ``("digest", epoch)``,
    #: ``("digest", epoch, component)``, ``("output", ordinal)`` or
    #: ``("output", ordinal, arg_index)`` — flips one byte of the named
    #: digest component / output payload argument at that point, on
    #: member ``lie_member``.  Deterministic and replayable.
    lie_at: Optional[Tuple] = None
    #: Which member the corruption injector runs on (0 = the proposer,
    #: i.e. a lying primary; >0 = a bit-flipped follower).
    lie_member: int = 0
    #: Additional simultaneous liars: a sequence of ``(lie_at,
    #: lie_member)`` pairs layered on top of ``lie_at``/``lie_member``.
    #: With ``n_members = 5`` (f = 2) the group must convict two
    #: simultaneous liars in one era without losing exactly-once
    #: outputs.
    lie_specs: Sequence[Tuple] = ()

    def merged(self, **overrides) -> "ReplicationConfig":
        """A copy with ``overrides`` applied; unknown names raise
        ``TypeError`` (they would have been unknown kwargs before)."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise TypeError(
                f"unknown replication option(s): {', '.join(unknown)}"
            )
        return replace(self, **overrides)


def config_from_kwargs(config: Optional[ReplicationConfig],
                       kwargs: dict, *, owner: str) -> ReplicationConfig:
    """The deprecation shim: fold legacy constructor keywords into a
    config, warning once per call site."""
    base = config or ReplicationConfig()
    if kwargs:
        import warnings

        warnings.warn(
            f"passing replication options to {owner} as keyword "
            f"arguments is deprecated; pass "
            f"config=ReplicationConfig(...) instead",
            DeprecationWarning, stacklevel=3,
        )
        base = base.merged(**kwargs)
    return base
