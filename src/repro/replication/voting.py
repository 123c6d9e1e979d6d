"""Quorum-voted digests: Byzantine-tolerant voting replication.

The paper's protocol assumes *fail-stop* replicas: a primary that dies
is detectably dead, and everything it shipped before dying is true.  A
lying primary — one that ships a corrupted state digest, or proposes an
output payload that does not match its own replicated execution —
breaks that assumption silently: the 1:1 pair would commit the wrong
output and never notice.  :class:`VotingGroup` closes that gap with
``n = 2f + 1`` members that *ballot* on every comparable artifact:

* the **proposer** (initially member 0) executes with the ordinary
  primary instrumentation and ships its log through one channel; every
  epoch :class:`~repro.replication.digest.DigestRecord` it emits and
  every output payload it is about to release becomes a proposal it
  votes for;
* the **followers** are hot replicas replaying the delivered log in
  lockstep (replicated thread scheduling).  Where the 1:1 hot backup
  *compares* digests and raises on mismatch, a follower here
  *recomputes and votes*; where it would silently hold at an
  un-markered output intent, it peeks the already-materialized
  arguments off the replaying thread's stack and votes on the payload
  it independently computed;
* a :class:`QuorumTally` collects the ballots.  ``f + 1`` matching
  votes form a :class:`QuorumCertificate`; **no output is released
  without one** (the shipper's ``commit_gate`` runs inside output
  commit, after the flush/ack round trip and before the native
  executes).  A member whose vote disagrees with a certificate is
  *convicted* — quarantined immediately, and re-armed later from a
  digest-verified checkpoint shipped through the same channel the arm
  transfer uses;
* a convicted **proposer** is deposed exactly like a crashed primary:
  its session is destroyed, the channel fences, the lowest healthy
  member is promoted by replaying the era basis + retained log
  (resolving the uncertain output with its *own, honestly recomputed*
  arguments), and a fresh era re-arms every slot — including the
  quarantined liar — via checkpoint transfer.

Multi-variant execution guard (MVEE)
------------------------------------
With ``variants="step+slice"`` the members are pinned to alternating
execution engines.  The engines are contractually bit-identical, so in
an honest run the guard is silent; any divergence between engines
shows up as an outvoted ballot whose engine differs from the
certificate's voters and is reported as a :class:`VariantDivergence`
(and, with ``variant_fail_stop=True``, raised as
:class:`~repro.errors.VariantDivergenceError`).

Fault injection
---------------
:class:`LieSpec` / :class:`CorruptionInjector` implement the seeded,
deterministic corruption hooks tests and ``repro conform --byzantine``
drive: ``("digest", epoch[, component])`` flips one component of the
member's digest proposal/ballot at that epoch; ``("output", ordinal[,
arg_index])`` flips one byte of the output payload at that ordinal —
on the proposer the *actual proposed arguments* are corrupted in
place, so the lie would reach the environment if the quorum failed to
stop it.
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
    PrimaryOutvoted,
    QuorumLostError,
    RecoveryError,
    ReplicationError,
    VariantDivergenceError,
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
from repro.replication.config import ReplicationConfig, config_from_kwargs
from repro.replication.digest import (
    LOCKSTEP_COMPONENTS,
    DigestEmitter,
    DigestRecord,
    DigestVerifier,
    StateDigest,
    _h,
    compute_state_digest,
)
from repro.replication.failure import FailureDetector
from repro.replication.machine import parse_log, register_log_record
from repro.replication.metrics import ReplicationMetrics
from repro.replication.ndnatives import BackupNativePolicy, PrimaryNativePolicy
from repro.replication.records import (
    KIND_VOTE,
    decode_record,
    encode,
    register_record_kind,
)
from repro.replication.sehandlers import SideEffectManager
from repro.replication.strategy import resolve_strategy
from repro.replication.supervisor import (
    MemberSlot,
    MemberState,
    default_generation_settings,
)
from repro.replication.transport import Transport, make_transport
from repro.replication.wire import Reader, Writer
from repro.runtime.jvm import JVM, JVMConfig, RunHooks, RunResult
from repro.runtime.natives import NativeRegistry
from repro.runtime.scheduler import SliceEnd
from repro.runtime.stdlib import default_natives
from repro.runtime.threads import ThreadState
from repro.runtime.values import JArray, JObject

Vid = Tuple[int, ...]


# ======================================================================
# The wire record (plug-in record kind 12)
# ======================================================================
@dataclass(frozen=True)
class VoteRecord:
    """One ballot, serialized through the ordinary log.

    The tally itself is fed synchronously (all members share one
    process), so the wire copy is the *audit trail*: every vote any
    member cast travels to the followers inside the same epoch-stamped
    stream as the records it judges, survives a deposition in the
    retained log, and is fenced/truncated by exactly the same rules.
    ``index`` is the per-subject coordinate: ``(epoch,)`` for periodic
    digests, ``(*vid, seq)`` for outputs, ``()`` for the final digest.
    """

    member: int
    era: int
    subject: str                 # "digest" | "output" | "final"
    index: Vid
    value: int                   # 128-bit fingerprint
    engine: str = ""

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_VOTE).uvarint(self.member).uvarint(self.era)
        w.text(self.subject).vid(self.index)
        w.raw(self.value.to_bytes(16, "big")).text(self.engine)

    @staticmethod
    def read(r: Reader) -> "VoteRecord":
        return VoteRecord(
            r.uvarint(), r.uvarint(), r.text(), r.vid(),
            int.from_bytes(r.raw(16), "big"), r.text(),
        )


register_record_kind(KIND_VOTE, VoteRecord.read, core=True)
register_log_record(VoteRecord)


# ======================================================================
# Votes, certificates, verdicts, tally
# ======================================================================
@dataclass(frozen=True)
class Vote:
    """One member's ballot on one subject instance."""

    member: int
    era: int
    subject: str
    index: Vid
    value: int
    engine: str = ""

    @property
    def key(self) -> Tuple[str, int, Vid]:
        return (self.subject, self.era, self.index)


@dataclass(frozen=True)
class QuorumCertificate:
    """``f + 1`` matching votes on one subject instance."""

    subject: str
    era: int
    index: Vid
    value: int
    voters: Tuple[int, ...]

    @property
    def key(self) -> Tuple[str, int, Vid]:
        return (self.subject, self.era, self.index)


@dataclass(frozen=True)
class Verdict:
    """One ruling the tally hands back from :meth:`QuorumTally.add`.

    ``certified`` announces a fresh certificate; ``outvoted`` names a
    member whose vote disagrees with its slot's certificate (including
    votes cast *before* the certificate formed); ``equivocation`` names
    a member that voted two different values for one subject — proof of
    fault with no quorum needed.
    """

    kind: str                    # "certified" | "outvoted" | "equivocation"
    member: Optional[int]
    key: Tuple[str, int, Vid]
    certificate: Optional[QuorumCertificate] = None
    expected: Optional[int] = None
    got: Optional[int] = None
    engine: str = ""


class QuorumTally:
    """Ballot box for an ``n = 2f + 1`` group.

    Duplicate votes are idempotent; a convicted member's votes are
    ignored until :meth:`rearm`; votes for eras below the truncation
    floor (set when an era's log is superseded) are discarded.  With at
    most two distinct values in a slot an exact tie is impossible:
    ``2f + 1`` voters cannot split ``q : q`` with ``q = f + 1``.
    """

    def __init__(self, n_members: int) -> None:
        if n_members < 1 or n_members % 2 == 0:
            raise ReplicationError(
                f"a voting group needs an odd member count (n = 2f + 1), "
                f"got {n_members}"
            )
        self.n = n_members
        self.f = (n_members - 1) // 2
        self.quorum = self.f + 1
        self._slots: Dict[Tuple[str, int, Vid], Dict[int, Vote]] = {}
        self._certs: Dict[Tuple[str, int, Vid], QuorumCertificate] = {}
        #: (key, member) pairs already ruled on — a member is judged at
        #: most once per subject instance.
        self._ruled: set = set()
        self.convicted: set = set()
        self.floor_era = 0
        self.votes_accepted = 0
        self.votes_ignored = 0

    # ------------------------------------------------------------------
    def certificate(self, key) -> Optional[QuorumCertificate]:
        return self._certs.get(tuple(key))

    def votes_for(self, key) -> Dict[int, Vote]:
        return dict(self._slots.get(tuple(key), {}))

    def convict(self, member: int) -> None:
        self.convicted.add(member)

    def rearm(self, member: int) -> None:
        self.convicted.discard(member)

    def truncate_below(self, era: int) -> None:
        """Drop every slot and certificate from eras below ``era`` (the
        voting analogue of log truncation at a checkpoint boundary) and
        ignore any straggler votes for them from now on."""
        self.floor_era = era
        for table in (self._slots, self._certs):
            for key in [k for k in table if k[1] < era]:
                del table[key]
        self._ruled = {
            (key, member) for (key, member) in self._ruled
            if key[1] >= era
        }

    def uncertified(self, era: int) -> List[Tuple[str, int, Vid]]:
        """Subject instances of ``era`` that never reached a quorum."""
        return sorted(
            key for key in self._slots
            if key[1] == era and key not in self._certs
        )

    def certified(self, era: int) -> List[QuorumCertificate]:
        """Certificates formed in ``era`` (probe surface for sweeps)."""
        return [cert for key, cert in sorted(self._certs.items())
                if key[1] == era]

    # ------------------------------------------------------------------
    def add(self, vote: Vote) -> List[Verdict]:
        """Tally one ballot; returns any verdicts it triggers."""
        key = vote.key
        if vote.era < self.floor_era or vote.member in self.convicted:
            self.votes_ignored += 1
            return []
        slot = self._slots.setdefault(key, {})
        prior = slot.get(vote.member)
        if prior is not None:
            if prior.value == vote.value:
                self.votes_ignored += 1      # duplicate: idempotent
                return []
            self.votes_accepted += 1
            if (key, vote.member) in self._ruled:
                return []
            self._ruled.add((key, vote.member))
            return [Verdict(
                "equivocation", vote.member, key,
                certificate=self._certs.get(key),
                expected=prior.value, got=vote.value, engine=vote.engine,
            )]
        self.votes_accepted += 1
        slot[vote.member] = vote

        verdicts: List[Verdict] = []
        cert = self._certs.get(key)
        if cert is None:
            counts: Dict[int, List[int]] = {}
            for v in slot.values():
                counts.setdefault(v.value, []).append(v.member)
            for value, members in counts.items():
                if len(members) >= self.quorum:
                    cert = QuorumCertificate(
                        vote.subject, vote.era, vote.index, value,
                        tuple(sorted(members)),
                    )
                    self._certs[key] = cert
                    verdicts.append(Verdict("certified", None, key,
                                            certificate=cert))
                    break
        if cert is not None:
            # Rule on every disagreeing vote in the slot — including
            # ones cast before the certificate formed.
            for member in sorted(slot):
                v = slot[member]
                if v.value != cert.value and (key, member) not in self._ruled:
                    self._ruled.add((key, member))
                    verdicts.append(Verdict(
                        "outvoted", member, key, certificate=cert,
                        expected=cert.value, got=v.value, engine=v.engine,
                    ))
        return verdicts


# ======================================================================
# Seeded corruption injection
# ======================================================================
@dataclass
class LieSpec:
    """Where and how one member lies (deterministic, fires once).

    ``("digest", epoch)`` / ``("digest", epoch, component)`` — corrupt
    the named digest component at that emission epoch (the final digest
    matches on its closing epoch count as well);
    ``("output", ordinal)`` / ``("output", ordinal, arg_index)`` — flip
    the payload argument of the member's ``ordinal``-th output
    (0-based; ``arg_index`` defaults to the last argument, -1).
    """

    kind: str
    target: int
    detail: Any
    member: int = 0

    @staticmethod
    def parse(lie_at, lie_member: int) -> Optional["LieSpec"]:
        if lie_at is None:
            return None
        if not isinstance(lie_at, (tuple, list)) or len(lie_at) < 2:
            raise ReplicationError(
                f"lie_at must be (kind, target[, detail]); got {lie_at!r}"
            )
        kind = lie_at[0]
        if kind == "digest":
            detail = lie_at[2] if len(lie_at) > 2 else "heap"
            if detail not in LOCKSTEP_COMPONENTS:
                raise ReplicationError(
                    f"digest lie component must be one of "
                    f"{LOCKSTEP_COMPONENTS}, got {detail!r}"
                )
            return LieSpec("digest", int(lie_at[1]), detail, lie_member)
        if kind == "output":
            detail = int(lie_at[2]) if len(lie_at) > 2 else -1
            return LieSpec("output", int(lie_at[1]), detail, lie_member)
        raise ReplicationError(
            f"lie_at kind must be 'digest' or 'output', got {kind!r}"
        )


def _flip_scalar(value: Any) -> Any:
    """The one-bit corruption: deterministic, type-preserving."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, float):
        return -value if value else 1.0
    if isinstance(value, str):
        return (chr(ord(value[0]) ^ 1) + value[1:]) if value else "\x01"
    return value


class CorruptionInjector:
    """Fires each configured :class:`LieSpec` exactly once, replayably.

    With one spec this is the single-liar injector of PR 8; a list of
    specs arms *simultaneous* liars (up to f of them) — each fires
    independently at its own deterministic point, and each fires at
    most once.  The ``lies_on_*`` probes return the matched spec (or
    ``None``) so the corruption helpers know which lie to apply.
    """

    def __init__(self, specs) -> None:
        if specs is None or isinstance(specs, LieSpec):
            specs = [specs]
        self.specs: List[LieSpec] = [s for s in specs if s is not None]
        #: (kind, member, where) tuples of fired corruptions.
        self.fired: List[Tuple] = []
        self._fired_specs: set = set()
        self._output_ordinals: Dict[int, int] = {}

    @property
    def exhausted(self) -> bool:
        return len(self._fired_specs) >= len(self.specs)

    @property
    def liars(self) -> List[int]:
        """Members armed to lie, sorted and deduplicated."""
        return sorted({s.member for s in self.specs})

    def lies_on_digest(self, member: int, epoch: int) -> Optional[LieSpec]:
        for i, s in enumerate(self.specs):
            if (i not in self._fired_specs and s.kind == "digest"
                    and s.member == member and s.target == epoch):
                self._fired_specs.add(i)
                self.fired.append(("digest", member, epoch))
                return s
        return None

    def corrupt_components(
        self, spec: LieSpec, components: Tuple[Tuple[str, int], ...]
    ) -> Tuple[Tuple[str, int], ...]:
        target = spec.detail
        return tuple(
            (name, value ^ 1 if name == target else value)
            for name, value in components
        )

    def lies_on_output(self, member: int) -> Optional[LieSpec]:
        """Counts this member's output and decides whether to corrupt
        it.  The ordinal advances per output so the lie lands at one
        deterministic, replayable point."""
        if not any(s.kind == "output" and s.member == member
                   for s in self.specs):
            return None
        ordinal = self._output_ordinals.get(member, 0)
        self._output_ordinals[member] = ordinal + 1
        for i, s in enumerate(self.specs):
            if (i not in self._fired_specs and s.kind == "output"
                    and s.member == member and s.target == ordinal):
                self._fired_specs.add(i)
                self.fired.append(("output", member, ordinal))
                return s
        return None

    def corrupt_args(self, spec: LieSpec, args: List[Any]) -> None:
        """Flip the targeted argument *in place* — a lying proposer's
        corruption must be the payload it would actually execute."""
        if not args:
            return
        index = spec.detail
        try:
            value = args[index]
        except IndexError:
            index = -1
            value = args[index]
        if isinstance(value, JArray):
            if value.data:
                value.data[0] = _flip_scalar(value.data[0])
            return
        if isinstance(value, JObject):
            for name in sorted(value.fields):
                if not isinstance(value.fields[name], (JObject, JArray)):
                    value.fields[name] = _flip_scalar(value.fields[name])
                    return
            return
        args[index] = _flip_scalar(value)


# ======================================================================
# Payload fingerprints
# ======================================================================
def _payload_token(value: Any) -> str:
    """Replica-independent token of one output argument.  Heap values
    are named by content (class/element data, scalar fields), never by
    oids; nested references collapse to a marker — deterministic on
    both sides, which is all a fingerprint needs."""
    if value is None:
        return "null"
    if isinstance(value, JArray):
        body = ",".join(_payload_token(v) for v in value.data)
        return f"A{value.elem_type}[{body}]"
    if isinstance(value, JObject):
        body = ",".join(
            f"{name}="
            + ("&" if isinstance(value.fields[name], (JObject, JArray))
               else _payload_token(value.fields[name]))
            for name in sorted(value.fields)
        )
        return f"O{value.class_name}{{{body}}}"
    if isinstance(value, bool):
        return f"b{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{value!r}"
    return f"i{value}"


def output_fingerprint(signature: str, args: List[Any]) -> int:
    """128-bit fingerprint of one output command's full payload."""
    return _h("out:" + signature + "|"
              + "|".join(_payload_token(a) for a in args))


# ======================================================================
# Events
# ======================================================================
@dataclass
class QuarantineEvent:
    """One conviction: who, why, and whether they were re-armed."""

    era: int
    member: int
    role: str                    # "proposer" | "follower"
    reason: str
    subject: str = ""
    index: Vid = ()
    expected: Optional[int] = None
    got: Optional[int] = None
    rearmed: bool = False
    rearmed_era: Optional[int] = None


@dataclass(frozen=True)
class VariantDivergence:
    """The MVEE guard's alarm: an outvoted ballot whose engine differs
    from the certificate's voters — an engine-specific miscompute."""

    era: int
    subject: str
    index: Vid
    member: int
    engine: str
    majority_engines: Tuple[str, ...]
    expected: Optional[int]
    got: Optional[int]

    def __str__(self) -> str:
        return (
            f"era {self.era} {self.subject}@{self.index}: member "
            f"{self.member} ({self.engine}) disagrees with quorum "
            f"engines {self.majority_engines}"
        )


@dataclass
class EraReport:
    """What happened while one era's proposer held the role."""

    era: int
    proposer: int
    outcome: str = "pending"     # "completed"|"deposed"|"completed_in_recovery"
    proposer_metrics: Optional[ReplicationMetrics] = None
    recovery_metrics: Optional[ReplicationMetrics] = None
    checkpoint_bytes: int = 0
    checkpoint_chunks: int = 0
    rearms: int = 0


@dataclass
class VotingResult:
    """Outcome of one voting-group run."""

    outcome: str                 # "completed" | "completed_in_recovery"
    result: RunResult
    reports: List[EraReport]
    incidents: List[QuarantineEvent]
    divergences: List[VariantDivergence]
    metrics: ReplicationMetrics
    members: List[MemberSlot]
    final_era: int
    final_jvm: Optional[JVM] = None

    @property
    def depositions(self) -> int:
        return sum(1 for i in self.incidents if i.role == "proposer")


# ======================================================================
# Hooks
# ======================================================================
class _ProposerHooks(RunHooks):
    """Heartbeats, end-of-run digest, and the group's slice-boundary
    work: vote-wire drain, verdict processing (which may depose the
    proposer right here), and pending follower re-arms."""

    def __init__(self, group: "VotingGroup", channel: Channel,
                 emitter: DigestEmitter) -> None:
        self._group = group
        self._channel = channel
        self._emitter = emitter

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._channel.heartbeat()
        self._group._on_proposer_slice(jvm, thread, reason)

    def on_exit(self, jvm, result) -> None:
        self._emitter.emit_final()


class _FollowerHooks(RunHooks):
    """Digest balloting at slice boundaries and exit (the voting
    analogue of the hot pair's verifier hooks)."""

    def __init__(self, verifier: DigestVerifier) -> None:
        self._verifier = verifier

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._verifier.check_slice(jvm)

    def on_exit(self, jvm, result) -> None:
        self._verifier.check_final(jvm)


class _ProposingEmitter(DigestEmitter):
    """The proposer's digest emitter: every record it would ship first
    passes through the group, which casts the proposer's ballot and —
    under a seeded digest lie — corrupts the shipped proposal itself."""

    def __init__(self, group: "VotingGroup", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._group = group

    def _log_digest(self, record: DigestRecord) -> None:
        record = self._group._propose_digest(record)
        super()._log_digest(record)


class _VotingVerifier(DigestVerifier):
    """A follower's verifier: instead of raising on mismatch, recompute
    the local digest and ballot on it.  Disagreement is settled by the
    quorum, not by the first replica to notice."""

    def __init__(self, group: "VotingGroup", runtime: "_MemberRuntime",
                 records, env, *, epoch_source=None) -> None:
        super().__init__(records, env, epoch_source=epoch_source)
        self._group = group
        self._runtime = runtime

    def _compare(self, record: DigestRecord, jvm, names) -> None:
        self._group._ballot_digest(self._runtime, record, jvm)
        self.epochs_verified += 1


@dataclass
class _MemberRuntime:
    """One incarnation of a follower: the replica JVM plus its feed
    plumbing.  Destroyed at quarantine; a re-arm builds a fresh one."""

    slot: MemberSlot
    jvm: JVM
    se_manager: SideEffectManager
    policy: BackupNativePolicy
    driver: Any
    controller: Any
    verifier: _VotingVerifier
    fence: EpochFence
    metrics: ReplicationMetrics
    fed: int = 0
    result: Optional[RunResult] = None
    voted_outputs: set = field(default_factory=set)


class _DemotionBoundary(Exception):
    """Internal control flow: the proposer reached a replayable
    safe-point with a demotion pending; unwind to the driver loop,
    which tears the era down and re-arms the group on the oracle
    engine."""


# ======================================================================
# The group
# ======================================================================
class VotingGroup:
    """``2f + 1`` members, quorum-gated output commit, automatic
    quarantine and checkpoint re-arm.  See the module docstring."""

    def __init__(
        self,
        registry: ClassRegistry,
        natives: Optional[NativeRegistry] = None,
        env: Optional[Environment] = None,
        *,
        config: Optional[ReplicationConfig] = None,
        **kwargs,
    ) -> None:
        config = config_from_kwargs(config, kwargs, owner="VotingGroup")
        self.config = config
        self._strategy = resolve_strategy(config.strategy)
        if not self._strategy.lockstep_digest:
            raise ReplicationError(
                "voting requires a lockstep strategy (per-epoch digest "
                "comparison); use strategy='thread_sched'"
            )
        if config.crash_at is not None or config.crash_schedule is not None:
            raise ReplicationError(
                "voting mode convicts on evidence, not on injected "
                "fail-stop; use lie_at instead of crash_at/crash_schedule"
            )
        if config.checkpoint_interval is not None:
            raise ReplicationError(
                "steady-state log truncation would drop records out from "
                "under the hot followers; voting manages its own "
                "checkpoint transfers"
            )
        if config.variants not in (None, "step+slice"):
            raise ReplicationError(
                f"unknown variants mode {config.variants!r}; expected "
                f"None or 'step+slice'"
            )
        if config.hot_backup:
            raise ReplicationError(
                "hot_backup is the 1:1 pair's replay-as-you-go mode; a "
                "voting group's followers are always hot — drop "
                "hot_backup when voting=True"
            )
        n = config.n_members
        if n < 1 or n % 2 == 0:
            raise ReplicationError(
                f"n_members must be odd (n = 2f + 1), got {n}"
            )
        if not 0 <= config.lie_member < n:
            raise ReplicationError(
                f"lie_member {config.lie_member} out of range for "
                f"{n} members"
            )
        lie_specs = [LieSpec.parse(config.lie_at, config.lie_member)]
        for extra_at, extra_member in config.lie_specs:
            if not 0 <= extra_member < n:
                raise ReplicationError(
                    f"lie_specs member {extra_member} out of range for "
                    f"{n} members"
                )
            lie_specs.append(LieSpec.parse(extra_at, extra_member))
        lie_specs = [s for s in lie_specs if s is not None]
        if len({s.member for s in lie_specs}) > (n - 1) // 2:
            raise ReplicationError(
                f"{len({s.member for s in lie_specs})} distinct liars "
                f"exceed the fault budget f = {(n - 1) // 2} of an "
                f"n = {n} group; the quorum could certify a lie"
            )

        self.registry = registry
        self.natives = natives or default_natives()
        self.env = env or Environment()
        self.n = n
        self.base_config = config.jvm_config or JVMConfig()
        self.batch_records = config.batch_records
        self.chunk_bytes = (DEFAULT_CHUNK_BYTES if config.chunk_bytes is None
                            else config.chunk_bytes)
        self.digest_interval = (config.digest_interval
                                if config.digest_interval is not None else 2)
        self.variants = config.variants
        self.variant_fail_stop = config.variant_fail_stop
        self.max_failures = config.max_failures
        self._extra_se_handlers = list(config.se_handlers)
        self._transport_spec = config.transport
        self._transport_template_used = False

        engines = self._engine_cycle()
        self.slots: List[MemberSlot] = [
            MemberSlot(
                index=i, engine=engines[i % len(engines)],
                detector=FailureDetector(config.detector_timeout),
            )
            for i in range(n)
        ]
        self.tally = QuorumTally(n)
        self.injector = CorruptionInjector(lie_specs)
        #: Group-lifetime voting counters (the per-era proposer wire
        #: metrics are folded in at the end of the run).
        self.metrics = ReplicationMetrics(role="voting-group")
        self.metrics.engine = self.base_config.engine
        self.incidents: List[QuarantineEvent] = []
        self.divergences: List[VariantDivergence] = []
        self.reports: List[EraReport] = []
        self.final_jvm: Optional[JVM] = None
        #: Fleet hook: called with each VariantDivergence as it is
        #: confirmed (a DegradationController subscribes here).
        self.on_divergence: Optional[Callable[[VariantDivergence], None]] \
            = None
        #: (era, engine) pairs, one per completed demotion.
        self.demotions: List[Tuple[int, str]] = []

        # --- per-era state --------------------------------------------
        self._era = 0
        self._proposer_idx = 0
        self._proposer_jvm: Optional[JVM] = None
        self._proposer_se: Optional[SideEffectManager] = None
        self._proposer_policy: Optional[PrimaryNativePolicy] = None
        self._emitter: Optional[_ProposingEmitter] = None
        self._shipper: Optional[LogShipper] = None
        self._channel: Optional[Channel] = None
        self._transport: Optional[Transport] = None
        self._era_metrics: Optional[ReplicationMetrics] = None
        self._followers: Dict[int, _MemberRuntime] = {}
        self._basis: Optional[Checkpoint] = None
        self._basis_era = -1
        self._pending_output_key = None
        self._vote_wire: List[VoteRecord] = []
        self._verdict_queue: List[Verdict] = []
        self._rearm_pending: List[int] = []
        self._incident_by_member: Dict[int, QuarantineEvent] = {}
        self._pumping = False
        self._processing = False
        self._ran = False

        # --- serving + demotion state ---------------------------------
        self._serve_port: Optional[str] = None
        self._serve_main: Optional[str] = None
        self._serve_args: Optional[List[str]] = None
        self._serve_result: Optional[VotingResult] = None
        self._port_basis = 0
        self._demote_to: Optional[str] = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _engine_cycle(self) -> Tuple[str, ...]:
        base = self.base_config.engine
        if self.variants is None:
            return (base,)
        return (base, "step" if base == "slice" else "slice")

    def _settings(self, era: int, index: int):
        """Per-(era, member) non-determinism sources: every incarnation
        runs with distinct seeds, and replication/voting must succeed
        despite them (restriction R0, now n-way)."""
        return default_generation_settings(era * self.n + index)

    def _jvm_config_for(self, era: int, slot: MemberSlot) -> JVMConfig:
        return replace(
            self.base_config,
            scheduler_seed=self._settings(era, slot.index).scheduler_seed,
            engine=slot.engine,
        )

    def _make_transport(self) -> Transport:
        spec = self._transport_spec
        if isinstance(spec, Transport):
            if self._transport_template_used:
                return spec.fresh()
            self._transport_template_used = True
            return spec
        if callable(spec):
            built = spec(self._era)
            return (built if isinstance(built, Transport)
                    else make_transport(built))
        return make_transport(spec)

    def _make_se_manager(self) -> SideEffectManager:
        manager = SideEffectManager()
        for handler in self._extra_se_handlers:
            manager.add_handler(handler.fresh())
        return manager

    def _session_name(self, slot: MemberSlot, era: int) -> str:
        return f"m{slot.index}-e{era}-r{slot.incarnation}"

    @staticmethod
    def _finish_metrics(jvm: JVM, metrics: ReplicationMetrics,
                        transport: Optional[Transport] = None) -> None:
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
        if transport is not None:
            stats = transport.stats
            metrics.retransmits = stats.retransmits
            metrics.messages_dropped = stats.messages_dropped
            metrics.messages_duplicated = stats.messages_duplicated
            metrics.backpressure_stalls = stats.backpressure_stalls
            metrics.heartbeats_sent = stats.heartbeats_sent
            metrics.heartbeats_delivered = stats.heartbeats_delivered

    # ------------------------------------------------------------------
    # Balloting
    # ------------------------------------------------------------------
    def _cast(self, vote: Vote) -> None:
        self.metrics.votes_cast += 1
        self._vote_wire.append(VoteRecord(
            vote.member, vote.era, vote.subject, vote.index, vote.value,
            vote.engine,
        ))
        verdicts = self.tally.add(vote)
        if verdicts:
            self._verdict_queue.extend(verdicts)
        cert = self.tally.certificate(vote.key)
        if cert is not None and vote.value == cert.value:
            # A vote matching the certificate is out-of-band proof of
            # health: clear any heartbeat-based suspicion.
            slot = self.slots[vote.member]
            if slot.absolve():
                self.metrics.suspicions_cleared += 1

    def _propose_digest(self, record: DigestRecord) -> DigestRecord:
        slot = self.slots[self._proposer_idx]
        lie = self.injector.lies_on_digest(slot.index, record.epoch)
        if lie is not None:
            record = DigestRecord(
                record.epoch, record.final,
                self.injector.corrupt_components(lie, record.components),
            )
        subject = "final" if record.final else "digest"
        index: Vid = () if record.final else (record.epoch,)
        value = record.digest.fingerprint(LOCKSTEP_COMPONENTS)
        self._cast(Vote(slot.index, self._era, subject, index, value,
                        slot.engine))
        return record

    def _ballot_digest(self, runtime: _MemberRuntime, record: DigestRecord,
                       jvm: JVM) -> None:
        slot = runtime.slot
        local = compute_state_digest(jvm, include_env=False)
        value = local.fingerprint(LOCKSTEP_COMPONENTS)
        if self.injector.lies_on_digest(slot.index, record.epoch) is not None:
            value ^= 1
        subject = "final" if record.final else "digest"
        index: Vid = () if record.final else (record.epoch,)
        self._cast(Vote(slot.index, self._era, subject, index, value,
                        slot.engine))

    def _on_output_propose(self, jvm, spec, thread, receiver, args,
                           seq: int) -> None:
        slot = self.slots[self._proposer_idx]
        lie = self.injector.lies_on_output(slot.index)
        if lie is not None:
            # Corrupt the *actual* proposal in place: if the quorum
            # failed to veto, this payload would reach the environment.
            self.injector.corrupt_args(lie, args)
        index = tuple(thread.vid) + (seq,)
        value = output_fingerprint(spec.signature, list(args))
        self._pending_output_key = ("output", self._era, index)
        self._cast(Vote(slot.index, self._era, "output", index, value,
                        slot.engine))

    def _on_output_hold(self, runtime: _MemberRuntime, jvm, spec, method,
                        thread, intent) -> None:
        index = tuple(thread.vid) + (intent.seq,)
        key = ("output", self._era, index)
        if key in runtime.voted_outputs:
            return
        runtime.voted_outputs.add(key)
        # The replaying thread stands right before the invoke: receiver
        # and arguments are still on the operand stack, exactly the
        # payload this replica independently computed.
        n_args = method.nargs + (0 if method.is_static else 1)
        stack = thread.frames[-1].stack
        args = list(stack[-n_args:]) if n_args else []
        value = output_fingerprint(spec.signature, args)
        slot = runtime.slot
        if self.injector.lies_on_output(slot.index) is not None:
            value ^= 1                  # a bit-flipped follower's ballot
        self._cast(Vote(slot.index, self._era, "output", index, value,
                        slot.engine))

    # ------------------------------------------------------------------
    # Verdict processing
    # ------------------------------------------------------------------
    def _process_verdicts(self) -> None:
        if self._processing:
            return
        self._processing = True
        deposed: Optional[PrimaryOutvoted] = None
        try:
            while self._verdict_queue:
                verdict = self._verdict_queue.pop(0)
                if verdict.kind == "certified":
                    self.metrics.quorum_certs += 1
                    continue
                try:
                    self._handle_misvote(verdict)
                except PrimaryOutvoted as exc:
                    # Defer the deposition until the queue drains: with
                    # simultaneous liars (f >= 2) a follower conviction
                    # queued behind the proposer's verdict must not be
                    # dropped by _depose clearing the queue.
                    if deposed is None:
                        deposed = exc
        finally:
            self._processing = False
        if deposed is not None:
            raise deposed

    def _handle_misvote(self, verdict: Verdict) -> None:
        member = verdict.member
        slot = self.slots[member]
        subject, era, index = verdict.key
        if self.variants is not None and verdict.certificate is not None:
            majority = tuple(sorted({
                v.engine
                for v in self.tally.votes_for(verdict.key).values()
                if v.value == verdict.certificate.value and v.engine
            }))
            # Engine-correlated only: if the loser's engine also voted
            # with the majority, the fault is the member, not the
            # engine — no MVEE alarm.
            if verdict.engine and majority and \
                    verdict.engine not in majority:
                divergence = VariantDivergence(
                    era, subject, index, member, verdict.engine, majority,
                    verdict.expected, verdict.got,
                )
                self.divergences.append(divergence)
                self.metrics.variant_divergences += 1
                if self.on_divergence is not None:
                    self.on_divergence(divergence)
                if self.variant_fail_stop:
                    raise VariantDivergenceError(divergence)
        reason = f"{verdict.kind}:{subject}@{'.'.join(map(str, index))}"
        if slot.index == self._proposer_idx:
            raise PrimaryOutvoted(verdict)
        if slot.state == MemberState.CONVICTED:
            return
        slot.convict(reason)
        self.tally.convict(member)
        self.metrics.members_quarantined += 1
        event = QuarantineEvent(
            era=era, member=member, role="follower", reason=reason,
            subject=subject, index=index,
            expected=verdict.expected, got=verdict.got,
        )
        self.incidents.append(event)
        self._incident_by_member[member] = event
        runtime = self._followers.pop(member, None)
        if runtime is not None:
            runtime.jvm.session.destroy()
        self._rearm_pending.append(member)

    # ------------------------------------------------------------------
    # The quorum gate (shipper.commit_gate)
    # ------------------------------------------------------------------
    def _blocked_members(self) -> frozenset:
        """Members a chaos transport currently partitions away from the
        group (empty on ordinary transports)."""
        fn = getattr(self._transport, "blocked_members", None)
        return frozenset() if fn is None else fn()

    def _quorum_wait_step(self) -> bool:
        """One step of waiting for a quorum that has not formed yet:
        poll the transport (retransmits, heartbeats, partition heals all
        live there), and when the only thing standing between us and a
        certificate is a scheduled partition, jump the chaos clock to
        its next boundary.  Returns False when there is nothing left to
        wait for — the quorum is genuinely lost."""
        transport = self._transport
        if transport is None:
            return False
        if transport.poll():
            return True
        advance = getattr(transport, "chaos_advance", None)
        if advance is not None and self._blocked_members():
            return bool(advance())
        return False

    def _commit_gate(self) -> None:
        """Runs inside every output commit, after the flush/ack round
        trip (which pumped the followers to the held native and let
        them ballot) and before the output may execute.

        This is the no-split-brain gate: a proposer on the minority
        side of a partition starves here — its blocked followers cast
        no ballots, no certificate forms, and the output never reaches
        the environment.  The wait loop below keeps polling (partitions
        heal, backlogs flood in, absolved members vote) and only gives
        up when the transport has nothing left to deliver."""
        self.metrics.outputs_gated += 1
        self._pump()                     # the ack delivered the intent
        self._process_verdicts()
        key = self._pending_output_key
        if key is None:
            return
        self._pending_output_key = None
        while self.tally.certificate(key) is None:
            if not self._quorum_wait_step():
                raise QuorumLostError(
                    f"output {key[2]} has no quorum certificate "
                    f"({self.tally.quorum} matching votes of {self.n} "
                    f"needed)"
                )
            self._pump()
            self._process_verdicts()

    # ------------------------------------------------------------------
    # Vote wire + slice-boundary work
    # ------------------------------------------------------------------
    def _drain_vote_wire(self) -> None:
        if self._shipper is None or self._shipper.channel.closed:
            return
        while self._vote_wire:
            record = self._vote_wire.pop(0)
            self.metrics.vote_bytes += len(encode(record))
            self._shipper.log(record)

    def _on_proposer_slice(self, jvm, thread, reason) -> None:
        self._drain_vote_wire()
        self._pump()
        self._process_verdicts()         # may raise PrimaryOutvoted
        replayable = reason in (SliceEnd.QUANTUM, SliceEnd.YIELDED) \
            and not thread.is_system \
            and thread.state is ThreadState.RUNNABLE
        if self._rearm_pending and replayable:
            # A replayable boundary (same rule as steady checkpoints):
            # the descheduled thread is `current`, so the snapshot
            # restores with set_resume_vid, exactly like the arm path.
            self._rearm_followers(jvm)
        if self._demote_to is not None and replayable:
            raise _DemotionBoundary()

    # ------------------------------------------------------------------
    # Pump (feed followers from the shared delivered log)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._pumping or self._channel is None:
            return
        self._pumping = True
        try:
            delivered = self._channel.delivered
            blocked = self._blocked_members()
            for runtime in list(self._followers.values()):
                if runtime.slot.index in blocked:
                    # Partitioned away: its feed offset freezes (the
                    # backlog floods in at heal) and silence across
                    # enough intervals makes it *suspected* — a
                    # recoverable state, never a conviction.
                    if len(delivered) > runtime.fed:
                        if runtime.slot.detector.interval() \
                                and runtime.slot.suspect():
                            self.metrics.members_suspected += 1
                    continue
                new_raw = delivered[runtime.fed:]
                runtime.fed = len(delivered)
                if new_raw:
                    inner = runtime.fence.filter_raw(new_raw)
                    parsed = parse_log(inner)
                    for record in parsed.side_effects:
                        runtime.se_manager.receive(record)
                    runtime.policy.extend(parsed.results, parsed.intents)
                    runtime.driver.extend_from(parsed)
                    if parsed.digests:
                        runtime.verifier.extend(parsed.digests)
                    runtime.jvm.sync.reevaluate_parked()
                if runtime.result is None:
                    result = runtime.jvm.run_to_completion(
                        pause_on_starvation=True
                    )
                    if result is not None:
                        runtime.result = result
                if new_raw and runtime.result is None:
                    # Delivered work is the expectation of progress; a
                    # member that stalls across enough feedings is
                    # *suspected* (recoverable), never convicted.
                    if runtime.slot.detector.interval() \
                            and runtime.slot.suspect():
                        self.metrics.members_suspected += 1
        finally:
            self._pumping = False

    # ------------------------------------------------------------------
    # Member construction
    # ------------------------------------------------------------------
    def _boot(self, main_class: str, args: Optional[List[str]]
              ) -> Tuple[JVM, SideEffectManager]:
        """Era 0's fresh boot of the first proposer."""
        slot = self.slots[0]
        settings = self._settings(0, 0)
        session = self.env.attach(
            self._session_name(slot, 0),
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        jvm = JVM(self.registry, self.natives, session,
                  self._jvm_config_for(0, slot),
                  name=self._session_name(slot, 0))
        jvm.bootstrap(main_class, args)
        return jvm, self._make_se_manager()

    def _assemble(self, start: int) -> Checkpoint:
        """Reassemble the checkpoint whose chunks were shipped after
        record index ``start`` of the delivered log."""
        raw = self._channel.backup_log(start)
        fence = EpochFence(self._era, self._era_metrics)
        assembler = CheckpointAssembler()
        checkpoint: Optional[Checkpoint] = None
        for data in fence.filter_raw(raw):
            record = decode_record(data)
            if isinstance(record, CheckpointChunkRecord):
                assembled = assembler.feed(record)
                if assembled is not None:
                    checkpoint = assembled
        if checkpoint is None:
            raise ReplicationError(
                f"era {self._era} checkpoint transfer acknowledged but "
                f"never assembled"
            )
        return checkpoint

    def _build_follower(self, slot: MemberSlot, checkpoint: Checkpoint,
                        fed_from: int) -> _MemberRuntime:
        """Build one follower incarnation by restoring the transferred
        checkpoint (:func:`restore_checkpoint` digest-verifies it — a
        torn or corrupted transfer is rejected, not adopted)."""
        era = self._era
        slot.incarnation += 1
        slot.role = "follower"
        settings = self._settings(era, slot.index)
        session = self.env.attach(
            self._session_name(slot, era),
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        config = self._jvm_config_for(era, slot)
        metrics = ReplicationMetrics(role="follower")
        se_manager = self._make_se_manager()
        jvm = restore_checkpoint(
            checkpoint, self.registry, self.natives, session, config,
            name=self._session_name(slot, era), se_manager=se_manager,
        )
        metrics.checkpoints_restored += 1

        policy = BackupNativePolicy({}, {}, se_manager, metrics)
        policy.hold_when_drained = True
        policy.seed_seqs(checkpoint.native_seqs)
        jvm.native_policy = policy
        driver = self._strategy.make_backup(parse_log([]), metrics,
                                            settings, config)
        driver.install(jvm)
        driver.set_hold(True)
        controller = driver.controller
        controller.tail_gate = policy.has_uncertain_tail
        controller.set_resume_vid(first_dispatch_vid(jvm))
        jvm.scheduler.release_current()
        jvm.sync.reevaluate_parked()

        base_epoch = checkpoint.sched_epoch
        verifier = _VotingVerifier(
            self, None, [], self.env,
            epoch_source=lambda c=controller, b=base_epoch: b + c.consumed,
        )
        runtime = _MemberRuntime(
            slot=slot, jvm=jvm, se_manager=se_manager, policy=policy,
            driver=driver, controller=controller, verifier=verifier,
            fence=EpochFence(era, metrics), metrics=metrics, fed=fed_from,
        )
        verifier._runtime = runtime
        policy.on_output_hold = (
            lambda jvm_, spec, method, thread, intent, rt=runtime:
            self._on_output_hold(rt, jvm_, spec, method, thread, intent)
        )
        jvm.run_hooks = _FollowerHooks(verifier)
        slot.detector.reset(source=lambda j=jvm: j.instructions)
        return runtime

    # ------------------------------------------------------------------
    # Era arming
    # ------------------------------------------------------------------
    def _arm_era(self, jvm: JVM, se_manager: SideEffectManager,
                 recovery_metrics: Optional[ReplicationMetrics]) -> None:
        """Instrument ``jvm`` as this era's proposer, ship its quiescent
        checkpoint, and build every follower from it — including any
        quarantined member, which this transfer re-arms."""
        era = self._era
        slot = self.slots[self._proposer_idx]
        slot.role = "proposer"
        transport = self._make_transport()
        channel = Channel(batch_records=self.batch_records,
                          transport=transport)
        metrics = ReplicationMetrics(role="proposer")
        shipper = LogShipper(channel, metrics, CrashInjector(), epoch=era)
        shipper.commit_gate = self._commit_gate
        report = EraReport(era=era, proposer=slot.index,
                           recovery_metrics=recovery_metrics)
        self._transport = transport
        self._channel = channel
        self._shipper = shipper
        self._era_metrics = metrics
        self.reports.append(report)

        # Quiescent snapshot first, then proposer instrumentation — the
        # checkpoint must not contain proposer-side hooks.  No
        # native_seqs: each era's fresh proposer policy restarts native
        # numbering at 1, and the followers must count the same way.
        checkpoint = take_checkpoint(jvm, se_manager, generation=era)
        report.checkpoint_bytes = checkpoint.byte_size

        policy = PrimaryNativePolicy(shipper, metrics, se_manager)
        policy.on_output_propose = self._on_output_propose
        jvm.native_policy = policy
        settings = self._settings(era, slot.index)
        driver = self._strategy.make_primary(
            shipper, metrics, settings, self._jvm_config_for(era, slot)
        )
        driver.install(jvm)
        emitter = _ProposingEmitter(
            self, shipper, metrics, self.env,
            interval=self.digest_interval,
            lockstep=self._strategy.lockstep_digest,
        )
        emitter.jvm = jvm
        shipper.on_record = emitter.observe
        jvm.run_hooks = _ProposerHooks(self, channel, emitter)
        jvm.sync.reevaluate_parked()
        self._proposer_jvm = jvm
        self._proposer_se = se_manager
        self._proposer_policy = policy
        self._emitter = emitter

        start = len(channel.delivered)
        chunks = checkpoint.to_chunks(self.chunk_bytes)
        report.checkpoint_chunks = len(chunks)
        for chunk in chunks:
            shipper.log(chunk)
            metrics.checkpoint_records += 1
            metrics.checkpoint_bytes += len(chunk.data)
        shipper.checkpoint_commit()
        assembled = self._assemble(start)
        self._basis = assembled
        self._basis_era = era
        if self._serve_port is not None:
            # Takes so far are baked into this era's basis; only
            # post-basis recv records count at the next reconciliation.
            self._port_basis = len(self.env.port(self._serve_port).consumed)

        fed_from = len(channel.delivered)
        self._followers = {}
        for other in self.slots:
            if other.index == slot.index:
                continue
            self._followers[other.index] = self._build_follower(
                other, assembled, fed_from
            )
            if other.state == MemberState.CONVICTED:
                other.rearm()
                self.tally.rearm(other.index)
                self.metrics.members_rearmed += 1
                report.rearms += 1
                event = self._incident_by_member.pop(other.index, None)
                if event is not None:
                    event.rearmed = True
                    event.rearmed_era = era
                if other.index in self._rearm_pending:
                    self._rearm_pending.remove(other.index)

    def _rearm_followers(self, jvm: JVM) -> None:
        """Mid-era re-arm: at a replayable slice boundary, snapshot the
        live proposer and rebuild every quarantined member from the
        digest-verified transfer.  The log is *not* truncated — healthy
        followers have consumed it and their feed offsets are absolute;
        chunk records pass harmlessly through their parse."""
        pending, self._rearm_pending = list(self._rearm_pending), []
        if not pending:
            return
        era = self._era
        report = self.reports[-1]
        checkpoint = take_checkpoint(
            jvm, self._proposer_se, generation=era,
            native_seqs=self._proposer_policy.native_seqs(),
            sched_epoch=self._emitter.epoch,
        )
        start = len(self._channel.delivered)
        chunks = checkpoint.to_chunks(self.chunk_bytes)
        for chunk in chunks:
            self._shipper.log(chunk)
            self._era_metrics.checkpoint_records += 1
            self._era_metrics.checkpoint_bytes += len(chunk.data)
        self._shipper.checkpoint_commit()
        assembled = self._assemble(start)
        fed_from = len(self._channel.delivered)
        for index in pending:
            slot = self.slots[index]
            self._followers[index] = self._build_follower(
                slot, assembled, fed_from
            )
            slot.rearm()
            self.tally.rearm(index)
            self.metrics.members_rearmed += 1
            report.rearms += 1
            event = self._incident_by_member.pop(index, None)
            if event is not None:
                event.rearmed = True
                event.rearmed_era = era

    # ------------------------------------------------------------------
    # Deposition and recovery
    # ------------------------------------------------------------------
    def _depose(self, outvoted: PrimaryOutvoted) -> List[bytes]:
        """Quarantine the convicted proposer exactly like a crashed
        primary: destroy it, fence the channel, capture the delivered
        log as the promotion replay's input."""
        era = self._era
        idx = self._proposer_idx
        slot = self.slots[idx]
        verdict = outvoted.verdict
        reason = "outvoted:proposer"
        subject, index = "", ()
        expected = got = None
        if isinstance(verdict, Verdict):
            subject, _, index = verdict.key
            expected, got = verdict.expected, verdict.got
            reason = f"{verdict.kind}:{subject}"
        slot.convict(reason)
        self.tally.convict(idx)
        self.metrics.members_quarantined += 1
        event = QuarantineEvent(
            era=era, member=idx, role="proposer", reason=reason,
            subject=subject, index=index, expected=expected, got=got,
        )
        self.incidents.append(event)
        self._incident_by_member[idx] = event
        self._verdict_queue.clear()
        self._vote_wire.clear()
        self._pending_output_key = None

        report = self.reports[-1]
        report.outcome = "deposed"
        report.proposer_metrics = self._era_metrics
        self._finish_metrics(self._proposer_jvm, self._era_metrics,
                             self._transport)
        self._proposer_jvm.session.destroy()
        self._channel.crash_primary()
        raw = self._channel.backup_log()
        for runtime in self._followers.values():
            runtime.jvm.session.destroy()
        self._followers = {}
        self._transport.close()
        return raw

    def _next_proposer(self) -> int:
        for slot in self.slots:
            if slot.state != MemberState.CONVICTED:
                return slot.index
        raise QuorumLostError(
            "every member of the voting group is convicted; no healthy "
            "replica left to promote"
        )

    def _recover(self, raw: List[bytes]
                 ) -> Tuple[JVM, SideEffectManager, Optional[RunResult],
                            ReplicationMetrics]:
        """Promote the next healthy member: restore the era basis,
        fence and replay the retained log in hold mode, resolve the
        uncertain output with honestly recomputed arguments, promote."""
        era = self._era
        slot = self.slots[self._proposer_idx]
        slot.incarnation += 1
        metrics = ReplicationMetrics(role="recovery")
        settings = self._settings(era, slot.index)
        session = self.env.attach(
            self._session_name(slot, era),
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        config = self._jvm_config_for(era, slot)
        se_manager = self._make_se_manager()

        fence = EpochFence(max(self._basis_era, 0), metrics)
        inner = fence.filter_raw(raw)
        jvm = restore_checkpoint(
            self._basis, self.registry, self.natives, session, config,
            name=self._session_name(slot, era), se_manager=se_manager,
        )
        metrics.checkpoints_restored += 1

        parsed = parse_log(inner)
        metrics.recovery_tail_records = parsed.total
        self._reconcile_port(parsed, metrics)
        for record in parsed.side_effects:
            se_manager.receive(record)
        policy = BackupNativePolicy(
            parsed.results, parsed.intents, se_manager, metrics
        )
        policy.hold_when_drained = True
        policy.seed_seqs(self._basis.native_seqs)
        jvm.native_policy = policy
        driver = self._strategy.make_backup(parsed, metrics, settings,
                                            config)
        driver.install(jvm)
        driver.set_hold(True)
        controller = driver.controller
        controller.tail_gate = policy.has_uncertain_tail
        controller.set_resume_vid(first_dispatch_vid(jvm))
        jvm.scheduler.release_current()
        jvm.sync.reevaluate_parked()

        result = jvm.run_to_completion(pause_on_starvation=True)
        if result is None and any(
            policy.has_uncertain_tail(t.vid) for t in jvm.scheduler.threads
        ):
            # The deposed proposer's uncertain output: its intent is in
            # the log but the (possibly corrupted) payload died with it.
            # Re-execution here uses this replica's own recomputed
            # arguments — the lie cannot survive its liar.
            policy.tail_resolution = True
            controller.starving = False
            jvm.sync.reevaluate_parked()
            result = jvm.run_to_completion(pause_on_starvation=True)
        if result is None and policy.remaining():
            raise RecoveryError(
                f"era {era} promotion stalled with {policy.remaining()} "
                f"unreplayed native record(s)"
            )

        # Promotion cleanup (same residue-stripping as the supervisor).
        for obj in jvm.heap.objects:
            monitor = getattr(obj, "monitor", None)
            if monitor is not None:
                monitor.l_id = None
        jvm.sync.notify_wakes_all = False
        jvm.scheduler.release_current()
        jvm.scheduler.last_reason = None
        se_manager.restore(jvm.session)

        if result is None:
            policy.hold_when_drained = False
            driver.set_hold(False)
            controller.starving = False
        return jvm, se_manager, result, metrics

    # ------------------------------------------------------------------
    # Final round
    # ------------------------------------------------------------------
    def _finish_era(self, result: RunResult) -> VotingResult:
        """The proposer completed: settle the wire, drive every healthy
        follower to its final ballot, and require a certificate for
        every subject instance of the era."""
        self._drain_vote_wire()
        self._channel.settle()           # flush → pump → final replays
        self._pump()
        blocked = self._blocked_members()
        for runtime in self._followers.values():
            # Still partitioned at era end: the member cannot reach its
            # final ballot, so it finishes *suspected* — recoverable
            # silence, never a conviction — and the quorum must close
            # without its votes (f+1 of the remaining members).
            if runtime.slot.index in blocked and runtime.slot.suspect():
                self.metrics.members_suspected += 1
        for runtime in list(self._followers.values()):
            if runtime.result is not None:
                continue
            if runtime.slot.index in blocked:
                continue
            runtime.policy.hold_when_drained = False
            runtime.driver.set_hold(False)
            runtime.controller.starving = False
            runtime.jvm.sync.reevaluate_parked()
            runtime.result = runtime.jvm.run_to_completion()
        for runtime in self._followers.values():
            if runtime.slot.index in blocked:
                continue
            # A follower that completed its replay before the final
            # digest record arrived exited with nothing to compare;
            # cast its final ballot now that the record is here.
            runtime.verifier.check_final(runtime.jvm)
        self._process_verdicts()         # may raise PrimaryOutvoted
        missing = self.tally.uncertified(self._era)
        if missing:
            raise QuorumLostError(
                f"era {self._era} ended with {len(missing)} uncertified "
                f"subject(s): {missing[:3]}"
            )
        report = self.reports[-1]
        report.outcome = "completed"
        report.proposer_metrics = self._era_metrics
        self._finish_metrics(self._proposer_jvm, self._era_metrics,
                             self._transport)
        self._transport.close()
        self.final_jvm = self._proposer_jvm
        return self._build_result("completed", result)

    def _build_result(self, outcome: str, result: RunResult) -> VotingResult:
        self._aggregate_metrics()
        return VotingResult(
            outcome=outcome,
            result=result,
            reports=self.reports,
            incidents=self.incidents,
            divergences=self.divergences,
            metrics=self.metrics,
            members=self.slots,
            final_era=self._era,
            final_jvm=self.final_jvm,
        )

    def _aggregate_metrics(self) -> None:
        """Fold the per-era proposer wire/protocol counters into the
        group-lifetime metrics, so one object prices the whole run."""
        int_fields = [
            name for name, value in vars(ReplicationMetrics()).items()
            if isinstance(value, int) and not isinstance(value, bool)
        ]
        for report in self.reports:
            for metrics in (report.proposer_metrics,
                            report.recovery_metrics):
                if metrics is None:
                    continue
                for name in int_fields:
                    if name.startswith(("votes_", "vote_", "quorum_",
                                        "outputs_gated", "members_",
                                        "suspicions_", "variant_")):
                        continue     # group-owned, never per-era
                    setattr(self.metrics, name,
                            getattr(self.metrics, name)
                            + getattr(metrics, name))

    # ------------------------------------------------------------------
    # Failover (shared by run() and the serving pump)
    # ------------------------------------------------------------------
    def _failover(self, deposed: PrimaryOutvoted) -> Optional[RunResult]:
        """Depose the convicted proposer and promote the next healthy
        member.  Returns the final result when the program completed
        during recovery replay; None when serving/execution continues
        under a freshly armed era."""
        raw = self._depose(deposed)
        self._era += 1
        if self._era > self.max_failures:
            raise ReplicationError(
                f"voting group exhausted its failure budget "
                f"({self.max_failures}) — giving up"
            )
        self._proposer_idx = self._next_proposer()
        self.tally.truncate_below(self._era)
        jvm, se_manager, recovered, recovery_metrics = self._recover(raw)
        if recovered is not None:
            self.final_jvm = jvm
            self.reports.append(EraReport(
                era=self._era, proposer=self._proposer_idx,
                outcome="completed_in_recovery",
                recovery_metrics=recovery_metrics,
            ))
            self._finish_metrics(jvm, recovery_metrics)
            return recovered
        self._arm_era(jvm, se_manager, recovery_metrics)
        return None

    # ------------------------------------------------------------------
    # Graceful degradation (engine demotion)
    # ------------------------------------------------------------------
    def request_demotion(self, engine: str = "step") -> None:
        """Ask the group to rebuild itself onto ``engine`` at the next
        replayable safe-point boundary.  The live era keeps serving
        until the boundary; the demotion itself re-arms every member —
        including any quarantined one — through the checkpoint-transfer
        path under a fresh era."""
        if engine not in ("step", "slice"):
            raise ReplicationError(
                f"cannot demote to unknown engine {engine!r}; expected "
                f"'step' or 'slice'"
            )
        self._demote_to = engine

    def _demote(self) -> None:
        """Perform a pending demotion: checkpoint the live proposer at
        the safe-point, tear the era down, drop the MVEE variant
        pinning, and re-arm the whole group on the target engine.

        ``_demote_to`` is cleared only on success — a deposition that
        surfaces while settling ballots takes priority, and the pending
        demotion is retried once the new era is armed."""
        engine = self._demote_to
        if engine is None:
            return
        if self.variants is None and self.base_config.engine == engine \
                and all(slot.engine == engine for slot in self.slots):
            self._demote_to = None       # already there: no-op
            return
        # Settle the current era's outstanding ballots first; a
        # conviction surfacing here propagates (PrimaryOutvoted) and
        # pre-empts the demotion.
        self._drain_vote_wire()
        self._pump()
        self._process_verdicts()

        era = self._era
        checkpoint = take_checkpoint(
            self._proposer_jvm, self._proposer_se, generation=era,
        )
        report = self.reports[-1]
        report.outcome = "demoted"
        report.proposer_metrics = self._era_metrics
        self._finish_metrics(self._proposer_jvm, self._era_metrics,
                             self._transport)
        self._proposer_jvm.session.destroy()
        for runtime in self._followers.values():
            runtime.jvm.session.destroy()
        self._followers = {}
        self._transport.close()
        self._vote_wire.clear()
        self._verdict_queue.clear()
        self._pending_output_key = None

        self.variants = None
        self.base_config = replace(self.base_config, engine=engine)
        for slot in self.slots:
            slot.engine = engine
        self.metrics.engine = engine
        self.metrics.engine_demotions += 1
        self._era += 1
        self._demote_to = None
        self.demotions.append((self._era, engine))
        self.tally.truncate_below(self._era)

        # Rebuild the proposer from its own safe-point checkpoint on
        # the target engine (engines are contractually bit-identical,
        # so the restore crosses them losslessly), then arm the new
        # era — which re-checkpoints and rebuilds every follower, and
        # re-arms any convicted slot along the way.
        slot = self.slots[self._proposer_idx]
        slot.incarnation += 1
        settings = self._settings(self._era, slot.index)
        session = self.env.attach(
            self._session_name(slot, self._era),
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        se_manager = self._make_se_manager()
        jvm = restore_checkpoint(
            checkpoint, self.registry, self.natives, session,
            self._jvm_config_for(self._era, slot),
            name=self._session_name(slot, self._era),
            se_manager=se_manager,
        )
        jvm.scheduler.release_current()
        jvm.scheduler.last_reason = None
        jvm.sync.reevaluate_parked()
        se_manager.restore(jvm.session)
        self._arm_era(jvm, se_manager, None)

    # ------------------------------------------------------------------
    # Serving lifecycle (resumable request/response operation)
    # ------------------------------------------------------------------
    def _reconcile_port(self, parsed,
                        metrics: Optional[ReplicationMetrics] = None
                        ) -> None:
        """Exactly-once request consumption across a deposition: the
        era basis accounts for ``_port_basis`` takes plus one
        ``Server.recv`` result record per take whose flush survived.
        The overhang is lost in flight — un-consume and requeue at the
        front, preserving order."""
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

    def start_serving(self, main_class: str,
                      args: Optional[List[str]] = None, *,
                      port: str) -> None:
        """Boot the first proposer, arm era 0 (checkpoint transfer to
        every follower), and drive the group to its first request wait.

        From here the group alternates between :meth:`submit` /
        :meth:`pump` and failover: a deposition during any pump is
        absorbed transparently, and a requested demotion lands at the
        next safe-point without dropping a request."""
        if self._ran:
            raise AlreadyRanError(
                "this VotingGroup already ran; build a fresh group"
            )
        self._ran = True
        self._serve_port = port
        self._serve_main = main_class
        self._serve_args = list(args) if args else None
        jvm, se_manager = self._boot(main_class, self._serve_args)
        self._arm_era(jvm, se_manager, None)
        self.pump()

    @property
    def serving(self) -> bool:
        """True while the program is parked waiting for requests."""
        return self._ran and self._serve_port is not None \
            and self._serve_result is None

    @property
    def serve_result(self) -> Optional[VotingResult]:
        return self._serve_result

    @property
    def active_jvm(self) -> Optional[JVM]:
        """The current proposer's JVM (fleet cost-accounting probe)."""
        return self._proposer_jvm

    @property
    def failures_survived(self) -> int:
        """Depositions absorbed so far (fleet probe)."""
        return sum(1 for i in self.incidents if i.role == "proposer")

    def submit(self, request: str) -> None:
        """Queue a request without driving the machine."""
        if self._serve_port is None:
            raise ReplicationError(
                "not serving: call start_serving() first"
            )
        self.env.port(self._serve_port).push(request)

    def pump(self) -> bool:
        """Drive the proposer until it parks on an empty port or the
        program completes, absorbing depositions and landing pending
        demotions along the way.  Returns True while still serving."""
        if self._serve_result is not None:
            return False
        while True:
            try:
                if self._demote_to is not None:
                    self._demote()
                result = self._proposer_jvm.run_to_completion(
                    pause_on_starvation=True
                )
                if result is None:
                    # Parked on the empty request port: settle ballots
                    # cast on the way in before handing control back.
                    self._drain_vote_wire()
                    self._pump()
                    self._process_verdicts()
                    if self._demote_to is not None:
                        self._demote()
                    return True
                self._serve_result = self._finish_era(result)
                return False
            except _DemotionBoundary:
                self._demote()
            except PrimaryOutvoted as deposed:
                recovered = self._failover(deposed)
                if recovered is not None:
                    self._serve_result = self._build_result(
                        "completed_in_recovery", recovered
                    )
                    return False

    def stop_serving(self, stop_request: str) -> VotingResult:
        """Deliver ``stop_request`` and run the program to completion."""
        self.submit(stop_request)
        self.pump()
        if self._serve_result is None:
            raise ReplicationError(
                f"group still serving after stop request {stop_request!r}"
            )
        return self._serve_result

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, main_class: str, args: Optional[List[str]] = None
            ) -> VotingResult:
        """Run under quorum supervision until the program completes,
        deposing and re-arming every convicted member along the way."""
        if self._ran:
            raise AlreadyRanError(
                "VotingGroup.run() may only be called once; build a "
                "fresh group for another run"
            )
        self._ran = True
        jvm, se_manager = self._boot(main_class, args)
        self._arm_era(jvm, se_manager, None)

        while True:
            try:
                if self._demote_to is not None:
                    self._demote()
                result = self._proposer_jvm.run_to_completion()
                return self._finish_era(result)
            except _DemotionBoundary:
                self._demote()
            except PrimaryOutvoted as deposed:
                recovered = self._failover(deposed)
                if recovered is not None:
                    return self._build_result("completed_in_recovery",
                                              recovered)


def run_voting(
    registry: ClassRegistry,
    main_class: str,
    args: Optional[List[str]] = None,
    *,
    natives: Optional[NativeRegistry] = None,
    env: Optional[Environment] = None,
    config: Optional[ReplicationConfig] = None,
) -> VotingResult:
    """One-shot convenience wrapper around :class:`VotingGroup`."""
    group = VotingGroup(registry, natives, env, config=config)
    return group.run(main_class, args)
