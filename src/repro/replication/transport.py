"""Pluggable primary→backup transports for the log channel.

The paper runs its two replicas on separate machines over 100 Mbps
Ethernet; the log channel's behavior — ack round trips, message loss,
reordering — is where the output-commit economics of Figures 3/4 come
from.  This module isolates *how messages move* behind a small
interface so the rest of the replication layer (Channel, LogShipper,
FailureDetector, ReplicatedJVM) is transport-generic:

* :class:`InMemoryTransport` — instant, loss-free delivery.  The
  default; byte-for-byte equivalent to the original in-process list.
* :class:`FaultyTransport` — a deterministic, seeded network simulator
  with latency, jitter, drops, duplication and reordering, plus the
  sender-side machinery a real link needs: per-message sequence
  numbers, cumulative acks, retransmission with timeout and
  exponential backoff, and a bounded send window that exerts
  backpressure on the primary.
* :class:`SocketTransport` — a real TCP connection over localhost with
  the backup's log receiver on its own thread, framed with the same
  varint encoding as the log records (:mod:`repro.replication.wire`).

Delivery semantics under fail-stop, per transport:

* in-memory: every flushed record is delivered; buffered records die
  with the primary (the original model).
* faulty: the delivered log is always a *contiguous prefix* of the
  flushed message sequence.  A message arrives only when every earlier
  message has arrived (the receiver holds out-of-order arrivals);
  messages dropped on the wire and never retransmitted before the
  crash are lost together with everything after them.  An ack for
  message *n* therefore proves messages 1..n are in the backup's log —
  exactly the property output commit needs.
* socket: TCP gives loss-free ordered delivery; bytes still in flight
  when the sender's socket closes are delivered before EOF, so flushed
  records are delivered, as in the in-memory model.

Multiplexed operation
---------------------

The original interface was *blocking*: one connection per replica
group, with :meth:`Transport.wait_ack` spinning the transport's own
clock (or socket) until the ack arrived.  A fleet of replica groups
cannot be built on that — one group stalled in an output-commit wait
would freeze every other group's link.  The interface is therefore
poll-driven:

* :meth:`Transport.poll` advances the transport **without blocking**
  (delivers due arrivals, processes acks, runs retransmit timers) and
  reports whether anything progressed;
* :meth:`Transport.send_nowait` ships a batch if the send window has
  room, returning ``False`` instead of stalling under backpressure;
* :attr:`Transport.on_deliver` / :attr:`Transport.on_ack` are
  readiness callbacks fired when records land in the backup's log or
  the cumulative ack advances;
* :class:`TransportMux` is the one event loop servicing all group
  connections: every registered transport's blocking waits service the
  *other* members between their own poll steps, so a group waiting on
  its ack keeps the rest of the fleet's frames moving.

The blocking methods (``send``/``wait_ack``) remain, implemented on
top of the poll layer, so single-group users (:class:`ReplicatedJVM`,
the conformance sweeps) are unchanged.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.replication.wire import Reader, Writer

_FRAME_DATA = 1
_FRAME_HEARTBEAT = 2
_FRAME_ACK = 3


@dataclass
class TransportStats:
    """Transport-level counters, beyond the Channel's wire counters."""

    retransmits: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    backpressure_stalls: int = 0
    #: Simulated (faulty) or wall-clock (socket) time spent inside
    #: output-commit ack waits — the true round-trip component.
    ack_wait_time: float = 0.0
    acks_delivered: int = 0
    heartbeats_sent: int = 0
    heartbeats_delivered: int = 0
    #: Connection resets injected (socket transport fault injection).
    connection_resets: int = 0
    #: Successful sender reconnects after a reset.
    reconnects: int = 0


class Transport:
    """Base transport: moves framed record batches primary→backup.

    Subclasses must deliver records into :attr:`delivered` (the
    backup's in-memory log) such that ``delivered`` is always a prefix
    of the concatenation of all sent batches.  Delivery must go
    through :meth:`_deliver` and ack advancement through
    :meth:`_ack_advanced` so the readiness callbacks fire.
    """

    def __init__(self) -> None:
        #: The backup's log: records delivered, in order.
        self.delivered: List[bytes] = []
        self.stats = TransportStats()
        self.closed = False
        #: Readiness callback ``(transport, n_new_records)`` fired when
        #: records land in :attr:`delivered`.  The socket transport
        #: fires it on its receiver thread.
        self.on_deliver: Optional[Callable[["Transport", int], None]] = None
        #: Readiness callback ``(transport, acked_through_seq)`` fired
        #: when the cumulative ack advances.
        self.on_ack: Optional[Callable[["Transport", int], None]] = None
        #: Set by :meth:`TransportMux.register`: while this transport
        #: blocks (ack wait, backpressure stall), it services the other
        #: members of its mux so one stalled group cannot freeze the
        #: rest of the fleet.
        self.mux: Optional["TransportMux"] = None

    # -- delivery/ack choke points (fire the readiness callbacks) ------
    def _deliver(self, records: List[bytes]) -> None:
        self.delivered.extend(records)
        if self.on_deliver is not None and records:
            self.on_deliver(self, len(records))

    def _ack_advanced(self, through: int) -> None:
        if self.on_ack is not None:
            self.on_ack(self, through)

    def _service_others(self) -> None:
        """One idle step for the rest of the fleet (no-op unmuxed)."""
        if self.mux is not None:
            self.mux.poll_others(self)

    # -- sender side ---------------------------------------------------
    def send(self, records: List[bytes]) -> None:
        """Ship one batch (a flushed buffer) toward the backup,
        blocking under backpressure until the window has room."""
        raise NotImplementedError

    def send_nowait(self, records: List[bytes]) -> bool:
        """Ship one batch if the send window has room; returns
        ``False`` (and ships nothing) when backpressured — the caller
        should :meth:`poll` and retry.  Default: transports without a
        bounded window never refuse."""
        self.send(records)
        return True

    def poll(self) -> bool:
        """Advance the transport without blocking: deliver due
        arrivals, process acks, run retransmit timers.  Returns True
        when anything progressed.  Default: nothing to advance."""
        return False

    def ack_pending(self) -> bool:
        """True while some sent batch is not yet acknowledged."""
        return False

    def wait_ack(self) -> float:
        """Block until every sent batch is acknowledged; returns the
        time spent waiting (the output-commit round trip)."""
        raise NotImplementedError

    def send_heartbeat(self) -> None:
        """I-am-alive datagram; never enters the record log."""
        raise NotImplementedError

    def crash_sender(self) -> None:
        """Fail-stop the sender.  In-flight data may still arrive;
        nothing is retransmitted afterwards."""
        self.closed = True

    # -- receiver side -------------------------------------------------
    def truncate(self, n_records: int) -> None:
        """Forget the first ``n_records`` delivered records (log
        truncation at a checkpoint boundary)."""
        del self.delivered[:n_records]

    def drain(self) -> None:
        """Let everything already in flight arrive (no retransmits)."""

    def settle(self) -> None:
        """Cooperative completion: the sender is alive and idle, so
        push retransmissions until everything sent is delivered."""
        self.drain()

    def close(self) -> None:
        """Release transport resources; the delivered log survives."""
        self.closed = True

    def fresh(self) -> "Transport":
        """A new, unused transport with the same configuration (used
        by :meth:`ReplicatedJVM.clone`)."""
        raise NotImplementedError


class InMemoryTransport(Transport):
    """Zero-latency loss-free delivery — the original channel model."""

    def __init__(self) -> None:
        super().__init__()
        self._sent_batches = 0

    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        self._deliver(list(records))
        self._sent_batches += 1
        # Delivery is the ack on this transport: the batch is in the
        # backup's log the moment send returns.
        self._ack_advanced(self._sent_batches - 1)

    def wait_ack(self) -> float:
        self.stats.acks_delivered += 1
        return 0.0

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        self.stats.heartbeats_delivered += 1

    def fresh(self) -> "InMemoryTransport":
        return InMemoryTransport()


# ======================================================================
# Deterministic fault injection
# ======================================================================
@dataclass(frozen=True)
class FaultProfile:
    """Knobs of the simulated link.  Rates are probabilities in [0, 1];
    times are abstract ticks (the cost model scales them)."""

    name: str = "clean"
    drop_rate: float = 0.0        # message vanishes on the wire
    dup_rate: float = 0.0         # message arrives twice
    reorder_rate: float = 0.0     # message takes a slow path (overtaken)
    latency: float = 4.0          # one-way delay
    jitter: float = 0.0           # uniform extra delay in [0, jitter]
    retry_timeout: float = 40.0   # retransmit deadline after send
    backoff: float = 2.0          # timeout multiplier per retry
    max_retries: int = 12         # attempts before the link is declared dead
    window: int = 16              # bounded send buffer (unacked messages)


#: Built-in fault profiles used by tests, examples and benchmarks.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "clean": FaultProfile(name="clean"),
    "slow": FaultProfile(name="slow", latency=40.0, jitter=10.0),
    "lossy": FaultProfile(name="lossy", drop_rate=0.25, jitter=2.0),
    "flaky": FaultProfile(name="flaky", drop_rate=0.15, dup_rate=0.2,
                          jitter=3.0),
    "jittery": FaultProfile(name="jittery", reorder_rate=0.4, jitter=12.0),
    "chaotic": FaultProfile(name="chaotic", drop_rate=0.2, dup_rate=0.15,
                            reorder_rate=0.3, latency=8.0, jitter=8.0,
                            window=4),
}


class FaultyTransport(Transport):
    """Seeded network simulator with retransmission and backpressure.

    Time is virtual: it advances when the sender waits (ack waits,
    backpressure stalls) and by a small fixed cost per send, and the
    event queue (arrivals, acks) is processed whenever the clock moves.
    Two transports built with the same profile and seed behave
    identically — fault schedules are reproducible by construction.
    """

    _ARRIVE, _ACK, _HEARTBEAT = 0, 1, 2

    def __init__(self, profile: Optional[FaultProfile] = None, *,
                 seed: int = 20030622, send_cost: float = 1.0,
                 **overrides) -> None:
        super().__init__()
        profile = profile or FaultProfile()
        if overrides:
            profile = replace(profile, **overrides)
        self.profile = profile
        self.seed = seed
        self.send_cost = send_cost
        self._rng = Random(seed)
        self.now = 0.0
        self._events: List[Tuple[float, int, int, int, List[bytes]]] = []
        self._tiebreak = 0
        # Sender state.
        self._next_seq = 0
        #: seq -> [records, n_attempts, timeout_at]
        self._unacked: Dict[int, list] = {}
        self._acked_through = -1
        # Receiver state.
        self._expected = 0
        self._held: Dict[int, List[bytes]] = {}

    # -- virtual network internals -------------------------------------
    def _schedule(self, delay: float, kind: int, seq: int,
                  records: List[bytes]) -> None:
        self._tiebreak += 1
        heapq.heappush(
            self._events, (self.now + delay, self._tiebreak, kind, seq, records)
        )

    def _one_way_delay(self) -> float:
        p = self.profile
        delay = p.latency + self._rng.uniform(0.0, p.jitter)
        if p.reorder_rate and self._rng.random() < p.reorder_rate:
            # The slow path: enough extra delay that a later message
            # can overtake this one.
            delay += p.latency + p.jitter + self._rng.uniform(0.0, 4 * p.jitter)
        return delay

    def _transmit(self, seq: int) -> None:
        """Put one (re)transmission of message ``seq`` on the wire."""
        pending = self._unacked[seq]
        pending[1] += 1
        if pending[1] > 1:
            self.stats.retransmits += 1
        timeout = self.profile.retry_timeout * (
            self.profile.backoff ** (pending[1] - 1)
        )
        pending[2] = self.now + timeout
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
        else:
            self._schedule(self._one_way_delay(), self._ARRIVE, seq, pending[0])
        if self.profile.dup_rate and self._rng.random() < self.profile.dup_rate:
            self.stats.messages_duplicated += 1
            self._schedule(self._one_way_delay(), self._ARRIVE, seq, pending[0])

    def _receive(self, seq: int, records: List[bytes]) -> None:
        if seq < self._expected:
            # Duplicate of something already in the log: re-ack.
            self._send_ack()
            return
        if seq > self._expected:
            if seq not in self._held:
                self.stats.messages_reordered += 1
                self._held[seq] = records
            return
        batch = list(records)
        self._expected += 1
        while self._expected in self._held:
            batch.extend(self._held.pop(self._expected))
            self._expected += 1
        self._deliver(batch)
        self._send_ack()

    def _send_ack(self) -> None:
        """Cumulative ack for everything contiguously delivered."""
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
            return
        self._schedule(self._one_way_delay(), self._ACK,
                       self._expected - 1, [])

    def _handle(self, kind: int, seq: int, records: List[bytes]) -> None:
        if kind == self._ARRIVE:
            self._receive(seq, records)
        elif kind == self._ACK:
            if seq > self._acked_through:
                self._acked_through = seq
                self.stats.acks_delivered += 1
                for acked in [s for s in self._unacked if s <= seq]:
                    del self._unacked[acked]
                self._ack_advanced(seq)
        else:
            self.stats.heartbeats_delivered += 1

    def _process_due(self, limit: Optional[int] = None) -> int:
        """Handle events due at the current clock; at most ``limit`` of
        them when given (the poll path's fairness bound — blocking
        paths drain unbounded as before).  Returns the count handled."""
        handled = 0
        while self._events and self._events[0][0] <= self.now:
            if limit is not None and handled >= limit:
                break
            _, _, kind, seq, records = heapq.heappop(self._events)
            self._handle(kind, seq, records)
            handled += 1
        return handled

    def _advance_one_step(self, allow_retransmit: bool,
                          drain_limit: Optional[int] = None) -> bool:
        """Move the clock to the next arrival or retransmit deadline.
        Returns False when nothing can make progress."""
        if drain_limit is not None and self._process_due(drain_limit):
            # A backlog left by a previous bounded drain: hand out the
            # next slice before moving the clock again.
            return True
        next_event = self._events[0][0] if self._events else None
        next_timeout = None
        if allow_retransmit and self._unacked:
            next_timeout = min(p[2] for p in self._unacked.values())
        if next_event is None and next_timeout is None:
            return False
        if next_timeout is None or (next_event is not None
                                    and next_event <= next_timeout):
            self.now = max(self.now, next_event)
            self._process_due(drain_limit)
            return True
        self.now = max(self.now, next_timeout)
        for seq, pending in sorted(self._unacked.items()):
            if pending[2] <= self.now:
                if pending[1] > self.profile.max_retries:
                    raise TransportError(
                        f"message {seq} unacknowledged after "
                        f"{self.profile.max_retries} retries — link dead"
                    )
                self._transmit(seq)
        self._process_due(drain_limit)
        return True

    def _admit(self, records: List[bytes]) -> None:
        """Accept one batch into the send window and transmit it."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = [list(records), 0, 0.0]
        self._transmit(seq)
        self.now += self.send_cost
        self._process_due()

    # -- Transport interface -------------------------------------------
    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        while len(self._unacked) >= self.profile.window:
            # Bounded send buffer: the primary stalls until an ack
            # frees a slot (backpressure).
            self.stats.backpressure_stalls += 1
            self._service_others()
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError(
                    "send window full and the link is silent"
                )
        self._admit(records)

    def send_nowait(self, records: List[bytes]) -> bool:
        if self.closed:
            return True
        if len(self._unacked) >= self.profile.window:
            self.stats.backpressure_stalls += 1
            return False
        self._admit(records)
        return True

    #: Max events one :meth:`poll` call may handle.  A mux iterates
    #: members calling poll once each; without the bound, a member
    #: sitting on a large due backlog (e.g. a post-heal thundering
    #: herd) would monopolize the whole mux pass and starve the other
    #: groups' readiness callbacks.
    poll_drain_limit: int = 8

    def poll(self) -> bool:
        if self.closed:
            return False
        if not self._events and not self._unacked:
            return False
        return self._advance_one_step(allow_retransmit=True,
                                      drain_limit=self.poll_drain_limit)

    def ack_pending(self) -> bool:
        return self._acked_through < self._next_seq - 1

    def wait_ack(self) -> float:
        if self.closed:
            return 0.0
        target = self._next_seq - 1
        started = self.now
        while self._acked_through < target:
            self._service_others()
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError("awaiting ack on a silent link")
        waited = self.now - started
        self.stats.ack_wait_time += waited
        return waited

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        if self._rng.random() < self.profile.drop_rate:
            return
        self._schedule(self._one_way_delay(), self._HEARTBEAT, 0, [])
        self._process_due()

    def crash_sender(self) -> None:
        super().crash_sender()
        self._unacked.clear()
        self.drain()

    def drain(self) -> None:
        """Everything already on the wire arrives; no retransmissions,
        so messages dropped before the crash stay lost (and block any
        later messages — the contiguous-prefix rule)."""
        while self._events:
            time, _, kind, seq, records = heapq.heappop(self._events)
            self.now = max(self.now, time)
            self._handle(kind, seq, records)

    def settle(self) -> None:
        if self.closed:
            self.drain()
            return
        target = self._next_seq - 1
        while self._acked_through < target:
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError("settle on a silent link")
        self.drain()

    def fresh(self) -> "FaultyTransport":
        return FaultyTransport(self.profile, seed=self.seed,
                               send_cost=self.send_cost)


# ======================================================================
# Seeded chaos: partitions, flaps, asymmetric links
# ======================================================================
@dataclass(frozen=True)
class LinkOutage:
    """One scheduled cut of the whole link, in virtual-time ticks.

    ``direction`` selects which half of the link is severed:
    ``"both"`` is a symmetric partition, ``"fwd"`` cuts data and
    heartbeats (primary→backup) while acks still flow, ``"rev"`` is the
    *asymmetric* case the paper's fail-stop model cannot express — data
    keeps arriving but every ack vanishes, so the sender's output
    commit stalls across the window and resumes at the heal.
    """

    start: float
    end: float
    direction: str = "both"        # "both" | "fwd" | "rev"

    def __post_init__(self) -> None:
        if self.direction not in ("both", "fwd", "rev"):
            raise TransportError(
                f"outage direction must be 'both', 'fwd' or 'rev', "
                f"got {self.direction!r}"
            )
        if self.end <= self.start:
            raise TransportError(
                f"outage window must be non-empty, got "
                f"[{self.start}, {self.end})"
            )

    def cuts(self, direction: str, at: float) -> bool:
        return (self.start <= at < self.end
                and self.direction in ("both", direction))


def link_flaps(start: float, count: int, down: float, up: float,
               direction: str = "both") -> Tuple[LinkOutage, ...]:
    """A flapping link: ``count`` outages of length ``down`` separated
    by ``up`` ticks of healthy link, beginning at ``start``."""
    if count < 1 or down <= 0 or up < 0:
        raise TransportError(
            f"flap schedule needs count>=1, down>0, up>=0; got "
            f"count={count} down={down} up={up}"
        )
    return tuple(
        LinkOutage(start + i * (down + up), start + i * (down + up) + down,
                   direction)
        for i in range(count)
    )


@dataclass(frozen=True)
class MemberPartition:
    """One voting-group member cut off from the delivered log.

    The transport cannot see group membership, so the window is
    *published* (:meth:`ChaosTransport.blocked_members`) and enforced
    by the consumer: a :class:`~repro.replication.voting.VotingGroup`
    stops feeding a blocked member, its feed offset freezes, suspicion
    accrues from the silence, and the backlog floods in at the heal.
    ``unit="records"`` windows are measured in delivered-log length
    (deterministic under load, heals only as traffic flows);
    ``unit="time"`` windows are virtual-time ticks (heal even while an
    output-commit gate starves — see ``chaos_advance``).
    """

    member: int
    start: float
    end: float
    unit: str = "records"          # "records" | "time"

    def __post_init__(self) -> None:
        if self.unit not in ("records", "time"):
            raise TransportError(
                f"partition unit must be 'records' or 'time', "
                f"got {self.unit!r}"
            )
        if self.end <= self.start:
            raise TransportError(
                f"partition window must be non-empty, got "
                f"[{self.start}, {self.end})"
            )


@dataclass
class ChaosStats:
    """What the chaos schedule actually did to the link."""

    #: Transmissions eaten by an active outage (not lossy-link drops:
    #: they neither consume retry attempts nor back off the timer).
    partition_drops: int = 0
    #: Acks eaten by a rev/both outage.
    acks_cut: int = 0
    #: Heartbeats eaten by a fwd/both outage.
    heartbeats_cut: int = 0
    #: Clock jumps made by ``chaos_advance`` (gate-starvation waits).
    boundary_jumps: int = 0


class ChaosTransport(FaultyTransport):
    """A :class:`FaultyTransport` under a deterministic chaos schedule.

    On top of the seeded lossy-link model this injects *scheduled*
    faults: whole-link outages (symmetric or per-direction), link
    flaps (:func:`link_flaps`), per-direction latency/jitter
    overrides, and member-level partitions published to the voting
    layer.  Every schedule is plain data evaluated against the
    virtual clock, so two transports with the same schedule and seed
    misbehave identically.

    A transmission eaten by an outage is not a lossy-link drop: the
    retransmit timer re-arms at the *base* cadence and the attempt
    budget is untouched — a partitioned link is down, not dead, and
    must come back at the heal instead of tripping ``max_retries``
    mid-window.
    """

    def __init__(self, profile: Optional[FaultProfile] = None, *,
                 seed: int = 20030622, send_cost: float = 1.0,
                 outages: Tuple[LinkOutage, ...] = (),
                 member_partitions: Tuple[MemberPartition, ...] = (),
                 fwd_latency: Optional[float] = None,
                 rev_latency: Optional[float] = None,
                 fwd_jitter: Optional[float] = None,
                 rev_jitter: Optional[float] = None,
                 **overrides) -> None:
        super().__init__(profile, seed=seed, send_cost=send_cost,
                         **overrides)
        self.outages = tuple(outages)
        self.member_partitions = tuple(member_partitions)
        self.fwd_latency = fwd_latency
        self.rev_latency = rev_latency
        self.fwd_jitter = fwd_jitter
        self.rev_jitter = rev_jitter
        self.chaos = ChaosStats()

    # -- schedule evaluation -------------------------------------------
    def _cut(self, direction: str) -> bool:
        return any(o.cuts(direction, self.now) for o in self.outages)

    def _delay(self, direction: str) -> float:
        p = self.profile
        latency = self.fwd_latency if direction == "fwd" else self.rev_latency
        jitter = self.fwd_jitter if direction == "fwd" else self.rev_jitter
        latency = p.latency if latency is None else latency
        jitter = p.jitter if jitter is None else jitter
        delay = latency + self._rng.uniform(0.0, jitter)
        if p.reorder_rate and self._rng.random() < p.reorder_rate:
            delay += latency + jitter + self._rng.uniform(0.0, 4 * jitter)
        return delay

    def blocked_members(self) -> frozenset:
        """Members partitioned from the delivered log *right now* (the
        voting group polls this before feeding its followers)."""
        records = float(len(self.delivered))
        blocked = set()
        for p in self.member_partitions:
            at = self.now if p.unit == "time" else records
            if p.start <= at < p.end:
                blocked.add(p.member)
        return frozenset(blocked)

    def chaos_advance(self) -> bool:
        """Jump the virtual clock to the next schedule boundary.

        An output-commit gate starving on a partitioned quorum has no
        wire traffic to advance time with — real time still passes for
        it, so the gate's wait loop calls this to reach the heal (or
        the next onset) instead of deadlocking.  Returns False when no
        time-based boundary lies ahead (the schedule is exhausted: the
        partition is permanent and the caller must give up)."""
        boundaries = [b for o in self.outages for b in (o.start, o.end)]
        boundaries += [
            b for p in self.member_partitions if p.unit == "time"
            for b in (p.start, p.end)
        ]
        ahead = [b for b in boundaries if b > self.now]
        if not ahead:
            return False
        self.now = min(ahead)
        self.chaos.boundary_jumps += 1
        self._process_due()
        return True

    # -- fault-injected wire primitives --------------------------------
    def _transmit(self, seq: int) -> None:
        pending = self._unacked[seq]
        if self._cut("fwd"):
            self.chaos.partition_drops += 1
            pending[2] = self.now + self.profile.retry_timeout
            return
        pending[1] += 1
        if pending[1] > 1:
            self.stats.retransmits += 1
        timeout = self.profile.retry_timeout * (
            self.profile.backoff ** (pending[1] - 1)
        )
        pending[2] = self.now + timeout
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
        else:
            self._schedule(self._delay("fwd"), self._ARRIVE, seq, pending[0])
        if self.profile.dup_rate and self._rng.random() < self.profile.dup_rate:
            self.stats.messages_duplicated += 1
            self._schedule(self._delay("fwd"), self._ARRIVE, seq, pending[0])

    def _send_ack(self) -> None:
        if self._cut("rev"):
            self.chaos.acks_cut += 1
            return
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
            return
        self._schedule(self._delay("rev"), self._ACK,
                       self._expected - 1, [])

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        if self._cut("fwd"):
            self.chaos.heartbeats_cut += 1
            return
        if self._rng.random() < self.profile.drop_rate:
            return
        self._schedule(self._delay("fwd"), self._HEARTBEAT, 0, [])
        self._process_due()

    def fresh(self) -> "ChaosTransport":
        return ChaosTransport(
            self.profile, seed=self.seed, send_cost=self.send_cost,
            outages=self.outages,
            member_partitions=self.member_partitions,
            fwd_latency=self.fwd_latency, rev_latency=self.rev_latency,
            fwd_jitter=self.fwd_jitter, rev_jitter=self.rev_jitter,
        )


# ======================================================================
# Real sockets
# ======================================================================
def _framed(payload: bytes) -> bytes:
    """One wire frame: ``uvarint(len(payload)) || payload``."""
    return Writer().uvarint(len(payload)).bytes() + payload


def _buf_uvarint(buf: bytes, pos: int = 0) -> Optional[Tuple[int, int]]:
    """Parse one varint from ``buf`` at ``pos``; returns
    ``(value, position_after)`` or ``None`` when incomplete."""
    shift = 0
    value = 0
    for i in range(pos, len(buf)):
        byte = buf[i]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i + 1
        shift += 7
        if shift > 63:
            raise TransportError("varint too long on socket")
    return None


def _next_frame(buf: bytes, pos: int = 0) -> Optional[Tuple[bytes, int]]:
    """Parse one complete frame from ``buf`` at ``pos``; returns
    ``(payload, position_after)`` or ``None`` when incomplete.  The one
    frame decoder for both directions of the link."""
    head = _buf_uvarint(buf, pos)
    if head is None:
        return None
    length, start = head
    end = start + length
    if len(buf) < end:
        return None
    return bytes(buf[start:end]), end


class SocketTransport(Transport):
    """Real TCP over localhost; the backup's log receiver runs on its
    own thread and acks every data frame it appends.

    Frames reuse the varint wire format: both directions carry a
    sequence of ``uvarint(length) || payload`` where payload is built
    with :class:`~repro.replication.wire.Writer` —
    data frames ``(type=1, seq, count, count×(len, bytes))``,
    heartbeats ``(type=2)``, acks ``(type=3, cumulative_seq)``.

    Connection resets are survivable: the sender keeps every unacked
    data frame in an outbox and, after a reset, reconnects and
    retransmits the outbox in order; the receiver accepts successive
    connections, keeps its cumulative ``expected`` sequence across
    them, discards (and re-acks) duplicates, and never appends out of
    order — so the delivered log stays a contiguous prefix of the sent
    record sequence across any number of reconnects.  Seeded reset
    injection (``reset_every`` / ``reset_rate`` + ``reset_seed``)
    exercises exactly this path deterministically in tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 *, timeout: float = 10.0,
                 reset_every: Optional[int] = None,
                 reset_rate: float = 0.0,
                 reset_seed: int = 20030622) -> None:
        super().__init__()
        self.timeout = timeout
        self.reset_every = reset_every
        self.reset_rate = reset_rate
        self.reset_seed = reset_seed
        self._reset_rng = Random(reset_seed)
        self._frames_since_reset = 0
        self._cv = threading.Condition()
        self._next_seq = 0
        self._acked_through = -1
        self._records_sent = 0
        self._truncated = 0
        self._eof = False
        #: seq -> encoded DATA frame payload, pruned as acks arrive;
        #: retransmitted in order after a reconnect.
        self._outbox: Dict[int, bytes] = {}
        #: Sender-side buffer of ack bytes read off the socket; frames
        #: are parsed out of it as they complete, so ack reads can be
        #: non-blocking (the poll layer) without tearing frames.
        self._ack_buf = b""
        #: Receiver-side cumulative next-expected sequence; lives on
        #: the instance so it survives connection turnover.
        self._expected = 0
        self._ever_connected = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._sender: Optional[socket.socket] = None
        self._receiver_sock: Optional[socket.socket] = None
        self._thread = threading.Thread(
            target=self._receiver_loop, name="backup-log-receiver",
            daemon=True,
        )
        self._thread.start()

    # -- receiver thread -----------------------------------------------
    def _receiver_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break               # listener closed: shut down
            # Acks leave at once too, including the burst that answers
            # a reconnect retransmit (see ``_connect``).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._receiver_sock = conn
            try:
                self._serve(conn)
            except OSError:
                pass                # connection reset: await the next one
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        with self._cv:
            self._eof = True
            self._cv.notify_all()

    def _serve(self, conn: socket.socket) -> None:
        buf = bytearray()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return              # EOF; a torn trailing frame is dropped
            buf += chunk
            pos = 0
            while True:
                frame = _next_frame(buf, pos)
                if frame is None:
                    break
                payload, pos = frame
                self._handle_frame(conn, payload)
            del buf[:pos]

    def _handle_frame(self, conn: socket.socket, payload: bytes) -> None:
        r = Reader(payload)
        frame_type = r.uvarint()
        if frame_type == _FRAME_DATA:
            seq = r.uvarint()
            count = r.uvarint()
            records = [r.raw(r.uvarint()) for _ in range(count)]
            with self._cv:
                if seq > self._expected:
                    # A gap can't arise from TCP ordering; only a
                    # confused sender.  Hold nothing, ack nothing —
                    # the retransmission protocol will fill it in.
                    return
                appended = 0
                if seq == self._expected:
                    self._expected = seq + 1
                    self.delivered.extend(records)
                    appended = len(records)
                    self._cv.notify_all()
                # seq < expected: duplicate after a reconnect — the
                # records are already in the log; just re-ack.
                acked = self._expected - 1
            # NB: fires on the receiver thread, outside the lock.
            if appended and self.on_deliver is not None:
                self.on_deliver(self, appended)
            conn.sendall(_framed(
                Writer().uvarint(_FRAME_ACK).uvarint(acked).bytes()
            ))
        elif frame_type == _FRAME_HEARTBEAT:
            with self._cv:
                self.stats.heartbeats_delivered += 1

    # -- sender side ---------------------------------------------------
    def _drop_connection(self) -> None:
        if self._sender is not None:
            try:
                self._sender.close()
            except OSError:
                pass
            self._sender = None
        # A partial ack frame from the dead connection is garbage.
        self._ack_buf = b""

    def _connect(self) -> socket.socket:
        if self._sender is None:
            self._sender = socket.create_connection(
                self.address, timeout=self.timeout
            )
            # Without this, every output commit stalls ~40 ms: the
            # backup never answers a heartbeat, so its kernel delays
            # the TCP ACK, and Nagle holds the next data frame until
            # that ACK arrives.
            self._sender.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._ever_connected:
                self.stats.reconnects += 1
                # Retransmit every unacked data frame in order, in one
                # write; the receiver re-acks duplicates and appends
                # the rest, so the contiguous prefix resumes exactly
                # where it broke.
                frames = [self._outbox[seq] for seq in sorted(self._outbox)]
                self.stats.retransmits += len(frames)
                self._sender.sendall(b"".join(map(_framed, frames)))
            self._ever_connected = True
        return self._sender

    def _maybe_inject_reset(self) -> None:
        if self.reset_every is None and not self.reset_rate:
            return
        self._frames_since_reset += 1
        due = (self.reset_every is not None
               and self._frames_since_reset >= self.reset_every)
        if not due and self.reset_rate:
            due = self._reset_rng.random() < self.reset_rate
        if due:
            # A graceful close still delivers the kernel-buffered bytes
            # (so no data is torn mid-frame), but any ACKs in flight to
            # us are gone — the reconnect path must cope with both.
            self._frames_since_reset = 0
            self.stats.connection_resets += 1
            self._drop_connection()

    def _send_frame(self, payload: bytes) -> None:
        frame = _framed(payload)
        for attempt in (0, 1):
            try:
                self._connect().sendall(frame)
                return
            except OSError as exc:
                self._drop_connection()
                if attempt:
                    raise TransportError(
                        f"socket send failed: {exc}"
                    ) from exc

    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        w = Writer()
        w.uvarint(_FRAME_DATA).uvarint(self._next_seq).uvarint(len(records))
        for record in records:
            w.uvarint(len(record)).raw(record)
        payload = w.bytes()
        self._outbox[self._next_seq] = payload
        self._send_frame(payload)
        self._next_seq += 1
        self._records_sent += len(records)
        self._maybe_inject_reset()

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        self._send_frame(Writer().uvarint(_FRAME_HEARTBEAT).bytes())

    def _parse_ack_frames(self) -> bool:
        """Consume complete frames from the ack buffer; True when the
        cumulative ack advanced."""
        advanced = False
        while True:
            frame = _next_frame(self._ack_buf)
            if frame is None:
                return advanced
            payload, end = frame
            self._ack_buf = self._ack_buf[end:]
            r = Reader(payload)
            if r.uvarint() != _FRAME_ACK:
                continue
            acked = r.uvarint()
            self.stats.acks_delivered += 1
            if acked > self._acked_through:
                self._acked_through = acked
                for seq in [s for s in self._outbox if s <= acked]:
                    del self._outbox[seq]
                self._ack_advanced(acked)
                advanced = True

    def _recv_ack_bytes(self, timeout: float) -> str:
        """Pull whatever ack bytes the socket has into the buffer
        within ``timeout`` seconds (0 = non-blocking).  Returns
        ``"data"``, ``"idle"`` (nothing arrived) or ``"eof"``.
        Non-timeout ``OSError`` propagates to the caller."""
        sock = self._connect()
        sock.settimeout(timeout)
        try:
            chunk = sock.recv(65536)
        except (socket.timeout, BlockingIOError, InterruptedError):
            return "idle"
        finally:
            try:
                sock.settimeout(self.timeout)
            except OSError:
                pass
        if not chunk:
            return "eof"
        self._ack_buf += chunk
        return "data"

    def poll(self) -> bool:
        """Non-blocking ack pump: drain available ack bytes and
        process complete frames.  Connection trouble here is left for
        the blocking paths (send/wait_ack) to repair."""
        if self.closed or not self.ack_pending():
            return False
        progressed = self._parse_ack_frames()
        try:
            status = self._recv_ack_bytes(0.0)
        except OSError:
            self._drop_connection()
            return progressed
        if status == "eof":
            self._drop_connection()
            return progressed
        return self._parse_ack_frames() or progressed

    def ack_pending(self) -> bool:
        return self._acked_through < self._next_seq - 1

    def wait_ack(self) -> float:
        if self.closed or self._next_seq == 0:
            return 0.0
        target = self._next_seq - 1
        started = time.monotonic()
        deadline = started + self.timeout
        failures = 0
        while self._acked_through < target:
            if self._parse_ack_frames():
                continue
            self._service_others()
            # Muxed: short reads so the rest of the fleet keeps moving,
            # bounded by an overall deadline.  Unmuxed: one blocking
            # read with the full timeout, as before.
            if self.mux is not None and time.monotonic() > deadline:
                raise TransportError("timed out waiting for backup ack")
            read_timeout = 0.05 if self.mux is not None else self.timeout
            try:
                status = self._recv_ack_bytes(read_timeout)
            except OSError as exc:
                self._drop_connection()
                failures += 1
                if failures > 3:
                    raise TransportError(f"ack read failed: {exc}") from exc
                continue
            if status == "eof":
                # Our end of the link went away (e.g. an injected reset
                # between send and wait): reconnect and retransmit.
                self._drop_connection()
                failures += 1
                if failures > 3:
                    raise TransportError("backup closed the link mid-ack")
                continue
            if status == "idle" and self.mux is None:
                raise TransportError("timed out waiting for backup ack")
        waited = time.monotonic() - started
        self.stats.ack_wait_time += waited
        return waited

    # -- completion ----------------------------------------------------
    def truncate(self, n_records: int) -> None:
        with self._cv:
            del self.delivered[:n_records]
            self._truncated += n_records

    def crash_sender(self) -> None:
        super().crash_sender()
        self._drop_connection()    # flushes in-flight bytes, then EOF
        try:
            self._listener.close()  # unblocks accept → receiver EOF
        except OSError:
            pass
        self.drain()

    def settle(self) -> None:
        """The sender is alive: ack everything outstanding (forcing a
        reconnect-retransmit round if a reset is pending), then drain."""
        self.wait_ack()
        self.drain()

    def drain(self) -> None:
        deadline = time.monotonic() + self.timeout
        with self._cv:
            while (len(self.delivered) + self._truncated < self._records_sent
                   and not self._eof):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError("receiver did not drain in time")
                self._cv.wait(remaining)

    def close(self) -> None:
        super().close()
        for sock in (self._sender, self._receiver_sock, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._thread.join(timeout=1.0)

    def fresh(self) -> "SocketTransport":
        return SocketTransport(
            timeout=self.timeout, reset_every=self.reset_every,
            reset_rate=self.reset_rate, reset_seed=self.reset_seed,
        )


# ======================================================================
# Multiplexing
# ======================================================================
class TransportMux:
    """One event loop servicing every replica group's connection.

    Register each group's transport.  Two things follow:

    * :meth:`poll` advances every member one non-blocking step — the
      fleet's idle loop;
    * while any member *blocks* (an output-commit ack wait, a send
      backpressure stall), it calls :meth:`poll_others` between its own
      steps, so one stalled group's link never freezes the rest of the
      fleet's frames.
    """

    def __init__(self) -> None:
        self._members: List[Transport] = []

    def register(self, transport: Transport) -> Transport:
        if transport not in self._members:
            self._members.append(transport)
            transport.mux = self
        return transport

    def unregister(self, transport: Transport) -> None:
        if transport in self._members:
            self._members.remove(transport)
        if transport.mux is self:
            transport.mux = None

    def members(self) -> List[Transport]:
        return list(self._members)

    def poll(self) -> bool:
        """One non-blocking service step over all members, in
        registration order.  True when any member progressed."""
        progressed = False
        for transport in list(self._members):
            if not transport.closed and transport.poll():
                progressed = True
        return progressed

    def poll_others(self, busy: Transport) -> bool:
        """Service every member except ``busy`` (called from inside
        ``busy``'s blocking wait)."""
        progressed = False
        for transport in list(self._members):
            if transport is busy or transport.closed:
                continue
            if transport.poll():
                progressed = True
        return progressed

    def ack_pending(self) -> bool:
        return any(t.ack_pending() for t in self._members)

    def close(self) -> None:
        for transport in list(self._members):
            transport.close()
        self._members.clear()


def make_transport(spec=None) -> Transport:
    """Build a transport from a spec: ``None`` (in-memory default), a
    :class:`Transport` instance, a zero-argument factory, a fault
    profile name from :data:`FAULT_PROFILES`, or ``"memory"`` /
    ``"socket"``."""
    if spec is None:
        return InMemoryTransport()
    if isinstance(spec, Transport):
        return spec
    if callable(spec):
        transport = spec()
        if not isinstance(transport, Transport):
            raise TransportError(
                f"transport factory returned {transport!r}, not a Transport"
            )
        return transport
    if isinstance(spec, str):
        if spec == "memory":
            return InMemoryTransport()
        if spec == "socket":
            return SocketTransport()
        if spec in FAULT_PROFILES:
            return FaultyTransport(FAULT_PROFILES[spec])
        raise TransportError(
            f"unknown transport {spec!r}; expected 'memory', 'socket', or "
            f"a fault profile from {sorted(FAULT_PROFILES)}"
        )
    raise TransportError(f"cannot build a transport from {spec!r}")
