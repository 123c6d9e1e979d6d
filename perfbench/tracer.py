"""Span tracer for the benchmark's traced run.

The tracer wraps calls into each layer's public functions from outside
the program: class methods are replaced on the class that defines
them, and module functions are replaced in every ``repro`` module that
bound them by name.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` puts every original back, so an untraced run
in the same process pays nothing.

Every span records its name, start, end, parent and request id, and is
kept in memory until :meth:`Tracer.write_spans` runs at the end.  A
span's self time is its duration minus the time its direct children
cover; the per-name aggregates (calls, total seconds, self seconds)
are kept as the spans close, so the report needs no second pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory; later spans still feed the aggregates but are
#: not stored (the count of dropped spans is reported).
MAX_STORED_SPANS = 2_000_000


class Tracer:
    """Stack-based span recorder plus named counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Request (or job) id stamped on every span opened under it.
        self.rid: Optional[str] = None
        self.spans: List[Tuple] = []
        self.dropped = 0
        self._next_id = 0
        #: Open spans: [span_id, name, start, child_seconds].
        self._stack: List[list] = []
        self._main = threading.get_ident()
        self._restore: List[Callable[[], None]] = []
        #: Transports built while installed (their stats hold the
        #: reconnect and retransmit counts).
        self.transports: List[Any] = []

    # -- spans ---------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else -1,
                               self.rid))
        else:
            self.dropped += 1

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- installation --------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str,
                    probe: Optional[Callable] = None) -> None:
        """Trace ``cls.attr`` when ``cls`` defines it itself.

        ``probe(args, result, before)`` may return a dict of counts to
        add; ``before`` is what ``probe(args, None, None)`` returned when
        the call started (used for counter deltas)."""
        if attr not in cls.__dict__:
            return
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, probe))
        self._restore.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      probe: Optional[Callable] = None) -> None:
        """Trace a module function everywhere ``repro`` bound it."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, probe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(
                        lambda m=mod, k=key: setattr(m, k, original))

    def _wrapper(self, original: Callable, name: str,
                 probe: Optional[Callable]) -> Callable:
        tracer = self
        main = self._main

        if probe is None:
            def traced(*args, **kwargs):
                if threading.get_ident() != main:
                    return original(*args, **kwargs)
                frame = tracer.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit(frame)
        else:
            counts = self.counts

            def traced(*args, **kwargs):
                if threading.get_ident() != main:
                    return original(*args, **kwargs)
                before = probe(args, None, None)
                frame = tracer.enter(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    tracer.exit(frame)
                    for key, n in probe(args, result, before).items():
                        counts[key] += n
        traced.__wrapped__ = original
        return traced

    def track_instances(self, cls: type, into: list) -> None:
        """Append every instance ``cls.__init__`` builds to ``into``
        (no span: construction is not a layer boundary)."""
        original = cls.__dict__["__init__"]

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)
        setattr(cls, "__init__", init)
        self._restore.append(lambda: setattr(cls, "__init__", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the stored spans as JSON lines, in start order."""
        names = sorted(self.calls)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names,
                                 "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, rid in sorted(
                    self.spans, key=lambda s: s[0]):
                fh.write(json.dumps([span_id, name, round(start, 7),
                                     round(end, 7), parent, rid]) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.exit(self.frame)


class NullTracer:
    """The untraced run's stand-in: same surface, records nothing."""

    rid = None

    def span(self, name: str) -> "_NullSpan":
        return _NullSpan()


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


# ======================================================================
# Layer instrumentation: which public functions are wrapped, and under
# which span names.  Span names start with the layer they measure.
# ======================================================================
def _slice_probe(args, result, before):
    interp, thread = args[0], args[1]
    now = (thread.instructions, interp.block_cache_hits)
    if before is None:
        return now
    return {"runtime.instructions": now[0] - before[0],
            "runtime.block_cache_hits": now[1] - before[1]}


def _compile_block_probe(args, result, before):
    if before is None:
        return ()
    return {"runtime.blocks_compiled": 0 if result is None else 1}


def _flush_probe(args, result, before):
    channel = args[0]
    now = (channel.records_sent, channel.bytes_sent, channel.messages_sent)
    if before is None:
        return now
    return {"channel.records": now[0] - before[0],
            "channel.bytes": now[1] - before[1],
            "channel.messages": now[2] - before[2]}


def _capture_probe(args, result, before):
    if before is None:
        return ()
    return {"checkpoint.count": 1,
            "checkpoint.bytes": result.byte_size if result else 0}


def _digest_probe(args, result, before):
    digest = args[0]
    now = (digest.items_hashed, digest.items_reused)
    if before is None:
        return now
    return {"digest.items_hashed": now[0] - before[0],
            "digest.items_reused": now[1] - before[1]}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer report reads."""
    from repro.env.channel import Channel
    from repro.replication import transport as tr
    from repro.replication.commit import LogShipper
    from repro.replication.digest import IncrementalStateDigest
    from repro.replication.machine import ReplicatedJVM
    from repro.replication.steady import SteadyCheckpointer
    from repro.replication.supervisor import ReplicaGroup
    from repro.replication.voting import QuorumTally, VotingGroup
    from repro.runtime.gc import Collector
    from repro.runtime.interpreter import Interpreter

    tracer.wrap_method(Interpreter, "run_slice", "runtime.run_slice",
                       _slice_probe)
    tracer.wrap_function("repro.runtime.blockjit", "compile_block",
                         "runtime.compile_block", _compile_block_probe)
    tracer.wrap_method(Collector, "collect", "runtime.gc")
    tracer.wrap_function("repro.minijava", "compile_program",
                         "minijava.compile")
    tracer.wrap_method(LogShipper, "log", "strategy.log")
    tracer.wrap_method(LogShipper, "output_commit", "commit.output_commit")
    tracer.wrap_method(Channel, "flush", "channel.flush", _flush_probe)
    for cls in (tr.InMemoryTransport, tr.FaultyTransport,
                tr.ChaosTransport, tr.SocketTransport):
        tracer.wrap_method(cls, "send", "transport.send")
        tracer.wrap_method(cls, "wait_ack", "transport.ack_wait")
    tracer.track_instances(tr.Transport, tracer.transports)
    tracer.wrap_method(tr.TransportMux, "poll", "transport.mux_poll")
    tracer.wrap_method(tr.TransportMux, "poll_others", "transport.mux_poll")
    tracer.wrap_method(ReplicatedJVM, "replay_backup",
                       "machine.replay_backup")
    tracer.wrap_function("repro.replication.machine", "parse_log",
                         "machine.parse_log")
    for fn in ("take_checkpoint", "take_delta_checkpoint"):
        tracer.wrap_function("repro.replication.checkpoint", fn,
                             "checkpoint.capture", _capture_probe)
    tracer.wrap_function("repro.replication.checkpoint", "compose_delta",
                         "checkpoint.compose")
    tracer.wrap_function("repro.replication.checkpoint",
                         "restore_checkpoint", "checkpoint.restore")
    tracer.wrap_method(SteadyCheckpointer, "emit", "steady.emit")
    tracer.wrap_method(ReplicaGroup, "pump", "supervisor.pump")
    tracer.wrap_method(IncrementalStateDigest, "compute", "digest.compute",
                       _digest_probe)
    tracer.wrap_function("repro.replication.digest", "compute_state_digest",
                         "digest.compute")
    tracer.wrap_method(QuorumTally, "add", "voting.tally_add")
    tracer.wrap_method(VotingGroup, "pump", "voting.pump")
