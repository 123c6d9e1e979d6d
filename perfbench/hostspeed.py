"""Host-speed probe: how fast the shared host runs Python right now.

The benchmark runs on a few cores of a shared machine whose speed for
the same Python code drifts by 20–30% from one minute to the next, as
other tenants' work comes and goes.  No statistic taken inside one run
removes a slow minute that covers the whole run.  So the CPU-bound
figures are scaled to a reference host speed: between operations the
benchmark times a fixed pure-Python kernel (a small stack-machine
interpreter with a dict heap: dispatch, list and dict operations and
small allocations, the kinds of work the program does), and each
operation's time is divided by how much slower than
``REFERENCE_SAMPLE_S`` the samples taken just before and just after it
ran.

The kernel shares no code with the program under test, so a change to
the program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List

#: One sample's time on the reference host, the scale of every scaled
#: figure: a scaled time is what the operation would take on a host
#: where one sample takes this long.  (Samples took 0.55–1.0 ms on the
#: 2-core host the benchmark was built on.)
REFERENCE_SAMPLE_S = 0.0010
#: Samples on each side of an operation that judge the host's speed
#: while it ran.
NEIGHBOURS = 8

_PROGRAM = (("load", 0), ("push", 1), ("add", None), ("dup", None),
            ("store", 0), ("push", 7), ("mod", None), ("heap", None),
            ("load", 0), ("push", 400), ("lt", None), ("jump_if", 0),
            ("halt", None))


def _kernel() -> int:
    """A fixed amount of interpreter-shaped work (about 1 ms)."""
    stack: List = []
    slots = [0, 0]
    heap: dict = {}
    pc = 0
    while True:
        op, arg = _PROGRAM[pc]
        pc += 1
        if op == "load":
            stack.append(slots[arg])
        elif op == "push":
            stack.append(arg)
        elif op == "add":
            b = stack.pop()
            stack.append(stack.pop() + b)
        elif op == "dup":
            stack.append(stack[-1])
        elif op == "store":
            slots[arg] = stack.pop()
        elif op == "mod":
            b = stack.pop()
            stack.append(stack.pop() % b)
        elif op == "heap":
            key = stack.pop()
            heap[key] = [key, heap.get(key)]
        elif op == "lt":
            b = stack.pop()
            stack.append(stack.pop() < b)
        elif op == "jump_if":
            if stack.pop():
                pc = arg
        else:
            return len(heap)


class HostSpeed:
    """Probe samples of one run, by the time they were taken."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            _kernel()
            self.at.append(t0)
            self.took.append(perf_counter() - t0)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference host the host ran around
        the interval ``[start, end]``: the median of the ``NEIGHBOURS``
        samples before it and after it, over ``REFERENCE_SAMPLE_S``."""
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        near = self.took[max(0, lo - NEIGHBOURS):lo] \
            + self.took[hi:hi + NEIGHBOURS]
        if not near:
            return 1.0
        return statistics.median(near) / REFERENCE_SAMPLE_S

    def median_ms(self) -> float:
        return statistics.median(self.took) * 1e3 if self.took else 0.0
