"""Deterministic discrete-event engine.

The clock is integer nanoseconds so event ordering is exact; sub-nanosecond
costs (e.g. scratchpad accesses) are accumulated as energy/latency
contributions elsewhere, never as individually scheduled events.
"""

from __future__ import annotations

import zlib
from enum import Enum
from heapq import heappop, heappush
from typing import Any, NamedTuple

import numpy as np

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def ms_to_ns(ms: float) -> int:
    return int(round(ms * NS_PER_MS))


def s_to_ns(s: float) -> int:
    return int(round(s * NS_PER_S))


def ns_to_ms(ns: int) -> float:
    return ns / NS_PER_MS


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled in the past (a programming error)."""


class EventKind(Enum):
    FRAME_ARRIVED = "frame_arrived"
    IMU_SAMPLE_READY = "imu_sample_ready"
    TASK_DONE = "task_done"
    GC_END = "gc_end"
    SIM_END = "sim_end"


class Event(NamedTuple):
    """A scheduled event; the queue holds these tuples directly. `seq` is
    unique, so heap comparisons are decided by (at, seq) and never reach
    `target`."""
    at: int  # ns
    seq: int  # global tie-breaker, assigned at schedule time
    target: str
    kind: EventKind
    payload: Any = None


class Engine:
    """Single-threaded event loop with a seeded family of PRNG streams.

    Events are delivered in strict (at, seq) order. One named stream per
    stochastic source, all derived from the master seed, so adding a source
    does not perturb the others.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._queue: list[Event] = []
        self._now = 0
        self._seq = 0
        self._handlers: dict[str, callable] = {}
        self._streams: dict[str, np.random.Generator] = {}
        self._stopped = False
        self.scheduled_count = 0
        self.delivered_count = 0

    def now(self) -> int:
        return self._now

    def stream(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            sub = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(sub,))
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def on(self, target: str, handler) -> None:
        self._handlers[target] = handler

    def schedule(self, at: int, target: str, kind: EventKind, payload: Any = None) -> Event:
        if at < self._now:
            raise SchedulingError(
                f"cannot schedule {kind.value} at t={at} ns; clock is at {self._now} ns"
            )
        # tuple.__new__ skips the Python-level __new__ that Event(...) runs.
        ev = tuple.__new__(Event, (int(at), self._seq, target, kind, payload))
        self._seq += 1
        self.scheduled_count += 1
        heappush(self._queue, ev)
        return ev

    def run_until(self, end: int) -> None:
        """Process every event with at <= end; afterwards now() == end.

        A SIM_END event stops the loop immediately (clock left at its
        timestamp).
        """
        queue, handlers, sim_end = self._queue, self._handlers, EventKind.SIM_END
        while queue and queue[0][0] <= end:
            ev = heappop(queue)
            self._now = ev.at
            self.delivered_count += 1
            if ev.kind is sim_end:
                self._stopped = True
                return
            handler = handlers.get(ev.target)
            if handler is not None:
                handler(ev)
        self._now = max(self._now, end)
