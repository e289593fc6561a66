"""Deterministic discrete-event engine.

The clock is integer nanoseconds so event ordering is exact; sub-nanosecond
costs (e.g. scratchpad accesses) are accumulated as energy/latency
contributions elsewhere, never as individually scheduled events.

Two processes can run lazily, without an event of their own, as temporally
decoupled processes synchronized by a quantum keeper (SystemC TLM-2.0, IEEE
1666-2011). Each keeps its next action at the exact (at, seq) position the
event it replaces would have had, and the engine brings both up to date with
one comparison per delivered event, against the earlier of their next times.

A periodic source (`start_source`): sample k falls at k * NS_PER_S // rate.
The engine keeps `sample_index`, the last sample that counts as delivered:
before an event at (at, seq) is handled, every sample the removed
per-sample event chain would have delivered first counts as delivered.
Sample k's removed event would have taken its seq when sample k-1 was
delivered, so k counts as delivered before an event E if t_k < E.at, or if
t_k == E.at and sample k-1 already counted as delivered when E was
scheduled. The engine reserves that seq each time `sample_index` moves, so
the arrival of the next sample has an exact (at, seq) position of its own.

A server (`start_server`, after `start_source`): one callback, called for
each of its actions with the action's time and the last sample delivered
before it, which returns the server's next action: a time (a completion),
ordered as an event scheduled then would be; `NEXT_SAMPLE`, the arrival of
the next sample, at that sample's position; or None. The server starts out
waiting for the next sample, and outside a settle `serve_at` moves its next
action to a time. Before an event E is handled, the engine settles the
server's actions ordered before E in one loop over them, with the clock,
the seq counter, the sample clock and the next action in locals: per action
it delivers the samples ordered before it, sets the clock to its time,
calls the callback and reserves a seq for the returned time. After the last
of them it delivers the samples ordered before E, once. Either delivery
moves `sample_index` straight to the last sample ordered before its (at,
seq) position: every sample earlier than `at`, or one more for a tie, and
reserves one seq. `run_until(end)` settles the actions at or before `end`
before it returns. The callback must schedule no event and set no action
itself.
"""

from __future__ import annotations

import zlib
from enum import Enum
from heapq import heappop, heappush
from typing import Any, NamedTuple

import numpy as np

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

# The next sample or server time while there is none: later than any clock value.
_NEVER_NS = 1 << 63
# A server callback's return value for "the arrival of the next sample".
NEXT_SAMPLE = -1


def ms_to_ns(ms: float) -> int:
    return int(round(ms * NS_PER_MS))


def s_to_ns(s: float) -> int:
    return int(round(s * NS_PER_S))


def ns_to_ms(ns: int) -> float:
    return ns / NS_PER_MS


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S


def sum_left(values) -> float:
    """The values added one after another from the left, as the built-in
    `sum` adds floats before CPython 3.12 (from 3.12 on it compensates, which
    would make a report depend on the Python version); the int 0 for none."""
    total = 0
    for v in values:
        total += v
    return total


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled in the past (a programming error)."""


class EventKind(Enum):
    FRAME_ARRIVED = "frame_arrived"
    IMU_SAMPLE_READY = "imu_sample_ready"
    TASK_DONE = "task_done"
    GC_END = "gc_end"


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
        self.scheduled_count = 0
        self.delivered_count = 0
        # The lazy periodic source (see the module notes).
        self.sample_index = 0  # last sample that counts as delivered
        self._sample_rate_hz = 0
        self._next_sample_ns = _NEVER_NS
        self._next_sample_seq = 0  # the seq the next sample's event would have had
        # The lazy server: its callback and the (at, seq) of its next action.
        self._server = None
        self._server_ns = _NEVER_NS
        self._server_seq = 0
        # The earlier of the next sample time and the next server time.
        self._lazy_ns = _NEVER_NS

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

    def start_source(self, rate_hz: int) -> None:
        """Start the lazy periodic source: sample 0 counts as delivered now,
        and sample k falls at k * NS_PER_S // rate_hz."""
        self._sample_rate_hz = rate_hz
        self.sample_index = 0
        self._next_sample_ns = NS_PER_S // rate_hz
        self._next_sample_seq = self._seq
        self._seq += 1
        self._lazy_ns = min(self._next_sample_ns, self._server_ns)

    def start_server(self, callback) -> None:
        """Install the lazy server, waiting for the arrival of the next
        sample."""
        self._server = callback
        self._server_ns, self._server_seq = self._next_sample_ns, self._next_sample_seq
        self._lazy_ns = self._next_sample_ns

    def serve_at(self, at: int) -> None:
        """The server's next action is at `at`, ordered as an event scheduled
        now would be."""
        if at < self._now:
            raise SchedulingError(f"cannot serve at t={at} ns; clock is at {self._now} ns")
        self._server_ns = at
        self._server_seq = self._seq
        self._seq += 1
        if at < self._lazy_ns:
            self._lazy_ns = at

    def _settle(self, at: int, seq: int) -> None:
        """Settle every server action and deliver every sample ordered
        before an event at (at, seq)."""
        seq_counter, k = self._seq, self.sample_index
        rate, next_ns, next_seq = self._sample_rate_hz, self._next_sample_ns, self._next_sample_seq
        t, s, serve = self._server_ns, self._server_seq, self._server
        # Each server action (t, s) ordered before (at, seq), in turn.
        while t < at or (t == at and s < seq):
            # Deliver the samples ordered before (t, s); a delivery reserves
            # the seq of the next sample's event.
            if next_ns < t:
                k = (t * rate - 1) // NS_PER_S  # the last with t_k < t
                next_ns, next_seq = ((k + 1) * NS_PER_S) // rate, seq_counter
                seq_counter += 1
            elif next_ns == t and s >= next_seq:
                k += 1  # tie: scheduled after sample k-1 was delivered
                next_ns, next_seq = ((k + 1) * NS_PER_S) // rate, seq_counter
                seq_counter += 1
            self._now = t
            action = serve(t, k)
            if action is None:
                t = _NEVER_NS
            elif action >= t:
                t, s = action, seq_counter
                seq_counter += 1
            elif action == NEXT_SAMPLE:
                t, s = next_ns, next_seq
            else:
                raise SchedulingError(f"cannot serve at t={action} ns; clock is at {t} ns")
        # The samples ordered before (at, seq), the same way.
        if next_ns < at:
            k = (at * rate - 1) // NS_PER_S
            next_ns, next_seq = ((k + 1) * NS_PER_S) // rate, seq_counter
            seq_counter += 1
        elif next_ns == at and seq >= next_seq:
            k += 1
            next_ns, next_seq = ((k + 1) * NS_PER_S) // rate, seq_counter
            seq_counter += 1
        self._seq, self.sample_index = seq_counter, k
        self._next_sample_ns, self._next_sample_seq = next_ns, next_seq
        self._server_ns, self._server_seq = t, s
        self._lazy_ns = t if t < next_ns else next_ns

    def run_until(self, end: int) -> None:
        """Process every event with at <= end; afterwards now() == end, every
        source sample at or before end counts as delivered, and every server
        action at or before end is settled."""
        queue, handlers = self._queue, self._handlers
        while queue and queue[0][0] <= end:
            ev = heappop(queue)
            at = ev[0]
            self.delivered_count += 1
            if at >= self._lazy_ns:
                self._settle(at, ev[1])
            self._now = at
            handler = handlers.get(ev.target)
            if handler is not None:
                handler(ev)
        if self._lazy_ns <= end:
            # What falls up to `end` had its events handled in this call.
            self._settle(end + 1, -1)
        self._now = max(self._now, end)
