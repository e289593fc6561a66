"""Two-bank scratchpad feature buffer with fill-register/interrupt semantics.

The producer (DSP feature extraction) fills one bank at a time; when a fill
completes the bank id is latched into the fill register and an interrupt is
raised toward the CPU. The CPU acknowledges by locking the bank and clearing
the register, consumes it from both the update and mapping threads, and
releases it, at which point the banks swap roles. Protocol violations are
hard faults, never silent repairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum


class ProtocolError(RuntimeError):
    """A bank-swap protocol violation (programming error in the caller)."""


class BankState(Enum):
    EMPTY = "empty"
    FILLING = "filling"
    FULL = "full"
    LOCKED = "locked"


UPDATE_CONSUMER = "update"
MAPPING_CONSUMER = "mapping"
# A tuple: membership compares by equality, so an unhashable value read from
# a trace file is simply not a consumer.
CONSUMERS = (UPDATE_CONSUMER, MAPPING_CONSUMER)
BANKS = 2  # the protocol is defined for exactly two banks


@dataclass
class Bank:
    state: BankState = BankState.EMPTY
    block: object = None
    consumers_pending: set = field(default_factory=set)


class FeatureBankController:
    """Pure state machine; the caller supplies timing and event delivery.

    An optional `trace` callback receives (transition, detail_dict) for every
    state change so runs can be audited offline; the detail dict is new on
    each call and holds the `bank`, plus the `consumer` of a ConsumeDone.
    """

    def __init__(self, trace=None):
        self.banks = [Bank() for _ in range(BANKS)]
        self.fill_register: int | None = None
        self._full_backlog: deque[int] = deque()
        self._trace = trace

    @property
    def pending_interrupt(self) -> bool:
        """The interrupt toward the CPU is raised while a bank id is latched
        in the fill register."""
        return self.fill_register is not None

    @property
    def cycle_active(self) -> bool:
        """The CPU's consume cycle runs while a bank is LOCKED: from its
        acknowledge to its release."""
        return any(b.state is BankState.LOCKED for b in self.banks)

    def _emit(self, transition: str, detail: dict) -> None:
        if self._trace is not None:
            self._trace(transition, detail)

    # -- producer side ------------------------------------------------------

    def writable_bank(self) -> int | None:
        """An EMPTY bank the producer may start filling, or None. At most one
        bank may be FILLING at any time."""
        free = None
        for i, b in enumerate(self.banks):
            if b.state is BankState.FILLING:
                return None
            if free is None and b.state is BankState.EMPTY:
                free = i
        return free

    def begin_fill(self, bank: int) -> None:
        b = self.banks[bank]
        if b.state is not BankState.EMPTY:
            raise ProtocolError(f"begin_fill on bank {bank} in state {b.state.value}")
        for x in self.banks:
            if x.state is BankState.FILLING:
                raise ProtocolError("two banks filling simultaneously")
        b.state = BankState.FILLING
        self._emit("FillStart", {"bank": bank})

    def fill_complete(self, bank: int, block) -> None:
        """Bank becomes FULL; its id is latched into the fill register (or
        queued behind an unacknowledged fill) and an interrupt is raised."""
        b = self.banks[bank]
        if b.state is not BankState.FILLING:
            raise ProtocolError(f"fill_complete on bank {bank} in state {b.state.value}")
        b.state = BankState.FULL
        b.block = block
        self._emit("BankFilled", {"bank": bank})
        if self.fill_register is None:
            self.fill_register = bank
            self._emit("RegisterSet", {"bank": bank})
            self._emit("InterruptRaised", {"bank": bank})
        else:
            self._full_backlog.append(bank)

    # -- consumer side ------------------------------------------------------

    def acknowledge(self) -> int:
        """CPU response to the interrupt: lock the registered bank, clear the
        register, return the bank id."""
        if self.fill_register is None:
            raise ProtocolError("acknowledge with empty fill register")
        bank = self.fill_register
        b = self.banks[bank]
        if b.state is not BankState.FULL:
            raise ProtocolError(f"acknowledge of bank {bank} in state {b.state.value}")
        b.state = BankState.LOCKED
        b.consumers_pending = set(CONSUMERS)
        self._emit("BankLocked", {"bank": bank})
        self._emit("RegisterCleared", {"bank": bank})
        if self._full_backlog:
            nxt = self._full_backlog.popleft()
            self.fill_register = nxt
            self._emit("RegisterSet", {"bank": nxt})
            self._emit("InterruptRaised", {"bank": nxt})
        else:
            self.fill_register = None
        return bank

    def consumer_done(self, bank: int, consumer: str) -> None:
        b = self.banks[bank]
        if b.state is not BankState.LOCKED:
            raise ProtocolError(f"consumer_done on bank {bank} in state {b.state.value}")
        if consumer not in b.consumers_pending:
            raise ProtocolError(f"{consumer} already consumed bank {bank}")
        b.consumers_pending.discard(consumer)
        self._emit("ConsumeDone", {"bank": bank, "consumer": consumer})

    def all_consumed(self, bank: int) -> bool:
        return not self.banks[bank].consumers_pending

    def release(self, bank: int) -> None:
        """Bank returns to EMPTY; legal only once both consumers finished."""
        b = self.banks[bank]
        if b.state is not BankState.LOCKED:
            raise ProtocolError(f"release of bank {bank} in state {b.state.value}")
        if b.consumers_pending:
            pending = ", ".join(sorted(b.consumers_pending))
            raise ProtocolError(f"release of bank {bank} with consumers pending: {pending}")
        b.state = BankState.EMPTY
        b.block = None
        self._emit("BankReleased", {"bank": bank})

    # -- invariants ---------------------------------------------------------

    def check_invariants(self) -> None:
        filling = [i for i, b in enumerate(self.banks) if b.state is BankState.FILLING]
        if len(filling) > 1:
            raise ProtocolError("two banks filling simultaneously")
        if self.fill_register is not None:
            if self.banks[self.fill_register].state is not BankState.FULL:
                raise ProtocolError("fill register points at a non-FULL bank")
