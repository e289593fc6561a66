import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slamsim.bank import (BankState, FeatureBankController, MAPPING_CONSUMER,
                          ProtocolError, UPDATE_CONSUMER)
from slamsim.report import audit_trace


def _traced_controller():
    records = []
    t = [0]

    def trace(transition, detail):
        rec = {"t_ns": t[0], "entity": "bank", "transition": transition}
        rec.update(detail)
        records.append(rec)
        t[0] += 1

    return FeatureBankController(trace=trace), records


class TestHappyPath:
    def test_full_cycle(self):
        ctl = FeatureBankController()
        bank = ctl.writable_bank()
        assert bank == 0
        ctl.begin_fill(bank)
        assert ctl.banks[bank].state is BankState.FILLING
        assert ctl.writable_bank() is None  # one filler at a time
        ctl.fill_complete(bank, "block")
        assert ctl.fill_register == bank
        assert ctl.pending_interrupt
        locked = ctl.acknowledge()
        assert locked == bank
        assert ctl.fill_register is None
        assert not ctl.pending_interrupt
        ctl.consumer_done(bank, UPDATE_CONSUMER)
        assert not ctl.all_consumed(bank)
        ctl.consumer_done(bank, MAPPING_CONSUMER)
        assert ctl.all_consumed(bank)
        ctl.release(bank)
        assert ctl.banks[bank].state is BankState.EMPTY
        ctl.check_invariants()

    def test_second_fill_queues_behind_unacknowledged_register(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        ctl.fill_complete(0, "a")
        ctl.begin_fill(1)
        ctl.fill_complete(1, "b")
        assert ctl.fill_register == 0
        assert ctl.acknowledge() == 0
        # backlog promotes bank 1 into the register and re-raises the interrupt
        assert ctl.fill_register == 1
        assert ctl.pending_interrupt
        assert ctl.acknowledge() == 1

    def test_cycle_active_follows_acknowledge_consume_and_release(self):
        """A cycle with a second fill backlogged behind it: the cycle is
        active from acknowledge to release, not while a bank only waits in
        the register or the backlog, and consuming does not end it."""
        ctl = FeatureBankController()
        assert not ctl.cycle_active
        ctl.begin_fill(0)
        ctl.fill_complete(0, "a")
        ctl.begin_fill(1)
        ctl.fill_complete(1, "b")  # backlogged behind bank 0
        assert ctl.pending_interrupt and not ctl.cycle_active
        bank = ctl.acknowledge()
        assert ctl.cycle_active and ctl.fill_register == 1
        ctl.consumer_done(bank, UPDATE_CONSUMER)
        assert ctl.cycle_active
        ctl.consumer_done(bank, MAPPING_CONSUMER)
        assert ctl.cycle_active
        ctl.release(bank)
        assert not ctl.cycle_active and ctl.pending_interrupt
        assert ctl.acknowledge() == 1
        assert ctl.cycle_active

    def test_no_writable_bank_when_both_occupied(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        ctl.fill_complete(0, "a")
        ctl.begin_fill(1)
        assert ctl.writable_bank() is None


class TestProtocolFaults:
    def test_begin_fill_on_non_empty(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        with pytest.raises(ProtocolError):
            ctl.begin_fill(0)

    def test_two_simultaneous_fills(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        with pytest.raises(ProtocolError):
            ctl.begin_fill(1)

    def test_fill_complete_without_fill(self):
        ctl = FeatureBankController()
        with pytest.raises(ProtocolError):
            ctl.fill_complete(0, "x")

    def test_acknowledge_with_empty_register(self):
        ctl = FeatureBankController()
        with pytest.raises(ProtocolError):
            ctl.acknowledge()

    def test_double_consumption(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        ctl.fill_complete(0, "x")
        ctl.acknowledge()
        ctl.consumer_done(0, UPDATE_CONSUMER)
        with pytest.raises(ProtocolError):
            ctl.consumer_done(0, UPDATE_CONSUMER)

    def test_release_with_pending_consumer(self):
        ctl = FeatureBankController()
        ctl.begin_fill(0)
        ctl.fill_complete(0, "x")
        ctl.acknowledge()
        ctl.consumer_done(0, UPDATE_CONSUMER)
        with pytest.raises(ProtocolError):
            ctl.release(0)

    def test_release_of_unlocked_bank(self):
        ctl = FeatureBankController()
        with pytest.raises(ProtocolError):
            ctl.release(0)


def test_trace_of_one_cycle_audits_clean():
    ctl, records = _traced_controller()
    ctl.begin_fill(0)
    ctl.fill_complete(0, "x")
    ctl.acknowledge()
    ctl.consumer_done(0, UPDATE_CONSUMER)
    ctl.consumer_done(0, MAPPING_CONSUMER)
    ctl.release(0)
    names = [r["transition"] for r in records]
    assert names == ["FillStart", "BankFilled", "RegisterSet", "InterruptRaised",
                     "BankLocked", "RegisterCleared", "ConsumeDone", "ConsumeDone",
                     "BankReleased"]
    assert audit_trace(records).ok


def test_trace_callback_gets_the_transition_and_a_new_detail_dict():
    """A full cycle of both banks, the second fill backlogged behind the
    register: each transition reaches the callback as (transition, detail),
    the detail a dict of its own holding the int bank, and the consumer of a
    ConsumeDone after it."""
    calls = []
    ctl = FeatureBankController(trace=lambda transition, detail: calls.append(
        (transition, detail)))
    ctl.begin_fill(0)
    ctl.fill_complete(0, "a")
    ctl.begin_fill(1)
    ctl.fill_complete(1, "b")
    assert ctl.acknowledge() == 0
    ctl.consumer_done(0, UPDATE_CONSUMER)
    ctl.consumer_done(0, MAPPING_CONSUMER)
    ctl.release(0)
    assert ctl.acknowledge() == 1
    ctl.consumer_done(1, MAPPING_CONSUMER)
    ctl.consumer_done(1, UPDATE_CONSUMER)
    ctl.release(1)
    assert calls == [
        ("FillStart", {"bank": 0}), ("BankFilled", {"bank": 0}),
        ("RegisterSet", {"bank": 0}), ("InterruptRaised", {"bank": 0}),
        ("FillStart", {"bank": 1}), ("BankFilled", {"bank": 1}),
        ("BankLocked", {"bank": 0}), ("RegisterCleared", {"bank": 0}),
        ("RegisterSet", {"bank": 1}), ("InterruptRaised", {"bank": 1}),
        ("ConsumeDone", {"bank": 0, "consumer": UPDATE_CONSUMER}),
        ("ConsumeDone", {"bank": 0, "consumer": MAPPING_CONSUMER}),
        ("BankReleased", {"bank": 0}),
        ("BankLocked", {"bank": 1}), ("RegisterCleared", {"bank": 1}),
        ("ConsumeDone", {"bank": 1, "consumer": MAPPING_CONSUMER}),
        ("ConsumeDone", {"bank": 1, "consumer": UPDATE_CONSUMER}),
        ("BankReleased", {"bank": 1}),
    ]
    for transition, detail in calls:
        assert type(detail) is dict and type(detail["bank"]) is int
        assert list(detail) == ["bank", "consumer"][:len(detail)]
    assert len({id(detail) for _, detail in calls}) == len(calls)


@given(st.integers(0, 2 ** 31 - 1), st.integers(50, 300))
@settings(max_examples=30, deadline=None)
def test_random_legal_drive_never_violates_invariants(seed, steps):
    """Drive the controller with randomly interleaved legal operations and
    check the live invariants plus the offline audit of the emitted trace."""
    rng = np.random.default_rng(seed)
    ctl, records = _traced_controller()
    locked: dict[int, set] = {}
    fills_started = 0
    cycles_done = 0

    for _ in range(steps):
        ops = []
        writable = ctl.writable_bank()
        if writable is not None:
            ops.append(("fill", writable))
        filling = [i for i, b in enumerate(ctl.banks) if b.state is BankState.FILLING]
        if filling:
            ops.append(("complete", filling[0]))
        if ctl.pending_interrupt:
            ops.append(("ack", None))
        for bank, pending in locked.items():
            for consumer in sorted(pending):
                ops.append(("consume", (bank, consumer)))
            if not pending:
                ops.append(("release", bank))
        if not ops:
            break
        op, arg = ops[rng.integers(len(ops))]
        if op == "fill":
            ctl.begin_fill(arg)
            fills_started += 1
        elif op == "complete":
            ctl.fill_complete(arg, object())
        elif op == "ack":
            locked[ctl.acknowledge()] = {UPDATE_CONSUMER, MAPPING_CONSUMER}
        elif op == "consume":
            bank, consumer = arg
            ctl.consumer_done(bank, consumer)
            locked[bank].discard(consumer)
        elif op == "release":
            ctl.release(arg)
            del locked[arg]
            cycles_done += 1
        ctl.check_invariants()

    result = audit_trace(records)
    assert result.ok, result.first()
    # liveness: nothing already released went missing
    assert cycles_done <= fills_started
