import pytest
from hypothesis import given, strategies as st

from slamsim.engine import (NEXT_SAMPLE, NS_PER_S, Engine, EventKind, SchedulingError,
                            sum_left)


def test_empty_run_ends_at_end():
    eng = Engine(seed=0)
    eng.run_until(10 * NS_PER_S)
    assert eng.now() == 10 * NS_PER_S
    assert eng.delivered_count == 0


def test_same_timestamp_delivered_in_seq_order():
    eng = Engine(seed=0)
    order = []
    eng.on("a", lambda ev: order.append(ev.seq))
    first = eng.schedule(5, "a", EventKind.TASK_DONE)
    second = eng.schedule(5, "a", EventKind.TASK_DONE)
    assert first.seq < second.seq
    eng.run_until(5)
    assert order == [first.seq, second.seq]


def test_scheduling_in_the_past_is_a_hard_fault():
    eng = Engine(seed=0)
    eng.schedule(10, "a", EventKind.TASK_DONE)
    eng.run_until(10)
    with pytest.raises(SchedulingError):
        eng.schedule(9, "a", EventKind.TASK_DONE)


def _periodic_source(eng, target, rate_hz):
    hits = []

    def handler(ev):
        hits.append(eng.now())
        k = ev.payload["k"] + 1
        eng.schedule((k * NS_PER_S) // rate_hz, target, ev.kind, {"k": k})

    eng.on(target, handler)
    eng.schedule(NS_PER_S // rate_hz, target, EventKind.FRAME_ARRIVED, {"k": 1})
    return hits


def test_60hz_source_over_10s_yields_600_events():
    eng = Engine(seed=0)
    hits = _periodic_source(eng, "frames", 60)
    eng.run_until(10 * NS_PER_S)
    assert len(hits) == 600
    assert eng.now() == 10 * NS_PER_S


def test_1khz_imu_source_over_1s_yields_1000_events():
    eng = Engine(seed=0)
    hits = _periodic_source(eng, "imu", 1000)
    eng.run_until(NS_PER_S)
    assert len(hits) == 1000


def test_now_before_any_run_is_zero_and_advances():
    eng = Engine(seed=0)
    assert eng.now() == 0
    seen = []
    eng.on("a", lambda ev: seen.append(eng.now()))
    eng.schedule(7, "a", EventKind.TASK_DONE)
    eng.run_until(20)
    assert seen == [7]  # now() inside the handler equals the event time
    assert eng.now() == 20


def test_same_seed_produces_identical_streams():
    a, b = Engine(seed=42), Engine(seed=42)
    assert a.stream("x").random(5).tolist() == b.stream("x").random(5).tolist()
    # adding another stream does not perturb the first
    c, d = Engine(seed=42), Engine(seed=42)
    c.stream("other").random(3)
    assert c.stream("x").random(5).tolist() == d.stream("x").random(5).tolist()


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.integers(min_value=0, max_value=5)), max_size=60))
def test_delivery_order_is_sort_by_at_seq_and_no_loss(events):
    eng = Engine(seed=0)
    delivered = []
    for t in range(6):
        eng.on(f"e{t}", lambda ev: delivered.append((ev.at, ev.seq)))
    scheduled = []
    for at, tgt in events:
        ev = eng.schedule(at, f"e{tgt}", EventKind.TASK_DONE)
        scheduled.append((ev.at, ev.seq))
    eng.run_until(1000)
    assert delivered == sorted(scheduled)
    assert eng.delivered_count == len(scheduled)


def _sample_counts_seen(rate_hz, delays, lazy):
    """Two chains of events whose handlers each schedule a successor after
    the next delay (in half sample periods, 0 included); returns, per handled
    event, its time and the samples delivered before it, and the samples
    delivered by the end. The source is either lazy or an explicit chain of
    one event per sample, each scheduled by its predecessor's handler."""
    eng = Engine(seed=0)
    half = NS_PER_S // rate_hz // 2
    seen, pending = [], iter(delays)
    chain = [0]  # samples handled by the explicit chain

    def handler(ev):
        seen.append((ev.at, eng.sample_index if lazy else chain[0]))
        d = next(pending, None)
        if d is not None:
            eng.schedule(eng.now() + d * half, "x", EventKind.TASK_DONE)

    def on_sample(ev):
        chain[0] = ev.payload
        eng.schedule(((ev.payload + 1) * NS_PER_S) // rate_hz, "imu", ev.kind, ev.payload + 1)

    eng.on("x", handler)
    eng.on("imu", on_sample)
    eng.schedule(2 * half, "x", EventKind.TASK_DONE)  # before the source starts
    if lazy:
        eng.start_source(rate_hz)
    else:
        eng.schedule(NS_PER_S // rate_hz, "imu", EventKind.IMU_SAMPLE_READY, 1)
    eng.schedule(2 * half, "x", EventKind.TASK_DONE)  # after it
    end = 10 * NS_PER_S // rate_hz
    eng.run_until(end // 2)
    eng.run_until(end)
    return seen, eng.sample_index if lazy else chain[0]


@given(rate_hz=st.sampled_from([2, 40, 250, 1000]),
       delays=st.lists(st.integers(0, 4), max_size=40))
def test_lazy_source_delivers_what_a_sample_event_chain_would(rate_hz, delays):
    lazy = _sample_counts_seen(rate_hz, delays, lazy=True)
    assert lazy == _sample_counts_seen(rate_hz, delays, lazy=False)
    assert lazy[1] == 10


def _chains_seen(rate_hz, delays, lazy):
    """A chain of actions, each setting its successor after the next delay
    in half sample periods (0 included; -1: at the next sample's arrival),
    beside a chain of events that do the same with the delays reversed.
    Returns, per action or event, its chain, time and the samples delivered
    before it, and the samples delivered by the end. The actions are the
    engine's lazy server over its lazy source, or an explicit chain: events
    on "s", and one event per sample, each scheduled by its predecessor's
    handler, which acts for "s" while "s" waits for that sample."""
    eng = Engine(seed=0)
    half = NS_PER_S // rate_hz // 2
    seen, own, other = [], iter(delays), iter(delays[::-1])
    chain = [0, False]  # samples handled by the explicit chain; "s" waits

    def delivered():
        return eng.sample_index if lazy else chain[0]

    def action(now, k):
        seen.append(("s", now, k))
        d = next(own, None)
        if d is None:
            return None
        return NEXT_SAMPLE if d < 0 else now + d * half

    def act(now):
        at = action(now, chain[0])
        if at == NEXT_SAMPLE:
            chain[1] = True
        elif at is not None:
            eng.schedule(at, "s", EventKind.TASK_DONE)

    def on_sample(ev):
        chain[0] = ev.payload
        eng.schedule(((ev.payload + 1) * NS_PER_S) // rate_hz, "imu", ev.kind, ev.payload + 1)
        if chain[1]:
            chain[1] = False
            act(ev.at)

    def handler(ev):
        seen.append(("x", ev.at, delivered()))
        d = next(other, None)
        if d is not None:
            eng.schedule(eng.now() + max(d, 0) * half, "x", EventKind.TASK_DONE)

    eng.on("x", handler)
    eng.schedule(2 * half, "x", EventKind.TASK_DONE)
    if lazy:
        eng.start_source(rate_hz)
        eng.start_server(action)
        eng.serve_at(2 * half)
    else:
        eng.on("s", lambda ev: act(ev.at))
        eng.on("imu", on_sample)
        eng.schedule(NS_PER_S // rate_hz, "imu", EventKind.IMU_SAMPLE_READY, 1)
        eng.schedule(2 * half, "s", EventKind.TASK_DONE)
    eng.schedule(2 * half, "x", EventKind.TASK_DONE)
    end = 10 * NS_PER_S // rate_hz
    eng.run_until(end // 2)
    eng.run_until(end)
    return seen, delivered()


@given(rate_hz=st.sampled_from([2, 40, 250, 1000]),
       delays=st.lists(st.integers(-1, 4), max_size=40))
def test_server_acts_where_its_events_would_be_delivered(rate_hz, delays):
    lazy = _chains_seen(rate_hz, delays, lazy=True)
    assert lazy == _chains_seen(rate_hz, delays, lazy=False)


def test_server_action_at_the_end_is_settled_by_run_until():
    eng = Engine(seed=0)
    acted = []
    eng.start_server(lambda now, delivered: acted.append(now))
    eng.serve_at(5)
    eng.run_until(4)
    assert acted == []
    eng.run_until(5)
    assert (acted, eng.now(), eng.delivered_count) == ([5], 5, 0)


def test_server_action_in_the_past_is_a_hard_fault():
    eng = Engine(seed=0)
    eng.start_server(lambda now, delivered: now - 1)
    eng.run_until(10)
    with pytest.raises(SchedulingError):
        eng.serve_at(9)
    eng.serve_at(10)
    with pytest.raises(SchedulingError):
        eng.run_until(10)


def test_sum_left_adds_from_the_left_on_every_python():
    """Reports sum floats with `sum_left`: the built-in `sum` compensates
    since CPython 3.12 and gives 1.0 here, which would move report bytes
    with the Python version."""
    assert sum_left([0.1] * 10) == 0.9999999999999999
    assert sum_left(iter([0.5, 0.25])) == 0.75
    assert sum_left([]) == 0 and type(sum_left([])) is int  # as `sum` gives
