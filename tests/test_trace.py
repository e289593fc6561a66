import dataclasses
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from slamsim import report
from slamsim.bank import BANKS, CONSUMERS
from slamsim.pipeline import Simulation
from slamsim.report import audit_trace
from slamsim.scenario import PRESET_NAMES, preset
from slamsim.trace import FRAME, KINDS, Kind, Trace, kind

import reference

CONSUME_TRANSITIONS = ("ConsumeStart", "ConsumeDone")
BANK_TRANSITIONS = ("FillStart", "BankFilled", "RegisterSet", "InterruptRaised", "BankLocked",
                    "RegisterCleared", "BankReleased")

# Every bank transition on both banks, with both consumers where it names one.
BANK_KINDS = [kind("bank", tr, bank=bank) for tr in BANK_TRANSITIONS for bank in range(BANKS)]
BANK_KINDS += [kind("bank", tr, bank=bank, consumer=consumer) for tr in CONSUME_TRANSITIONS
               for bank in range(BANKS) for consumer in CONSUMERS]
# Bank kinds the simulation never writes: no bank, a bank past the last, a
# consume without a consumer or with an unknown one, an unknown transition.
ODD_BANK_KINDS = [kind("bank", "FillStart"), kind("bank", "BankFilled", bank=BANKS),
                  kind("bank", "ConsumeDone", bank=0),
                  kind("bank", "ConsumeStart", bank=1, consumer="planner"),
                  kind("bank", "Bogus", bank=0)]
OTHER_KINDS = [kind("cpu0", "TaskDone", stage="mapping"), kind("runtime", "GcStart")]
FRAME_KINDS = [kind("pipeline", "FrameAccepted", frame=FRAME),
               kind("pipeline", "FrameDropped", frame=FRAME, reason="ingest_busy")]
ALL_KINDS = BANK_KINDS + ODD_BANK_KINDS + OTHER_KINDS + FRAME_KINDS


def _trace(records) -> Trace:
    """A trace written through the writer API from (time, kind, frame) triples."""
    trace = Trace()
    for t, k, frame in records:
        if k in FRAME_KINDS:
            trace.add_frame(t, k, frame)
        else:
            trace.add(t, k)
    return trace


_records = st.lists(st.tuples(st.integers(0, 40), st.sampled_from(ALL_KINDS),
                              st.integers(1, 10_000)), max_size=120)


class TestAuditOfColumns:
    @given(_records, st.sampled_from([1, 2, 5, report._AUDIT_CHUNK]))
    @settings(max_examples=200, deadline=None)
    @example([(5, OTHER_KINDS[0], 1), (3, OTHER_KINDS[0], 1), (4, OTHER_KINDS[0], 1)],
             report._AUDIT_CHUNK)
    def test_columns_and_dicts_give_the_same_violations(self, records, chunk):
        """Also when the columns are audited in chunks smaller than the trace."""
        trace = _trace(records)
        with patch.object(report, "_AUDIT_CHUNK", chunk):
            assert audit_trace(trace) == audit_trace(list(trace))

    @given(st.lists(st.fixed_dictionaries(
        {"t_ns": st.one_of(st.none(), st.integers(0, 40)),
         "entity": st.sampled_from(["bank", "bank", "pipeline"]),
         "transition": st.sampled_from(BANK_TRANSITIONS + CONSUME_TRANSITIONS + ("Bogus",))},
        optional={"bank": st.sampled_from([0, 1, 2, True, "0", [0], None]),
                  "consumer": st.sampled_from([*CONSUMERS, "planner", [1], None])}),
        max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_the_step_gives_the_reference_violations_on_any_dicts(self, records):
        assert audit_trace(records).violations == reference.audit_violations(records)

    def test_time_is_checked_against_the_previous_record_only(self):
        trace = _trace([(5, OTHER_KINDS[0], 1), (3, OTHER_KINDS[1], 1), (4, FRAME_KINDS[0], 7)])
        result = audit_trace(trace)
        assert [(v["rule"], v["t_ns"]) for v in result.violations] == [("time-ordered", 3)]

    def test_a_record_time_violation_comes_before_its_protocol_violations(self):
        fill, filled = kind("bank", "FillStart", bank=0), kind("bank", "BankFilled", bank=0)
        trace = _trace([(2, fill, 1), (1, fill, 1), (3, filled, 1), (0, filled, 1)])
        rules = [v["rule"] for v in audit_trace(trace).violations]
        assert rules == ["time-ordered", "fill-on-empty", "single-filler",
                         "time-ordered", "fill-complete"]
        assert rules == [v["rule"] for v in audit_trace(list(trace)).violations]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_runs_audit_clean_either_way(self, name):
        sim = Simulation(dataclasses.replace(preset(name), duration_s=3.0))
        sim.run()
        assert audit_trace(sim.trace) == audit_trace(list(sim.trace))
        assert audit_trace(sim.trace).ok


def _built(records) -> list:
    """The dicts `records` read back as, built from each kind's entity,
    transition and fields without `Kind.record`."""
    built = []
    for t, k, frame in records:
        kd = KINDS[k]
        rec = {"t_ns": t, "entity": kd.entity, "transition": kd.transition}
        rec.update((name, frame if value is FRAME else value) for name, value in kd.fields.items())
        built.append(rec)
    return built


class TestTraceSequence:
    @given(_records)
    @settings(max_examples=200, deadline=None)
    def test_reads_back_as_the_dicts_written(self, records):
        """Every kind, framed and unframed mixed, in any order."""
        trace = _trace(records)
        expected = _built(records)
        assert list(trace) == expected and trace == expected and expected == trace
        assert [list(rec) for rec in trace] == [list(rec) for rec in expected]
        assert len(trace) == len(records)
        assert trace.frames == [frame for _, k, frame in records if k in FRAME_KINDS]

    def test_records_read_as_trace_file_lines(self):
        task, frame, dropped = OTHER_KINDS[0], FRAME_KINDS[0], FRAME_KINDS[1]
        consume = kind("bank", "ConsumeStart", bank=0, consumer="update")
        trace = _trace([(1, task, 0), (2, frame, 7), (3, consume, 0), (4, dropped, 8)])
        expected = [
            {"t_ns": 1, "entity": "cpu0", "transition": "TaskDone", "stage": "mapping"},
            {"t_ns": 2, "entity": "pipeline", "transition": "FrameAccepted", "frame": 7},
            {"t_ns": 3, "entity": "bank", "transition": "ConsumeStart", "bank": 0,
             "consumer": "update"},
            {"t_ns": 4, "entity": "pipeline", "transition": "FrameDropped", "frame": 8,
             "reason": "ingest_busy"},
        ]
        assert list(trace) == expected and trace == expected and expected == trace
        assert [list(rec) for rec in trace] == [list(rec) for rec in expected]
        assert trace != expected[:3] and trace != expected[::-1] and trace != tuple(expected)

    def test_records_are_fresh_dicts(self):
        trace = _trace([(1, FRAME_KINDS[0], 7)])
        rec = next(iter(trace))
        rec["frame"] = 8
        next(iter(trace))["t_ns"] = 0
        assert trace == [{"t_ns": 1, "entity": "pipeline", "transition": "FrameAccepted",
                          "frame": 7}]

    def test_equality_stops_at_the_first_difference(self):
        """Two traces whose first records differ build one record each; a
        trace and a list of a different length build none."""
        records = [(t, FRAME_KINDS[t % 2], t) for t in range(1000)]
        a, b = _trace(records), _trace([(0, OTHER_KINDS[1], 0)] + records[1:])
        shorter = _trace(records[:-1])
        dicts, shorter_dicts = list(b), list(shorter)
        built = []
        record = Kind.record

        def counted(kd, *args):
            built.append(args)
            return record(kd, *args)

        with patch.object(Kind, "record", counted):
            assert a != b
            assert len(built) <= 2
            assert a != dicts and dicts != a
            assert len(built) <= 2 + 2
            built.clear()
            assert a != shorter and shorter != a and a != shorter_dicts
        assert built == []

    def test_two_traces_compare_by_their_records(self):
        a, b = _trace([(1, FRAME_KINDS[0], 7)]), _trace([(1, FRAME_KINDS[0], 7)])
        assert a == b
        b.add(2, OTHER_KINDS[1])
        assert a != b
        # Other kinds, the same records.
        c = Trace()
        c.add(1, kind("pipeline", "FrameAccepted", frame=7))
        assert c == a and a == c

    def test_a_kind_is_interned_once(self):
        assert kind("bank", "FillStart", bank=0) == BANK_KINDS[0]
        assert len(set(BANK_KINDS)) == len(BANK_KINDS) == 2 * (7 + 2 * 2)
        assert kind("bank", "ConsumeDone", consumer="update", bank=0) != \
            kind("bank", "ConsumeDone", bank=0, consumer="update")
        for bank in (0.0, True):
            with pytest.raises(TypeError, match="bank"):
                kind("bank", "FillStart", bank=bank)
        with pytest.raises(TypeError, match="strs"):
            kind(FRAME, "FillStart")
        with pytest.raises(TypeError, match="bank"):
            kind("bank", "FillStart", bank=FRAME)  # only a frame field holds the frame id
        with pytest.raises(ValueError, match="t_ns"):
            kind("bank", "FillStart", t_ns=0)


def test_trace_retains_at_most_80_bytes_per_record():
    """What dropping the trace frees, over its records, once a 10 s slam-arch
    run has written them."""
    sim = Simulation(dataclasses.replace(preset("slam-arch"), duration_s=10.0))
    tracemalloc.start()
    try:
        sim.run()
        records = len(sim.trace)
        held = tracemalloc.get_traced_memory()[0]
        del sim.trace
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 5_000
    assert freed / records <= 80, f"{freed / records:.1f} B per record"
