import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import slamsim.cli as cli
import slamsim.report as rpt
from slamsim.engine import ms_to_ns
from slamsim.scenario import ArchVariant, ScenarioConfig, preset
from slamsim.soc import MAX_CONVERTED


@pytest.fixture(scope="module")
def short_run():
    config = ScenarioConfig(variant=ArchVariant.HETERO_DSP, camera_fps=30,
                            duration_s=5.0)
    return rpt.run_scenario(config)


class TestReports:
    def test_report_fields_are_consistent(self, short_run):
        report, sim = short_run
        assert report.variant == "hetero-dsp"
        assert report.frames_offered == report.frames_accepted + report.frames_dropped
        assert report.achieved_fps > 0
        assert report.total_energy_j == pytest.approx(
            report.average_power_w * report.duration_s)
        assert 0.0 <= min(report.unit_utilization.values())
        assert max(report.unit_utilization.values()) <= 1.0

    def test_json_line_is_byte_deterministic(self):
        config = ScenarioConfig(variant=ArchVariant.BASELINE_CPU, duration_s=4.0)
        a, _ = rpt.run_scenario(config)
        b, _ = rpt.run_scenario(config)
        assert a.to_json_line() == b.to_json_line()
        parsed = json.loads(a.to_json_line())
        assert parsed["config_digest"] == config.digest()

    def test_text_rendering_mentions_key_metrics(self, short_run):
        report, _ = short_run
        text = rpt.report_text(report)
        for key in ("achieved_fps", "average_power_w", "gc_stall_count"):
            assert key in text

    def test_compare_tables(self, short_run):
        report, _ = short_run
        text = rpt.compare_text([report, report])
        assert text.count("hetero-dsp") == 2
        csv = rpt.compare_csv([report, report])
        lines = csv.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("scenario,fps,power_w")
        jl = rpt.compare_json_lines([report, report])
        assert jl.count("\n") == 2


    def test_compare_of_no_reports_is_the_header_and_rule(self):
        names = [name for name, _ in rpt.COMPARE_COLUMNS]
        header = "  ".join(names)
        assert rpt.compare_text([]) == f"{header}\n{'-' * len(header)}\n"
        assert rpt.compare_csv([]) == ",".join(names) + "\n"
        assert rpt.compare_json_lines([]) == ""


# Report aggregates against the per-element loops of tests/reference.py.
_MAX_NS = ms_to_ns(MAX_CONVERTED)  # the longest task a scenario allows
_ns = st.integers(0, _MAX_NS)


def _constant(d, n):
    return [d] * n


def _one_odd(d, n, odd, at):
    durs = [d] * n
    durs[at % n] = odd
    return durs


_durations = st.one_of(
    st.builds(_constant, _ns, st.integers(1, 100_000)),
    st.lists(st.floats(1.0, 3.0).map(ms_to_ns), min_size=2, max_size=2000),  # relay-like
    st.lists(_ns, min_size=2, max_size=300),
    st.builds(_one_odd, _ns, st.integers(2, 100_000), _ns, st.integers(0)),
    st.lists(_ns, min_size=1, max_size=1),
)


def _same_bits(fast, ref):
    assert type(fast) is float and fast.hex() == ref.hex()


class TestAggregates:
    """`build_report`'s whole-array passes give the bits of the per-element
    loops they replace."""

    @given(durs=_durations)
    @settings(max_examples=60, deadline=None)
    def test_stage_summary_is_the_per_element_mean_and_p99(self, durs):
        summary = rpt.stage_summary(durs)
        _same_bits(summary["mean"], reference.stage_mean_ms(durs))
        _same_bits(summary["p99"], reference.stage_p99_ms(durs))

    def test_stage_mean_is_not_the_pairwise_sum(self):
        """On 100,000 copies of 1,234,567 ns numpy's pairwise `np.sum` and the
        left-to-right sum differ, so a pairwise mean fails here."""
        durs = [1_234_567] * 100_000
        mean = reference.stage_mean_ms(durs)
        assert float(np.sum(np.full(len(durs), durs[0] / 1e6))) / len(durs) != mean
        _same_bits(rpt.stage_summary(durs)["mean"], mean)
        durs[-1] += 1  # the same through the path for unequal durations
        _same_bits(rpt.stage_summary(durs)["mean"], reference.stage_mean_ms(durs))

    @given(errors=st.one_of(st.lists(st.floats(0.0, 1e6), max_size=500),
                            st.builds(_constant, st.floats(0.0, 1e6), st.integers(1, 40_000))))
    @settings(max_examples=60, deadline=None)
    def test_rms_is_the_per_element_rms(self, errors):
        _same_bits(rpt.rms(errors), reference.rms(errors))

    @given(gaps=st.lists(st.integers(0, 10 ** 9), max_size=500),
           threshold=st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_tracking_loss_count_is_the_per_gap_count(self, gaps, threshold):
        completions = np.cumsum(gaps).tolist()  # ascending, as plain ints
        assert rpt.tracking_loss_count(completions, threshold) == \
            reference.tracking_loss_count(completions, threshold)

    def test_report_figures_are_the_reference_aggregates(self, short_run):
        report, sim = short_run
        lo = sum(t <= sim.warmup_ns for t in sim.update_completions)
        for stage, durs in sim.stage_durations_ns.items():
            if durs:
                fig = report.stage_latency_ms[stage.value]
                _same_bits(fig["mean"], reference.stage_mean_ms(durs))
                _same_bits(fig["p99"], reference.stage_p99_ms(durs))
        _same_bits(report.rms_position_error_m, reference.rms(sim.position_errors[lo:]))
        assert report.tracking_loss_count == reference.tracking_loss_count(
            sim.update_completions, ms_to_ns(sim.config.loss_threshold_ms))


class TestTraceIo:
    def test_roundtrip(self, short_run, tmp_path):
        _, sim = short_run
        path = tmp_path / "trace.jsonl"
        rpt.write_trace(sim.trace, path)
        assert rpt.load_trace(path) == sim.trace

    def test_corrupt_line_is_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t_ns": 0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            rpt.load_trace(path)

    def test_lines_end_at_each_universal_newline(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b'{"t_ns": 0}\r\n{"t_ns": 1}\rnot json\n')
        with pytest.raises(ValueError, match="line 3"):
            rpt.load_trace(path)


class TestAudit:
    def test_clean_slam_trace(self):
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=50,
                                duration_s=5.0)
        _, sim = rpt.run_scenario(config)
        assert rpt.audit_trace(sim.trace).ok

    def test_tampered_trace_names_the_rule(self):
        records = [
            {"t_ns": 0, "entity": "bank", "transition": "FillStart", "bank": 0},
            {"t_ns": 1, "entity": "bank", "transition": "BankFilled", "bank": 0},
            # lock without RegisterSet: register coherence violation
            {"t_ns": 2, "entity": "bank", "transition": "BankLocked", "bank": 0},
        ]
        result = rpt.audit_trace(records)
        assert not result.ok
        assert result.first()["rule"] == "lock-registered-only"

    @pytest.mark.parametrize("bank", [None, 2, "0", [0], True, {}])
    def test_bank_record_without_a_valid_bank_is_malformed(self, bank):
        rec = {"t_ns": 0, "entity": "bank", "transition": "FillStart"}
        if bank is not None:
            rec["bank"] = bank
        result = rpt.audit_trace([rec])
        assert [v["rule"] for v in result.violations] == ["malformed-record"]

    @pytest.mark.parametrize("transition", ["ConsumeStart", "ConsumeDone"])
    @pytest.mark.parametrize("consumer", [None, [1], "planner"])
    def test_consume_record_without_a_valid_consumer_is_malformed(self, transition,
                                                                  consumer):
        rec = {"t_ns": 0, "entity": "bank", "transition": transition, "bank": 0}
        if consumer is not None:
            rec["consumer"] = consumer
        result = rpt.audit_trace([rec])
        assert [v["rule"] for v in result.violations] == ["malformed-record"]

    def test_time_travel_is_flagged(self):
        records = [{"t_ns": 5, "entity": "x", "transition": "y"},
                   {"t_ns": 4, "entity": "x", "transition": "y"}]
        result = rpt.audit_trace(records)
        assert result.violations[0]["rule"] == "time-ordered"


class TestCli:
    def test_run_json_lines_to_file(self, tmp_path):
        out = tmp_path / "report.jsonl"
        rc = cli.main(["run", "--scenario", "preset:baseline-cpu",
                       "--duration", "4", "--format", "json-lines",
                       "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["variant"] == "baseline-cpu"
        assert report["duration_s"] == 4.0

    def test_run_text_to_stdout(self, capsys):
        rc = cli.main(["run", "--scenario", "preset:baseline-cpu", "--duration", "3"])
        assert rc == 0
        assert "achieved_fps" in capsys.readouterr().out

    def test_run_with_scenario_file_and_trace(self, tmp_path, capsys):
        scn = tmp_path / "scn.json"
        scn.write_text(dataclasses.replace(preset("slam-arch"),
                                           duration_s=4.0).to_json())
        trace = tmp_path / "trace.jsonl"
        rc = cli.main(["run", "--scenario", str(scn), "--trace", str(trace),
                       "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("scenario,")
        assert cli.main(["audit", str(trace)]) == 0

    def test_compare(self, tmp_path, capsys):
        rc = cli.main(["compare", "preset:baseline-cpu", "preset:slam-arch",
                       "--duration", "4", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline-cpu" in out and "slam-arch" in out

    def test_compare_requires_two_scenarios(self, capsys):
        assert cli.main(["compare", "preset:baseline-cpu"]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_audit_failure_exits_nonzero(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        records = [{"t_ns": 0, "entity": "bank", "transition": "BankFilled",
                    "bank": 0}]
        rpt.write_trace(records, trace)
        assert cli.main(["audit", str(trace)]) == 1
        assert "fill-complete" in capsys.readouterr().out

    def test_audit_of_malformed_bank_record_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "nobank.jsonl"
        trace.write_text('{"t_ns": 0, "entity": "bank", "transition": "FillStart"}\n')
        assert cli.main(["audit", str(trace)]) == 1
        assert "malformed-record" in capsys.readouterr().out

    @pytest.mark.parametrize("fields", ['"transition": "FillStart", "bank": [0]',
                                        '"transition": "ConsumeStart", "bank": 0, "consumer": [1]',
                                        '"transition": "ConsumeDone", "bank": 0, "consumer": [1]'])
    def test_audit_of_unhashable_bank_fields_is_a_verdict(self, tmp_path, capsys, fields):
        trace = tmp_path / "unhashable.jsonl"
        trace.write_text('{"t_ns": 0, "entity": "bank", ' + fields + '}\n')
        assert cli.main(["audit", str(trace)]) == 1
        assert "malformed-record" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '{"t_ns": "x"}'])
    def test_audit_of_non_record_line_is_one_error_line(self, tmp_path, capsys, line):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"t_ns": 0, "entity": "x", "transition": "y"}\n' + line + "\n")
        assert cli.main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2" in err
        assert err.count("\n") == 1

    def test_audit_of_a_deeply_nested_line_is_one_error_line(self, tmp_path, capsys):
        trace = tmp_path / "deep.jsonl"
        trace.write_text('{"t_ns": 0, "entity": "x", "transition": "y"}\n' + "[" * 10_000 + "\n")
        assert cli.main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: line 2: invalid trace record: ")
        assert err.count("\n") == 1

    def test_audit_of_an_undecodable_line_names_the_file_and_line(self, tmp_path, capsys):
        trace = tmp_path / "bytes.jsonl"
        trace.write_bytes(b'{"t_ns": 0, "entity": "x", "transition": "y"}\n\xff\n')
        assert cli.main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: line 2: invalid trace record: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    def test_deeply_nested_scenario_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10_000)
        assert cli.main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario: invalid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content, start", [
        (b'{"variant": "slam-arch", "bogus": 1}', "error: scenario: unknown key 'bogus' "),
        (b'\xef\xbb\xbf{"variant": "slam-arch"}', "error: scenario: invalid JSON: "),
        (b'{"variant": "slam-arch"}\xff', "error: 'utf-8' codec can't decode byte 0xff "),
    ])
    def test_a_refused_scenario_file_is_named(self, tmp_path, capsys, content, start):
        path = tmp_path / "b.json"
        path.write_bytes(content)
        assert cli.main(["compare", "preset:slam-arch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and err.endswith(f" (scenario file {path})\n")
        assert err.count("\n") == 1

    def test_int_past_the_digit_limit_is_one_error_line(self, tmp_path, capsys):
        # Python refuses to read an int of more than 4300 digits.
        digits = "1" + "0" * 5000
        trace, scenario = tmp_path / "long.jsonl", tmp_path / "long.json"
        trace.write_text(f'{{"t_ns": {digits}}}\n')
        scenario.write_text(f'{{"variant": "slam-arch", "seed": {digits}}}')
        assert cli.main(["audit", str(trace)]) == 2
        assert cli.main(["run", "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"error: {trace}: line 1: invalid trace record: ")
        assert err[1].startswith("error: scenario: invalid JSON: ") and len(err) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "preset:slam-arch", "--duration", "2.5", "--trace", "{bad}"],
        ["run", "--scenario", "preset:slam-arch", "--output", "{bad}"],
        ["compare", "preset:baseline-cpu", "preset:slam-arch", "--output", "{bad}"],
        ["compare", "preset:baseline-cpu", "/no/such/file.json"],
    ])
    def test_bad_paths_fail_before_simulating(self, tmp_path, capsys, monkeypatch, argv):
        def no_simulation(config):
            raise AssertionError("simulated before the paths were checked")

        monkeypatch.setattr(rpt, "run_scenario", no_simulation)
        bad = str(tmp_path / "missing" / "out.jsonl")
        assert cli.main([a.format(bad=bad) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("duration", ["2", "1.5", "0", "-1"])
    def test_duration_within_the_warmup_is_one_error_line(self, capsys, duration):
        # The preset's warm-up is 2 s; the error names the flag, not a key
        # the user never set.
        assert cli.main(["run", "--scenario", "preset:slam-arch",
                         "--duration", duration]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --duration {float(duration):g} ")
        assert "warmup_s = 2" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["run", "--scenario", "preset:slam-arch"],
                                         ["compare", "preset:slam-arch", "preset:hetero-dsp"]])
    @pytest.mark.parametrize("duration", ["4000", "3600.5", "inf"])
    def test_duration_over_an_hour_is_one_error_line(self, capsys, command, duration):
        # Refused before anything runs, naming the flag, not scenario.duration_s.
        assert cli.main(command + ["--duration", duration]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --duration {float(duration):g} exceeds the longest run, 3600 s\n"

    def test_missing_scenario_file(self, capsys):
        assert cli.main(["run", "--scenario", "/no/such/file.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_presets_listing_and_writing(self, tmp_path, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline-cpu", "hetero-dsp", "slam-arch"):
            assert name in out
        assert cli.main(["presets", "--write-dir", str(tmp_path)]) == 0
        written = ScenarioConfig.load(tmp_path / "slam-arch.json")
        assert written == preset("slam-arch")
