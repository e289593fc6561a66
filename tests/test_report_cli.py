import dataclasses
import json

import pytest

import slamsim.cli as cli
import slamsim.report as rpt
from slamsim.scenario import ArchVariant, ScenarioConfig, preset


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

    @pytest.mark.parametrize("bank", [None, 2, "0"])
    def test_bank_record_without_a_valid_bank_is_malformed(self, bank):
        rec = {"t_ns": 0, "entity": "bank", "transition": "FillStart"}
        if bank is not None:
            rec["bank"] = bank
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

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '{"t_ns": "x"}'])
    def test_audit_of_non_record_line_is_one_error_line(self, tmp_path, capsys, line):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"t_ns": 0, "entity": "x", "transition": "y"}\n' + line + "\n")
        assert cli.main(["audit", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2" in err
        assert err.count("\n") == 1

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
