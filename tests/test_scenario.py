import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import slamsim.cli as cli
from slamsim.bank import CONSUMERS
from slamsim.pipeline import PropagationServer, Simulation
from slamsim.report import audit_trace, run_scenario
from slamsim.scenario import (ArchVariant, Handoff, Ingest, KernelConfig, PRESET_NAMES,
                              RelayConfig, ScenarioConfig, VARIANTS, preset)
from slamsim.soc import (MAX_CONVERTED, ConfigError, MemoryPath, PowerCalibration, SocConfig,
                         Stage)

STAGE_NAMES = {s.value for s in Stage}


def _assert_record_shapes(trace):
    """Every trace record is flat JSON of ints and strs with `t_ns`, `entity`
    and `transition` first; a TaskDone names a stage, and a bank
    record its int bank, plus a consumer on ConsumeStart and ConsumeDone."""
    for rec in trace:
        assert all(type(v) in (int, str) for v in rec.values()), rec
        assert list(rec)[:3] == ["t_ns", "entity", "transition"], rec
        if rec["transition"] == "TaskDone":
            assert rec["stage"] in STAGE_NAMES, rec
        if rec["entity"] == "bank":
            assert type(rec["bank"]) is int, rec
            if rec["transition"] in ("ConsumeStart", "ConsumeDone"):
                assert rec["consumer"] in CONSUMERS, rec
        assert json.loads(json.dumps(rec)) == rec


def _assert_busy_conserved(sim):
    """Each unit's booked busy time is the summed durations of the tasks
    completed on it, recorded per stage, plus what ran before the end of
    the task still in flight on it: between 0 and that task's duration."""
    for unit in sim.ledger.units:
        completed = sum(sum(sim.stage_durations_ns[stage])
                        for stage, uid in sim.spec.stage_units.items() if uid == unit)
        ex = sim.execs[unit]
        if ex.task is None:
            in_flight = 0
        elif isinstance(ex, PropagationServer):
            in_flight = ex.duration_ns
        else:
            in_flight = ex.task.duration_ns
        assert 0 <= sim.ledger.busy_ns(unit) - completed <= in_flight, unit


class TestPresets:
    def test_names_cover_the_three_variants(self):
        assert set(PRESET_NAMES) == {"baseline-cpu", "hetero-dsp", "slam-arch"}

    def test_presets_build(self):
        for name in PRESET_NAMES:
            config = preset(name)
            assert config.variant.value == name
            sim = Simulation(dataclasses.replace(config, duration_s=3.0))
            assert sim.config.variant is config.variant
            assert sim.duration_ns == 3_000_000_000

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_trace_records_are_flat_json(self, name):
        _, sim = run_scenario(preset(name))
        transitions = {rec["transition"] for rec in sim.trace}
        assert "TaskDone" in transitions
        assert ("ConsumeStart" in transitions) == (name == "slam-arch")
        _assert_record_shapes(sim.trace)

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ConfigError, match="baseline-cpu"):
            preset("nope")


class TestValidation:
    def test_camera_fps_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, camera_fps=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, camera_fps=61)

    def test_imu_rate_bounds(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, imu_rate_hz=1001)

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, duration_s=2.0,
                           warmup_s=2.0)

    def test_frame_size_floor(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, frame_size_bytes=1024)

    def test_gc_pause_must_exceed_100ms(self):
        with pytest.raises(ConfigError):
            RelayConfig(gc_pause_ms=100.0)

    def test_relay_copy_range_ordering(self):
        with pytest.raises(ConfigError):
            RelayConfig(copy_latency_ms_min=3.0, copy_latency_ms_max=1.0)


class TestKernelValidation:
    def _kernel(self, **kernel):
        return ScenarioConfig.from_dict({"variant": "slam-arch", "kernel": kernel})

    def test_fractional_landmark_count(self):
        with pytest.raises(ConfigError, match="kernel.landmark_count"):
            self._kernel(landmark_count=2.5)

    def test_negative_landmark_count(self):
        with pytest.raises(ConfigError, match="kernel.landmark_count"):
            self._kernel(landmark_count=-1)

    def test_bias_needs_three_components(self):
        with pytest.raises(ConfigError, match="kernel.accel_bias"):
            self._kernel(accel_bias=[0.1, 0.0])
        with pytest.raises(ConfigError, match="kernel.gyro_bias"):
            self._kernel(gyro_bias=[0.0, "x", 0.0])

    @pytest.mark.parametrize("key", ["accel_noise_std", "gyro_noise_std",
                                     "obs_noise_std", "map_noise_std"])
    def test_negative_noise_std(self, key):
        with pytest.raises(ConfigError, match=f"kernel.{key}"):
            self._kernel(**{key: -0.01})

    def test_cli_reports_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"variant": "slam-arch",
                                    "kernel": {"landmark_count": 2.5}}))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "landmark_count" in err
        assert err.count("\n") == 1

    def test_valid_configs_keep_their_digests(self):
        digests = {name: preset(name).digest() for name in PRESET_NAMES}
        assert digests == {"baseline-cpu": "a0d8132ab66a1c97",
                           "hetero-dsp": "6ef2e60e19445098",
                           "slam-arch": "71e92e3aa828e026"}
        # integer components stay integers in the canonical form
        config = self._kernel(accel_bias=[0, 0, 0], landmark_count=4000)
        assert config.digest() == "aa36523507d2f23a"


class TestSchemaValidation:
    @pytest.mark.parametrize("scenario, key", [
        ({"soc": {"scratchpad_banks": 3}}, "soc.scratchpad_banks"),
        ({"soc": {"scratchpad_capacity_bytes": 1}}, "soc.scratchpad_capacity_bytes"),
        ({"soc": {"scratchpad_capacity_bytes": 231}}, "soc.scratchpad_capacity_bytes"),
        ({"soc": {"feature_access_fraction": 1.5}}, "soc.feature_access_fraction"),
        ({"soc": {"update_shared_ms": -5}}, "soc.update_shared_ms"),
        ({"camera_fps": "30"}, "camera_fps"),
        ({"soc": {"cpu_peak_power_w": "2"}}, "soc.cpu_peak_power_w"),
        ({"duration_s": 1e9}, "duration_s"),
        ({"duration_s": 1e-10, "warmup_s": 0}, "duration_s"),
    ])
    def test_cli_reports_one_error_line(self, tmp_path, capsys, scenario, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"variant": "slam-arch", **scenario}))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario.{key}: expected ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(SocConfig)])
    def test_every_soc_key_is_checked(self, key):
        for bad in ("1", True, None, float("nan"), -1):
            with pytest.raises(ConfigError, match=f"^scenario.soc.{key}: expected "):
                ScenarioConfig.from_dict({"variant": "slam-arch", "soc": {key: bad}})

    @pytest.mark.parametrize("key", ["camera_fps", "imu_rate_hz", "duration_s", "seed",
                                     "warmup_s", "frame_size_bytes", "loss_threshold_ms"])
    def test_every_numeric_top_level_key_is_checked(self, key):
        for bad in ("1", True, None, float("inf"), -1):
            with pytest.raises(ConfigError, match=f"^scenario.{key}: expected "):
                ScenarioConfig.from_dict({"variant": "slam-arch", key: bad})

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RelayConfig)])
    def test_every_relay_key_is_checked(self, key):
        with pytest.raises(ConfigError, match=f"^scenario.relay.{key}: expected "):
            ScenarioConfig.from_dict({"variant": "hetero-dsp", "relay": {key: "1"}})

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(KernelConfig)])
    def test_every_kernel_key_is_checked(self, key):
        for bad in ("1", None):
            with pytest.raises(ConfigError, match=f"^scenario.kernel.{key}: expected "):
                ScenarioConfig.from_dict({"variant": "slam-arch", "kernel": {key: bad}})

    # One case per form of check: the exact message from_dict raises.
    @pytest.mark.parametrize("scenario, message", [
        ({"soc": {"propagation_ms": 0}},
         "soc.propagation_ms: expected a finite number > 0, got 0"),
        ({"relay": {"gc_pause_ms": 100}},
         "relay.gc_pause_ms: expected a finite number > 100, got 100"),
        ({"soc": {"io_pin_power_w": -1}},
         "soc.io_pin_power_w: expected a finite number >= 0, got -1"),
        ({"kernel": {"trajectory_period_s": 1e-4}},
         "kernel.trajectory_period_s: expected a finite number >= 0.001, got 0.0001"),
        ({"soc": {"unit_idle_fraction": 1.5}},
         "soc.unit_idle_fraction: expected a number in [0, 1], got 1.5"),
        ({"duration_s": 1e9}, "duration_s: expected a number in [1e-09, 3600], got 1000000000.0"),
        ({"kernel": {"gyro_noise_std": 1e7}},
         "kernel.gyro_noise_std: expected a number in [0, 1e+06], got 10000000.0"),
        ({"kernel": {"fov_deg": 0}}, "kernel.fov_deg: expected a number in (0, 360], got 0"),
        ({"soc": {"feature_access_fraction": 1}},
         "soc.feature_access_fraction: expected a number in [0, 1), got 1"),
        ({"seed": -1}, "seed: expected an integer >= 0, got -1"),
        ({"soc": {"scratchpad_capacity_bytes": 2.5}},
         "soc.scratchpad_capacity_bytes: expected an integer >= 232, got 2.5"),
        ({"camera_fps": 61}, "camera_fps: expected an integer in [1, 60], got 61"),
        ({"kernel": {"landmark_count": -1}},
         "kernel.landmark_count: expected an integer in [0, 1000000], got -1"),
        ({"frame_size_bytes": 1024},
         "frame_size_bytes: expected an integer in [3145728, 3774873600000] "
         "(3 MiB to 3.6e+06 MiB), got 1024"),
        ({"soc": {"scratchpad_banks": 3}}, "soc.scratchpad_banks: expected 2, got 3"),
        ({"kernel": {"updates_enabled": 1}},
         "kernel.updates_enabled: expected true or false, got 1"),
        ({"kernel": {"accel_bias": [1, 2]}},
         "kernel.accel_bias: expected 3 numbers in [-1e+06, 1e+06], got [1, 2]"),
        ({"soc": {"propagation_ms": 1e308}},
         "soc.propagation_ms: expected at most 3.6e+06 ms, got 1e+308"),
        ({"relay": {"heap_budget_mib": 4e6}},
         "relay.heap_budget_mib: expected at most 3.6e+06 MiB, got 4000000.0"),
        ({"relay": {"copy_latency_ms_min": 3.0, "copy_latency_ms_max": 1.0}},
         "relay.copy_latency_ms_max: expected a finite number >= copy_latency_ms_min (3.0), "
         "got 1.0"),
        ({"relay": {"copy_latency_ms_max": 1e308}},
         "relay.copy_latency_ms_max: expected at most 3.6e+06 ms, got 1e+308"),
        ({"duration_s": 2.0, "warmup_s": 2.0},
         "warmup_s: expected a number in [0, duration_s = 2.0), got 2.0"),
        ({"frame_size_bytes": 3774873600001},
         "frame_size_bytes: expected an integer in [3145728, 3774873600000] "
         "(3 MiB to 3.6e+06 MiB), got 3774873600001"),
    ])
    def test_exact_message(self, scenario, message):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"variant": "hetero-dsp", **scenario})
        assert str(info.value) == f"scenario.{message}"

    @pytest.mark.parametrize("scenario, start", [
        ({"seed": [0] * 100_000}, "scenario.seed: expected an integer >= 0, got [0, 0, 0, "),
        ({"variant": "x" * 100_000}, "scenario: unknown variant 'xxx"),
        ({"kernel": {"k" * 100_000: 1}}, "scenario.kernel: unknown key 'kkk"),
        ({"warmup_s": "w" * 100_000}, "scenario.warmup_s: expected a number in [0, "),
        ({"seed": -10 ** 5000}, "scenario.seed: expected an integer >= 0, got <int of 16610 bits>"),
    ])
    def test_huge_values_are_shortened(self, scenario, start):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"variant": "hetero-dsp", **scenario})
        message = str(info.value)
        assert message.startswith(start) and ("..." in message or message == start)
        assert len(message) < 400 and "\n" not in message

    def test_power_calibration_names_the_bare_field(self):
        with pytest.raises(ConfigError) as info:
            PowerCalibration(unit_idle_fraction=1.5)
        assert str(info.value) == "unit_idle_fraction: expected a number in [0, 1], got 1.5"

    def test_every_field_has_a_check(self):
        # Keys without a spec field, and where each is checked: variant and
        # memory_path in from_dict, the sections by their own classes, and
        # warmup_s and copy_latency_ms_max against another key.
        elsewhere = {ScenarioConfig: {"variant", "memory_path", "soc", "relay", "kernel",
                                      "warmup_s"},
                     RelayConfig: {"copy_latency_ms_max"}}
        for cls in (ScenarioConfig, SocConfig, RelayConfig, KernelConfig, PowerCalibration):
            unchecked = {f.name for f in dataclasses.fields(cls) if "check" not in f.metadata}
            assert unchecked == elsewhere.get(cls, set()), cls.__name__

    def test_integer_fields_reject_floats(self):
        defaults = ScenarioConfig(variant=ArchVariant.SLAM_ARCH)
        for key in ("camera_fps", "imu_rate_hz", "seed", "frame_size_bytes"):
            with pytest.raises(ConfigError, match=f"scenario.{key}"):
                ScenarioConfig.from_dict({"variant": "slam-arch",
                                          key: float(getattr(defaults, key))})
        with pytest.raises(ConfigError, match="scenario.soc.scratchpad_banks"):
            SocConfig(scratchpad_banks=2.0)

    def test_duration_is_bounded_to_one_hour(self):
        for bad in (3600.5, 1e9, 1e-10):
            with pytest.raises(ConfigError, match=r"^scenario.duration_s: expected a "
                                                  r"number in \[1e-09, 3600\], got "):
                ScenarioConfig(variant=ArchVariant.SLAM_ARCH, duration_s=bad, warmup_s=0.0)
        for good in (1e-9, 3600, 3600.0):
            ScenarioConfig(variant=ArchVariant.SLAM_ARCH, duration_s=good, warmup_s=0.0)

    def test_boundary_values_are_accepted(self):
        soc = SocConfig(feature_access_fraction=0.0, unit_idle_fraction=1.0,
                        baseline_static_w=0.0, io_pin_power_w=0)
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=60,
                                imu_rate_hz=1000, seed=0, warmup_s=0.0,
                                loss_threshold_ms=0, soc=soc)
        assert config.soc.feature_access_fraction == 0.0


class TestVariantTable:
    def test_every_variant_has_one_entry(self):
        assert set(VARIANTS) == set(ArchVariant)

    def test_sensor_pin_ingest_needs_the_two_bank_handoff(self):
        spec = VARIANTS[ArchVariant.SLAM_ARCH]
        with pytest.raises(ConfigError, match="sensor-pin"):
            dataclasses.replace(spec, handoff=Handoff.SHARED)
        with pytest.raises(ConfigError, match="sensor-pin"):
            dataclasses.replace(spec, ingest=Ingest.DROP_IF_BUSY)


class TestSerialization:
    def test_json_roundtrip(self):
        config = preset("hetero-dsp")
        again = ScenarioConfig.from_json(config.to_json())
        assert again == config
        assert again.digest() == config.digest()

    def test_digest_changes_with_seed(self):
        config = preset("baseline-cpu")
        other = dataclasses.replace(config, seed=config.seed + 1)
        assert other.digest() != config.digest()

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioConfig.from_dict({"variant": "slam-arch", "bogus": 1})

    def test_unknown_nested_key_named(self):
        with pytest.raises(ConfigError, match="scenario.kernel.*typo"):
            ScenarioConfig.from_dict({"variant": "slam-arch",
                                      "kernel": {"typo": 1}})

    def test_unknown_variant_lists_options(self):
        with pytest.raises(ConfigError, match="slam-arch"):
            ScenarioConfig.from_dict({"variant": "quantum"})

    def test_missing_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            ScenarioConfig.from_dict({"camera_fps": 30})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_json("{not json")

    def test_nested_tuple_fields_survive_roundtrip(self):
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH,
                                kernel=KernelConfig(accel_bias=(0.1, 0.0, 0.0)))
        again = ScenarioConfig.from_json(config.to_json())
        assert again.kernel.accel_bias == (0.1, 0.0, 0.0)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(preset("slam-arch").to_json())
        assert ScenarioConfig.load(path) == preset("slam-arch")


class TestMemoryPathDefaults:
    def test_variant_defaults(self):
        assert ScenarioConfig(variant=ArchVariant.BASELINE_CPU) \
            .effective_memory_path() is MemoryPath.SHARED
        assert ScenarioConfig(variant=ArchVariant.HETERO_DSP) \
            .effective_memory_path() is MemoryPath.SHARED
        assert ScenarioConfig(variant=ArchVariant.SLAM_ARCH) \
            .effective_memory_path() is MemoryPath.SCRATCHPAD

    def test_explicit_override_wins(self):
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH,
                                memory_path=MemoryPath.SHARED)
        assert config.effective_memory_path() is MemoryPath.SHARED


# Every value the model converts to integer ns or bytes.
CONVERTED_KEYS = ["loss_threshold_ms", "soc.feature_extraction_cpu_ms",
                  "soc.feature_extraction_gpu_ms", "soc.feature_extraction_dsp_ms",
                  "soc.propagation_ms", "soc.update_shared_ms", "soc.mapping_shared_ms",
                  "relay.copy_latency_ms_min", "relay.copy_latency_ms_max",
                  "relay.gc_pause_ms", "relay.heap_budget_mib"]


def _scenario_with(variant, values):
    """A short `variant` scenario dict with the dotted `key: value` pairs set."""
    data = {"variant": variant, "duration_s": 0.5, "warmup_s": 0.0}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        if section:
            data.setdefault(section, {})[name] = value
        else:
            data[name] = value
    return data


class TestConvertedValuesAreBounded:
    @pytest.mark.parametrize("key", CONVERTED_KEYS)
    def test_from_dict_refuses_a_value_whose_conversion_overflows(self, key):
        with pytest.raises(ConfigError, match=f"^scenario.{key}: expected at most "):
            ScenarioConfig.from_dict(_scenario_with("hetero-dsp", {key: 1e308}))

    @pytest.mark.parametrize("key", CONVERTED_KEYS)
    def test_cli_reports_one_error_line(self, tmp_path, capsys, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_with("hetero-dsp", {key: 1e308})))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario.{key}: expected at most ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant", PRESET_NAMES)
    def test_every_value_at_the_bound_runs(self, variant):
        config = ScenarioConfig.from_dict(_scenario_with(
            variant, dict.fromkeys(CONVERTED_KEYS, MAX_CONVERTED)))
        report, sim = run_scenario(config)
        assert audit_trace(sim.trace).ok
        assert report.tracking_loss_count == 0


def _report_floats(report):
    """Every float in `report`, nested values included."""
    stack = [report.to_dict()]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, float):
            yield value


# Kernel values whose IMU samples, poses or report figures would overflow.
OVERFLOWING_KERNEL = [("kernel.accel_noise_std", 1e308), ("kernel.gyro_noise_std", 1e308),
                      ("kernel.gyro_noise_std", 1e200), ("kernel.obs_noise_std", 1e308),
                      ("kernel.map_noise_std", 1e308), ("kernel.accel_bias", [0.0, 1e308, 0.0]),
                      ("kernel.gyro_bias", [0.0, 0.0, 1e308]),
                      ("kernel.trajectory_radius_m", 1e308),
                      ("kernel.trajectory_period_s", 1e-300)]
KERNEL_AT_THE_BOUNDS = {**{f"kernel.{k}": 1e6 for k in (
    "accel_noise_std", "gyro_noise_std", "obs_noise_std", "map_noise_std",
    "trajectory_radius_m")}, "kernel.accel_bias": [1e6, -1e6, 1e6],
    "kernel.gyro_bias": [-1e6, 1e6, -1e6], "kernel.trajectory_period_s": 1e-3}


class TestKernelValuesAreBounded:
    @pytest.mark.parametrize("key, value", OVERFLOWING_KERNEL)
    def test_from_dict_refuses_a_value_that_overflows(self, key, value):
        with pytest.raises(ConfigError, match=f"^scenario.{key}: expected "):
            ScenarioConfig.from_dict(_scenario_with("baseline-cpu", {key: value}))

    @pytest.mark.parametrize("key, value", OVERFLOWING_KERNEL)
    def test_cli_reports_one_error_line(self, tmp_path, capsys, key, value):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_scenario_with("baseline-cpu", {key: value})))
        assert cli.main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario.{key}: expected ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant", PRESET_NAMES)
    @pytest.mark.parametrize("imu_rate_hz", [1, 1000])
    def test_every_value_at_the_bound_runs_to_finite_figures(self, variant, imu_rate_hz):
        config = ScenarioConfig.from_dict(_scenario_with(
            variant, {**KERNEL_AT_THE_BOUNDS, "imu_rate_hz": imu_rate_hz}))
        report, sim = run_scenario(config)
        assert audit_trace(sim.trace).ok
        assert all(map(math.isfinite, _report_floats(report)))


class TestScratchpadCapacity:
    """A bank is half the scratchpad, and it caps the features of a frame:
    it must hold the block header (96 bytes) and one record (20 bytes)."""

    @pytest.mark.parametrize("capacity", [1, 231])
    def test_from_dict_refuses_a_bank_without_room_for_one_record(self, capacity):
        with pytest.raises(ConfigError, match=(
                r"^scenario.soc.scratchpad_capacity_bytes: expected an integer >= 232, "
                f"got {capacity}$")):
            ScenarioConfig.from_dict(_scenario_with(
                "slam-arch", {"soc.scratchpad_capacity_bytes": capacity}))

    def test_the_smallest_scratchpad_runs(self, tmp_path, capsys):
        data = _scenario_with("slam-arch", {"soc.scratchpad_capacity_bytes": 232,
                                            "kernel.landmark_count": 4000})
        report, sim = run_scenario(ScenarioConfig.from_dict(data))
        assert audit_trace(sim.trace).ok
        assert any(rec["transition"] == "BankFilled" for rec in sim.trace)
        assert report.map_size > 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--scenario", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_capacity_sets_the_feature_cap(self):
        # Every frame of a dense scene reaches the cap, so a smaller bank
        # keeps fewer features and the map grows more slowly.
        map_size = {}
        for capacity in (4096, 8192):
            config = ScenarioConfig.from_dict({
                "variant": "slam-arch", "duration_s": 5.0, "kernel": {"landmark_count": 4000},
                "soc": {"scratchpad_capacity_bytes": capacity}})
            map_size[capacity] = run_scenario(config)[0].map_size
        assert map_size[4096] < map_size[8192]


# ---------------------------------------------------------------------------
# Any scenario dict either is refused with a ConfigError or runs to a trace
# that passes the audit, a ledger that conserves energy and finite figures.

_pos = st.floats(1e-3, 50.0)
_nonneg = st.floats(0.0, 5.0)
_fraction = st.floats(0.0, 1.0)
_vec3 = st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3)
# Wrong types, non-finite and out-of-range values; some are valid for some keys.
_junk = st.sampled_from([None, "1", True, [], {}, [1.0, 2.0], float("nan"),
                         float("inf"), -float("inf"), -1, -0.5, 0, 0.0, 2, 1e-300,
                         10 ** 400, 1e308])

_VALID = {
    "top": {"camera_fps": st.integers(1, 60), "imu_rate_hz": st.integers(1, 1000),
            "seed": st.integers(0, 2 ** 32), "memory_path": st.sampled_from(
                [None, "shared", "scratchpad"]),
            "frame_size_bytes": st.integers(3 * 1024 * 1024, 64 * 1024 * 1024),
            "loss_threshold_ms": st.floats(0.0, 500.0)},
    "soc": {**{k: _pos for k in ("cpu_peak_power_w", "dsp_peak_power_w", "gpu_peak_power_w",
                                 "feature_extraction_cpu_ms", "feature_extraction_gpu_ms",
                                 "feature_extraction_dsp_ms", "propagation_ms",
                                 "update_shared_ms", "mapping_shared_ms")},
            **{k: _nonneg for k in ("baseline_static_w", "shared_access_ns",
                                    "scratchpad_access_ns", "scratchpad_dynamic_w",
                                    "scratchpad_leakage_w", "io_pin_power_w")},
            "unit_idle_fraction": _fraction,
            "feature_access_fraction": st.floats(0.0, 0.99),
            "scratchpad_capacity_bytes": st.integers(1, 1 << 20),
            "scratchpad_banks": st.just(2)},
    "relay": {"copy_latency_ms_min": st.floats(1e-3, 5.0),
              "copy_latency_ms_max": st.floats(5.0, 20.0),
              "heap_budget_mib": st.floats(1.0, 500.0),
              "gc_pause_ms": st.floats(100.5, 400.0)},
    "kernel": {"accel_bias": _vec3, "gyro_bias": _vec3,
               **{k: st.floats(0.0, 0.1) for k in ("accel_noise_std", "gyro_noise_std",
                                                   "obs_noise_std", "map_noise_std")},
               "update_gain": _fraction, "min_matches": st.integers(0, 50),
               "landmark_count": st.integers(0, 1500),
               "visibility_range_m": st.floats(0.1, 30.0),
               "fov_deg": st.floats(1e-3, 360.0),
               "trajectory_radius_m": st.floats(0.0, 20.0),
               "trajectory_period_s": st.floats(1e-3, 600.0),
               "updates_enabled": st.booleans()},
}


@st.composite
def _section(draw, name):
    keys = draw(st.lists(st.sampled_from(sorted(_VALID[name])), unique=True, max_size=4))
    return {k: draw(_VALID[name][k]) for k in keys}


@st.composite
def _scenario(draw):
    """A valid scenario with a short duration, then up to two faults: a junk
    value for one key or one section, an unknown variant or an unknown key."""
    data = draw(_section("top"))
    data["variant"] = draw(st.sampled_from(PRESET_NAMES))
    data["duration_s"] = draw(st.floats(0.05, 1.0))
    data["warmup_s"] = draw(st.floats(0.0, 0.99)) * data["duration_s"]
    for name in ("soc", "relay", "kernel"):
        if draw(st.booleans()):
            data[name] = draw(_section(name))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = draw(st.sampled_from(["top", "soc", "relay", "kernel", "section",
                                      "variant", "unknown"]))
        if fault == "variant":
            data["variant"] = draw(st.sampled_from(["nope", None, 3]))
        elif fault == "unknown":
            data["bogus"] = 1
        elif fault == "section":
            data[draw(st.sampled_from(["soc", "relay", "kernel"]))] = draw(_junk)
        elif fault == "top":
            data[draw(st.sampled_from(sorted(_VALID["top"]) + ["duration_s", "warmup_s"]))] \
                = draw(_junk)
        elif isinstance(data.get(fault, {}), dict):
            data[fault] = {**data.get(fault, {}),
                           draw(st.sampled_from(sorted(_VALID[fault]))): draw(_junk)}
    return data


class TestAnyScenario:
    @given(_scenario())
    @example({"variant": "baseline-cpu", "duration_s": 1.0, "warmup_s": 0.0,
              "loss_threshold_ms": 1e308})
    @example({"variant": "baseline-cpu", "duration_s": 1.0, "warmup_s": 0.0,
              "kernel": {"gyro_noise_std": 1e308}})
    @example({"variant": "slam-arch", "soc": {"scratchpad_capacity_bytes": 1}})
    @example({"variant": "hetero-dsp", "duration_s": 1.0, "warmup_s": 0.0,
              "frame_size_bytes": 10 ** 400})
    @example({"variant": "hetero-dsp", "duration_s": 1.0, "warmup_s": 0.0,
              "frame_size_bytes": 3774873600000})
    @settings(max_examples=60, deadline=None)
    def test_refused_or_runs_audited_and_conserved(self, data):
        try:
            config = ScenarioConfig.from_dict(data)
        except ConfigError:
            return
        report, sim = run_scenario(config)
        assert audit_trace(sim.trace).ok
        _assert_record_shapes(sim.trace)
        full = (0, sim.duration_ns)
        ledger, cal = sim.ledger, sim.calibration
        for unit in ledger.units:
            assert 0 <= ledger.busy_ns(unit) <= sim.duration_ns
        _assert_busy_conserved(sim)
        parts = (ledger.dynamic_energy_j(full) + ledger.idle_energy_j(full, cal)
                 + ledger.static_energy_j(full, cal))
        assert ledger.total_energy_j(full, cal) == pytest.approx(parts, rel=1e-12)
        assert report.total_energy_j == pytest.approx(parts, rel=1e-12)
        assert all(0.0 <= u <= 1.0 for u in report.unit_utilization.values())
        assert all(map(math.isfinite, _report_floats(report)))
