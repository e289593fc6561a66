import dataclasses
import json

import pytest

import slamsim.cli as cli
from slamsim.pipeline import Simulation
from slamsim.scenario import (ArchVariant, Handoff, Ingest, KernelConfig, PRESET_NAMES,
                              RelayConfig, ScenarioConfig, VARIANTS, build, preset)
from slamsim.soc import ConfigError, MemoryPath, SocConfig


class TestPresets:
    def test_names_cover_the_three_variants(self):
        assert set(PRESET_NAMES) == {"baseline-cpu", "hetero-dsp", "slam-arch"}

    def test_presets_build(self):
        for name in PRESET_NAMES:
            config = preset(name)
            assert config.variant.value == name
            assert isinstance(build(dataclasses.replace(config, duration_s=3.0)),
                              Simulation)

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
