"""Scenario configuration: the three architecture presets plus free-form
configs loaded from flat JSON files.

Every model constant is overridable from the scenario file; unknown keys are
rejected with the offending key named. The schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .soc import ConfigError, MemoryPath


class ArchVariant(Enum):
    BASELINE_CPU = "baseline-cpu"
    HETERO_DSP = "hetero-dsp"
    SLAM_ARCH = "slam-arch"


def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{context}: unknown key {sorted(unknown)[0]!r}")
    return cls(**data)


@dataclass(frozen=True)
class SocConfig:
    cpu_peak_power_w: float = 2.5
    dsp_peak_power_w: float = 1.5
    gpu_peak_power_w: float = 2.3
    baseline_static_w: float = 0.0
    unit_idle_fraction: float = 0.45
    shared_access_ns: float = 100.0
    scratchpad_capacity_bytes: int = 8192
    scratchpad_banks: int = 2
    scratchpad_access_ns: float = 0.4
    scratchpad_dynamic_w: float = 0.15
    scratchpad_leakage_w: float = 0.002
    io_pin_power_w: float = 0.1
    feature_access_fraction: float = 0.2
    feature_extraction_cpu_ms: float = 45.0
    feature_extraction_gpu_ms: float = 50.0
    feature_extraction_dsp_ms: float = 20.0
    propagation_ms: float = 2.0
    update_shared_ms: float = 30.0
    mapping_shared_ms: float = 15.0


@dataclass(frozen=True)
class RelayConfig:
    copy_latency_ms_min: float = 1.0
    copy_latency_ms_max: float = 3.0
    heap_budget_mib: float = 250.0
    gc_pause_ms: float = 120.0

    def __post_init__(self):
        if self.gc_pause_ms <= 100.0:
            raise ConfigError("gc_pause_ms must exceed 100 ms")
        if not 0 < self.copy_latency_ms_min <= self.copy_latency_ms_max:
            raise ConfigError("relay copy latency range must satisfy 0 < min <= max")


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok: bool, key: str, expected: str, value) -> None:
    if not ok:
        raise ConfigError(f"scenario.kernel.{key}: expected {expected}, got {value!r}")


# Landmark truth is held in memory as one (count, 3) array.
MAX_LANDMARKS = 1_000_000


@dataclass(frozen=True)
class KernelConfig:
    accel_bias: tuple = (0.05, 0.02, 0.0)
    gyro_bias: tuple = (0.0005, 0.0, 0.0002)
    accel_noise_std: float = 0.02
    gyro_noise_std: float = 0.002
    update_gain: float = 0.8
    obs_noise_std: float = 0.02
    min_matches: int = 10
    map_noise_std: float = 0.01
    landmark_count: int = 400
    visibility_range_m: float = 12.0
    fov_deg: float = 100.0
    trajectory_radius_m: float = 5.0
    trajectory_period_s: float = 60.0
    updates_enabled: bool = True

    def __post_init__(self):
        for key in ("accel_bias", "gyro_bias"):
            value = getattr(self, key)
            _require(isinstance(value, (list, tuple)) and len(value) == 3
                     and all(map(_is_number, value)), key, "3 finite numbers", value)
            object.__setattr__(self, key, tuple(value))
        for key in ("accel_noise_std", "gyro_noise_std", "obs_noise_std", "map_noise_std"):
            value = getattr(self, key)
            _require(_is_number(value) and value >= 0, key, "a finite number >= 0", value)
        _require(_is_number(self.update_gain) and 0 <= self.update_gain <= 1,
                 "update_gain", "a number in [0, 1]", self.update_gain)
        _require(_is_count(self.min_matches) and self.min_matches >= 0,
                 "min_matches", "an integer >= 0", self.min_matches)
        _require(_is_count(self.landmark_count) and 0 <= self.landmark_count <= MAX_LANDMARKS,
                 "landmark_count", f"an integer in [0, {MAX_LANDMARKS}]", self.landmark_count)
        _require(_is_number(self.visibility_range_m) and self.visibility_range_m > 0,
                 "visibility_range_m", "a finite number > 0", self.visibility_range_m)
        _require(_is_number(self.fov_deg) and 0 < self.fov_deg <= 360,
                 "fov_deg", "a number in (0, 360]", self.fov_deg)
        _require(_is_number(self.trajectory_radius_m) and self.trajectory_radius_m >= 0,
                 "trajectory_radius_m", "a finite number >= 0", self.trajectory_radius_m)
        _require(_is_number(self.trajectory_period_s) and self.trajectory_period_s > 0,
                 "trajectory_period_s", "a finite number > 0", self.trajectory_period_s)
        _require(isinstance(self.updates_enabled, bool),
                 "updates_enabled", "true or false", self.updates_enabled)


@dataclass(frozen=True)
class ScenarioConfig:
    variant: ArchVariant
    camera_fps: int = 30
    imu_rate_hz: int = 200
    duration_s: float = 30.0
    seed: int = 1
    warmup_s: float = 2.0
    memory_path: MemoryPath | None = None  # default chosen per variant
    frame_size_bytes: int = 3 * 1024 * 1024
    loss_threshold_ms: float = 100.0
    soc: SocConfig = field(default_factory=SocConfig)
    relay: RelayConfig = field(default_factory=RelayConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if not 0 < self.camera_fps <= 60:
            raise ConfigError(f"camera_fps {self.camera_fps} out of (0, 60]")
        if not 0 < self.imu_rate_hz <= 1000:
            raise ConfigError(f"imu_rate_hz {self.imu_rate_hz} out of (0, 1000]")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be > 0")
        if self.warmup_s < 0 or self.warmup_s >= self.duration_s:
            raise ConfigError("warmup_s must be in [0, duration_s)")
        if self.frame_size_bytes < 3 * 1024 * 1024:
            raise ConfigError("frame_size_bytes must be at least 3 MiB")

    def effective_memory_path(self) -> MemoryPath:
        if self.memory_path is not None:
            return self.memory_path
        return (MemoryPath.SCRATCHPAD if self.variant is ArchVariant.SLAM_ARCH
                else MemoryPath.SHARED)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def convert(obj):
            if isinstance(obj, Enum):
                return obj.value
            if dataclasses.is_dataclass(obj):
                return {f.name: convert(getattr(obj, f.name)) for f in fields(obj)}
            if isinstance(obj, tuple):
                return list(obj)
            return obj
        return convert(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("scenario: expected a JSON object at top level")
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"scenario: unknown key {sorted(unknown)[0]!r}")
        if "variant" not in data:
            raise ConfigError("scenario: missing required key 'variant'")
        try:
            data["variant"] = ArchVariant(data["variant"])
        except ValueError:
            names = ", ".join(v.value for v in ArchVariant)
            raise ConfigError(
                f"scenario: unknown variant {data['variant']!r}; expected one of: {names}")
        if data.get("memory_path") is not None:
            try:
                data["memory_path"] = MemoryPath(data["memory_path"])
            except ValueError:
                raise ConfigError(f"scenario: unknown memory_path {data['memory_path']!r}")
        for key, sub in (("soc", SocConfig), ("relay", RelayConfig), ("kernel", KernelConfig)):
            if key in data:
                data[key] = _from_dict(sub, data[key], f"scenario.{key}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario: invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


PRESET_NAMES = tuple(v.value for v in ArchVariant)


def preset(name: str) -> ScenarioConfig:
    """Calibrated configs for the three comparison points. Offered camera
    load slightly exceeds the expected achieved FPS so the bottleneck, not
    the source, limits throughput."""
    if name == ArchVariant.BASELINE_CPU.value:
        return ScenarioConfig(variant=ArchVariant.BASELINE_CPU, camera_fps=30,
                              duration_s=30.0)
    if name == ArchVariant.HETERO_DSP.value:
        return ScenarioConfig(variant=ArchVariant.HETERO_DSP, camera_fps=30,
                              duration_s=60.0)
    if name == ArchVariant.SLAM_ARCH.value:
        return ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=50,
                              duration_s=30.0)
    raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")


def build(config: ScenarioConfig):
    """Wire a runnable simulation from a validated config."""
    from .pipeline import Simulation
    return Simulation(config)
