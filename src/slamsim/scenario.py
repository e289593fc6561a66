"""Scenario configuration: the three architecture variants and their presets,
plus free-form configs loaded from flat JSON files.

Every model constant is overridable from the scenario file; unknown keys are
rejected with the offending key named, and every value is type- and
range-checked. The schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType

from .soc import (ConfigError, MemoryPath, SocConfig, Stage, UnitKind, _is_count,
                  _is_number, _require)


class ArchVariant(Enum):
    BASELINE_CPU = "baseline-cpu"
    HETERO_DSP = "hetero-dsp"
    SLAM_ARCH = "slam-arch"


class Ingest(Enum):
    """How an arriving camera frame enters the pipeline."""

    DROP_IF_BUSY = "drop-if-busy"  # dropped while feature extraction is busy
    CPU_RELAY = "cpu-relay"  # copied into memory by a CPU core; GC-prone
    SENSOR_PIN = "sensor-pin"  # read from the pins; throttled while one waits


class Handoff(Enum):
    """How feature blocks reach update and mapping."""

    SHARED = "shared"  # through shared memory; IMU propagated per sample
    TWO_BANK = "two-bank"  # bank-swap scratchpad; IMU batched after mapping


@dataclass(frozen=True)
class VariantSpec:
    """One SoC design. Unit order fixes the ledger's summation order, and
    `static_sources` (SocConfig field names) the order of the static sum."""

    units: tuple  # (unit id, UnitKind) pairs
    stage_units: MappingProxyType  # Stage -> unit id
    ingest: Ingest
    handoff: Handoff
    memory_path: MemoryPath  # default when the scenario names none
    camera_fps: int  # the preset's offered load
    duration_s: float  # the preset's length
    static_sources: tuple = ()

    def __post_init__(self):
        # The sensor-pin ingest holds one frame for the next bank fill.
        if (self.ingest is Ingest.SENSOR_PIN) != (self.handoff is Handoff.TWO_BANK):
            raise ConfigError("the sensor-pin ingest and the two-bank handoff go together")


_CPU, _DSP = UnitKind.CPU_CORE, UnitKind.DSP

VARIANTS = {
    ArchVariant.BASELINE_CPU: VariantSpec(
        units=(("cpu0", _CPU), ("cpu1", _CPU), ("cpu2", _CPU), ("cpu3", _CPU)),
        stage_units=MappingProxyType({
            Stage.FEATURE_EXTRACTION: "cpu0", Stage.PROPAGATION: "cpu1",
            Stage.UPDATE: "cpu2", Stage.MAPPING: "cpu3"}),
        ingest=Ingest.DROP_IF_BUSY, handoff=Handoff.SHARED,
        memory_path=MemoryPath.SHARED, camera_fps=30, duration_s=30.0),
    ArchVariant.HETERO_DSP: VariantSpec(
        units=(("cpu0", _CPU), ("cpu1", _CPU), ("cpu2", _CPU), ("cpu3", _CPU),
               ("dsp", _DSP)),
        stage_units=MappingProxyType({
            Stage.RELAY: "cpu0", Stage.PROPAGATION: "cpu1", Stage.UPDATE: "cpu2",
            Stage.MAPPING: "cpu3", Stage.FEATURE_EXTRACTION: "dsp"}),
        ingest=Ingest.CPU_RELAY, handoff=Handoff.SHARED,
        memory_path=MemoryPath.SHARED, camera_fps=30, duration_s=60.0),
    ArchVariant.SLAM_ARCH: VariantSpec(
        units=(("cpu0", _CPU), ("cpu1", _CPU), ("dsp", _DSP)),
        stage_units=MappingProxyType({
            Stage.MAPPING: "cpu0", Stage.PROPAGATION: "cpu0", Stage.UPDATE: "cpu1",
            Stage.FEATURE_EXTRACTION: "dsp"}),
        ingest=Ingest.SENSOR_PIN, handoff=Handoff.TWO_BANK,
        memory_path=MemoryPath.SCRATCHPAD, camera_fps=50, duration_s=30.0,
        static_sources=("io_pin_power_w", "scratchpad_dynamic_w", "scratchpad_leakage_w")),
}


def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{context}: unknown key {sorted(unknown)[0]!r}")
    return cls(**data)


@dataclass(frozen=True)
class RelayConfig:
    copy_latency_ms_min: float = 1.0
    copy_latency_ms_max: float = 3.0
    heap_budget_mib: float = 250.0
    gc_pause_ms: float = 120.0

    def __post_init__(self):
        lo, hi = self.copy_latency_ms_min, self.copy_latency_ms_max
        _require(_is_number(lo) and lo > 0, "relay.copy_latency_ms_min",
                 "a finite number > 0", lo)
        _require(_is_number(hi) and hi >= lo, "relay.copy_latency_ms_max",
                 f"a finite number >= copy_latency_ms_min ({lo!r})", hi)
        _require(_is_number(self.heap_budget_mib) and self.heap_budget_mib > 0,
                 "relay.heap_budget_mib", "a finite number > 0", self.heap_budget_mib)
        _require(_is_number(self.gc_pause_ms) and self.gc_pause_ms > 100,
                 "relay.gc_pause_ms", "a finite number > 100", self.gc_pause_ms)


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
                     and all(map(_is_number, value)), f"kernel.{key}",
                     "3 finite numbers", value)
            object.__setattr__(self, key, tuple(value))
        for key in ("accel_noise_std", "gyro_noise_std", "obs_noise_std", "map_noise_std"):
            value = getattr(self, key)
            _require(_is_number(value) and value >= 0, f"kernel.{key}",
                     "a finite number >= 0", value)
        _require(_is_number(self.update_gain) and 0 <= self.update_gain <= 1,
                 "kernel.update_gain", "a number in [0, 1]", self.update_gain)
        _require(_is_count(self.min_matches) and self.min_matches >= 0,
                 "kernel.min_matches", "an integer >= 0", self.min_matches)
        _require(_is_count(self.landmark_count) and 0 <= self.landmark_count <= MAX_LANDMARKS,
                 "kernel.landmark_count", f"an integer in [0, {MAX_LANDMARKS}]",
                 self.landmark_count)
        _require(_is_number(self.visibility_range_m) and self.visibility_range_m > 0,
                 "kernel.visibility_range_m", "a finite number > 0", self.visibility_range_m)
        _require(_is_number(self.fov_deg) and 0 < self.fov_deg <= 360,
                 "kernel.fov_deg", "a number in (0, 360]", self.fov_deg)
        _require(_is_number(self.trajectory_radius_m) and self.trajectory_radius_m >= 0,
                 "kernel.trajectory_radius_m", "a finite number >= 0", self.trajectory_radius_m)
        _require(_is_number(self.trajectory_period_s) and self.trajectory_period_s > 0,
                 "kernel.trajectory_period_s", "a finite number > 0", self.trajectory_period_s)
        _require(isinstance(self.updates_enabled, bool),
                 "kernel.updates_enabled", "true or false", self.updates_enabled)


MIN_FRAME_BYTES = 3 * 1024 * 1024
# duration_s: at least one engine tick, so the run's window is never empty, and
# at most one simulated hour.
MIN_DURATION_S = 1e-9
MAX_DURATION_S = 3600.0


@dataclass(frozen=True)
class ScenarioConfig:
    variant: ArchVariant
    camera_fps: int = 30
    imu_rate_hz: int = 200
    duration_s: float = 30.0
    seed: int = 1
    warmup_s: float = 2.0
    memory_path: MemoryPath | None = None  # default chosen per variant
    frame_size_bytes: int = MIN_FRAME_BYTES
    loss_threshold_ms: float = 100.0
    soc: SocConfig = field(default_factory=SocConfig)
    relay: RelayConfig = field(default_factory=RelayConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        _require(_is_count(self.camera_fps) and 0 < self.camera_fps <= 60,
                 "camera_fps", "an integer in [1, 60]", self.camera_fps)
        _require(_is_count(self.imu_rate_hz) and 0 < self.imu_rate_hz <= 1000,
                 "imu_rate_hz", "an integer in [1, 1000]", self.imu_rate_hz)
        _require(_is_number(self.duration_s)
                 and MIN_DURATION_S <= self.duration_s <= MAX_DURATION_S, "duration_s",
                 f"a number in [{MIN_DURATION_S:g}, {MAX_DURATION_S:g}]", self.duration_s)
        _require(_is_count(self.seed) and self.seed >= 0, "seed", "an integer >= 0", self.seed)
        _require(_is_number(self.warmup_s) and 0 <= self.warmup_s < self.duration_s,
                 "warmup_s", f"a number in [0, duration_s = {self.duration_s!r})",
                 self.warmup_s)
        _require(_is_count(self.frame_size_bytes) and self.frame_size_bytes >= MIN_FRAME_BYTES,
                 "frame_size_bytes", f"an integer >= {MIN_FRAME_BYTES} (3 MiB)",
                 self.frame_size_bytes)
        _require(_is_number(self.loss_threshold_ms) and self.loss_threshold_ms >= 0,
                 "loss_threshold_ms", "a finite number >= 0", self.loss_threshold_ms)

    def effective_memory_path(self) -> MemoryPath:
        if self.memory_path is not None:
            return self.memory_path
        return VARIANTS[self.variant].memory_path

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
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    variant = ArchVariant(name)
    spec = VARIANTS[variant]
    return ScenarioConfig(variant=variant, camera_fps=spec.camera_fps,
                          duration_s=spec.duration_s)


def build(config: ScenarioConfig):
    """Wire a runnable simulation from a validated config."""
    from .pipeline import Simulation
    return Simulation(config)
