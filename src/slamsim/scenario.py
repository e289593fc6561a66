"""Scenario configuration: the three architecture variants and their presets,
plus free-form configs loaded from flat JSON files.

Every model constant is overridable from the scenario file; unknown keys are
rejected with the offending key named. Each key is declared once, as
`spec(default, check)` beside its default (soc.py holds the helpers), and each
section's `__post_init__` runs those checks with one `check_fields` call;
only `warmup_s` and `relay.copy_latency_ms_max`, bounded by another key, are
checked by hand after it. The schema is documented in the README.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType

from .kernel import MAX_FRAME_BYTES, MAX_IMU_RATE_HZ, MIN_FRAME_BYTES
from .soc import (MAX_DURATION_S, MIB, _POSITIVE_MS, Check, ConfigError, MemoryPath, SocConfig,
                  Stage, UnitKind, _is_number, check_fields, check_value, integer, number,
                  quoted, spec)


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

    SHARED = "shared"  # through shared memory; IMU propagated in batches by the lazy server
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
        # The shared handoff's propagation unit is the engine's lazy server,
        # which runs propagation tasks only.
        if self.handoff is Handoff.SHARED:
            unit = self.stage_units[Stage.PROPAGATION]
            if sum(uid == unit for uid in self.stage_units.values()) > 1:
                raise ConfigError(f"the shared handoff runs propagation on a unit of its own; "
                                  f"{unit} also runs another stage")


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


@functools.cache
def _keys(cls) -> frozenset:
    return frozenset(f.name for f in fields(cls))


def _reject_unknown_keys(cls, data: dict, where: str) -> None:
    """`where` is `scenario` or the section's path, e.g. `scenario.soc`."""
    unknown = data.keys() - _keys(cls)
    if unknown:
        raise ConfigError(f"{where}: unknown key {quoted(sorted(unknown)[0])}")


def _from_dict(cls, data: dict, key: str):
    """The `cls` section of a scenario under `key`, e.g. `soc`."""
    if not isinstance(data, dict):
        raise ConfigError(f"scenario.{key}: expected an object, got {type(data).__name__}")
    _reject_unknown_keys(cls, data, f"scenario.{key}")
    return cls(**data)


@dataclass(frozen=True)
class RelayConfig:
    copy_latency_ms_min: float = spec(1.0, _POSITIVE_MS)
    copy_latency_ms_max: float = 3.0  # at least copy_latency_ms_min
    heap_budget_mib: float = spec(250.0, number(0, lo_open=True, unit="MiB"))
    gc_pause_ms: float = spec(120.0, number(100, lo_open=True, unit="ms"))

    def __post_init__(self):
        check_fields(self, "scenario.relay.")
        lo, hi = self.copy_latency_ms_min, self.copy_latency_ms_max
        if not (_is_number(hi) and hi >= lo):
            raise ConfigError(f"scenario.relay.copy_latency_ms_max: expected a finite number "
                              f">= copy_latency_ms_min ({lo!r}), got {quoted(hi)}")
        # hi >= lo > 0, so only the ms bound can refuse it here
        check_value(hi, "scenario.relay.copy_latency_ms_max", _POSITIVE_MS)


# Landmark truth is held in memory as one (count, 3) array.
MAX_LANDMARKS = 1_000_000
# The largest noise std, bias component (SI units) and trajectory radius (m),
# and the shortest trajectory period (s): within these, no IMU row, pose or
# report figure overflows.
MAX_KERNEL_MAGNITUDE = 1e6
MIN_TRAJECTORY_PERIOD_S = 1e-3

_BIAS = Check(lambda v: isinstance(v, (list, tuple)) and len(v) == 3
              and all(_is_number(c) and abs(c) <= MAX_KERNEL_MAGNITUDE for c in v),
              f"3 numbers in [-{MAX_KERNEL_MAGNITUDE:g}, {MAX_KERNEL_MAGNITUDE:g}]")
_NOISE_STD = number(0, MAX_KERNEL_MAGNITUDE)


@dataclass(frozen=True)
class KernelConfig:
    accel_bias: tuple = spec((0.05, 0.02, 0.0), _BIAS)
    gyro_bias: tuple = spec((0.0005, 0.0, 0.0002), _BIAS)
    accel_noise_std: float = spec(0.02, _NOISE_STD)
    gyro_noise_std: float = spec(0.002, _NOISE_STD)
    update_gain: float = spec(0.8, number(0, 1))
    obs_noise_std: float = spec(0.02, _NOISE_STD)
    min_matches: int = spec(10, integer(0))
    map_noise_std: float = spec(0.01, _NOISE_STD)
    landmark_count: int = spec(400, integer(0, MAX_LANDMARKS))
    visibility_range_m: float = spec(12.0, number(0, lo_open=True))
    fov_deg: float = spec(100.0, number(0, 360, lo_open=True))
    trajectory_radius_m: float = spec(5.0, number(0, MAX_KERNEL_MAGNITUDE))
    trajectory_period_s: float = spec(60.0, number(MIN_TRAJECTORY_PERIOD_S))
    updates_enabled: bool = spec(True, Check(lambda v: isinstance(v, bool), "true or false"))

    def __post_init__(self):
        check_fields(self, "scenario.kernel.")
        for key in ("accel_bias", "gyro_bias"):
            object.__setattr__(self, key, tuple(getattr(self, key)))


# duration_s: at least one engine tick, so the run's window is never empty, and
# at most one simulated hour.
MIN_DURATION_S = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    variant: ArchVariant
    camera_fps: int = spec(30, integer(1, 60))
    imu_rate_hz: int = spec(200, integer(1, MAX_IMU_RATE_HZ))
    duration_s: float = spec(30.0, number(MIN_DURATION_S, MAX_DURATION_S))
    seed: int = spec(1, integer(0))
    warmup_s: float = 2.0  # in [0, duration_s)
    memory_path: MemoryPath | None = None  # default chosen per variant
    frame_size_bytes: int = spec(MIN_FRAME_BYTES, integer(
        MIN_FRAME_BYTES, MAX_FRAME_BYTES,
        note=f" ({MIN_FRAME_BYTES // MIB} MiB to {MAX_FRAME_BYTES // MIB:g} MiB)"))
    loss_threshold_ms: float = spec(100.0, number(0, unit="ms"))
    soc: SocConfig = field(default_factory=SocConfig)
    relay: RelayConfig = field(default_factory=RelayConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        check_fields(self, "scenario.")
        if not (_is_number(self.warmup_s) and 0 <= self.warmup_s < self.duration_s):
            raise ConfigError(f"scenario.warmup_s: expected a number in [0, duration_s = "
                              f"{self.duration_s!r}), got {quoted(self.warmup_s)}")

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
        _reject_unknown_keys(cls, data, "scenario")
        if "variant" not in data:
            raise ConfigError("scenario: missing required key 'variant'")
        try:
            data["variant"] = ArchVariant(data["variant"])
        except ValueError:
            names = ", ".join(v.value for v in ArchVariant)
            raise ConfigError(
                f"scenario: unknown variant {quoted(data['variant'])}; expected one of: {names}")
        if data.get("memory_path") is not None:
            try:
                data["memory_path"] = MemoryPath(data["memory_path"])
            except ValueError:
                raise ConfigError(f"scenario: unknown memory_path {quoted(data['memory_path'])}")
        for key, sub in (("soc", SocConfig), ("relay", RelayConfig), ("kernel", KernelConfig)):
            if key in data:
                data[key] = _from_dict(sub, data[key], key)
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad, too deep, or an int too long
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
        raise ConfigError(f"unknown preset {quoted(name)}; "
                          f"valid presets: {', '.join(PRESET_NAMES)}")
    variant = ArchVariant(name)
    spec = VARIANTS[variant]
    return ScenarioConfig(variant=variant, camera_fps=spec.camera_fps,
                          duration_s=spec.duration_s)
