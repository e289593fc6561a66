"""SoC model: compute units, stage latency tables, and power/energy accounting.

`SocConfig` is the single source of every latency, memory and power
constant. Its defaults are measured values for the modeled SoC: 2.5 W per
CPU core, 1.5 W DSP, 2.3 W GPU; feature extraction 45/50/20 ms on CPU/GPU/DSP;
update 30 ms and mapping 15 ms over shared memory, improving by the 20%
feature-access fraction when fed from the scratchpad buffer.

Power model: a unit draws its peak power while busy and an idle fraction of
peak while powered but idle. A global baseline static term plus explicit
static sources (scratchpad leakage, scratchpad active power, IO pin drivers)
complete the picture. The idle fraction and baseline static are calibration
parameters, not measurements, and live in scenario config.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from enum import Enum

from .engine import NS_PER_S


class ConfigError(ValueError):
    """A scenario/build-time configuration problem."""


class LedgerError(RuntimeError):
    """Inconsistent busy-interval bookkeeping (indicates a scheduler bug)."""


class UnitKind(Enum):
    CPU_CORE = "cpu_core"
    DSP = "dsp"
    GPU = "gpu"


class Stage(Enum):
    FEATURE_EXTRACTION = "feature_extraction"
    PROPAGATION = "propagation"
    UPDATE = "update"
    MAPPING = "mapping"
    RELAY = "relay"

    # Stage keys the per-task dict lookups of the pipeline. Enum's own hash
    # is a Python-level call on the member name; members are singletons and
    # no set of Stage is ever iterated, so the identity hash is equivalent.
    __hash__ = object.__hash__


class MemoryPath(Enum):
    SHARED = "shared"
    SCRATCHPAD = "scratchpad"


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
    """`key` is the dotted path below the scenario root, e.g. `soc.propagation_ms`."""
    if not ok:
        raise ConfigError(f"scenario.{key}: expected {expected}, got {value!r}")


# The bank-swap controller (bank.py) is defined for exactly two banks.
SCRATCHPAD_BANKS = 2

_PEAK_POWER_FIELD = {UnitKind.CPU_CORE: "cpu_peak_power_w",
                     UnitKind.DSP: "dsp_peak_power_w",
                     UnitKind.GPU: "gpu_peak_power_w"}


@dataclass(frozen=True)
class SocConfig:
    cpu_peak_power_w: float = 2.5
    dsp_peak_power_w: float = 1.5
    gpu_peak_power_w: float = 2.3
    baseline_static_w: float = 0.0
    unit_idle_fraction: float = 0.45
    # shared_access_ns, scratchpad_capacity_bytes and scratchpad_access_ns
    # are accepted but not read by the model; removing a key would change
    # every config digest.
    shared_access_ns: float = 100.0
    scratchpad_capacity_bytes: int = 8192
    scratchpad_banks: int = SCRATCHPAD_BANKS
    scratchpad_access_ns: float = 0.4
    scratchpad_dynamic_w: float = 0.15
    scratchpad_leakage_w: float = 0.002
    io_pin_power_w: float = 0.1
    # Fraction of update/mapping execution time spent on feature memory
    # accesses over the shared path; eliminated by the scratchpad path.
    feature_access_fraction: float = 0.2
    feature_extraction_cpu_ms: float = 45.0
    feature_extraction_gpu_ms: float = 50.0
    feature_extraction_dsp_ms: float = 20.0
    propagation_ms: float = 2.0
    update_shared_ms: float = 30.0
    mapping_shared_ms: float = 15.0

    def __post_init__(self):
        for key in ("cpu_peak_power_w", "dsp_peak_power_w", "gpu_peak_power_w",
                    "feature_extraction_cpu_ms", "feature_extraction_gpu_ms",
                    "feature_extraction_dsp_ms", "propagation_ms", "update_shared_ms",
                    "mapping_shared_ms"):
            value = getattr(self, key)
            _require(_is_number(value) and value > 0, f"soc.{key}",
                     "a finite number > 0", value)
        for key in ("baseline_static_w", "shared_access_ns", "scratchpad_access_ns",
                    "scratchpad_dynamic_w", "scratchpad_leakage_w", "io_pin_power_w"):
            value = getattr(self, key)
            _require(_is_number(value) and value >= 0, f"soc.{key}",
                     "a finite number >= 0", value)
        _require(_is_number(self.unit_idle_fraction) and 0 <= self.unit_idle_fraction <= 1,
                 "soc.unit_idle_fraction", "a number in [0, 1]", self.unit_idle_fraction)
        _require(_is_number(self.feature_access_fraction)
                 and 0 <= self.feature_access_fraction < 1,
                 "soc.feature_access_fraction", "a number in [0, 1)",
                 self.feature_access_fraction)
        _require(_is_count(self.scratchpad_capacity_bytes) and self.scratchpad_capacity_bytes > 0,
                 "soc.scratchpad_capacity_bytes", "an integer > 0",
                 self.scratchpad_capacity_bytes)
        _require(_is_count(self.scratchpad_banks) and self.scratchpad_banks == SCRATCHPAD_BANKS,
                 "soc.scratchpad_banks", str(SCRATCHPAD_BANKS), self.scratchpad_banks)

    def peak_power_w(self, kind: UnitKind) -> float:
        return getattr(self, _PEAK_POWER_FIELD[kind])

    @property
    def bank_capacity_bytes(self) -> int:
        return self.scratchpad_capacity_bytes // self.scratchpad_banks


@dataclass(frozen=True)
class ComputeUnitSpec:
    id: str
    kind: UnitKind
    peak_power_w: float = 0.0  # 0: the kind's default from SocConfig()

    def __post_init__(self):
        if self.peak_power_w == 0.0:
            object.__setattr__(self, "peak_power_w", SocConfig().peak_power_w(self.kind))
        if self.peak_power_w <= 0:
            raise ConfigError(f"unit {self.id}: peak_power_w must be > 0")


@dataclass(frozen=True)
class PowerCalibration:
    """Calibration knobs for the average-power model.

    unit_idle_fraction: fraction of a unit's peak power drawn while powered
    but idle. baseline_static_w: uncore/system static draw independent of the
    powered unit set.
    """

    baseline_static_w: float = 0.0
    unit_idle_fraction: float = 0.45

    def __post_init__(self):
        if self.baseline_static_w < 0:
            raise ConfigError("baseline_static_w must be >= 0")
        if not (0.0 <= self.unit_idle_fraction <= 1.0):
            raise ConfigError("unit_idle_fraction must be in [0, 1]")


class LatencyTable:
    """(stage, unit kind, memory path) -> stage latency in ms."""

    def __init__(self, entries: dict[tuple[Stage, UnitKind, MemoryPath | None], float]):
        self._entries = dict(entries)

    @classmethod
    def default(cls, soc: SocConfig = SocConfig()) -> "LatencyTable":
        cpu, keep = UnitKind.CPU_CORE, 1.0 - soc.feature_access_fraction
        return cls({
            (Stage.FEATURE_EXTRACTION, cpu, None): soc.feature_extraction_cpu_ms,
            (Stage.FEATURE_EXTRACTION, UnitKind.GPU, None): soc.feature_extraction_gpu_ms,
            (Stage.FEATURE_EXTRACTION, UnitKind.DSP, None): soc.feature_extraction_dsp_ms,
            (Stage.PROPAGATION, cpu, None): soc.propagation_ms,
            (Stage.UPDATE, cpu, MemoryPath.SHARED): soc.update_shared_ms,
            (Stage.MAPPING, cpu, MemoryPath.SHARED): soc.mapping_shared_ms,
            (Stage.UPDATE, cpu, MemoryPath.SCRATCHPAD): soc.update_shared_ms * keep,
            (Stage.MAPPING, cpu, MemoryPath.SCRATCHPAD): soc.mapping_shared_ms * keep,
        })

    def stage_latency_ms(self, stage: Stage, unit: UnitKind,
                         path: MemoryPath | None = None) -> float:
        key = (stage, unit, path)
        if key in self._entries:
            return self._entries[key]
        fallback = (stage, unit, None)
        if fallback in self._entries:
            return self._entries[fallback]
        raise ConfigError(f"no latency configured for stage={stage.value} on {unit.value}"
                          + (f" via {path.value}" if path else ""))


def task_energy_mj(table: LatencyTable, stage: Stage, unit: ComputeUnitSpec | UnitKind,
                   path: MemoryPath | None = None) -> float:
    """Energy of one stage execution: peak power x stage latency. A bare
    UnitKind is priced at its default peak power from SocConfig()."""
    if isinstance(unit, ComputeUnitSpec):
        kind, peak = unit.kind, unit.peak_power_w
    else:
        kind, peak = unit, SocConfig().peak_power_w(unit)
    return peak * table.stage_latency_ms(stage, kind, path)


class PowerLedger:
    """Busy-interval bookkeeping and energy/average-power evaluation.

    Dynamic energy accrues at peak power during recorded busy intervals; idle
    draw and static sources are added at evaluation time so the same ledger
    can be re-evaluated under different calibrations.
    """

    def __init__(self, units: dict[str, ComputeUnitSpec],
                 static_sources_w: dict[str, float] | None = None):
        self.units = dict(units)
        self.static_sources_w = dict(static_sources_w or {})
        # Sorted, disjoint busy intervals per unit, and their exact total.
        self._busy: dict[str, list[tuple[int, int]]] = {u: [] for u in self.units}
        self._busy_total: dict[str, int] = {u: 0 for u in self.units}

    def record_busy(self, unit_id: str, from_ns: int, to_ns: int) -> None:
        if unit_id not in self.units:
            raise LedgerError(f"unknown unit {unit_id!r}")
        if not from_ns < to_ns:
            raise LedgerError(f"busy interval [{from_ns}, {to_ns}) for {unit_id} is empty")
        intervals = self._busy[unit_id]
        if intervals and from_ns < intervals[-1][1]:
            # Out-of-order record: verify against neighbours before inserting.
            probe = (from_ns, to_ns)
            for a, b in intervals:
                if from_ns < b and a < to_ns:
                    raise LedgerError(
                        f"overlapping busy interval for {unit_id}: "
                        f"[{from_ns}, {to_ns}) vs [{a}, {b})")
            insort(intervals, probe)
        else:
            intervals.append((from_ns, to_ns))
        self._busy_total[unit_id] += to_ns - from_ns

    def busy_ns(self, unit_id: str, window: tuple[int, int] | None = None) -> int:
        intervals = self._busy[unit_id]
        if not intervals or window is None or \
                (window[0] <= intervals[0][0] and intervals[-1][1] <= window[1]):
            return self._busy_total[unit_id]  # the window holds every interval
        t0, t1 = window
        total = 0
        for a, b in intervals:
            a, b = max(a, t0), min(b, t1)
            if b > a:
                total += b - a
        return total

    def utilization(self, unit_id: str, window: tuple[int, int]) -> float:
        t0, t1 = window
        if t1 <= t0:
            raise LedgerError("empty window")
        return self.busy_ns(unit_id, window) / (t1 - t0)

    def dynamic_energy_j(self, window: tuple[int, int] | None = None) -> float:
        return self._dynamic_j(self.busy_per_unit(window))

    def idle_energy_j(self, window: tuple[int, int],
                      calibration: PowerCalibration) -> float:
        return self._idle_j(window, calibration, self.busy_per_unit(window))

    def busy_per_unit(self, window: tuple[int, int] | None) -> list[int]:
        """busy_ns of every unit, in unit order."""
        return [self.busy_ns(u, window) for u in self.units]

    def _dynamic_j(self, busy: list[int]) -> float:
        return sum(spec.peak_power_w * b / NS_PER_S
                   for spec, b in zip(self.units.values(), busy))

    def _idle_j(self, window: tuple[int, int], calibration: PowerCalibration,
                busy: list[int]) -> float:
        span = window[1] - window[0]
        total = 0.0
        for spec, b in zip(self.units.values(), busy):
            idle_w = calibration.unit_idle_fraction * spec.peak_power_w
            total += idle_w * (span - b) / NS_PER_S
        return total

    def static_energy_j(self, window: tuple[int, int],
                        calibration: PowerCalibration) -> float:
        span_s = (window[1] - window[0]) / NS_PER_S
        static_w = calibration.baseline_static_w + sum(self.static_sources_w.values())
        return static_w * span_s

    def total_energy_j(self, window: tuple[int, int], calibration: PowerCalibration,
                       busy: list[int] | None = None) -> float:
        """`busy` is busy_per_unit(window), if the caller already has it."""
        if busy is None:
            busy = self.busy_per_unit(window)
        return (self._dynamic_j(busy)
                + self._idle_j(window, calibration, busy)
                + self.static_energy_j(window, calibration))

    def average_power_w(self, window: tuple[int, int],
                        calibration: PowerCalibration) -> float:
        t0, t1 = window
        if t1 <= t0:
            raise LedgerError("average_power over an empty window")
        return self.total_energy_j(window, calibration) / ((t1 - t0) / NS_PER_S)
