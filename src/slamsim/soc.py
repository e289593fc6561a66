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

import functools
import math
import operator
import reprlib
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, NamedTuple

from .bank import BANKS
from .engine import NS_PER_S, sum_left


class ConfigError(ValueError):
    """A scenario/build-time configuration problem."""


class LedgerError(RuntimeError):
    """Inconsistent busy-time bookkeeping (indicates a scheduler bug)."""


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
    if type(value) is float:  # the common case, tested first: most checks run on floats
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The longest run: one simulated hour.
MAX_DURATION_S = 3600.0
# The one bound on every value converted to integer ns or bytes, so that each
# conversion is finite: a latency, pause or threshold of at most the longest
# run in ms, and a heap budget of at most as many MiB (about 3.4 TiB).
MAX_CONVERTED = MAX_DURATION_S * 1000
MIB = 1024 * 1024


class Check(NamedTuple):
    """The range of one config value: `ok(value)` says whether it is in range,
    `expected` describes the range in an error message, and a `unit` (ms or MiB)
    marks a value converted to integer ns or bytes, which is also at most
    MAX_CONVERTED."""

    ok: Callable[[object], bool]
    expected: str
    unit: str | None = None


def spec(default, check: Check):
    """A dataclass field with its default and its Check, which `check_fields` runs."""
    return field(default=default, metadata={"check": check})


def number(lo: float, hi: float | None = None, lo_open: bool = False,
           hi_open: bool = False, unit: str | None = None) -> Check:
    """A finite number above `lo` and, with `hi`, below `hi`; each bound is
    closed unless marked open."""
    above = operator.lt if lo_open else operator.le
    if hi is None:
        return Check(lambda v: _is_number(v) and above(lo, v),
                     f"a finite number {'>' if lo_open else '>='} {lo:g}", unit)
    below = operator.lt if hi_open else operator.le
    return Check(lambda v: _is_number(v) and above(lo, v) and below(v, hi),
                 f"a number in {'(' if lo_open else '['}{lo:g}, {hi:g}"
                 f"{')' if hi_open else ']'}", unit)


def integer(lo: int, hi: int | None = None, note: str = "") -> Check:
    """An integer of at least `lo` and, with `hi`, at most `hi`; `note`
    follows the expected range in a message."""
    if hi is None:
        return Check(lambda v: _is_count(v) and v >= lo, f"an integer >= {lo}{note}")
    return Check(lambda v: _is_count(v) and lo <= v <= hi, f"an integer in [{lo}, {hi}]{note}")


# A rejected value is quoted whole up to this many characters, and shortened
# beyond them, so that a huge value still makes a one-line message.
MAX_QUOTED_CHARS = 200
_QUOTE = reprlib.Repr()
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = MAX_QUOTED_CHARS


def quoted(value) -> str:
    """`repr(value)`, shortened by reprlib when it is over MAX_QUOTED_CHARS;
    an int too long to print is given by its size."""
    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's digit limit
        return f"<int of {value.bit_length()} bits>"
    return text if len(text) <= MAX_QUOTED_CHARS else _QUOTE.repr(value)


def check_value(value, key: str, check: Check) -> None:
    """Raise a ConfigError naming `key` unless `value` passes `check`."""
    if not check.ok(value):
        raise ConfigError(f"{key}: expected {check.expected}, got {quoted(value)}")
    if check.unit and value > MAX_CONVERTED:
        raise ConfigError(f"{key}: expected at most {MAX_CONVERTED:g} {check.unit}, "
                          f"got {value!r}")


@functools.cache
def _checked_fields(cls) -> tuple:
    return tuple((f.name, f.metadata["check"]) for f in fields(cls) if "check" in f.metadata)


def check_fields(obj, prefix: str) -> None:
    """Run the Check of every `spec` field of `obj` in field order; a message
    names the field as `prefix` + its name, e.g. `scenario.soc.propagation_ms`."""
    for name, (ok, expected, unit) in _checked_fields(type(obj)):
        value = getattr(obj, name)
        if not ok(value) or unit and value > MAX_CONVERTED:
            check_value(value, prefix + name, Check(ok, expected, unit))


def _spec_of(cls, name: str):
    """A new field with the default and Check of `cls`'s field `name`."""
    f = cls.__dataclass_fields__[name]
    return spec(f.default, f.metadata["check"])


# A serialized feature block is a header and one record per feature; each
# scratchpad bank must hold a header and one record.
FEATURE_BLOCK_HEADER_BYTES = 96
FEATURE_RECORD_BYTES = 20
MIN_SCRATCHPAD_BYTES = BANKS * (FEATURE_BLOCK_HEADER_BYTES + FEATURE_RECORD_BYTES)

_PEAK_POWER_FIELD = {UnitKind.CPU_CORE: "cpu_peak_power_w",
                     UnitKind.DSP: "dsp_peak_power_w",
                     UnitKind.GPU: "gpu_peak_power_w"}

_POSITIVE, _NON_NEGATIVE = number(0, lo_open=True), number(0)
_POSITIVE_MS = number(0, lo_open=True, unit="ms")


@dataclass(frozen=True)
class SocConfig:
    cpu_peak_power_w: float = spec(2.5, _POSITIVE)
    dsp_peak_power_w: float = spec(1.5, _POSITIVE)
    gpu_peak_power_w: float = spec(2.3, _POSITIVE)
    baseline_static_w: float = spec(0.0, _NON_NEGATIVE)
    unit_idle_fraction: float = spec(0.45, number(0, 1))
    # shared_access_ns and scratchpad_access_ns are accepted but not read by
    # the model; removing a key would change every config digest. A bank,
    # 1/BANKS of the scratchpad, caps the features a frame hands over.
    shared_access_ns: float = spec(100.0, _NON_NEGATIVE)
    scratchpad_capacity_bytes: int = spec(8192, integer(MIN_SCRATCHPAD_BYTES))
    scratchpad_banks: int = spec(BANKS, Check(lambda v: _is_count(v) and v == BANKS,
                                              str(BANKS)))
    scratchpad_access_ns: float = spec(0.4, _NON_NEGATIVE)
    scratchpad_dynamic_w: float = spec(0.15, _NON_NEGATIVE)
    scratchpad_leakage_w: float = spec(0.002, _NON_NEGATIVE)
    io_pin_power_w: float = spec(0.1, _NON_NEGATIVE)
    # Fraction of update/mapping execution time spent on feature memory
    # accesses over the shared path; eliminated by the scratchpad path.
    feature_access_fraction: float = spec(0.2, number(0, 1, hi_open=True))
    feature_extraction_cpu_ms: float = spec(45.0, _POSITIVE_MS)
    feature_extraction_gpu_ms: float = spec(50.0, _POSITIVE_MS)
    feature_extraction_dsp_ms: float = spec(20.0, _POSITIVE_MS)
    propagation_ms: float = spec(2.0, _POSITIVE_MS)
    update_shared_ms: float = spec(30.0, _POSITIVE_MS)
    mapping_shared_ms: float = spec(15.0, _POSITIVE_MS)

    def __post_init__(self):
        check_fields(self, "scenario.soc.")

    def peak_power_w(self, kind: UnitKind) -> float:
        return getattr(self, _PEAK_POWER_FIELD[kind])

    @property
    def calibration(self) -> "PowerCalibration":
        """The average-power calibration this config sets."""
        return PowerCalibration(baseline_static_w=self.baseline_static_w,
                                unit_idle_fraction=self.unit_idle_fraction)

    @property
    def bank_capacity_bytes(self) -> int:
        return self.scratchpad_capacity_bytes // self.scratchpad_banks


@dataclass(frozen=True)
class ComputeUnitSpec:
    id: str
    kind: UnitKind
    peak_power_w: float | None = None  # None: the kind's default from SocConfig()

    def __post_init__(self):
        if self.peak_power_w is None:
            object.__setattr__(self, "peak_power_w", SocConfig().peak_power_w(self.kind))
        check_value(self.peak_power_w, f"unit {self.id}: peak_power_w", _POSITIVE)


@dataclass(frozen=True)
class PowerCalibration:
    """Calibration knobs for the average-power model, with SocConfig's
    defaults and checks.

    unit_idle_fraction: fraction of a unit's peak power drawn while powered
    but idle. baseline_static_w: uncore/system static draw independent of the
    powered unit set.
    """

    baseline_static_w: float = _spec_of(SocConfig, "baseline_static_w")
    unit_idle_fraction: float = _spec_of(SocConfig, "unit_idle_fraction")

    def __post_init__(self):
        check_fields(self, "")


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
    """Busy-time bookkeeping and energy/average-power evaluation.

    Dynamic energy accrues at peak power during recorded busy intervals; idle
    draw and static sources are added at evaluation time so the same ledger
    can be re-evaluated under different calibrations.

    A unit runs one task at a time, so its intervals are booked in time
    order: an interval that starts before the unit's last one ends (an
    overlap or an out-of-order record) is a LedgerError. The ledger keeps
    each unit's running total and the span its intervals cover, so a window
    must cover every interval of the unit, as the whole run `(0, duration)`
    does; a window that cuts busy time is a LedgerError.
    """

    def __init__(self, units: dict[str, ComputeUnitSpec],
                 static_sources_w: dict[str, float] | None = None):
        self.units = dict(units)
        self.static_sources_w = dict(static_sources_w or {})
        # Per unit: the exact busy total, and the first start and last end of
        # its intervals (None before the first).
        self._busy_total: dict[str, int] = {u: 0 for u in self.units}
        self._first_ns: dict[str, int | None] = {u: None for u in self.units}
        self._last_ns: dict[str, int | None] = {u: None for u in self.units}

    def record_busy(self, unit_id: str, from_ns: int, to_ns: int) -> None:
        if unit_id not in self.units:
            raise LedgerError(f"unknown unit {unit_id!r}")
        if not from_ns < to_ns:
            raise LedgerError(f"busy interval [{from_ns}, {to_ns}) for {unit_id} is empty")
        last = self._last_ns[unit_id]
        if last is None:
            self._first_ns[unit_id] = from_ns
        elif from_ns < last:
            raise LedgerError(f"busy interval [{from_ns}, {to_ns}) for {unit_id} "
                              f"starts before the last one ends at {last}")
        self._last_ns[unit_id] = to_ns
        self._busy_total[unit_id] += to_ns - from_ns

    def busy_ns(self, unit_id: str, window: tuple[int, int] | None = None) -> int:
        first, last = self._first_ns[unit_id], self._last_ns[unit_id]
        if window is not None and first is not None and \
                not (window[0] <= first and last <= window[1]):
            raise LedgerError(f"window [{window[0]}, {window[1]}) cuts the busy time of "
                              f"{unit_id} in [{first}, {last})")
        return self._busy_total[unit_id]

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
        return sum_left(spec.peak_power_w * b / NS_PER_S
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
        static_w = calibration.baseline_static_w + sum_left(self.static_sources_w.values())
        return static_w * span_s

    def total_energy_j(self, window: tuple[int, int],
                       calibration: PowerCalibration) -> float:
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
