"""Metrics aggregation, report serialization, comparison tables, and the
offline event-trace protocol audit.

Machine-readable form is line-delimited JSON with sorted keys, so identical
(scenario, seed) pairs produce byte-identical output. Comparison output is
also available as CSV and aligned text.

Report sums add left to right, one value after another, in the order the
run appended them: `engine.sum_left` for short lists, and numpy's `cumsum`
(`add.accumulate`, which adds each value to the running total before it)
for the per-task lists. Never `np.sum`, which adds pairwise, `math.fsum`,
or the built-in `sum`, which compensates from Python 3.12 on: each rounds
differently, and a report's bits would move. The per-task aggregates are
whole-array passes over the run's lists:

- A stage whose tasks all took the same integer time (today every stage
  but the relay, whose copy times are drawn per frame) is summed as n
  copies of its one quotient x = d / NS_PER_MS. Its list's quotients are n
  copies of x, so the left-to-right sum of the copies has their bits
  without reading the list; its p99 is x.
- Any other stage takes its quotients as one array, its p99 the
  `np.partition` element at the nearest-rank index. Dividing by NS_PER_MS
  keeps the order, so that is the quotient of the integer p99. Every
  duration is at most an hour of ns, below 2**53, so numpy's int64 to
  float64 division gives the bits of `d / NS_PER_MS` on the Python int.
- Each sum runs in chunks of _SUM_CHUNK values, each starting from the
  running total, so the temporary stays bounded on hour-long runs.

The protocol audit replays the bank records through one pure step,
`audit_step`: (state, transition, bank, consumer) -> (state', violated
rules). Trace files and other record dicts go through it one record at a
time, with every malformed-input check. A run's `Trace` is audited from its
columns, _AUDIT_CHUNK records at a time: one array comparison finds the
records whose time is below the previous record's, and the step runs only
for the bank records, memoized per (state, kind). No dict or tuple is built
per record, and both ways give the same violations in the same order.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bank import CONSUMERS
from .engine import NS_PER_MS, ms_to_ns, ns_to_ms, ns_to_s, sum_left
from .pipeline import Simulation
from .soc import MIB, Stage
from .trace import KINDS, Trace


# Values per cumsum pass of a report sum (128 KiB of float64).
_SUM_CHUNK = 1 << 14
# Records per pass of the audit of a `Trace`.
_AUDIT_CHUNK = 1 << 16


def _sum_left_chunks(chunks) -> float:
    """`sum_left` of float arrays laid end to end, each overwritten: np.cumsum
    adds one value after another, and each chunk starts from the running
    total, so the bits are those of one loop over every value."""
    total = 0.0
    for chunk in chunks:
        chunk[0] += total
        total = np.cumsum(chunk)[-1]
    return float(total)


def _views(a: np.ndarray):
    return (a[lo:lo + _SUM_CHUNK] for lo in range(0, len(a), _SUM_CHUNK))


def stage_summary(durations_ns: list[int]) -> dict:
    """A stage's mean and p99 in ms over its non-empty list of integer task
    durations: the left-to-right sum of `d / NS_PER_MS` over the count, and
    the nearest-rank 99th percentile (see the module notes)."""
    n = len(durations_ns)
    first = durations_ns[0]
    if durations_ns.count(first) == n:
        ms = first / NS_PER_MS
        total = _sum_left_chunks(np.full(min(_SUM_CHUNK, n - lo), ms)
                                 for lo in range(0, n, _SUM_CHUNK))
        return {"mean": total / n, "p99": ms}
    ms = np.fromiter(durations_ns, np.int64, n) / NS_PER_MS
    k = min(n - 1, max(0, math.ceil(0.99 * n) - 1))
    p99 = float(np.partition(ms, k)[k])
    return {"mean": _sum_left_chunks(_views(ms)) / n, "p99": p99}


def rms(values: list[float]) -> float:
    """The root of the left-to-right sum of squares over the count; 0.0 for
    none."""
    if not values:
        return 0.0
    squares = np.fromiter(values, float, len(values))
    squares *= squares
    return math.sqrt(_sum_left_chunks(_views(squares)) / len(values))


@dataclass
class MetricsReport:
    variant: str
    seed: int
    config_digest: str
    duration_s: float
    warmup_s: float
    offered_camera_fps: int
    achieved_fps: float
    frames_offered: int
    frames_accepted: int
    frames_dropped: int
    throttled_frame_count: int
    imu_samples_processed: int
    stage_latency_ms: dict  # stage -> {"mean": ms, "p99": ms}
    average_power_w: float
    total_energy_j: float
    energy_per_frame_mj: float
    gc_stall_count: int
    gc_stall_total_ms: float
    tracking_loss_count: int
    rms_position_error_m: float
    relay_alloc_mib: float
    relay_alloc_rate_mib_s: float
    relay_busy_ms_per_frame: float
    unit_utilization: dict
    map_size: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def tracking_loss_count(completions_ns: list[int], threshold_ns: int) -> int:
    """Gaps between consecutive update completions longer than the loss
    threshold, the first gap measured from t = 0, over the whole run."""
    gaps = np.diff(np.fromiter(completions_ns, np.int64, len(completions_ns)), prepend=0)
    return int(np.count_nonzero(gaps > threshold_ns))


def build_report(sim: Simulation) -> MetricsReport:
    cfg = sim.config
    duration_ns = sim.duration_ns
    window = (sim.warmup_ns, duration_ns)
    steady_s = ns_to_s(window[1] - window[0])

    # The completions in (warmup, duration], found on the ascending list.
    lo = bisect_right(sim.update_completions, window[0])
    hi = bisect_right(sim.update_completions, window[1])
    achieved_fps = (hi - lo) / steady_s if steady_s > 0 else 0.0

    stage_latency = {stage.value: stage_summary(durs)
                     for stage, durs in sim.stage_durations_ns.items() if durs}

    ledger, full = sim.ledger, (0, duration_ns)
    total_energy = ledger.total_energy_j(full, sim.calibration)

    relay = stage_latency.get(Stage.RELAY.value)
    relay_busy_per_frame = relay["mean"] if relay else 0.0

    gc_total_ms = sum_left(ns_to_ms(b - a) for a, b in sim.gc_stalls)
    frames_for_energy = max(len(sim.update_completions), 1)

    return MetricsReport(
        variant=cfg.variant.value,
        seed=cfg.seed,
        config_digest=cfg.digest(),
        duration_s=cfg.duration_s,
        warmup_s=cfg.warmup_s,
        offered_camera_fps=cfg.camera_fps,
        achieved_fps=achieved_fps,
        frames_offered=sim.frames_offered,
        frames_accepted=sim.frames_accepted,
        frames_dropped=sim.frames_dropped,
        throttled_frame_count=sim.frames_throttled,
        imu_samples_processed=sim.imu_done,
        stage_latency_ms=stage_latency,
        average_power_w=ledger.average_power_w(full, sim.calibration),
        total_energy_j=total_energy,
        energy_per_frame_mj=1000.0 * total_energy / frames_for_energy,
        gc_stall_count=len(sim.gc_stalls),
        gc_stall_total_ms=gc_total_ms,
        tracking_loss_count=tracking_loss_count(sim.update_completions,
                                                ms_to_ns(cfg.loss_threshold_ms)),
        rms_position_error_m=rms(sim.position_errors[lo:hi]),
        relay_alloc_mib=sim.alloc_total_bytes / MIB,
        relay_alloc_rate_mib_s=sim.alloc_total_bytes / MIB / cfg.duration_s,
        relay_busy_ms_per_frame=relay_busy_per_frame,
        unit_utilization={uid: ledger.utilization(uid, full) for uid in ledger.units},
        map_size=len(sim.world_map),
    )


def run_scenario(config) -> tuple[MetricsReport, Simulation]:
    sim = Simulation(config)
    sim.run()
    return build_report(sim), sim


# ---------------------------------------------------------------------------
# report rendering

def report_text(report: MetricsReport) -> str:
    d = report.to_dict()
    lines = [f"scenario: {report.variant} (seed {report.seed}, {report.duration_s:g} s)"]
    for key in sorted(d):
        if key in ("variant", "seed", "duration_s"):
            continue
        value = d[key]
        if isinstance(value, float):
            value = f"{value:.4f}"
        lines.append(f"  {key:28s} {value}")
    return "\n".join(lines) + "\n"


COMPARE_COLUMNS = [
    ("scenario", lambda r: r.variant),
    ("fps", lambda r: f"{r.achieved_fps:.2f}"),
    ("power_w", lambda r: f"{r.average_power_w:.3f}"),
    ("energy_per_frame_mj", lambda r: f"{r.energy_per_frame_mj:.1f}"),
    ("gc_stalls", lambda r: str(r.gc_stall_count)),
    ("losses", lambda r: str(r.tracking_loss_count)),
    ("throttled", lambda r: str(r.throttled_frame_count)),
    ("rms_error_m", lambda r: f"{r.rms_position_error_m:.4f}"),
]


def compare_rows(reports: list[MetricsReport]) -> list[dict]:
    return [{name: fn(r) for name, fn in COMPARE_COLUMNS} for r in reports]


def compare_text(reports: list[MetricsReport]) -> str:
    rows = compare_rows(reports)
    names = [name for name, _ in COMPARE_COLUMNS]
    widths = {n: max([len(n), *(len(row[n]) for row in rows)]) for n in names}
    header = "  ".join(n.ljust(widths[n]) for n in names)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(row[n].ljust(widths[n]) for n in names))
    return "\n".join(lines) + "\n"


def compare_csv(reports: list[MetricsReport]) -> str:
    names = [name for name, _ in COMPARE_COLUMNS]
    out = [",".join(names)]
    for row in compare_rows(reports):
        out.append(",".join(row[n] for n in names))
    return "\n".join(out) + "\n"


def compare_json_lines(reports: list[MetricsReport]) -> str:
    return "".join(r.to_json_line() for r in reports)


# ---------------------------------------------------------------------------
# trace files and protocol audit

def write_trace(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_trace(records, fh)


def dump_trace(records, fh) -> None:
    """Write trace records (a `Trace`, or any iterable of record dicts) to an
    open text file, one JSON object a line."""
    for rec in records:
        fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def load_trace(path) -> list[dict]:
    records = []
    # Read as bytes and decode line by line, so a byte that is not UTF-8 is
    # reported with its line; bytes.splitlines breaks at \n, \r and \r\n,
    # the lines text mode reads.
    with open(path, "rb") as fh:
        data = fh.read()
    for i, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not UTF-8, bad, too deep, or an int too long
            raise ValueError(f"{path}: line {i}: invalid trace record: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: line {i}: trace record is not a JSON object")
        t = rec.get("t_ns")
        if t is not None and (not isinstance(t, int) or isinstance(t, bool)):
            raise ValueError(f"{path}: line {i}: t_ns is not an integer: {t!r}")
        records.append(rec)
    return records


@dataclass
class AuditResult:
    ok: bool
    violations: list = field(default_factory=list)

    def first(self):
        return self.violations[0] if self.violations else None


_EMPTY, _FILLING, _FULL, _LOCKED = "empty", "filling", "full", "locked"


class AuditState(NamedTuple):
    """What the audit knows of the protocol after some records: each bank's
    state, the bank in the fill register, and per bank the consumers still
    to consume its fill and those consuming it now."""
    banks: tuple = (_EMPTY, _EMPTY)
    register: int | None = None
    pending: tuple = (frozenset(), frozenset())
    consuming: tuple = (frozenset(), frozenset())


def _put(pair: tuple, bank: int, value) -> tuple:
    return (value, pair[1]) if bank == 0 else (pair[0], value)


def audit_step(state: AuditState, transition, bank, consumer) -> tuple[AuditState, list]:
    """One bank record replayed against the controller invariants: the state
    after it and the (rule, message) pairs it breaks. Pure, so records of
    one kind from one state always give the same answer.

    Checks: single filler, fills only into empty banks, register coherence,
    lock-before-consume, exactly-once consumption per consumer per fill,
    release only after both consumers, producer/consumer mutual exclusion.
    A record that names no bank 0 or 1, or a consume record that names no
    consumer, is malformed and changes nothing.
    """
    if type(bank) is not int or bank not in (0, 1):
        return state, [("malformed-record", f"{transition} record names no bank 0 or 1: {bank!r}")]
    banks, register, pending, consuming = state
    now = banks[bank]
    out = []
    if transition == "FillStart":
        if now != _EMPTY:
            out.append(("fill-on-empty", f"fill into bank {bank} in state {now}"))
        if _FILLING in banks:
            out.append(("single-filler", "two banks filling simultaneously"))
        if consuming[bank]:
            out.append(("mutual-exclusion", f"fill into bank {bank} while being consumed"))
        banks = _put(banks, bank, _FILLING)
    elif transition == "BankFilled":
        if now != _FILLING:
            out.append(("fill-complete", f"bank {bank} filled from state {now}"))
        banks = _put(banks, bank, _FULL)
    elif transition == "RegisterSet":
        if now != _FULL:
            out.append(("register-coherence", f"register set to non-full bank {bank} ({now})"))
        register = bank
    elif transition == "RegisterCleared":
        register = None
    elif transition == "BankLocked":
        if now != _FULL:
            out.append(("lock-full-only", f"bank {bank} locked from state {now}"))
        if register != bank:
            out.append(("lock-registered-only",
                        f"bank {bank} locked but register holds {register}"))
        banks = _put(banks, bank, _LOCKED)
        pending = _put(pending, bank, frozenset(CONSUMERS))
    elif transition == "ConsumeStart" or transition == "ConsumeDone":
        if consumer not in CONSUMERS:
            return state, [("malformed-record", f"{transition} record names no consumer "
                                                f"{' or '.join(CONSUMERS)}: {consumer!r}")]
        if transition == "ConsumeStart":
            if now != _LOCKED:
                out.append(("consume-locked-only", f"consume of bank {bank} in state {now}"))
            consuming = _put(consuming, bank, consuming[bank] | {consumer})
        else:
            if consumer not in pending[bank]:
                out.append(("exactly-once", f"{consumer} consumed bank {bank} twice"))
            pending = _put(pending, bank, pending[bank] - {consumer})
            consuming = _put(consuming, bank, consuming[bank] - {consumer})
    elif transition == "BankReleased":
        if now != _LOCKED:
            out.append(("release-locked-only", f"release of bank {bank} in state {now}"))
        if pending[bank]:
            out.append(("release-after-consumers",
                        f"release of bank {bank} with pending {sorted(pending[bank])}"))
        banks = _put(banks, bank, _EMPTY)
        pending = _put(pending, bank, frozenset())
    elif transition == "InterruptRaised":
        if now != _FULL:
            out.append(("interrupt-on-full", f"interrupt for bank {bank} in state {now}"))
    return AuditState(banks, register, pending, consuming), out


def audit_trace(records) -> AuditResult:
    """Replay bank-protocol transitions against the controller invariants
    (`audit_step`), and check that time never goes backwards from one record
    to the next. A `Trace` is audited from its columns; any other iterable of
    record dicts, such as a loaded trace file, record by record. Both give the
    same violations, in record order."""
    if isinstance(records, Trace):
        violations = _audit_columns(records)
    else:
        violations = _audit_records(records)
    return AuditResult(ok=not violations, violations=violations)


def _violation(t, rule: str, message: str) -> dict:
    return {"t_ns": t, "rule": rule, "message": message}


def _audit_records(records) -> list:
    violations = []
    state = AuditState()
    last_t = None
    for rec in records:
        t = rec.get("t_ns")
        if last_t is not None and t is not None and t < last_t:
            violations.append(_violation(t, "time-ordered", f"trace goes backwards at t={t}"))
        if t is not None:
            last_t = t
        if rec.get("entity") != "bank":
            continue
        state, broken = audit_step(state, rec.get("transition"), rec.get("bank"),
                                   rec.get("consumer"))
        violations += [_violation(t, rule, message) for rule, message in broken]
    return violations


def _audit_columns(trace: Trace) -> list:
    """The audit of a `Trace` from its columns, holding no object per record.
    In chunks of _AUDIT_CHUNK records, the time check is one array
    comparison of each record's time with the previous record's, and
    `audit_step` meets only the bank records, each (state, kind) once; the
    states are numbered as they appear."""
    is_bank = np.array([kd.entity == "bank" for kd in KINDS], dtype=bool)
    states, numbers = [AuditState()], {AuditState(): 0}
    steps = [[None] * len(KINDS)]  # per state number, per kind: (next number, rules)
    number = 0
    violations = []
    for lo in range(0, len(trace), _AUDIT_CHUNK):
        hi = min(lo + _AUDIT_CHUNK, len(trace))
        # The chunk's times, from the record before it.
        first = max(lo - 1, 0)
        times = np.fromiter(trace.times[first:hi], np.int64, hi - first)
        timed = [(i, _violation(trace.times[i], "time-ordered",
                                f"trace goes backwards at t={trace.times[i]}"))
                 for i in (np.flatnonzero(times[1:] < times[:-1]) + first + 1).tolist()]
        kinds = np.fromiter(trace.kinds[lo:hi], np.intp, hi - lo)
        at = np.flatnonzero(is_bank[kinds])
        stepped = []
        for j, k in enumerate(kinds[at].tolist()):
            hit = steps[number][k]
            if hit is None:
                kd = KINDS[k]
                after, rules = audit_step(states[number], kd.transition,
                                          kd.fields.get("bank"), kd.fields.get("consumer"))
                if after not in numbers:
                    numbers[after] = len(states)
                    states.append(after)
                    steps.append([None] * len(KINDS))
                hit = steps[number][k] = (numbers[after], rules)
            number, rules = hit
            if rules:
                i = lo + int(at[j])
                stepped += [(i, _violation(trace.times[i], rule, message))
                            for rule, message in rules]
        # A record's time violation comes before its protocol violations.
        violations += [v for _, v in heapq.merge(timed, stepped, key=lambda e: e[0])]
    return violations
