"""Metrics aggregation, report serialization, comparison tables, and the
offline event-trace protocol audit.

Machine-readable form is line-delimited JSON with sorted keys, so identical
(scenario, seed) pairs produce byte-identical output. Comparison output is
also available as CSV and aligned text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .engine import NS_PER_S, ns_to_ms, ns_to_s
from .pipeline import Simulation
from .soc import Stage

MIB = 1024 * 1024


def _percentile(values, q):
    if not values:
        return 0.0
    xs = sorted(values)
    k = min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))
    return xs[k]


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


def build_report(sim: Simulation) -> MetricsReport:
    cfg = sim.config
    duration_ns = sim.duration_ns
    window = (sim.warmup_ns, duration_ns)
    steady_s = ns_to_s(window[1] - window[0])

    completions = [t for t in sim.update_completions if window[0] < t <= window[1]]
    achieved_fps = len(completions) / steady_s if steady_s > 0 else 0.0

    errors = [e for t, e in sim.error_samples if window[0] < t <= window[1]]
    rms = math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else 0.0

    stage_latency = {}
    for stage, durs in sim.stage_durations_ns.items():
        if not durs:
            continue
        ms = [ns_to_ms(d) for d in durs]
        stage_latency[stage.value] = {
            "mean": sum(ms) / len(ms),
            "p99": _percentile(ms, 0.99),
        }

    full = (0, duration_ns)
    avg_power = sim.ledger.average_power_w(full, sim.calibration)
    total_energy = sim.ledger.total_energy_j(full, sim.calibration)

    relay_ms = [ns_to_ms(d) for d in sim.stage_durations_ns[Stage.RELAY]]
    relay_busy_per_frame = sum(relay_ms) / len(relay_ms) if relay_ms else 0.0

    gc_total_ms = sum(ns_to_ms(b - a) for a, b in sim.gc_stalls)
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
        imu_samples_processed=sim.imu_samples_processed,
        stage_latency_ms=stage_latency,
        average_power_w=avg_power,
        total_energy_j=total_energy,
        energy_per_frame_mj=1000.0 * total_energy / frames_for_energy,
        gc_stall_count=len(sim.gc_stalls),
        gc_stall_total_ms=gc_total_ms,
        tracking_loss_count=sim.stall_tracker.loss_count,
        rms_position_error_m=rms,
        relay_alloc_mib=sim.alloc_total_bytes / MIB,
        relay_alloc_rate_mib_s=sim.alloc_total_bytes / MIB / cfg.duration_s,
        relay_busy_ms_per_frame=relay_busy_per_frame,
        unit_utilization={uid: sim.ledger.utilization(uid, full) for uid in sim.units},
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
    widths = {n: max(len(n), *(len(row[n]) for row in rows)) for n in names}
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

def write_trace(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def load_trace(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
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


def audit_trace(records: list[dict]) -> AuditResult:
    """Replay bank-protocol transitions against the controller invariants.

    Checks: single filler, fills only into empty banks, register coherence,
    lock-before-consume, exactly-once consumption per consumer per fill,
    release only after both consumers, producer/consumer mutual exclusion.
    """
    EMPTY, FILLING, FULL, LOCKED = "empty", "filling", "full", "locked"
    state = {0: EMPTY, 1: EMPTY}
    register = None
    consumers_pending: dict[int, set] = {}
    consuming: dict[int, set] = {0: set(), 1: set()}
    violations = []
    last_t = None

    def violate(rec, rule, msg):
        violations.append({"t_ns": rec.get("t_ns"), "rule": rule, "message": msg})

    for rec in records:
        t = rec.get("t_ns")
        if last_t is not None and t is not None and t < last_t:
            violate(rec, "time-ordered", f"trace goes backwards at t={t}")
        if t is not None:
            last_t = t
        if rec.get("entity") != "bank":
            continue
        tr = rec.get("transition")
        bank = rec.get("bank")
        if bank not in state:
            violate(rec, "malformed-record", f"{tr} record names no bank 0 or 1: {bank!r}")
            continue
        if tr == "FillStart":
            if state[bank] != EMPTY:
                violate(rec, "fill-on-empty", f"fill into bank {bank} in state {state[bank]}")
            if FILLING in state.values():
                violate(rec, "single-filler", "two banks filling simultaneously")
            if consuming[bank]:
                violate(rec, "mutual-exclusion", f"fill into bank {bank} while being consumed")
            state[bank] = FILLING
        elif tr == "BankFilled":
            if state[bank] != FILLING:
                violate(rec, "fill-complete", f"bank {bank} filled from state {state[bank]}")
            state[bank] = FULL
        elif tr == "RegisterSet":
            if state[bank] != FULL:
                violate(rec, "register-coherence",
                        f"register set to non-full bank {bank} ({state[bank]})")
            register = bank
        elif tr == "RegisterCleared":
            register = None
        elif tr == "BankLocked":
            if state[bank] != FULL:
                violate(rec, "lock-full-only", f"bank {bank} locked from state {state[bank]}")
            if register != bank:
                violate(rec, "lock-registered-only",
                        f"bank {bank} locked but register holds {register}")
            state[bank] = LOCKED
            consumers_pending[bank] = {"update", "mapping"}
        elif tr == "ConsumeStart":
            if state[bank] != LOCKED:
                violate(rec, "consume-locked-only",
                        f"consume of bank {bank} in state {state[bank]}")
            consuming[bank].add(rec.get("consumer"))
        elif tr == "ConsumeDone":
            consumer = rec.get("consumer")
            pending = consumers_pending.get(bank, set())
            if consumer not in pending:
                violate(rec, "exactly-once", f"{consumer} consumed bank {bank} twice")
            pending.discard(consumer)
            consuming[bank].discard(consumer)
        elif tr == "BankReleased":
            if state[bank] != LOCKED:
                violate(rec, "release-locked-only",
                        f"release of bank {bank} in state {state[bank]}")
            if consumers_pending.get(bank):
                violate(rec, "release-after-consumers",
                        f"release of bank {bank} with pending {sorted(consumers_pending[bank])}")
            state[bank] = EMPTY
            consumers_pending.pop(bank, None)
        elif tr == "InterruptRaised":
            if state[bank] != FULL:
                violate(rec, "interrupt-on-full",
                        f"interrupt for bank {bank} in state {state[bank]}")
    return AuditResult(ok=not violations, violations=violations)
