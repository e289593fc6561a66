"""Workload definitions and the op runner shared by the timed and traced runs.

An op is one unit of user-visible work: wire the op's simulation(s) from
generated scenario dicts, run them in fixed simulated-time slices, then do
the post-run work a user of the workload does (report, audit, re-pricing).
The simulator only ever sees dicts passed through `ScenarioConfig.from_dict`.

Importing this module requires `slamsim` to be importable; the entry points
(`run.py`, `record_digests.py`, `test_selfcheck.py`) put the checkout's
`src/` on `sys.path` first.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from slamsim.pipeline import Simulation
from slamsim.report import audit_trace, build_report
from slamsim.scenario import ScenarioConfig
from slamsim.soc import PowerCalibration

# Host time is sampled once per simulated-time slice. 0.25 sim-s gives at
# least 120 slices per simulation (the shortest runs are 30 sim-s), so the
# p90 of a single op already has more than ten samples beyond it.
SLICE_NS = 250_000_000

# Simulation seeds whose report digests are recorded in digests.json. Any
# --seed draws its ops from BENCH_POOL; HELD_OUT_SEED draws them from
# HELD_OUT_POOL instead, which no bound-setting run has used. Keep it for
# checking a gain claim on inputs the change was not tuned on.
BENCH_POOL = tuple(range(1, 17))
HELD_OUT_POOL = (1001, 1002, 1003, 1004)
HELD_OUT_SEED = 9973

# Re-pricing as acceptance criterion 5 does it: random calibrations drawn
# from the same ranges, applied to the finished ledgers.
REPRICE_CALIBRATIONS = 20


def _presets(seed: int) -> dict:
    # The three calibrated presets at their defaults (see slamsim.scenario.preset).
    return {
        "baseline-cpu": {"variant": "baseline-cpu", "camera_fps": 30,
                         "duration_s": 30.0, "seed": seed},
        "hetero-dsp": {"variant": "hetero-dsp", "camera_fps": 30,
                       "duration_s": 60.0, "seed": seed},
        "slam-arch": {"variant": "slam-arch", "camera_fps": 50,
                      "duration_s": 30.0, "seed": seed},
    }


def _dense_map(seed: int) -> dict:
    return {"dense-map": {"variant": "slam-arch", "camera_fps": 50, "imu_rate_hz": 200,
                          "duration_s": 30.0, "seed": seed,
                          "kernel": {"landmark_count": 4000}}}


def _imu_storm(seed: int) -> dict:
    return {"imu-storm": {"variant": "hetero-dsp", "camera_fps": 30, "imu_rate_hz": 1000,
                          "duration_s": 60.0, "seed": seed,
                          "kernel": {"landmark_count": 40}}}


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: object  # sim seed -> {label: scenario dict}
    # Post-run work beyond build_report: audit every trace and re-price
    # every ledger, as `slamsim compare` users and the acceptance gate do.
    audits: bool

    def scenario_dicts(self, sim_seed: int, duration_s: float | None = None) -> dict:
        dicts = self.scenarios(sim_seed)
        if duration_s is not None:
            dicts = {label: {**d, "duration_s": duration_s} for label, d in dicts.items()}
        return dicts


# Why each workload exists, with its measured layer shares: README.md.
WORKLOADS = {w.name: w for w in (
    Workload("paper-presets", _presets, audits=True),
    Workload("dense-map", _dense_map, audits=False),
    Workload("imu-storm", _imu_storm, audits=False),
)}


def op_seeds(bench_seed: int) -> list[int]:
    """Simulation seeds of a run's ops for --seed `bench_seed`: the pool in
    an order fixed by the seed. A run cycles through them."""
    pool = list(HELD_OUT_POOL if bench_seed == HELD_OUT_SEED else BENCH_POOL)
    random.Random(bench_seed).shuffle(pool)
    return pool


def direct(_name, fn, *args, **kwargs):
    """Untraced stand-in for `Tracer.call`."""
    return fn(*args, **kwargs)


REFERENCE_ITERS = 6000
_REFERENCE_VEC = np.ones(4)
# The host's speed drifts by up to 2x over seconds on a shared machine (other
# tenants on the same cores), which no run length averages away. A gauged
# Clock therefore runs reference_loop before every interval, and host times
# are rescaled to the speed at which that loop takes REFERENCE_NOMINAL_S,
# using the median loop time over the GAUGE_WINDOW intervals around each one.
# 0.85 ms is the loop's time in the fast state of the 2-vCPU Xeon host the
# bounds were set on. A window of 5 gave the lowest run-to-run spread of 1,
# 3, 5, 9 and 21 on six recorded runs per workload.
REFERENCE_NOMINAL_S = 0.00085
GAUGE_WINDOW = 5


def reference_loop() -> int:
    """Fixed interpreter and small-array numpy work, about 1 ms, the same mix
    the simulator runs. Its time gauges how fast the host runs right now."""
    a, s = _REFERENCE_VEC, 0
    for i in range(REFERENCE_ITERS):
        s += i * i
        if not i % 20:
            a = a * 1.0000001 + 1e-9
    return s


@dataclass
class Interval:
    kind: str  # "setup", "slice" or "postrun"
    host_s: float
    reference_s: float  # reference_loop time just before, or 0.0 if not gauged
    start_ns: int  # perf_counter_ns() when the interval began
    sim_s: float = 0.0
    group: int = 0  # the pieces of one post-run pass share a group


class Clock:
    """Times the intervals of ops. With `gauge`, runs the reference loop
    before every interval, so each host time can be set against the host's
    speed at that moment. Long work is timed in pieces of tens of ms (slices,
    single post-run calls) because the host's speed changes within a second."""

    def __init__(self, gauge: bool = False):
        self.gauge = gauge
        self.intervals: list[Interval] = []
        self.group = 0

    def time(self, kind: str, sim_s: float, fn, *args):
        ref = 0.0
        if self.gauge:
            t = perf_counter()
            reference_loop()
            ref = perf_counter() - t
        start = perf_counter_ns()
        out = fn(*args)
        self.intervals.append(Interval(kind, (perf_counter_ns() - start) / 1e9, ref, start,
                                       sim_s, self.group))
        return out


def gauge_factors(intervals) -> list[float]:
    """Per interval of a gauged Clock: REFERENCE_NOMINAL_S over the median
    reference-loop time of the GAUGE_WINDOW intervals around it. A host time
    times its factor is the time at the nominal host speed."""
    refs = [iv.reference_s for iv in intervals]
    half = GAUGE_WINDOW // 2
    return [REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i in range(len(refs))]


def nominal_host_s(intervals) -> list[float]:
    """Each interval's host time at the nominal host speed."""
    return [iv.host_s * f for iv, f in zip(intervals, gauge_factors(intervals))]


@dataclass
class OpResult:
    sim_seed: int
    digests: dict = field(default_factory=dict)
    audit_ok: bool = True
    sims: dict = field(default_factory=dict)


def setup(workload: Workload, sim_seed: int, call=direct,
          duration_s: float | None = None) -> dict:
    """Scenario dicts -> wired simulations, keyed by label."""
    sims = {}
    for label, scenario in workload.scenario_dicts(sim_seed, duration_s).items():
        config = call("scenario.from_dict", ScenarioConfig.from_dict, scenario)
        sims[label] = call("pipeline.init", Simulation, config)
    return sims


def calibrations(sim_seed: int) -> list:
    rng = np.random.default_rng(sim_seed)
    return [PowerCalibration(baseline_static_w=float(rng.uniform(0.0, 2.0)),
                             unit_idle_fraction=float(rng.uniform(0.05, 0.95)))
            for _ in range(REPRICE_CALIBRATIONS)]


def price(sims: dict, cal: PowerCalibration) -> list:
    """Average power of every simulation under one calibration."""
    return [sim.ledger.average_power_w((0, sim.duration_ns), cal) for sim in sims.values()]


def reprice(sims: dict, cals: list) -> list:
    return [price(sims, cal) for cal in cals]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def postrun(workload: Workload, sims: dict, sim_seed: int, call=direct,
            clock: Clock | None = None):
    """The work a user does on finished simulations: reports, and for
    auditing workloads the trace audits and the re-priced ledgers. Each call
    is one interval of `clock`, in a new group."""
    clock = clock or Clock()
    clock.group += 1

    def timed(name, fn, *args):
        return clock.time("postrun", 0.0, call, name, fn, *args)

    reports = {label: timed("report.build_report", build_report, sim)
               for label, sim in sims.items()}
    audits, prices = [], None
    if workload.audits:
        audits = [timed("report.audit_trace", audit_trace, sim.trace) for sim in sims.values()]
        prices = [timed("soc.reprice", price, sims, cal) for cal in calibrations(sim_seed)]
    return reports, audits, prices


def run_op(workload: Workload, sim_seed: int, call=direct, clock: Clock | None = None,
           duration_s: float | None = None) -> OpResult:
    """One op: setup, the runs in SLICE_NS slices, then the post-run work.
    Pass `Tracer.call` as `call` to record call-site spans, and a Clock to
    keep the host time of every interval."""
    clock = clock or Clock()
    res = OpResult(sim_seed)
    res.sims = clock.time("setup", 0.0, setup, workload, sim_seed, call, duration_s)
    for sim in res.sims.values():
        end = SLICE_NS
        while end < sim.duration_ns:
            clock.time("slice", SLICE_NS / 1e9, sim.engine.run_until, end)
            end += SLICE_NS
        last_s = (sim.duration_ns - end + SLICE_NS) / 1e9
        clock.time("slice", last_s, call, "pipeline.run", sim.run)

    reports, audits, prices = postrun(workload, res.sims, sim_seed, call, clock)
    res.audit_ok = all(a.ok for a in audits)
    res.digests = {label: sha256(r.to_json_line()) for label, r in reports.items()}
    if prices is not None:
        res.digests["reprice"] = sha256(json.dumps(prices))
    return res
