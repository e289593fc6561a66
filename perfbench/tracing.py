"""Span tracing from outside the simulator, and the per-layer split.

Spans are recorded at the boundaries of the modules `engine`, `pipeline`,
`kernel`, `bank`, `soc`, `report` and `scenario` by wrapping their public
functions and methods while a traced op runs (`instrument`), and by the op
runner around its own calls into them (`Tracer.call`). The simulator's code
is not changed. Wrappers call the wrapped function with the same arguments,
so a traced run draws the same random numbers as a plain one.

A span is (span id, name id, start ns, end ns, parent span id, op id). Spans
stay in memory until the run ends. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested (one thread),
so the children never overlap. Self times are reported at the nominal host
speed: each span is scaled by the gauge factor of the op's clock interval it
starts in (see workloads.gauge_factors), as the end-to-end times are.
"""

from __future__ import annotations

import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import slamsim.bank as bank
import slamsim.engine as engine
import slamsim.kernel as kernel
import slamsim.pipeline as pipeline
import slamsim.soc as soc
from workloads import gauge_factors, run_op

# Kernel functions `slamsim.pipeline` binds by name at import; they are
# wrapped in that module's namespace, which is where the pipeline looks
# them up.
PIPELINE_BOUND_KERNEL = ("extract_features", "update_pose", "extend_map", "propagate",
                         "sample_imu", "generate_landmarks")
KERNEL_FUNCS = ("visible", "pose_at") + PIPELINE_BOUND_KERNEL
FEATURE_PATH = ("visible", "extract_features", "update_pose", "extend_map")
IMU_PATH = ("propagate", "sample_imu")
BANK_METHODS = ("writable_bank", "begin_fill", "fill_complete", "acknowledge",
                "consumer_done", "all_consumed", "release")
LAYERS = ("engine", "pipeline", "kernel", "bank", "soc", "report", "scenario")

# The layer self times of a traced op must add up to its wall time within
# this share; the rest is the op runner's own loop and timing code.
ACCOUNTING_TOLERANCE = 0.02

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # SPAN_FIELDS, flattened
        self.scale = array("d")  # per span, set by gauge()
        self.next_id = 0
        self.current = -1
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """`fn` wrapped in a span; `observe(args, kwargs, result)` runs after
        the span closes, so its cost lands in the parent's self time."""
        nid = self._name_id(name)
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = self.current
            self.current = sid
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.current = parent
                spans.extend((sid, nid, start, end, parent, self.op))
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span; the op runner's hook for its own calls."""
        return self.wrap(name, fn)(*args, **kwargs)

    def span_table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))

    def gauge(self, intervals) -> None:
        """Scale the spans recorded since the last call by the gauge factor
        of the clock interval (of one gauged op) each span starts in. A
        span's children start in its interval too, so self times scale
        consistently. Spans of an op that failed before its first interval
        keep a factor of 1."""
        starts = self.span_table()[len(self.scale):, 2]
        idx = np.searchsorted([iv.start_ns for iv in intervals], starts, side="right")
        self.scale.extend(np.append(1.0, gauge_factors(intervals))[idx])

    def self_s(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds at the nominal host speed)."""
        t = self.span_table()
        ids, nids, dur, parents = t[:, 0], t[:, 1], t[:, 3] - t[:, 2], t[:, 4]
        child = np.zeros(self.next_id, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = (dur - child[ids]) * np.frombuffer(self.scale) / 1e9
        calls = np.bincount(nids, minlength=len(self.names))
        total = np.bincount(nids, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the simulator's public functions and methods for the duration of
    the block; restores every original on exit."""
    counts = tracer.counts
    cap = kernel.feature_capacity()
    update_sig = inspect.signature(kernel.update_pose)

    def on_visible(args, kwargs, out):
        counts["kernel.visible_landmarks"] += len(out)

    def on_extract(args, kwargs, out):
        counts["kernel.cap_hits"] += len(args[0].visible_landmarks) > cap

    def on_update(args, kwargs, out):
        bound = update_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        matched = out[1]
        counts["kernel.matched"] += matched
        counts["kernel.update_features"] += len(bound.arguments["block"].features)
        counts["kernel.updates_applied"] += matched >= bound.arguments["min_matches"]

    def on_extend(args, kwargs, out):
        counts["kernel.map_inserts"] += out

    def on_propagate(args, kwargs, out):
        counts["kernel.imu_propagated"] += len(args[1])

    def on_task_done(args, kwargs, out):
        if args[0].kind is engine.EventKind.TASK_DONE:
            counts["pipeline.task_done_deliveries"] += 1

    observers = {"visible": on_visible, "extract_features": on_extract,
                 "update_pose": on_update, "extend_map": on_extend,
                 "propagate": on_propagate}

    patches = [(pipeline, fn, f"kernel.{fn}") for fn in PIPELINE_BOUND_KERNEL]
    patches += [(kernel.LandmarkField, "visible", "kernel.visible"),
                (kernel.CircleTrajectory, "pose_at", "kernel.pose_at"),
                (engine.Engine, "run_until", "engine.run_until"),
                (soc.PowerLedger, "record_busy", "soc.record_busy")]
    patches += [(bank.FeatureBankController, m, f"bank.{m}") for m in BANK_METHODS]

    saved = []
    orig_on = engine.Engine.on

    def on(eng, target, handler):
        family = target.split(":")[0]
        observe = on_task_done if family == "exec" else None
        return orig_on(eng, target, tracer.wrap(f"pipeline.{family}", handler, observe))

    try:
        for owner, attr, name in patches:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, observers.get(attr)))
        saved.append((engine.Engine, "on", orig_on))
        engine.Engine.on = on
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def traced_op(workload, sim_seed: int, tracer: Tracer, clock,
              duration_s: float | None = None):
    """One op with spans at every layer boundary, its intervals timed by the
    gauged `clock`; its spans are then scaled by that clock's gauge."""
    try:
        with instrument(tracer):
            return run_op(workload, sim_seed, call=tracer.call, clock=clock,
                          duration_s=duration_s)
    finally:
        tracer.gauge(clock.intervals)


def count_sims(tracer: Tracer, sims: dict, audited: bool) -> None:
    """Counts read from finished simulations through their public state."""
    c = tracer.counts
    for sim in sims.values():
        if audited:
            c["report.audit_records"] += len(sim.trace)
        c["engine.events_delivered"] += sim.engine.delivered_count
        c["engine.events_scheduled"] += sim.engine.scheduled_count
        c["pipeline.tasks_completed"] += sum(len(d) for d in sim.stage_durations_ns.values())
        c["pipeline.trace_records"] += len(sim.trace)
        c["pipeline.frames_offered"] += sim.frames_offered
        c["pipeline.frames_accepted"] += sim.frames_accepted
        c["pipeline.frames_throttled"] += sim.frames_throttled


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, op_walls_s: list, untraced_walls_s: list) -> dict:
    """Per-layer figures, averaged per traced op. Times in seconds at the
    nominal host speed; op walls are the gauged sums of the ops' intervals."""
    ops = len(op_walls_s)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, (n, s) in tracer.self_s().items():
        calls[name] += n
        self_s[name] += s
    layer_s = {layer: sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
               for layer in LAYERS}
    c = tracer.counts
    m = {}

    m["engine.events_delivered"] = c["engine.events_delivered"] / ops
    m["engine.events_scheduled"] = c["engine.events_scheduled"] / ops
    m["engine.self_s"] = layer_s["engine"] / ops
    m["engine.ns_per_event"] = _ratio(layer_s["engine"] * 1e9, c["engine.events_delivered"])

    for family in ("exec", "imu", "frames", "init"):
        m[f"pipeline.{family}.self_s"] = self_s[f"pipeline.{family}"] / ops
    m["pipeline.self_s"] = layer_s["pipeline"] / ops
    deliveries = c["pipeline.task_done_deliveries"]
    m["pipeline.stale_completions"] = (deliveries - c["pipeline.tasks_completed"]) / ops
    m["pipeline.task_done_ratio"] = _ratio(c["pipeline.tasks_completed"], deliveries)
    m["pipeline.trace_records"] = c["pipeline.trace_records"] / ops
    m["pipeline.accept_ratio"] = _ratio(c["pipeline.frames_accepted"],
                                        c["pipeline.frames_offered"])

    for fn in KERNEL_FUNCS:
        m[f"kernel.{fn}.calls"] = calls[f"kernel.{fn}"] / ops
        m[f"kernel.{fn}.self_s"] = self_s[f"kernel.{fn}"] / ops
    m["kernel.self_s"] = layer_s["kernel"] / ops
    m["kernel.feature_path.self_s"] = sum(self_s[f"kernel.{fn}"] for fn in FEATURE_PATH) / ops
    m["kernel.imu_path.self_s"] = sum(self_s[f"kernel.{fn}"] for fn in IMU_PATH) / ops
    m["kernel.visible_per_frame"] = _ratio(c["kernel.visible_landmarks"],
                                           calls["kernel.visible"])
    m["kernel.cap_hit_ratio"] = _ratio(c["kernel.cap_hits"], calls["kernel.extract_features"])
    m["kernel.match_ratio"] = _ratio(c["kernel.matched"], c["kernel.update_features"])
    m["kernel.update_applied_ratio"] = _ratio(c["kernel.updates_applied"],
                                              calls["kernel.update_pose"])
    m["kernel.map_inserts"] = c["kernel.map_inserts"] / ops
    m["kernel.imu_per_propagate"] = _ratio(c["kernel.imu_propagated"],
                                           calls["kernel.propagate"])

    for meth in BANK_METHODS:
        m[f"bank.{meth}.calls"] = calls[f"bank.{meth}"] / ops
        m[f"bank.{meth}.self_s"] = self_s[f"bank.{meth}"] / ops
    m["bank.self_s"] = layer_s["bank"] / ops
    m["bank.throttle_ratio"] = _ratio(c["pipeline.frames_throttled"],
                                      c["pipeline.frames_offered"])

    # The ledger has no public interval count; every record_busy call that
    # returns stores exactly one interval.
    m["soc.record_busy.calls"] = calls["soc.record_busy"] / ops
    m["soc.record_busy.self_s"] = self_s["soc.record_busy"] / ops
    m["soc.ledger_intervals"] = calls["soc.record_busy"] / ops
    m["soc.reprice.self_s"] = self_s["soc.reprice"] / ops
    m["soc.self_s"] = layer_s["soc"] / ops

    m["report.build_report.self_s"] = self_s["report.build_report"] / ops
    m["report.audit_trace.self_s"] = self_s["report.audit_trace"] / ops
    m["report.audit_records"] = c["report.audit_records"] / ops
    m["report.self_s"] = layer_s["report"] / ops

    m["scenario.from_dict.calls"] = calls["scenario.from_dict"] / ops
    m["scenario.from_dict.self_s"] = self_s["scenario.from_dict"] / ops

    wall = sum(op_walls_s)
    m["trace.op_wall_s"] = wall / ops
    m["trace.unattributed_share"] = 1.0 - sum(layer_s.values()) / wall
    m["trace.overhead_ratio"] = float(np.median(
        [t / u for t, u in zip(op_walls_s, untraced_walls_s)]))
    m["trace.spans_per_op"] = len(tracer.span_table()) / ops
    return m
