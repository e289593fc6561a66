"""The simulated SLAM execution fabric.

All "threads" here are simulated entities inside the single-threaded event
engine; the protocol's concurrency is modeled, not executed. A variant is one
`VariantSpec` entry in `scenario.VARIANTS`: its compute units, the unit each
stage runs on, an ingest policy and a handoff. Ingest policies:

* drop-if-busy: a frame arriving while feature extraction is busy is dropped
  (the source outruns the pipeline).
* cpu-relay: a CPU relay core copies each frame into memory (1-3 ms, 3 MiB
  allocation) before feature extraction. Crossing an allocation budget
  triggers a garbage-collection pause that freezes every CPU thread;
  in-flight DSP work completes but its results wait. Frames arriving during
  the pause are dropped.
* sensor-pin: the extraction unit reads frames straight from the sensor
  pins. When the pipeline cannot take a frame the source is throttled (the
  frame is dropped and counted).

Handoffs from feature extraction to update and mapping:

* shared: through shared memory; propagation runs on a unit of its own
  (the variant table refuses any other mapping), an IMU sample that arrives
  while that unit is idle starts propagation, and each propagation task
  takes every sample delivered and not yet taken.
* two-bank: features are written into a two-bank scratchpad and the CPU is
  notified through the bank-swap interrupt protocol; IMU samples buffer
  while mapping runs and are consumed in one batch afterward.

The IMU is a lazy source (`Engine.start_source`): a sample has no event of
its own, and propagation takes the samples (taken, delivered] as one batch,
held as the index of its last sample: a batch starts where the previous one
ended. Sample k, at t_k = k * NS_PER_S // imu_rate_hz, counts as delivered
before an event E if

* t_k < E.at, or
* t_k == E.at and sample k-1 already counted as delivered when E was
  scheduled.

Sample 0 counts as delivered when the sources are wired, after the first
frame is scheduled. This is the (at, seq) order a chain of one event per
sample would have, each event scheduled by its predecessor's handler: at a
1 kHz rate a 2 ms task that starts on a sample time also ends on one, so
whether the coincident sample joins the batch taken at that instant is the
common case.

Under the shared handoff the propagation unit (cpu1 of baseline-cpu and
hetero-dsp) is a `PropagationServer`, the engine's lazy server
(`Engine.start_server`). Its chain of fixed-length tasks is deterministic
between synchronization points, so neither a task's completion nor the
sample that wakes the idle unit has an engine event.
Before the first event ordered after them, and at the end of each
`run_until`, the engine settles all of them in one loop, each at the exact
(at, seq) position its event would have had, and calls `_serve` for each
with the last sample delivered before it. `_serve` is one straight-line
step. A settled completion does what the completion event did: it appends
the stage duration and writes the unit's `TaskDone` record, as `UnitExecutor`
does, and hands its batch to `_apply_propagation`. Then the
step takes the samples delivered and not yet taken, in place on the
`imu_taken` int, as the next batch, which starts at once. It returns the
next action to the engine: the new task's completion time; with no sample
to take, the next sample's arrival (`NEXT_SAMPLE`); with a batch taken
while a GC freeze holds the unit, none, and the batch starts when the
freeze ends. A GC freeze suspends the running task and pushes its
completion out. Back-to-back tasks are booked as one busy interval, in the
step that leaves the unit idle, which leaves every ledger total as it was.

Every other unit is a `UnitExecutor`, whose tasks are `_Task` tuples in a
FIFO queue. `submit` queues a task and, if none runs, `try_start` starts
the head of the queue: it sets the busy segment, calls the task's
`on_start` hook and schedules its `TASK_DONE` event. The event's handler
books the busy segment, appends the stage duration, writes the `TaskDone`
record, calls `on_done` and starts the next queued task; a completion that
a GC freeze moved later is stale and does nothing. Both hooks get the
task's payload. Under the two-bank handoff propagation runs on one of these
executors (cpu0 of slam-arch, beside mapping), and the drain after mapping
takes the delivered samples as one batch. On either kind of unit each
completed batch goes to `_apply_propagation`, which only advances
`imu_done`; a test oracle that integrates batches as they complete
overrides it.

The timing skeleton (the executors, the handoff handlers and the relay)
reaches the functional kernel through five `Simulation` methods, the
seams: `_make_frame` (an accepted frame), `_extract_features` (a completed
extraction's feature block), `_integrate_pending` (the estimate brought up
to `imu_done`, on a read of `est_pose`), `_apply_update` and
`_apply_mapping`. It passes what they return on to later tasks as opaque
payloads (task payloads, bank contents) and reads no kernel state, so the
kernel moves no trace record and no report field but `map_size` and
`rms_position_error_m`. `tests/test_pipeline.py` checks this both ways: with
the seams replaced by no-ops, and on the bytecode of every other method.

The trace records go to `sim.trace`, a `trace.Trace` of columns. Each
writer appends the time and a record kind resolved once per process; frame
records add the frame id. The frame, GC and ConsumeStart kinds are module
constants, and a unit's TaskDone kinds are made on its first use and cached
(`_task_done_kinds`). The bank controller keeps its `(transition, detail)`
callback, `_on_bank`, which interns the kind of a transition and detail on
its first record and looks it up after that.

The estimate is integrated when it is read, not when a propagation task
completes. A completion (`_apply_propagation`) only advances `imu_done`; at
the start of each update and whenever `est_pose` is read, one `integrate`
call takes the rows of the samples (imu_integrated, imu_done], so
`sim.est_pose` is exact at any time, also between `run_until` slices. Rows
come in blocks of IMU_BLOCK, drawn in order from the private "imu" stream as
integration reaches them, and pair each sample with the one before it
(sample 1 takes the rectangle rule). This gives the bits of calling
`propagate` on each batch as it completes, chained to the previous batch's
last sample: only an update changes the pose between two reads, and every
interval meets the same endpoints either way.

Camera frames take their visible landmarks from blocks in the same way.
Frame k arrives at k * NS_PER_S // camera_fps. The first accepted frame of a
block of FRAME_BLOCK frame indices classifies the landmarks once for the
true poses of all the block's frames (`VisibilityBlock`), given as the
positions and headings `CircleTrajectory.positions_and_headings` computes
for all of them at once, and each accepted frame then takes its ids from
the block with the exact test on the block's edge landmarks
(`VisibilityBlock.visible`); a dropped or throttled frame asks for nothing,
and no frame's ids are kept past its own frame. The block measures its
landmarks from its middle frame's pose; a block whose first and last poses
are not compact around it (`is_compact`; a fast trajectory) is not made, and
its accepted frames call `visible` one by one. Visibility draws no random
number and reads only the trajectory, so the ids are those of a per-frame
`visible` call, whatever the block size and wherever a run is cut.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, partial
from itertools import count
from typing import Any, Callable, NamedTuple

import numpy as np

from .bank import BANKS, CONSUMERS, FeatureBankController, MAPPING_CONSUMER, UPDATE_CONSUMER
from .engine import NEXT_SAMPLE, NS_PER_S, Engine, EventKind, ms_to_ns, s_to_ns
from .kernel import (CameraFrame, ImuModel, CircleTrajectory, LandmarkField, VisibilityBlock,
                     WorldMap, draw_imu, extend_map, extract_features, generate_landmarks,
                     imu_rows, integrate, is_compact, update_pose, _norm)
# Unused here, but perfbench/tracing.py wraps `pipeline.propagate` and
# `pipeline.sample_imu` by name.
from .kernel import propagate, sample_imu  # noqa: F401
from .scenario import VARIANTS, Handoff, Ingest, ScenarioConfig
from .soc import MIB, ComputeUnitSpec, LatencyTable, PowerLedger, Stage, UnitKind
from .trace import FRAME, Trace, kind

# IMU samples are made in blocks of this many consecutive sample indices, one
# kernel call per block. Block k covers indices k*IMU_BLOCK+1 .. (k+1)*IMU_BLOCK,
# so the blocks, and with them the draws, do not depend on how a run is sliced.
# The rows are bit-identical for every block size; a larger block pays the
# fixed per-block numpy cost less often, but draws more samples at once, in
# the one update that reaches them, which makes that update's host time spike.
IMU_BLOCK = 256
# Camera frames' visible landmarks are computed the same way, one landmark
# classification per block of FRAME_BLOCK consecutive frame indices: block j
# covers frames j*FRAME_BLOCK+1 .. (j+1)*FRAME_BLOCK. The ids are
# bit-identical for every block size; a larger block spreads the
# classification over more frames, but its poses spread further, which
# leaves more landmarks to the exact test of each frame.
FRAME_BLOCK = 32

# The kinds of the records the simulation writes (`trace.kind`), resolved
# once per process; each writer appends its kind id and the time.
_FRAME_ACCEPTED = kind("pipeline", "FrameAccepted", frame=FRAME)
_FRAME_THROTTLED = kind("pipeline", "FrameThrottled", frame=FRAME)
_FRAME_DROPPED = {reason: kind("pipeline", "FrameDropped", frame=FRAME, reason=reason)
                  for reason in ("ingest_busy", "gc_frozen")}
_GC_START = kind("runtime", "GcStart")
_GC_END = kind("runtime", "GcEnd")
# The bank controller's records, keyed by its callback's transition and the
# values of its detail dict; `_on_bank` interns each on its first record.
_BANK_KINDS: dict[tuple, int] = {}
# A consumer's ConsumeStart kind per bank.
_CONSUME_START = {consumer: tuple(kind("bank", "ConsumeStart", bank=bank, consumer=consumer)
                                  for bank in range(BANKS))
                  for consumer in CONSUMERS}


@lru_cache(maxsize=None)
def _task_done_kinds(unit_id: str) -> dict:
    """Stage -> the kind of a unit's TaskDone record of that stage; shared,
    never mutated."""
    return {stage: kind(unit_id, "TaskDone", stage=stage.value) for stage in Stage}


class _Task(NamedTuple):
    """One task of a `UnitExecutor`: its stage, its length in ns, its payload,
    and the hooks called with the payload when it ends and when it starts.
    The executor passes the payload on without reading it."""
    stage: Stage
    duration_ns: int
    payload: Any
    on_done: Callable
    on_start: Callable | None = None


class _Unit:
    """What every compute unit keeps of its running task (`task`, None while
    none runs): the start of its busy time not yet booked, `seg_start_ns`,
    and its completion time, `end_ns`, pushed out by GC freezes. Busy time is
    booked in the ledger when it ends: at a freeze, at a completion (for the
    server, only when the unit goes idle) and at the end of the run. The
    unit runs one task at a time, so what it books reaches the ledger in
    time order, as the ledger requires, and the whole run `(0, duration)`
    covers all of it. The end of the run books a task still in flight only
    up to the end and keeps it, so `engine.run_until` past the end completes
    it as if the run had not stopped. A report taken after that raises
    `LedgerError`: its window `(0, duration)` cuts the task's busy time."""

    def __init__(self, sim: "Simulation", unit_id: str):
        self.sim = sim
        self.unit_id = unit_id
        self.task = None
        self.seg_start_ns = 0
        self.end_ns = 0

    def _due_at(self, end_ns: int) -> None:
        """Have the running task complete at `end_ns`."""
        raise NotImplementedError

    def _book(self, end_ns: int) -> None:
        """Book the busy time not yet booked, if it has any length, up to `end_ns`."""
        if self.seg_start_ns < end_ns:
            self.sim.ledger.record_busy(self.unit_id, self.seg_start_ns, end_ns)

    def freeze_running(self, resume_at_ns: int) -> None:
        """Suspend the running task for a GC pause; completion is pushed out
        and the frozen span is excluded from busy time."""
        if self.task is None:
            return
        now = self.sim.engine.now()
        self._book(now)
        self.seg_start_ns = resume_at_ns
        self.end_ns += resume_at_ns - now
        self._due_at(self.end_ns)

    def finalize(self, end_ns: int) -> None:
        """Book the busy time of a task still in flight when the run ends, up
        to the end; the task runs on if the engine does."""
        if self.task is not None:
            stop = min(self.end_ns, end_ns)
            self._book(stop)
            self.seg_start_ns = max(self.seg_start_ns, stop)


class UnitExecutor(_Unit):
    """FIFO task execution on one compute unit, with optional freezing by
    garbage-collection pauses (running task suspends, queued tasks wait).
    Each completion is an engine event."""

    def __init__(self, sim: "Simulation", unit_id: str):
        super().__init__(sim, unit_id)
        self.queue: deque[_Task] = deque()
        self.target = f"exec:{unit_id}"
        self.done_kinds = _task_done_kinds(unit_id)
        sim.engine.on(self.target, self._on_task_done)

    def idle(self) -> bool:
        return self.task is None and not self.queue

    def submit(self, task: _Task) -> None:
        self.queue.append(task)
        if self.task is None:
            self.try_start()

    def try_start(self) -> None:
        """Start the task at the head of the queue, unless a task runs, none
        waits or a GC pause freezes the unit (it is kicked again at GC end)."""
        queue = self.queue
        if self.task is not None or not queue:
            return
        sim = self.sim
        engine = sim.engine
        now = engine.now()
        if now < sim.frozen_until_ns:
            return
        self.task = task = queue.popleft()
        self.seg_start_ns = now
        self.end_ns = end = now + task.duration_ns
        if task.on_start is not None:
            task.on_start(task.payload)
        engine.schedule(end, self.target, EventKind.TASK_DONE)

    def _due_at(self, end_ns: int) -> None:
        self.sim.engine.schedule(end_ns, self.target, EventKind.TASK_DONE)

    def _on_task_done(self, ev) -> None:
        """The running task completes, unless a freeze moved its end later (a
        stale completion): book its busy time, append its duration, write
        its `TaskDone` record, call its `on_done` and start the next task."""
        task = self.task
        now = ev.at
        if task is None or now != self.end_ns:
            return
        sim = self.sim
        if self.seg_start_ns < now:
            sim.ledger.record_busy(self.unit_id, self.seg_start_ns, now)
        stage = task.stage
        sim.stage_durations_ns[stage].append(task.duration_ns)
        sim.trace.add(now, self.done_kinds[stage])
        self.task = None
        task.on_done(task.payload)
        if self.queue:
            self.try_start()


class PropagationServer(_Unit):
    """The propagation unit of the shared handoff, as the engine's lazy
    server (see the module notes): its tasks take no engine event. The
    running task is its batch of samples, the index of its last sample;
    `waiting` is a batch taken during a GC freeze, started when the freeze
    ends. Back-to-back tasks are booked as one busy interval."""

    def __init__(self, sim: "Simulation", unit_id: str):
        super().__init__(sim, unit_id)
        self.duration_ns = sim.stage_ns[Stage.PROPAGATION]
        self.durations = sim.stage_durations_ns[Stage.PROPAGATION]
        self.done_kind = _task_done_kinds(unit_id)[Stage.PROPAGATION]
        self.waiting = None

    def _due_at(self, end_ns: int) -> None:
        self.sim.engine.serve_at(end_ns)

    def try_start(self) -> None:
        """Start the waiting batch, unless a GC pause still freezes the unit."""
        now = self.sim.engine.now()
        if self.waiting is None or now < self.sim.frozen_until_ns:
            return
        self.seg_start_ns = now
        self.task, self.waiting = self.waiting, None
        self.end_ns = now + self.duration_ns
        self._due_at(self.end_ns)

    def _serve(self, now: int, delivered: int):
        """The engine settles the running task's completion, or the arrival of
        the sample an idle server waits for: either way the samples (taken,
        delivered] make the next batch. Returns the next action (see
        `Engine.start_server`)."""
        sim = self.sim
        done = self.task
        if done is not None:
            # What `UnitExecutor._on_task_done` does on a completion.
            self.durations.append(self.duration_ns)
            sim.trace.add(now, self.done_kind)
            sim._apply_propagation(done)
        # Take the samples (imu_taken, delivered] as the next batch.
        if sim.imu_taken < delivered:
            sim.imu_taken = delivered
            if now >= sim.frozen_until_ns:
                if done is None:
                    self.seg_start_ns = now
                self.task = delivered
                self.end_ns = end = now + self.duration_ns
                return end
            self.waiting = delivered
            action = None
        else:
            action = NEXT_SAMPLE
        self.task = None
        # The unit goes idle: book the busy run that ends here.
        if done is not None and self.seg_start_ns < now:
            sim.ledger.record_busy(self.unit_id, self.seg_start_ns, now)
        return action


class Simulation:
    """A fully wired simulation of one scenario; run() drives the event loop
    to the configured duration and leaves raw results on the instance."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.spec = VARIANTS[config.variant]
        self.engine = Engine(config.seed)
        self.calibration = config.soc.calibration
        self.duration_ns = s_to_ns(config.duration_s)
        self.warmup_ns = s_to_ns(config.warmup_s)
        self.frozen_until_ns = 0

        # kernel state
        k = config.kernel
        self.truth = CircleTrajectory(k.trajectory_radius_m, k.trajectory_period_s)
        self.imu_model = ImuModel(
            accel_bias=k.accel_bias, gyro_bias=k.gyro_bias,
            accel_noise_std=k.accel_noise_std, gyro_noise_std=k.gyro_noise_std,
            rate_hz=config.imu_rate_hz)
        self.field = LandmarkField(
            generate_landmarks(k.landmark_count, self.engine.stream("landmarks")))
        self.world_map = WorldMap(k.landmark_count)
        self._est_pose = self.truth.pose_at(0)  # integrated up to imu_integrated
        self.imu_taken = 0  # last sample taken into a propagation batch
        self.imu_done = 0  # last sample whose propagation completed
        self.imu_integrated = 0  # last sample integrated into the estimate
        self.imu_blocks = self._imu_row_blocks()
        self.imu_rows: list = []  # rows of the samples drawn after imu_integrated
        self.imu_accel = None  # body accel of sample imu_integrated, if any
        self.frame_range = range(0)  # the frames of the last frame block made
        self.frame_block = None

        # metrics
        self.frames_offered = 0
        self.frames_accepted = 0
        self.frames_dropped = 0  # ingest-busy drops and GC-freeze drops
        self.frames_throttled = 0  # sensor-pin back-pressure
        self.update_completions: list[int] = []
        self.position_errors: list[float] = []  # one per update completion
        self.stage_durations_ns: dict[Stage, list[int]] = {s: [] for s in Stage}
        self.alloc_counter_bytes = 0
        self.alloc_total_bytes = 0
        self.gc_stalls: list[tuple[int, int]] = []
        self.trace = Trace()

        self._build_units()
        self._wire_sources()

    # ------------------------------------------------------------------
    # construction

    def _build_units(self) -> None:
        soc = self.config.soc
        spec = self.spec
        self.units = {uid: ComputeUnitSpec(uid, kind, soc.peak_power_w(kind))
                      for uid, kind in spec.units}
        self.ledger = PowerLedger(self.units,
                                  {name: getattr(soc, name) for name in spec.static_sources})
        # Each stage's latency, resolved once; a stage mapped to a unit kind
        # the latency table lacks is a ConfigError here. Relay cost comes from
        # the copy-latency model.
        latency, path = LatencyTable.default(soc), self.config.effective_memory_path()
        self.stage_ns = {
            stage: ms_to_ns(latency.stage_latency_ms(stage, self.units[uid].kind, path))
            for stage, uid in spec.stage_units.items() if stage is not Stage.RELAY}
        # GC freezes new starts everywhere; a running DSP task still completes
        # (maybe_gc suspends running tasks on every other unit).
        self.execs = {uid: self._executor(uid) for uid in self.units}
        self.stage_exec = {stage: self.execs[uid] for stage, uid in spec.stage_units.items()}
        self.controller = None
        self.pending_frame = None
        if spec.handoff is Handoff.TWO_BANK:
            self.controller = FeatureBankController(trace=self._on_bank)

    def _executor(self, unit_id: str) -> _Unit:
        """The lazy server for the propagation unit of the shared handoff
        (which runs no other stage; see `VariantSpec`), a `UnitExecutor` for
        every other unit."""
        if self.spec.handoff is Handoff.SHARED and \
                unit_id == self.spec.stage_units[Stage.PROPAGATION]:
            return PropagationServer(self, unit_id)
        return UnitExecutor(self, unit_id)

    def _wire_sources(self) -> None:
        self.engine.on("frames", self._on_frame_event)
        self.engine.on("gc", self._on_gc_end)
        # A source event's payload is its 1-based index k; it fires at
        # k * NS_PER_S // rate.
        self.engine.schedule(NS_PER_S // self.config.camera_fps, "frames",
                             EventKind.FRAME_ARRIVED, 1)
        self.engine.start_source(self.config.imu_rate_hz)
        if self.spec.handoff is Handoff.SHARED:
            self.engine.start_server(self.stage_exec[Stage.PROPAGATION]._serve)

    @property
    def est_pose(self):
        """The estimated pose with every completed propagation integrated."""
        self._integrate_pending()
        return self._est_pose

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _on_bank(self, transition: str, detail: dict) -> None:
        """The bank controller's trace callback: the record of its transition."""
        key = (transition, *detail.values())
        k = _BANK_KINDS.get(key)
        if k is None:
            k = _BANK_KINDS[key] = kind("bank", transition, **detail)
        self.trace.add(self.engine.now(), k)

    def _consume_start(self, kinds: tuple, payload) -> None:
        """The start hook of a cycle's update and mapping tasks, bound with
        `functools.partial` to the consumer's ConsumeStart kind per bank."""
        self.trace.add(self.engine.now(), kinds[payload[0]])

    def _submit(self, stage: Stage, payload, on_done, on_start=None) -> None:
        # tuple.__new__ skips the Python-level __new__ that _Task(...) runs.
        self.stage_exec[stage].submit(tuple.__new__(
            _Task, (stage, self.stage_ns[stage], payload, on_done, on_start)))

    # ------------------------------------------------------------------
    # sources

    def _on_frame_event(self, ev) -> None:
        k = ev.payload
        self.frames_offered += 1
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.camera_fps,
                             "frames", EventKind.FRAME_ARRIVED, k + 1)
        self.on_frame_arrival(k)

    # ------------------------------------------------------------------
    # frame ingest

    def on_frame_arrival(self, frame_id: int) -> None:
        ingest = self.spec.ingest
        if ingest is Ingest.SENSOR_PIN and self.pending_frame is not None:
            self.frames_throttled += 1
            self.trace.add_frame(self.engine.now(), _FRAME_THROTTLED, frame_id)
            return
        if ingest is Ingest.DROP_IF_BUSY and \
                not self.stage_exec[Stage.FEATURE_EXTRACTION].idle():
            return self._drop(frame_id, "ingest_busy")
        if ingest is Ingest.CPU_RELAY and self.engine.now() < self.frozen_until_ns:
            return self._drop(frame_id, "gc_frozen")
        frame = self._make_frame(frame_id)
        self.frames_accepted += 1
        self.trace.add_frame(self.engine.now(), _FRAME_ACCEPTED, frame_id)
        if ingest is Ingest.CPU_RELAY:
            relay = self.config.relay
            copy_ms = self.engine.stream("relay").uniform(relay.copy_latency_ms_min,
                                                          relay.copy_latency_ms_max)
            self.stage_exec[Stage.RELAY].submit(
                _Task(Stage.RELAY, ms_to_ns(copy_ms), frame, self._on_relay_copy_done))
        else:
            self._extract(frame)

    def _drop(self, frame_id: int, reason: str) -> None:
        self.frames_dropped += 1
        self.trace.add_frame(self.engine.now(), _FRAME_DROPPED[reason], frame_id)

    def _extract(self, frame) -> None:
        """Hand an accepted frame to feature extraction."""
        if self.spec.handoff is Handoff.TWO_BANK:
            self.pending_frame = frame
            self._try_start_fill()
        else:
            self._submit(Stage.FEATURE_EXTRACTION, frame, self._on_feature_extraction_done)

    def _on_relay_copy_done(self, frame) -> None:
        size = self.config.frame_size_bytes
        self.alloc_counter_bytes += size
        self.alloc_total_bytes += size
        self.maybe_gc()
        self._extract(frame)

    def maybe_gc(self) -> None:
        budget = int(self.config.relay.heap_budget_mib * MIB)
        if self.alloc_counter_bytes < budget:
            return
        self.alloc_counter_bytes = 0
        now = self.engine.now()
        pause = ms_to_ns(self.config.relay.gc_pause_ms)
        self.frozen_until_ns = now + pause
        self.gc_stalls.append((now, self.frozen_until_ns))
        self.trace.add(now, _GC_START)
        for uid, ex in self.execs.items():
            if self.units[uid].kind is not UnitKind.DSP:
                ex.freeze_running(self.frozen_until_ns)
        self.engine.schedule(self.frozen_until_ns, "gc", EventKind.GC_END)

    def _on_gc_end(self, ev) -> None:
        self.trace.add(self.engine.now(), _GC_END)
        for ex in self.execs.values():
            ex.try_start()

    # ------------------------------------------------------------------
    # shared-memory handoff

    def _on_feature_extraction_done(self, frame) -> None:
        block = self._extract_features(frame)
        self._submit(Stage.UPDATE, block, self._on_update_done)
        self._submit(Stage.MAPPING, block, self._apply_mapping)

    def _on_update_done(self, block) -> None:
        """An update task completed, under either handoff: its time is the
        timing model's record, its block goes to the kernel."""
        self.update_completions.append(self.engine.now())
        self._apply_update(block)

    # ------------------------------------------------------------------
    # two-bank scratchpad handoff

    def _try_start_fill(self) -> None:
        if self.pending_frame is None:
            return
        if not self.stage_exec[Stage.FEATURE_EXTRACTION].idle():
            return
        bank = self.controller.writable_bank()
        if bank is None:
            return
        frame = self.pending_frame
        self.pending_frame = None
        self.controller.begin_fill(bank)
        self._submit(Stage.FEATURE_EXTRACTION, (frame, bank), self._on_bank_fill_done)

    def _on_bank_fill_done(self, payload) -> None:
        frame, bank = payload
        self.controller.fill_complete(bank, self._extract_features(frame))
        if self.controller.pending_interrupt and not self.controller.cycle_active:
            self._acknowledge_cycle()
        self._try_start_fill()

    def _acknowledge_cycle(self) -> None:
        bank = self.controller.acknowledge()
        block = self.controller.banks[bank].block
        self._submit(Stage.UPDATE, (bank, block), self._on_cycle_update_done,
                     on_start=partial(self._consume_start, _CONSUME_START[UPDATE_CONSUMER]))
        self._submit(Stage.MAPPING, (bank, block), self._on_cycle_mapping_done,
                     on_start=partial(self._consume_start, _CONSUME_START[MAPPING_CONSUMER]))

    def _on_cycle_update_done(self, payload) -> None:
        bank, block = payload
        self._on_update_done(block)
        self.controller.consumer_done(bank, UPDATE_CONSUMER)
        self._maybe_release(bank)

    def _on_cycle_mapping_done(self, payload) -> None:
        bank, block = payload
        self._apply_mapping(block)
        self.controller.consumer_done(bank, MAPPING_CONSUMER)
        # Mapping done: the propagation thread consumes buffered IMU in batch.
        self._propagate_delivered()
        self._maybe_release(bank)

    def _maybe_release(self, bank: int) -> None:
        if not self.controller.all_consumed(bank):
            return
        self.controller.release(bank)
        if self.controller.pending_interrupt:
            self._acknowledge_cycle()
        self._try_start_fill()

    def _propagate_delivered(self) -> None:
        """Take every delivered sample not yet taken and submit them as one
        batch, the index of its last sample."""
        last = self.engine.sample_index
        if self.imu_taken < last:
            self.imu_taken = last
            self._submit(Stage.PROPAGATION, last, self._apply_propagation)

    def _apply_propagation(self, last: int) -> None:
        """The completion hook of a propagation task, on either kind of unit:
        its batch, the samples (imu_done, last], is integrated on the next
        read of `est_pose` (see the module notes)."""
        self.imu_done = last

    # ------------------------------------------------------------------
    # functional kernel: the seams and their helpers

    def _imu_row_blocks(self):
        """The integration rows (`kernel.imu_rows`) of samples 1, 2, ..., one
        block of IMU_BLOCK at a time, drawn in order from the "imu" stream.
        Sample 1 takes the rectangle rule."""
        rate, rng = self.config.imu_rate_hz, self.engine.stream("imu")
        prev_t, prev_gyro = 0, None
        for first in count(1, IMU_BLOCK):
            times = np.arange(first, first + IMU_BLOCK, dtype=np.int64) * NS_PER_S // rate
            gyro, accel = draw_imu(self.imu_model, self.truth, times, rng)
            yield imu_rows(times, gyro, accel, prev_t, prev_gyro)
            prev_t, prev_gyro = times[-1], gyro[-1]

    def _integrate_pending(self) -> None:
        n = self.imu_done - self.imu_integrated
        if n:
            rows = self.imu_rows
            while len(rows) < n:
                rows += next(self.imu_blocks)
            self._est_pose = integrate(self._est_pose, rows[:n], self.imu_accel)
            self.imu_accel = rows[n - 1][5:]
            del rows[:n]
            self.imu_integrated = self.imu_done

    def _make_frame(self, frame_id: int) -> CameraFrame:
        """Frame `frame_id`, arriving at frame_id * NS_PER_S // camera_fps,
        with the landmarks visible from the true pose then: from its frame
        block if that is classified."""
        t_ns = frame_id * NS_PER_S // self.config.camera_fps
        if frame_id not in self.frame_range:
            self.frame_range, self.frame_block = self._frame_block(frame_id)
        if self.frame_block is not None:
            visible = self.frame_block.visible(frame_id - self.frame_range.start)
        else:
            k = self.config.kernel
            visible = self.field.visible(self.truth.pose_at(t_ns), k.visibility_range_m,
                                         k.fov_deg)
        return CameraFrame(frame_id=frame_id, t_ns=t_ns, visible_landmarks=visible)

    def _frame_block(self, frame_id: int) -> tuple[range, VisibilityBlock | None]:
        """The FRAME_BLOCK frames of `frame_id`'s frame block, and the
        landmarks classified for their true poses, or None if the block is
        not compact (`is_compact`)."""
        k, fps = self.config.kernel, self.config.camera_fps
        first = (frame_id - 1) // FRAME_BLOCK * FRAME_BLOCK + 1
        frames = range(first, first + FRAME_BLOCK)
        positions, heads = self.truth.positions_and_headings(
            [j * NS_PER_S // fps for j in frames])
        if not is_compact(positions, heads, k.visibility_range_m, k.fov_deg):
            return frames, None
        return frames, VisibilityBlock(self.field, positions, heads, k.visibility_range_m,
                                       k.fov_deg)

    def _extract_features(self, frame):
        """Feature extraction on an accepted frame: its `FeatureBlock`."""
        return extract_features(frame, self.engine.stream("features"),
                                self.config.soc.bank_capacity_bytes)

    def _apply_update(self, block) -> None:
        truth_pose = self.truth.pose_at(self.engine.now())
        k = self.config.kernel
        pose = self.est_pose
        if k.updates_enabled:
            pose, _ = update_pose(
                pose, block, self.world_map, truth_pose,
                rng=self.engine.stream("obs"), gain=k.update_gain,
                obs_noise_std=k.obs_noise_std, min_matches=k.min_matches)
            self._est_pose = pose
        (px, py, pz), (tx, ty, tz) = pose.position, truth_pose.position
        self.position_errors.append(_norm((px - tx, py - ty, pz - tz)))

    def _apply_mapping(self, block) -> None:
        extend_map(self.world_map, block)

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.engine.run_until(self.duration_ns)
        for ex in self.execs.values():
            ex.finalize(self.duration_ns)
