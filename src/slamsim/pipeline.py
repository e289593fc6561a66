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

* shared: through shared memory; an IMU sample that arrives while the
  propagation unit is idle kicks propagation, which takes every sample
  delivered so far.
* two-bank: features are written into a two-bank scratchpad and the CPU is
  notified through the bank-swap interrupt protocol; IMU samples buffer
  while mapping runs and are consumed in one batch afterward.

The IMU is a lazy source (`Engine.start_source`): a sample has no event of
its own, and a propagation kick or the drain after mapping takes the samples
(taken, delivered] as one batch, the index range itself. Sample k, at
t_k = k * NS_PER_S // imu_rate_hz, counts as delivered before an event E if

* t_k < E.at, or
* t_k == E.at and sample k-1 already counted as delivered when E was
  scheduled.

Sample 0 counts as delivered when the sources are wired, after the first
frame is scheduled. This is the (at, seq) order a chain of one event per
sample would have, each event scheduled by its predecessor's handler: at a
1 kHz rate a 2 ms task that starts on a sample time also ends on one, so
whether the coincident sample joins the batch taken at that instant is the
common case. A real "imu" event is scheduled only while the shared-handoff
propagation unit is idle, the one case where an arrival acts; it sits at the
(at, seq) position of the sample it stands for.

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
"""

from __future__ import annotations

from collections import deque
from itertools import count

import numpy as np

from .bank import (FeatureBankController, MAPPING_CONSUMER, UPDATE_CONSUMER)
from .engine import Engine, EventKind, NS_PER_S, ms_to_ns, s_to_ns
from .kernel import (CameraFrame, ImuModel, CircleTrajectory, LandmarkField, WorldMap,
                     draw_imu, extend_map, extract_features, generate_landmarks, imu_rows,
                     integrate, update_pose)
# Unused here, but perfbench/tracing.py wraps `pipeline.propagate` and
# `pipeline.sample_imu` by name.
from .kernel import propagate, sample_imu  # noqa: F401
from .scenario import VARIANTS, Handoff, Ingest, ScenarioConfig
from .soc import (ComputeUnitSpec, LatencyTable, PowerCalibration, PowerLedger, Stage,
                  UnitKind)

# IMU samples are made in blocks of this many consecutive sample indices, one
# kernel call per block. Block k covers indices k*IMU_BLOCK+1 .. (k+1)*IMU_BLOCK,
# so the blocks, and with them the draws, do not depend on how a run is sliced.
IMU_BLOCK = 128


class _Task:
    __slots__ = ("stage", "duration_ns", "payload", "on_done", "on_start")

    def __init__(self, stage, duration_ns, payload, on_done, on_start=None):
        self.stage = stage
        self.duration_ns = int(duration_ns)
        self.payload = payload
        self.on_done = on_done
        self.on_start = on_start


class UnitExecutor:
    """FIFO task execution on one compute unit, with optional freezing by
    garbage-collection pauses (running task suspends, queued tasks wait).
    `on_idle`, if set, is called whenever a completion leaves the unit idle.

    The running task's current segment starts at `seg_start_ns`; it is booked
    in the ledger when it ends, at a freeze, at completion or at the end of
    the run. The unit runs one task at a time, so what it books reaches the
    ledger in time order, as the ledger requires, and the whole run
    `(0, duration)` covers all of it."""

    def __init__(self, sim: "Simulation", unit_id: str):
        self.sim = sim
        self.unit_id = unit_id
        self.queue: deque[_Task] = deque()
        self.task: _Task | None = None
        self.seg_start_ns = 0  # the running task's current segment start
        self.end_ns = 0  # and its completion time, pushed out by freezes
        self.on_idle = None
        self.target = f"exec:{unit_id}"
        sim.engine.on(self.target, self._on_task_done)

    def idle(self) -> bool:
        return self.task is None and not self.queue

    def submit(self, task: _Task) -> None:
        self.queue.append(task)
        self.try_start()

    def try_start(self) -> None:
        if self.task is not None or not self.queue:
            return
        now = self.sim.engine.now()
        if now < self.sim.frozen_until_ns:
            return  # kicked again at GC end
        task = self.queue.popleft()
        self.seg_start_ns = now
        self.end_ns = now + task.duration_ns
        self.task = task
        if task.on_start is not None:
            task.on_start(task)
        self.sim.engine.schedule(self.end_ns, self.target, EventKind.TASK_DONE)

    def _book(self, end_ns: int) -> None:
        """Book the running segment, if it has any length, up to `end_ns`."""
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
        self.sim.engine.schedule(self.end_ns, self.target, EventKind.TASK_DONE)

    def _on_task_done(self, ev) -> None:
        task = self.task
        now = ev.at
        if task is None or now != self.end_ns:
            return  # stale completion: a freeze moved the task's end later
        self._book(now)
        self.sim.note_task_done(self.unit_id, task)
        self.task = None
        task.on_done(task)
        self.try_start()
        if self.on_idle is not None and self.task is None and not self.queue:
            self.on_idle()

    def finalize(self, end_ns: int) -> None:
        """Book busy time of a task still in flight when the run ends."""
        if self.task is not None:
            self._book(min(self.end_ns, end_ns))
            self.task = None


class Simulation:
    """A fully wired simulation of one scenario; run() drives the event loop
    to the configured duration and leaves raw results on the instance."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.spec = VARIANTS[config.variant]
        self.engine = Engine(config.seed)
        soc = config.soc
        self.calibration = PowerCalibration(
            baseline_static_w=soc.baseline_static_w,
            unit_idle_fraction=soc.unit_idle_fraction,
        )
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
        self.imu_max_batch = 0
        self.imu_wakeup_pending = False

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
        self.trace: list[dict] = []

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
        # GC freezes new starts everywhere; a running DSP task still completes
        # (maybe_gc suspends running tasks on every other unit).
        self.execs = {uid: UnitExecutor(self, uid) for uid in self.units}
        self.stage_exec = {stage: self.execs[uid] for stage, uid in spec.stage_units.items()}
        # Each stage's latency, resolved once; a stage mapped to a unit kind
        # the latency table lacks is a ConfigError here. Relay cost comes from
        # the copy-latency model.
        latency, path = LatencyTable.default(soc), self.config.effective_memory_path()
        self.stage_ns = {
            stage: ms_to_ns(latency.stage_latency_ms(stage, self.units[uid].kind, path))
            for stage, uid in spec.stage_units.items() if stage is not Stage.RELAY}
        # Shared handoff: an IMU sample kicks propagation.
        self.imu_kicks_propagation = spec.handoff is Handoff.SHARED
        self.controller = None
        self.pending_frame = None
        self.active_cycle_bank = None
        if spec.handoff is Handoff.TWO_BANK:
            self.controller = FeatureBankController(
                banks=soc.scratchpad_banks,
                trace=lambda tr, d: self._emit("bank", tr, **d))

    def _wire_sources(self) -> None:
        self.engine.on("frames", self._on_frame_event)
        self.engine.on("imu", self._on_imu_event)
        self.engine.on("gc", self._on_gc_end)
        # A source event's payload is its 1-based index k; it fires at
        # k * NS_PER_S // rate.
        self.engine.schedule(NS_PER_S // self.config.camera_fps, "frames",
                             EventKind.FRAME_ARRIVED, 1)
        self.engine.start_source(self.config.imu_rate_hz)
        if self.imu_kicks_propagation:
            self.stage_exec[Stage.PROPAGATION].on_idle = self._schedule_imu_wakeup
            self._schedule_imu_wakeup()

    @property
    def est_pose(self):
        """The estimated pose with every completed propagation integrated."""
        self._integrate_pending()
        return self._est_pose

    @property
    def imu_samples_emitted(self) -> int:
        return self.engine.sample_index

    @property
    def imu_samples_processed(self) -> int:
        return self.imu_done

    @property
    def imu_high_water(self) -> int:
        """The most samples ever delivered and not yet taken: the largest
        batch, or what is still pending."""
        return max(self.imu_max_batch, self.engine.sample_index - self.imu_taken)

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _emit(self, entity: str, transition: str, **detail) -> None:
        self.trace.append({"t_ns": self.engine.now(), "entity": entity,
                           "transition": transition, **detail})

    def note_task_done(self, unit_id: str, task: _Task) -> None:
        self.stage_durations_ns[task.stage].append(task.duration_ns)
        self._emit(unit_id, "TaskDone", stage=task.stage.value)

    def _submit(self, stage: Stage, payload, on_done, on_start=None) -> None:
        self.stage_exec[stage].submit(
            _Task(stage, self.stage_ns[stage], payload, on_done, on_start))

    def _make_frame(self, frame_id: int, t_ns: int) -> CameraFrame:
        k = self.config.kernel
        visible = self.field.visible(self.truth.pose_at(t_ns),
                                     k.visibility_range_m, k.fov_deg)
        return CameraFrame(frame_id=frame_id, t_ns=t_ns, visible_landmarks=visible,
                           size_bytes=self.config.frame_size_bytes)

    # ------------------------------------------------------------------
    # sources

    def _on_frame_event(self, ev) -> None:
        k = ev.payload
        self.frames_offered += 1
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.camera_fps,
                             "frames", EventKind.FRAME_ARRIVED, k + 1)
        self.on_frame_arrival(k, self.engine.now())

    def _schedule_imu_wakeup(self) -> None:
        """The propagation unit is idle: the next sample's arrival kicks it."""
        if not self.imu_wakeup_pending:
            self.imu_wakeup_pending = True
            self.engine.schedule_next_sample("imu", EventKind.IMU_SAMPLE_READY)

    def _on_imu_event(self, ev) -> None:
        self.imu_wakeup_pending = False
        self._kick_propagation()

    def _take_imu(self) -> tuple[int, int]:
        """The samples delivered and not yet taken, as the index range (lo,
        hi]; empty if lo == hi."""
        lo, hi = self.imu_taken, self.engine.sample_index
        self.imu_taken = hi
        if hi - lo > self.imu_max_batch:
            self.imu_max_batch = hi - lo
        return lo, hi

    # ------------------------------------------------------------------
    # frame ingest

    def on_frame_arrival(self, frame_id: int, now: int) -> None:
        ingest = self.spec.ingest
        if ingest is Ingest.SENSOR_PIN and self.pending_frame is not None:
            self.frames_throttled += 1
            self._emit("pipeline", "FrameThrottled", frame=frame_id)
            return
        if ingest is Ingest.DROP_IF_BUSY and \
                not self.stage_exec[Stage.FEATURE_EXTRACTION].idle():
            return self._drop(frame_id, "ingest_busy")
        if ingest is Ingest.CPU_RELAY and now < self.frozen_until_ns:
            return self._drop(frame_id, "gc_frozen")
        frame = self._make_frame(frame_id, now)
        self.frames_accepted += 1
        self._emit("pipeline", "FrameAccepted", frame=frame_id)
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
        self._emit("pipeline", "FrameDropped", frame=frame_id, reason=reason)

    def _extract(self, frame) -> None:
        """Hand an accepted frame to feature extraction."""
        if self.spec.handoff is Handoff.TWO_BANK:
            self.pending_frame = frame
            self._try_start_fill()
        else:
            self._submit(Stage.FEATURE_EXTRACTION, frame, self._on_feature_extraction_done)

    def _on_relay_copy_done(self, task: _Task) -> None:
        frame = task.payload
        self.alloc_counter_bytes += frame.size_bytes
        self.alloc_total_bytes += frame.size_bytes
        self.maybe_gc()
        self._extract(frame)

    def maybe_gc(self) -> None:
        budget = int(self.config.relay.heap_budget_mib * 1024 * 1024)
        if self.alloc_counter_bytes < budget:
            return
        self.alloc_counter_bytes = 0
        now = self.engine.now()
        pause = ms_to_ns(self.config.relay.gc_pause_ms)
        self.frozen_until_ns = now + pause
        self.gc_stalls.append((now, self.frozen_until_ns))
        self._emit("runtime", "GcStart")
        for uid, ex in self.execs.items():
            if self.units[uid].kind is not UnitKind.DSP:
                ex.freeze_running(self.frozen_until_ns)
        self.engine.schedule(self.frozen_until_ns, "gc", EventKind.GC_END)

    def _on_gc_end(self, ev) -> None:
        self._emit("runtime", "GcEnd")
        for ex in self.execs.values():
            ex.try_start()

    # ------------------------------------------------------------------
    # shared-memory handoff

    def _on_feature_extraction_done(self, task: _Task) -> None:
        block = extract_features(task.payload, self.engine.stream("features"))
        self._submit(Stage.UPDATE, block, self._on_update_done)
        self._submit(Stage.MAPPING, block, self._on_mapping_done)

    def _on_update_done(self, task: _Task) -> None:
        self._apply_update(task.payload)

    def _on_mapping_done(self, task: _Task) -> None:
        self._apply_mapping(task.payload)

    def _kick_propagation(self) -> None:
        if self.stage_exec[Stage.PROPAGATION].idle():
            self._propagate_delivered()

    def _propagate_delivered(self) -> None:
        """Submit every delivered sample not yet taken as one batch."""
        lo, hi = self._take_imu()
        if lo < hi:
            self._submit(Stage.PROPAGATION, (lo, hi), self._on_propagation_done)

    def _on_propagation_done(self, task: _Task) -> None:
        self._apply_propagation(task.payload)
        if self.imu_kicks_propagation:
            self._kick_propagation()

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

    def _on_bank_fill_done(self, task: _Task) -> None:
        frame, bank = task.payload
        block = extract_features(frame, self.engine.stream("features"))
        self.controller.fill_complete(bank, block)
        if self.controller.pending_interrupt and self.active_cycle_bank is None:
            self._acknowledge_cycle()
        self._try_start_fill()

    def _acknowledge_cycle(self) -> None:
        bank = self.controller.acknowledge()
        self.active_cycle_bank = bank
        block = self.controller.banks[bank].block
        self._submit(Stage.UPDATE, (bank, block), self._on_cycle_update_done,
                     on_start=lambda t: self._emit(
                         "bank", "ConsumeStart", bank=bank, consumer=UPDATE_CONSUMER))
        self._submit(Stage.MAPPING, (bank, block), self._on_cycle_mapping_done,
                     on_start=lambda t: self._emit(
                         "bank", "ConsumeStart", bank=bank, consumer=MAPPING_CONSUMER))

    def _on_cycle_update_done(self, task: _Task) -> None:
        bank, block = task.payload
        self._apply_update(block)
        self.controller.consumer_done(bank, UPDATE_CONSUMER)
        self._maybe_release(bank)

    def _on_cycle_mapping_done(self, task: _Task) -> None:
        bank, block = task.payload
        self._apply_mapping(block)
        self.controller.consumer_done(bank, MAPPING_CONSUMER)
        # Mapping done: the propagation thread consumes buffered IMU in batch.
        self._propagate_delivered()
        self._maybe_release(bank)

    def _maybe_release(self, bank: int) -> None:
        if not self.controller.all_consumed(bank):
            return
        self.controller.release(bank)
        self.active_cycle_bank = None
        if self.controller.pending_interrupt:
            self._acknowledge_cycle()
        self._try_start_fill()

    # ------------------------------------------------------------------
    # functional kernel application

    def _apply_propagation(self, batch: tuple[int, int]) -> None:
        """A propagation task completed: its batch (lo, hi] is integrated on
        the next read of `est_pose` (see the module notes)."""
        self.imu_done = batch[1]

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

    def _apply_update(self, block) -> None:
        now = self.engine.now()
        truth_pose = self.truth.pose_at(now)
        k = self.config.kernel
        pose = self.est_pose
        if k.updates_enabled:
            pose, _ = update_pose(
                pose, block, self.world_map, truth_pose,
                rng=self.engine.stream("obs"), gain=k.update_gain,
                obs_noise_std=k.obs_noise_std, min_matches=k.min_matches)
            self._est_pose = pose
        self.update_completions.append(now)
        self.position_errors.append(
            float(np.linalg.norm(np.subtract(pose.position, truth_pose.position))))

    def _apply_mapping(self, block) -> None:
        k = self.config.kernel
        extend_map(self.world_map, block, self.field.points,
                   rng=self.engine.stream("map"), noise_std=k.map_noise_std)

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.engine.run_until(self.duration_ns)
        for ex in self.execs.values():
            ex.finalize(self.duration_ns)
