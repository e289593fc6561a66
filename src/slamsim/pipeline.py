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

* shared: through shared memory; each IMU sample kicks propagation.
* two-bank: features are written into a two-bank scratchpad and the CPU is
  notified through the bank-swap interrupt protocol; IMU samples buffer
  while mapping runs and are consumed in one batch afterward.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bank import (FeatureBankController, MAPPING_CONSUMER, UPDATE_CONSUMER)
from .engine import Engine, EventKind, NS_PER_S, ms_to_ns, s_to_ns
from .kernel import (CameraFrame, ImuModel, CircleTrajectory, LandmarkField, WorldMap,
                     extend_map, extract_features, generate_landmarks, propagate,
                     sample_imu_block, update_pose)
# Unused here, but perfbench/tracing.py wraps `pipeline.sample_imu` by name.
from .kernel import sample_imu  # noqa: F401
from .scenario import VARIANTS, Handoff, Ingest, ScenarioConfig
from .soc import (ComputeUnitSpec, LatencyTable, PowerCalibration, PowerLedger, Stage,
                  UnitKind)

# IMU samples are made in blocks of this many consecutive sample indices, one
# kernel call per block. Block k covers indices k*IMU_BLOCK+1 .. (k+1)*IMU_BLOCK,
# so the blocks, and with them the draws, do not depend on how a run is sliced.
IMU_BLOCK = 128


@dataclass
class StallTracker:
    """Records a tracking-loss event whenever the gap between consecutive
    update completions exceeds the loss threshold."""

    loss_threshold_ns: int
    last_update_completion_ns: int = 0
    loss_count: int = 0

    def record_update_completion(self, now_ns: int) -> None:
        if now_ns - self.last_update_completion_ns > self.loss_threshold_ns:
            self.loss_count += 1
        self.last_update_completion_ns = now_ns


@dataclass
class ImuBatchBuffer:
    samples: deque = field(default_factory=deque)
    high_water: int = 0

    def push(self, sample) -> None:
        self.samples.append(sample)
        if len(self.samples) > self.high_water:
            self.high_water = len(self.samples)

    def drain(self) -> list:
        batch = list(self.samples)
        self.samples.clear()
        return batch


class _Task:
    __slots__ = ("stage", "duration_ns", "payload", "on_done", "on_start",
                 "start_ns", "end_ns", "seg_start_ns", "segments")

    def __init__(self, stage, duration_ns, payload, on_done, on_start=None):
        self.stage = stage
        self.duration_ns = int(duration_ns)
        self.payload = payload
        self.on_done = on_done
        self.on_start = on_start
        self.start_ns = None
        self.end_ns = None
        self.seg_start_ns = None
        self.segments = []


class UnitExecutor:
    """FIFO task execution on one compute unit, with optional freezing by
    garbage-collection pauses (running task suspends, queued tasks wait)."""

    def __init__(self, sim: "Simulation", unit_id: str):
        self.sim = sim
        self.unit_id = unit_id
        self.queue: deque[_Task] = deque()
        self.task: _Task | None = None
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
        task.start_ns = now
        task.seg_start_ns = now
        task.end_ns = now + task.duration_ns
        self.task = task
        if task.on_start is not None:
            task.on_start(task)
        self.sim.engine.schedule(task.end_ns, self.target, EventKind.TASK_DONE)

    def freeze_running(self, resume_at_ns: int) -> None:
        """Suspend the running task for a GC pause; completion is pushed out
        and the frozen span is excluded from busy time."""
        task = self.task
        if task is None:
            return
        now = self.sim.engine.now()
        pause = resume_at_ns - now
        if task.seg_start_ns < now:
            task.segments.append((task.seg_start_ns, now))
        task.seg_start_ns = resume_at_ns
        task.end_ns += pause
        self.sim.engine.schedule(task.end_ns, self.target, EventKind.TASK_DONE)

    def _on_task_done(self, ev) -> None:
        task = self.task
        now = ev.at
        if task is None or now != task.end_ns:
            return  # stale completion: a freeze moved the task's end later
        if task.seg_start_ns < now:
            task.segments.append((task.seg_start_ns, now))
        for a, b in task.segments:
            self.sim.ledger.record_busy(self.unit_id, a, b)
        self.sim.note_task_done(self.unit_id, task)
        self.task = None
        task.on_done(task)
        self.try_start()

    def finalize(self, end_ns: int) -> None:
        """Book busy time of a task still in flight when the run ends."""
        task = self.task
        if task is None:
            return
        for a, b in task.segments:
            self.sim.ledger.record_busy(self.unit_id, a, b)
        if task.seg_start_ns < end_ns:
            self.sim.ledger.record_busy(self.unit_id, task.seg_start_ns,
                                        min(task.end_ns, end_ns))
        task.segments = []
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
        self.est_pose = self.truth.pose_at(0)
        self.prev_imu = None
        self.last_propagated_ns = 0
        self.imu_block: list = []
        self.imu_block_first = 0  # sample index of imu_block[0]; 0: none yet
        self.imu_buffer = ImuBatchBuffer()

        # metrics
        self.stall_tracker = StallTracker(ms_to_ns(config.loss_threshold_ms))
        self.frames_offered = 0
        self.frames_accepted = 0
        self.frames_dropped = 0  # ingest-busy drops and GC-freeze drops
        self.frames_throttled = 0  # sensor-pin back-pressure
        self.update_completions: list[int] = []
        self.error_samples: list[tuple[int, float]] = []
        self.matched_counts: list[int] = []
        self.imu_samples_emitted = 0
        self.imu_samples_processed = 0
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
        # Shared handoff: every IMU sample kicks propagation.
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
        self.engine.schedule(NS_PER_S // self.config.imu_rate_hz, "imu",
                             EventKind.IMU_SAMPLE_READY, 1)

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

    def _on_imu_event(self, ev) -> None:
        k = ev.payload
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.imu_rate_hz,
                             "imu", EventKind.IMU_SAMPLE_READY, k + 1)
        self.imu_samples_emitted += 1
        self.imu_buffer.push(self._imu_sample(k))
        if self.imu_kicks_propagation:
            self._kick_propagation()

    def _imu_sample(self, k: int):
        """IMU sample k, taken at the time its event fires. A sample outside
        the current block draws the whole block that holds it; the last block
        of a run draws past the end, which only advances the "imu" stream."""
        i = k - self.imu_block_first
        if not 0 <= i < len(self.imu_block):
            self.imu_block_first = first = k - (k - 1) % IMU_BLOCK
            rate = self.config.imu_rate_hz
            self.imu_block = sample_imu_block(
                self.imu_model, self.truth,
                [(j * NS_PER_S) // rate for j in range(first, first + IMU_BLOCK)],
                self.engine.stream("imu"))
            i = k - first
        return self.imu_block[i]

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
        if not self.stage_exec[Stage.PROPAGATION].idle() or not self.imu_buffer.samples:
            return
        self._submit(Stage.PROPAGATION, self.imu_buffer.drain(), self._on_propagation_done)

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
        if self.imu_buffer.samples:
            self._submit(Stage.PROPAGATION, self.imu_buffer.drain(), self._on_propagation_done)
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

    def _apply_propagation(self, batch: list) -> None:
        self.est_pose = propagate(self.est_pose, batch, self.last_propagated_ns,
                                  prev_sample=self.prev_imu)
        self.prev_imu = batch[-1]
        self.last_propagated_ns = batch[-1].t_ns
        self.imu_samples_processed += len(batch)

    def _apply_update(self, block) -> None:
        now = self.engine.now()
        k = self.config.kernel
        if k.updates_enabled:
            corrected, matched = update_pose(
                self.est_pose, block, self.world_map, self.truth.pose_at(now),
                rng=self.engine.stream("obs"), gain=k.update_gain,
                obs_noise_std=k.obs_noise_std, min_matches=k.min_matches)
            self.est_pose = corrected
            self.matched_counts.append(matched)
        self.update_completions.append(now)
        self.stall_tracker.record_update_completion(now)
        err = float(np.linalg.norm(np.subtract(self.est_pose.position,
                                               self.truth.pose_at(now).position)))
        self.error_samples.append((now, err))

    def _apply_mapping(self, block) -> None:
        k = self.config.kernel
        extend_map(self.world_map, block, self.field.points,
                   rng=self.engine.stream("map"), noise_std=k.map_noise_std)

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.engine.run_until(self.duration_ns)
        for ex in self.execs.values():
            ex.finalize(self.duration_ns)
