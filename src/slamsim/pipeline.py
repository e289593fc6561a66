"""The simulated SLAM execution fabric for the three architecture variants.

All "threads" here are simulated entities inside the single-threaded event
engine; the protocol's concurrency is modeled, not executed. Variants:

* baseline-cpu: four stage threads on four CPU cores, shared-memory handoff.
  A frame arriving while feature extraction is busy is dropped (the source
  outruns the pipeline).
* hetero-dsp: feature extraction offloaded to the DSP via a CPU relay core
  that copies each frame into memory (1-3 ms, 3 MiB allocation). Crossing an
  allocation budget triggers a garbage-collection pause that freezes every
  CPU thread; in-flight DSP work completes but its results wait.
* slam-arch: the DSP ingests frames straight from the sensor pins, writes
  features into a two-bank scratchpad, and notifies the CPU through the
  bank-swap interrupt protocol. Update+propagation/mapping are consolidated
  onto two cores; IMU samples buffer while mapping runs and are consumed in
  one batch afterward. When the pipeline cannot take a frame the source is
  throttled (the frame is dropped and counted).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bank import (FeatureBankController, MAPPING_CONSUMER, UPDATE_CONSUMER)
from .engine import Engine, EventKind, NS_PER_S, ms_to_ns, s_to_ns
from .kernel import (CameraFrame, ImuModel, CircleTrajectory, LandmarkField, Pose,
                     WorldMap, extend_map, extract_features, generate_landmarks,
                     propagate, sample_imu, update_pose)
from .scenario import ArchVariant, ScenarioConfig
from .soc import (ComputeUnitSpec, ConfigError, LatencyTable, MemoryPath, MemorySpec,
                  PowerCalibration, PowerLedger, Stage, UnitKind)


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

    def __init__(self, sim: "Simulation", unit_id: str, freezable: bool):
        self.sim = sim
        self.unit_id = unit_id
        self.freezable = freezable
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
        if self.freezable and now < self.sim.frozen_until_ns:
            return  # kicked again at GC end
        task = self.queue.popleft()
        task.start_ns = now
        task.seg_start_ns = now
        task.end_ns = now + task.duration_ns
        self.task = task
        if task.on_start is not None:
            task.on_start(task)
        self.sim.engine.schedule(task.end_ns, self.target, EventKind.TASK_DONE,
                                 {"end": task.end_ns})

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
        self.sim.engine.schedule(task.end_ns, self.target, EventKind.TASK_DONE,
                                 {"end": task.end_ns})

    def _on_task_done(self, ev) -> None:
        task = self.task
        if task is None or ev.payload["end"] != task.end_ns:
            return  # stale completion from before a freeze
        now = self.sim.engine.now()
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
        self.engine = Engine(config.seed)
        soc = config.soc
        self.path = config.effective_memory_path()
        self.latency = LatencyTable.default(
            feature_access_fraction=soc.feature_access_fraction,
            overrides={
                (Stage.FEATURE_EXTRACTION, UnitKind.CPU_CORE, None): soc.feature_extraction_cpu_ms,
                (Stage.FEATURE_EXTRACTION, UnitKind.GPU, None): soc.feature_extraction_gpu_ms,
                (Stage.FEATURE_EXTRACTION, UnitKind.DSP, None): soc.feature_extraction_dsp_ms,
                (Stage.PROPAGATION, UnitKind.CPU_CORE, None): soc.propagation_ms,
                (Stage.UPDATE, UnitKind.CPU_CORE, MemoryPath.SHARED): soc.update_shared_ms,
                (Stage.MAPPING, UnitKind.CPU_CORE, MemoryPath.SHARED): soc.mapping_shared_ms,
                (Stage.UPDATE, UnitKind.CPU_CORE, MemoryPath.SCRATCHPAD):
                    soc.update_shared_ms * (1.0 - soc.feature_access_fraction),
                (Stage.MAPPING, UnitKind.CPU_CORE, MemoryPath.SCRATCHPAD):
                    soc.mapping_shared_ms * (1.0 - soc.feature_access_fraction),
            })
        self.mem = MemorySpec(
            shared_access_ns=soc.shared_access_ns,
            scratchpad_capacity_bytes=soc.scratchpad_capacity_bytes,
            scratchpad_banks=soc.scratchpad_banks,
            scratchpad_access_ns=soc.scratchpad_access_ns,
            scratchpad_dynamic_w=soc.scratchpad_dynamic_w,
            scratchpad_leakage_w=soc.scratchpad_leakage_w,
            io_pin_power_w=soc.io_pin_power_w,
        )
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
        self.imu_buffer = ImuBatchBuffer()

        # metrics
        self.stall_tracker = StallTracker(ms_to_ns(config.loss_threshold_ms))
        self.frames_offered = 0
        self.frames_accepted = 0
        self.frames_dropped = 0  # ingest-busy drops and GC-freeze drops
        self.frames_throttled = 0  # slam-arch bank back-pressure
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
        cpu = lambda i, io=False: ComputeUnitSpec(f"cpu{i}", UnitKind.CPU_CORE,
                                                  soc.cpu_peak_power_w, direct_io=io)
        variant = self.config.variant
        static = {}
        if variant is ArchVariant.BASELINE_CPU:
            units = [cpu(0, io=True), cpu(1), cpu(2), cpu(3)]
            self.stage_units = {Stage.FEATURE_EXTRACTION: "cpu0", Stage.PROPAGATION: "cpu1",
                                Stage.UPDATE: "cpu2", Stage.MAPPING: "cpu3"}
        elif variant is ArchVariant.HETERO_DSP:
            units = [cpu(0, io=True), cpu(1), cpu(2), cpu(3),
                     ComputeUnitSpec("dsp", UnitKind.DSP, soc.dsp_peak_power_w)]
            self.stage_units = {Stage.RELAY: "cpu0", Stage.PROPAGATION: "cpu1",
                                Stage.UPDATE: "cpu2", Stage.MAPPING: "cpu3",
                                Stage.FEATURE_EXTRACTION: "dsp"}
        elif variant is ArchVariant.SLAM_ARCH:
            units = [cpu(0), cpu(1),
                     ComputeUnitSpec("dsp", UnitKind.DSP, soc.dsp_peak_power_w,
                                     direct_io=True)]
            self.stage_units = {Stage.MAPPING: "cpu0", Stage.PROPAGATION: "cpu0",
                                Stage.UPDATE: "cpu1", Stage.FEATURE_EXTRACTION: "dsp"}
            static["io_pins"] = self.mem.io_pin_power_w
            static["scratchpad_active"] = self.mem.scratchpad_dynamic_w
            static["scratchpad_leakage"] = self.mem.scratchpad_leakage_w
        else:  # pragma: no cover
            raise ConfigError(f"unknown variant {variant}")

        self.units = {u.id: u for u in units}
        self.ledger = PowerLedger(self.units, static)
        # Reject stage->unit mappings absent from the latency table at build time.
        for stage, unit_id in self.stage_units.items():
            kind = self.units[unit_id].kind
            if stage is Stage.RELAY:
                continue  # relay cost comes from the copy-latency model
            if not self.latency.has(stage, kind, self.path):
                raise ConfigError(
                    f"stage {stage.value} mapped to {unit_id} ({kind.value}) has no "
                    f"latency entry")
        # GC freezes new starts everywhere; a running DSP task still completes
        # (maybe_gc only suspends running tasks on CPU cores).
        self.execs = {uid: UnitExecutor(self, uid, freezable=True)
                      for uid in self.units}
        self.controller = None
        self.pending_frame = None
        self.active_cycle_bank = None
        if self.config.variant is ArchVariant.SLAM_ARCH:
            self.controller = FeatureBankController(
                banks=self.mem.scratchpad_banks,
                trace=lambda tr, d: self._emit("bank", tr, **d))

    def _wire_sources(self) -> None:
        self.engine.on("frames", self._on_frame_event)
        self.engine.on("imu", self._on_imu_event)
        self.engine.on("gc", self._on_gc_end)
        self.engine.schedule(NS_PER_S // self.config.camera_fps, "frames",
                             EventKind.FRAME_ARRIVED, {"k": 1})
        self.engine.schedule(NS_PER_S // self.config.imu_rate_hz, "imu",
                             EventKind.IMU_SAMPLE_READY, {"k": 1})

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _emit(self, entity: str, transition: str, **detail) -> None:
        rec = {"t_ns": self.engine.now(), "entity": entity, "transition": transition}
        rec.update(detail)
        self.trace.append(rec)

    def note_task_done(self, unit_id: str, task: _Task) -> None:
        self.stage_durations_ns[task.stage].append(task.duration_ns)
        self._emit(unit_id, "TaskDone", stage=task.stage.value)

    def _stage_ns(self, stage: Stage, unit_id: str) -> int:
        kind = self.units[unit_id].kind
        return ms_to_ns(self.latency.stage_latency_ms(stage, kind, self.path))

    def _make_frame(self, frame_id: int, t_ns: int) -> CameraFrame:
        k = self.config.kernel
        visible = self.field.visible(self.truth.pose_at(t_ns),
                                     k.visibility_range_m, k.fov_deg)
        return CameraFrame(frame_id=frame_id, t_ns=t_ns, visible_landmarks=visible,
                           size_bytes=self.config.frame_size_bytes)

    # ------------------------------------------------------------------
    # sources

    def _on_frame_event(self, ev) -> None:
        k = ev.payload["k"]
        self.frames_offered += 1
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.camera_fps,
                             "frames", EventKind.FRAME_ARRIVED, {"k": k + 1})
        self.on_frame_arrival(k, self.engine.now())

    def _on_imu_event(self, ev) -> None:
        k = ev.payload["k"]
        now = self.engine.now()
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.imu_rate_hz,
                             "imu", EventKind.IMU_SAMPLE_READY, {"k": k + 1})
        sample = sample_imu(self.imu_model, self.truth, now, self.engine.stream("imu"))
        self.imu_samples_emitted += 1
        self.imu_buffer.push(sample)
        if self.config.variant is not ArchVariant.SLAM_ARCH:
            self._kick_propagation()

    # ------------------------------------------------------------------
    # frame routing per architecture

    def on_frame_arrival(self, frame_id: int, now: int) -> None:
        variant = self.config.variant
        if variant is ArchVariant.BASELINE_CPU:
            fe = self.execs[self.stage_units[Stage.FEATURE_EXTRACTION]]
            if not fe.idle():
                self.frames_dropped += 1
                self._emit("pipeline", "FrameDropped", frame=frame_id, reason="ingest_busy")
                return
            frame = self._make_frame(frame_id, now)
            self.frames_accepted += 1
            self._emit("pipeline", "FrameAccepted", frame=frame_id)
            fe.submit(_Task(Stage.FEATURE_EXTRACTION,
                            self._stage_ns(Stage.FEATURE_EXTRACTION, fe.unit_id),
                            frame, self._on_feature_extraction_done))
        elif variant is ArchVariant.HETERO_DSP:
            if now < self.frozen_until_ns:
                self.frames_dropped += 1
                self._emit("pipeline", "FrameDropped", frame=frame_id, reason="gc_frozen")
                return
            frame = self._make_frame(frame_id, now)
            self.frames_accepted += 1
            self._emit("pipeline", "FrameAccepted", frame=frame_id)
            relay = self.execs[self.stage_units[Stage.RELAY]]
            copy_ms = self.engine.stream("relay").uniform(
                self.config.relay.copy_latency_ms_min,
                self.config.relay.copy_latency_ms_max)
            relay.submit(_Task(Stage.RELAY, ms_to_ns(copy_ms), frame,
                               self._on_relay_copy_done))
        else:  # SLAM_ARCH
            if self.pending_frame is not None:
                self.frames_throttled += 1
                self._emit("pipeline", "FrameThrottled", frame=frame_id)
                return
            frame = self._make_frame(frame_id, now)
            self.frames_accepted += 1
            self._emit("pipeline", "FrameAccepted", frame=frame_id)
            self.pending_frame = frame
            self._try_start_fill()

    # ------------------------------------------------------------------
    # shared-memory pipelines (baseline, hetero)

    def _on_relay_copy_done(self, task: _Task) -> None:
        frame = task.payload
        self.alloc_counter_bytes += frame.size_bytes
        self.alloc_total_bytes += frame.size_bytes
        self.maybe_gc()
        fe = self.execs[self.stage_units[Stage.FEATURE_EXTRACTION]]
        fe.submit(_Task(Stage.FEATURE_EXTRACTION,
                        self._stage_ns(Stage.FEATURE_EXTRACTION, fe.unit_id),
                        frame, self._on_feature_extraction_done))

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
        self.engine.schedule(self.frozen_until_ns, "gc", EventKind.GC_END, {})

    def _on_gc_end(self, ev) -> None:
        self._emit("runtime", "GcEnd")
        for ex in self.execs.values():
            ex.try_start()

    def _on_feature_extraction_done(self, task: _Task) -> None:
        frame = task.payload
        block = extract_features(frame, self.engine.stream("features"))
        upd = self.execs[self.stage_units[Stage.UPDATE]]
        mp = self.execs[self.stage_units[Stage.MAPPING]]
        upd.submit(_Task(Stage.UPDATE, self._stage_ns(Stage.UPDATE, upd.unit_id),
                         block, self._on_update_done))
        mp.submit(_Task(Stage.MAPPING, self._stage_ns(Stage.MAPPING, mp.unit_id),
                        block, self._on_mapping_done))

    def _on_update_done(self, task: _Task) -> None:
        self._apply_update(task.payload)

    def _on_mapping_done(self, task: _Task) -> None:
        self._apply_mapping(task.payload)

    def _kick_propagation(self) -> None:
        prop = self.execs[self.stage_units[Stage.PROPAGATION]]
        if not prop.idle() or not self.imu_buffer.samples:
            return
        batch = self.imu_buffer.drain()
        prop.submit(_Task(Stage.PROPAGATION,
                          self._stage_ns(Stage.PROPAGATION, prop.unit_id),
                          batch, self._on_propagation_done))

    def _on_propagation_done(self, task: _Task) -> None:
        self._apply_propagation(task.payload)
        if self.config.variant is not ArchVariant.SLAM_ARCH:
            self._kick_propagation()

    # ------------------------------------------------------------------
    # scratchpad trigger pipeline (slam-arch)

    def _try_start_fill(self) -> None:
        if self.pending_frame is None:
            return
        dsp = self.execs[self.stage_units[Stage.FEATURE_EXTRACTION]]
        if not dsp.idle():
            return
        bank = self.controller.writable_bank()
        if bank is None:
            return
        frame = self.pending_frame
        self.pending_frame = None
        self.controller.begin_fill(bank)
        dsp.submit(_Task(Stage.FEATURE_EXTRACTION,
                         self._stage_ns(Stage.FEATURE_EXTRACTION, dsp.unit_id),
                         (frame, bank), self._on_bank_fill_done))

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
        upd = self.execs[self.stage_units[Stage.UPDATE]]
        mp = self.execs[self.stage_units[Stage.MAPPING]]
        upd.submit(_Task(Stage.UPDATE, self._stage_ns(Stage.UPDATE, upd.unit_id),
                         (bank, block), self._on_cycle_update_done,
                         on_start=lambda t: self._emit(
                             "bank", "ConsumeStart", bank=bank, consumer=UPDATE_CONSUMER)))
        mp.submit(_Task(Stage.MAPPING, self._stage_ns(Stage.MAPPING, mp.unit_id),
                        (bank, block), self._on_cycle_mapping_done,
                        on_start=lambda t: self._emit(
                            "bank", "ConsumeStart", bank=bank, consumer=MAPPING_CONSUMER)))

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
            prop = self.execs[self.stage_units[Stage.PROPAGATION]]
            batch = self.imu_buffer.drain()
            prop.submit(_Task(Stage.PROPAGATION,
                              self._stage_ns(Stage.PROPAGATION, prop.unit_id),
                              batch, self._on_propagation_done))
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
