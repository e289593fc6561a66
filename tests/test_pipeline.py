import dataclasses
import io
import json
import types
from collections import deque
from functools import lru_cache
from itertools import count
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

from slamsim.engine import NS_PER_MS, NS_PER_S, Engine, EventKind, ms_to_ns
from slamsim import kernel, pipeline
from slamsim.kernel import integrate, propagate, sample_imu_block
from slamsim.pipeline import FRAME_BLOCK, IMU_BLOCK, PropagationServer, Simulation
from slamsim.report import (audit_trace, build_report, dump_trace, run_scenario,
                            tracking_loss_count)
from slamsim.scenario import (PRESET_NAMES, VARIANTS, ArchVariant, Handoff, KernelConfig,
                              RelayConfig, ScenarioConfig, preset)
from slamsim.soc import ConfigError, PowerCalibration, SocConfig, Stage, UnitKind

import test_scenario


def _run(variant, fps, duration_s, **kwargs):
    config = ScenarioConfig(variant=variant, camera_fps=fps,
                            duration_s=duration_s, **kwargs)
    sim = Simulation(config)
    sim.run()
    return sim


class TestTrackingLoss:
    def test_counts_gaps_over_threshold(self):
        threshold = ms_to_ns(100)
        completions = [ms_to_ns(50), ms_to_ns(120)]
        assert tracking_loss_count(completions, threshold) == 0
        assert tracking_loss_count(completions + [ms_to_ns(300)], threshold) == 1

    def test_first_gap_is_measured_from_zero(self):
        assert tracking_loss_count([ms_to_ns(108)], ms_to_ns(100)) == 1
        assert tracking_loss_count([], ms_to_ns(100)) == 0


def _imu_counters(sim, batches):
    """(high water, emitted) of a finished run whose propagation batches
    `_record_batches` recorded: as the one-event-per-sample IMU chain
    reported them, its buffer's deepest point and its event count. Each
    batch empties the buffer, so the deepest point is the largest batch,
    the one still running or waiting included, or what the buffer still
    holds."""
    taken = [0, *(last for _, last in batches), sim.imu_taken, sim.engine.sample_index]
    return max(b - a for a, b in zip(taken, taken[1:])), sim.engine.sample_index


def _run_recording_batches(config):
    sim = Simulation(config)
    batches = _record_batches(sim)
    sim.run()
    return sim, batches


class TestImuCounters:
    """High-water marks and emitted counts as the one-event-per-sample IMU
    chain reported them."""

    @pytest.mark.parametrize("name, high_water, emitted", [
        ("baseline-cpu", 1, 6000), ("hetero-dsp", 24, 12000), ("slam-arch", 10, 6000)])
    def test_presets(self, name, high_water, emitted):
        assert _imu_counters(*_run_recording_batches(preset(name))) == (high_water, emitted)

    def test_imu_storm(self):
        config = ScenarioConfig(variant=ArchVariant.HETERO_DSP, camera_fps=30,
                                imu_rate_hz=1000, duration_s=60.0, seed=1,
                                kernel=KernelConfig(landmark_count=40))
        assert _imu_counters(*_run_recording_batches(config)) == (122, 60000)


class TestBaselinePipeline:
    def test_source_accounting(self):
        sim = _run(ArchVariant.BASELINE_CPU, 30, 5.0)
        assert sim.frames_offered == 150
        assert sim.frames_accepted + sim.frames_dropped == sim.frames_offered
        assert sim.frames_throttled == 0
        assert len(sim.update_completions) > 0

    def test_feature_extraction_core_is_the_bottleneck(self):
        sim = _run(ArchVariant.BASELINE_CPU, 30, 5.0)
        window = (0, sim.duration_ns)
        fe_util = sim.ledger.utilization("cpu0", window)
        assert fe_util > 0.6
        assert fe_util >= max(sim.ledger.utilization(u, window)
                              for u in ("cpu1", "cpu2", "cpu3"))

    def test_drops_happen_only_while_busy(self):
        sim = _run(ArchVariant.BASELINE_CPU, 30, 5.0)
        # 45 ms per frame at 33.3 ms spacing: every other frame drops
        assert sim.frames_dropped > 0
        reasons = {r.get("reason") for r in sim.trace
                   if r["transition"] == "FrameDropped"}
        assert reasons == {"ingest_busy"}


@pytest.fixture(scope="module")
def hetero_sim():
    return _run(ArchVariant.HETERO_DSP, 30, 10.0)


@pytest.fixture(scope="module")
def slam_sim():
    return _run_recording_batches(ScenarioConfig(variant=ArchVariant.SLAM_ARCH,
                                                 camera_fps=50, duration_s=10.0))


class TestHeteroPipeline:
    @pytest.fixture
    def sim(self, hetero_sim):
        return hetero_sim

    def test_allocation_accounting(self, sim):
        # one allocation per completed relay copy (the last copy may still be
        # in flight when the run ends)
        copies = len(sim.stage_durations_ns[Stage.RELAY])
        assert sim.alloc_total_bytes == copies * sim.config.frame_size_bytes
        assert sim.frames_accepted - copies <= 1

    def test_gc_pauses_fire_and_last_120ms(self, sim):
        assert len(sim.gc_stalls) >= 2
        for start, end in sim.gc_stalls:
            assert end - start == 120 * NS_PER_MS

    def test_relay_copy_latency_in_range(self, sim):
        durations = sim.stage_durations_ns[Stage.RELAY]
        assert durations
        assert all(1 * NS_PER_MS <= d <= 3 * NS_PER_MS for d in durations)

    def test_frames_drop_only_during_gc_freeze(self, sim):
        reasons = [r.get("reason") for r in sim.trace
                   if r["transition"] == "FrameDropped"]
        assert reasons and set(reasons) == {"gc_frozen"}
        frozen = [(r["t_ns"]) for r in sim.trace if r["transition"] == "FrameDropped"]
        for t in frozen:
            assert any(start <= t < end for start, end in sim.gc_stalls)

    def test_dsp_work_survives_gc(self, sim):
        # feature extraction keeps completing despite pauses
        assert len(sim.stage_durations_ns[Stage.FEATURE_EXTRACTION]) > 0
        assert len(sim.update_completions) > 0


def test_task_frozen_by_two_gc_pauses():
    """An update task frozen twice: both completions scheduled before a
    freeze are stale and ignored, and the task books exactly its three
    running segments. Sources fire first at 1 s, so nothing else runs."""
    sim = Simulation(ScenarioConfig(variant=ArchVariant.HETERO_DSP, camera_fps=1,
                                    imu_rate_hz=1, duration_s=1.0, warmup_s=0.0))
    ms, pause = NS_PER_MS, ms_to_ns(sim.config.relay.gc_pause_ms)
    ex = sim.stage_exec[Stage.UPDATE]
    deliveries, done = [], []
    sim.engine.on(ex.target, lambda ev: (deliveries.append(ev.at), ex._on_task_done(ev)))
    booked, record_busy = [], sim.ledger.record_busy
    sim.ledger.record_busy = lambda unit, a, b: (booked.append((unit, a, b)),
                                                 record_busy(unit, a, b))
    sim._submit(Stage.UPDATE, None, lambda payload: done.append(sim.engine.now()))

    def gc_at(t_ns):
        sim.engine.run_until(t_ns)
        sim.alloc_counter_bytes = int(sim.config.relay.heap_budget_mib * 1024 * 1024)
        sim.maybe_gc()

    gc_at(5 * ms)
    gc_at(5 * ms + pause + 5 * ms)
    sim.run()

    end = 30 * ms + 2 * pause
    assert sim.gc_stalls == [(5 * ms, 5 * ms + pause),
                             (10 * ms + pause, 10 * ms + 2 * pause)]
    assert deliveries == [30 * ms, 30 * ms + pause, end]
    assert done == [end]
    assert sim.stage_durations_ns[Stage.UPDATE] == [30 * ms]
    segments = [(0, 5 * ms), (5 * ms + pause, 10 * ms + pause), (10 * ms + 2 * pause, end)]
    assert [(a, b) for unit, a, b in booked if unit == "cpu2"] == segments
    assert sim.ledger.busy_ns("cpu2") == 30 * ms


# A 1 kHz IMU makes many sample blocks, and a small heap budget makes
# hetero-dsp pause for GC about every 0.7 s.
SLICED_CONFIG = dict(imu_rate_hz=1000, duration_s=3.0, warmup_s=0.5,
                     relay=RelayConfig(heap_budget_mib=60.0))


@lru_cache(maxsize=None)
def _plain_run(variant):
    report, sim = run_scenario(ScenarioConfig(variant=variant, **SLICED_CONFIG))
    return report.to_json_line(), sim.trace, sim.gc_stalls, sim.duration_ns


def _structured_cuts(variant):
    """Cuts on and next to every IMU block and frame block boundary, and at
    the start, inside and at the end of every GC pause of the plain run."""
    _, _, gc_stalls, duration_ns = _plain_run(variant)
    seconds = int(SLICED_CONFIG["duration_s"])
    fps = ScenarioConfig(variant=variant, **SLICED_CONFIG).camera_fps
    cuts = []
    for rate, block in ((SLICED_CONFIG["imu_rate_hz"], IMU_BLOCK), (fps, FRAME_BLOCK)):
        for first in range(1, rate * seconds, block):
            t = (first * NS_PER_S) // rate
            cuts += [t - 1, t]
    for a, b in gc_stalls:
        cuts += [a, (a + b) // 2, b - 1, b]
    return [t for t in cuts if t <= duration_ns]


@pytest.mark.parametrize("variant", list(ArchVariant))
@given(cuts=st.lists(st.integers(0, int(SLICED_CONFIG["duration_s"] * NS_PER_S)),
                     max_size=12))
@settings(max_examples=3, deadline=None)
def test_sliced_run_matches_plain_run(variant, cuts):
    line, trace, gc_stalls, _ = _plain_run(variant)
    sim = Simulation(ScenarioConfig(variant=variant, **SLICED_CONFIG))
    for cut in sorted(cuts + _structured_cuts(variant)):
        sim.engine.run_until(cut)
    sim.run()
    assert build_report(sim).to_json_line() == line
    assert sim.trace == trace
    if variant is ArchVariant.HETERO_DSP:
        assert len(gc_stalls) >= 3


class TestSlamArchPipeline:
    @pytest.fixture
    def sim(self, slam_sim):
        return slam_sim[0]

    def test_back_pressure_throttles_instead_of_dropping(self, sim):
        assert sim.frames_throttled > 0
        assert sim.frames_dropped == 0
        assert sim.frames_accepted + sim.frames_throttled == sim.frames_offered

    def test_no_relay_and_no_gc(self, sim):
        assert not sim.stage_durations_ns[Stage.RELAY]
        assert sim.alloc_total_bytes == 0
        assert not sim.gc_stalls

    def test_bank_trace_audits_clean(self, sim):
        result = audit_trace(sim.trace)
        assert result.ok, result.first()

    def test_scratchpad_stage_latencies(self, sim):
        update = set(sim.stage_durations_ns[Stage.UPDATE])
        mapping = set(sim.stage_durations_ns[Stage.MAPPING])
        assert update == {24 * NS_PER_MS}
        assert mapping == {12 * NS_PER_MS}

    def test_imu_batching_consumes_everything_processed(self, slam_sim):
        sim, batches = slam_sim
        assert 0 < sim.imu_done <= sim.engine.sample_index
        assert _imu_counters(sim, batches)[0] >= 2  # samples buffer while mapping runs


def test_memory_path_override_changes_stage_times():
    slow = _run(ArchVariant.SLAM_ARCH, 50, 5.0, memory_path=None)
    from slamsim.soc import MemoryPath
    shared = _run(ArchVariant.SLAM_ARCH, 50, 5.0, memory_path=MemoryPath.SHARED)
    assert set(slow.stage_durations_ns[Stage.UPDATE]) == {24 * NS_PER_MS}
    assert set(shared.stage_durations_ns[Stage.UPDATE]) == {30 * NS_PER_MS}
    assert len(slow.update_completions) > len(shared.update_completions)


def test_same_seed_runs_are_identical():
    a = _run(ArchVariant.HETERO_DSP, 30, 5.0, seed=9)
    b = _run(ArchVariant.HETERO_DSP, 30, 5.0, seed=9)
    assert a.trace == b.trace
    assert a.update_completions == b.update_completions
    assert a.position_errors == b.position_errors


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_random_streams_are_the_documented_ones(name):
    """A run draws from exactly the streams the README names: "relay" only
    where a relay copies frames (hetero-dsp), and no "map" stream, as
    mapping draws nothing."""
    sim = Simulation(dataclasses.replace(preset(name), duration_s=3.0))
    sim.run()
    expected = {"landmarks", "imu", "features", "obs"}
    if name == "hetero-dsp":
        expected.add("relay")
    assert set(sim.engine._streams) == expected


def _replace_unit(variant, old_id, new_id, kind, stage):
    """The variant's table entry with unit `old_id` swapped for a `kind` unit
    that runs `stage`."""
    spec = VARIANTS[variant]
    units = tuple((new_id, kind) if uid == old_id else (uid, k) for uid, k in spec.units)
    return dataclasses.replace(
        spec, units=units, stage_units=MappingProxyType({**spec.stage_units, stage: new_id}))


class TestVariantTable:
    def test_a_new_variant_is_one_table_entry(self, monkeypatch):
        # hetero-dsp with feature extraction on a GPU instead of the DSP
        monkeypatch.setitem(VARIANTS, ArchVariant.HETERO_DSP, _replace_unit(
            ArchVariant.HETERO_DSP, "dsp", "gpu", UnitKind.GPU, Stage.FEATURE_EXTRACTION))
        soc = SocConfig(gpu_peak_power_w=3.1)
        sim = _run(ArchVariant.HETERO_DSP, 30, 5.0, soc=soc)

        assert list(sim.units) == ["cpu0", "cpu1", "cpu2", "cpu3", "gpu"]
        assert set(sim.stage_durations_ns[Stage.FEATURE_EXTRACTION]) == {50 * NS_PER_MS}
        gpu_busy = sim.ledger.busy_ns("gpu")
        cpu_busy = sum(sim.ledger.busy_ns(u) for u in ("cpu0", "cpu1", "cpu2", "cpu3"))
        assert gpu_busy > 0
        assert sim.ledger.dynamic_energy_j() == pytest.approx(
            (3.1 * gpu_busy + soc.cpu_peak_power_w * cpu_busy) / NS_PER_S)
        assert audit_trace(sim.trace).ok

    def test_stage_without_a_latency_entry_fails_at_build(self, monkeypatch):
        # propagation has latency entries for CPU cores only
        monkeypatch.setitem(VARIANTS, ArchVariant.BASELINE_CPU, _replace_unit(
            ArchVariant.BASELINE_CPU, "cpu1", "gpu", UnitKind.GPU, Stage.PROPAGATION))
        with pytest.raises(ConfigError, match="propagation on gpu"):
            Simulation(ScenarioConfig(variant=ArchVariant.BASELINE_CPU))

    def test_static_sources_follow_the_table_and_soc_config(self):
        soc = SocConfig(io_pin_power_w=0.3)
        slam = Simulation(ScenarioConfig(variant=ArchVariant.SLAM_ARCH, soc=soc))
        base = Simulation(ScenarioConfig(variant=ArchVariant.BASELINE_CPU, soc=soc))
        assert list(slam.ledger.static_sources_w.values()) == [0.3, 0.15, 0.002]
        assert base.ledger.static_sources_w == {}


# ---------------------------------------------------------------------------
# The lazy IMU source against the one-event-per-sample chain it replaced.

def _eager_samples(sim):
    """The `ImuSample`s 1, 2, ... of `sim`'s run, drawn with `sample_imu_block`
    in blocks of IMU_BLOCK from a copy of its "imu" stream."""
    rate, rng = sim.config.imu_rate_hz, Engine(sim.config.seed).stream("imu")
    for first in count(1, IMU_BLOCK):
        yield from sample_imu_block(
            sim.imu_model, sim.truth,
            [(j * NS_PER_S) // rate for j in range(first, first + IMU_BLOCK)], rng)


class EagerImuSimulation(Simulation):
    """Test oracle: every IMU sample is an engine event scheduled by its
    predecessor's handler. The handler draws the sample as an `ImuSample`,
    checks that it is due at the event's time, appends its index to a FIFO
    buffer and, under the shared handoff, kicks propagation, as does each
    propagation completion; kicks and the drain after mapping empty the
    buffer into a batch, the index of its last sample. Every unit, the
    propagation unit included, is a `UnitExecutor`: each task completion is
    an engine event."""

    def _executor(self, unit_id):
        return pipeline.UnitExecutor(self, unit_id)

    def _wire_sources(self):
        self.imu_buffer = deque()
        self.eager_high_water = 0
        self.eager_emitted = 0
        self.eager_samples = _eager_samples(self)
        self.engine.on("frames", self._on_frame_event)
        self.engine.on("imu", self._on_imu_event)
        self.engine.on("gc", self._on_gc_end)
        self.engine.schedule(NS_PER_S // self.config.camera_fps, "frames",
                             EventKind.FRAME_ARRIVED, 1)
        self.engine.schedule(NS_PER_S // self.config.imu_rate_hz, "imu",
                             EventKind.IMU_SAMPLE_READY, 1)

    def _on_imu_event(self, ev):
        k = ev.payload
        self.engine.schedule(((k + 1) * NS_PER_S) // self.config.imu_rate_hz,
                             "imu", EventKind.IMU_SAMPLE_READY, k + 1)
        self.eager_emitted += 1
        sample = next(self.eager_samples)
        assert (k, sample.t_ns) == (self.eager_emitted, ev.at)
        self.imu_buffer.append(k)
        self.eager_high_water = max(self.eager_high_water, len(self.imu_buffer))
        self._kick_propagation()

    def _kick_propagation(self):
        if self.spec.handoff is Handoff.SHARED and self.stage_exec[Stage.PROPAGATION].idle():
            self._propagate_delivered()

    def _apply_propagation(self, batch):
        super()._apply_propagation(batch)
        self._kick_propagation()

    def _propagate_delivered(self):
        batch = list(self.imu_buffer)
        self.imu_buffer.clear()
        if batch:
            assert batch == list(range(batch[0], batch[-1] + 1))
            self._submit(Stage.PROPAGATION, batch[-1], self._apply_propagation)


def _record_batches(sim):
    """Every propagation batch `sim` applies, as (completion time, last
    sample index)."""
    batches, apply = [], sim._apply_propagation

    def record(last):
        batches.append((sim.engine.now(), last))
        apply(last)

    sim._apply_propagation = record
    return batches


def _outputs(sim):
    return (build_report(sim).to_json_line(), sim.trace, sim.imu_done,
            sim.ledger.busy_per_unit(None))


def _assert_lazy_matches_eager(config, cuts=(), completion_cuts=()):
    """The simulation, run in slices ending at `cuts`, against the oracle.
    `completion_cuts` are (i, d) pairs: a cut d ns after the completion of
    the oracle's propagation batch i (modulo the batch count)."""
    eager = EagerImuSimulation(config)
    eager_batches = _record_batches(eager)
    eager.run()
    lazy = Simulation(config)
    lazy_batches = _record_batches(lazy)
    if eager_batches:
        cuts = list(cuts) + [min(lazy.duration_ns, eager_batches[i % len(eager_batches)][0] + d)
                             for i, d in completion_cuts]
    for cut in sorted(cuts):
        lazy.engine.run_until(cut)
    lazy.run()
    assert _outputs(lazy) == _outputs(eager)
    assert lazy_batches == eager_batches
    assert _imu_counters(lazy, lazy_batches) == (eager.eager_high_water, eager.eager_emitted)
    assert lazy.engine.delivered_count <= eager.engine.delivered_count
    return lazy, eager


# IMU rates whose sample period is a whole number of ns.
EVEN_RATES = [r for r in range(1, 1001) if NS_PER_S % r == 0]
EVEN_FPS = [r for r in EVEN_RATES if r <= 60]


@st.composite
def tie_heavy_configs(draw, variant):
    """A short run whose stage latencies, relay copies and GC pauses are whole
    multiples of the IMU sample period, or of a half, quarter or fifth of it,
    so that tasks started between samples can end on one."""
    rate = draw(st.one_of(st.sampled_from([20, 40, 50, 1000]), st.sampled_from(EVEN_RATES)))
    period_ns = NS_PER_S // rate
    parts = draw(st.sampled_from([d for d in (1, 1, 2, 4, 5) if period_ns % d == 0]))
    quantum_ms = period_ns // parts / NS_PER_MS
    periods = lambda hi: draw(st.integers(1, hi * parts)) * quantum_ms  # noqa: E731
    # A drain after a mapping stage no longer than one period can coincide
    # with a sample that was delivered when the stage started.
    mapping_ms = draw(st.one_of(st.integers(1, parts), st.integers(1, 30 * parts))) * quantum_ms
    soc = SocConfig(propagation_ms=periods(4), update_shared_ms=periods(40),
                    mapping_shared_ms=mapping_ms, feature_extraction_cpu_ms=periods(50),
                    feature_extraction_dsp_ms=periods(30), feature_access_fraction=0.0)
    if draw(st.booleans()):
        soc = SocConfig()  # the presets' latencies: on a 1 ms grid, some below a period
    copy_ms = periods(4)
    pause_ms = quantum_ms * draw(st.integers(int(100 / quantum_ms) + 1,
                                             int(150 / quantum_ms) + 1))
    relay = RelayConfig(copy_latency_ms_min=copy_ms, copy_latency_ms_max=copy_ms,
                        heap_budget_mib=draw(st.floats(12.0, 60.0)), gc_pause_ms=pause_ms)
    fps = draw(st.one_of(st.just(50), st.sampled_from(EVEN_FPS)))
    return ScenarioConfig(variant=variant, camera_fps=fps,
                          imu_rate_hz=rate, duration_s=draw(st.sampled_from([1.0, 1.5, 2.0])),
                          warmup_s=0.5, seed=draw(st.integers(0, 2 ** 16)), soc=soc,
                          relay=relay)


def _run_recording_targets(config):
    """Build and run a `Simulation` of `config`; return it and the target of
    every event its engine scheduled, from construction to the end."""
    targets = []
    schedule = Engine.schedule

    def recording(engine, at, target, kind, payload=None):
        targets.append(target)
        return schedule(engine, at, target, kind, payload)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "schedule", recording)
        sim = Simulation(config)
        sim.run()
    return sim, targets


class TestLazyImuSource:
    @pytest.mark.parametrize("variant", list(ArchVariant))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_tie_heavy_runs_match_the_event_chain(self, variant, data):
        _assert_lazy_matches_eager(data.draw(tie_heavy_configs(variant)))

    @pytest.mark.parametrize("variant", list(ArchVariant))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_runs_sliced_at_sample_times_match_the_event_chain(self, variant, data):
        # Cuts fall on, and next to, sample times and propagation completions.
        config = data.draw(tie_heavy_configs(variant))
        rate, end = config.imu_rate_hz, int(config.duration_s * NS_PER_S)
        ks = data.draw(st.lists(st.integers(1, int(config.duration_s * rate)), max_size=8))
        offsets = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(ks),
                                     max_size=len(ks)))
        cuts = [min(end, (k * NS_PER_S) // rate + d) for k, d in zip(ks, offsets)]
        completions = data.draw(st.lists(st.tuples(st.integers(0, 10 ** 4),
                                                   st.sampled_from([-1, 0, 1])), max_size=8))
        _assert_lazy_matches_eager(config, cuts, completions)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slam_arch_with_a_sample_period_longer_than_mapping(self, seed):
        # At 40 Hz a 25 ms period outlasts the 12 ms mapping stage, so many
        # drains after mapping find no sample, or exactly the one due then.
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=50,
                                imu_rate_hz=40, duration_s=4.0, warmup_s=1.0, seed=seed)
        _assert_lazy_matches_eager(config)
        _assert_lazy_matches_eager(dataclasses.replace(
            config, soc=SocConfig(feature_access_fraction=0.0)))

    @pytest.mark.parametrize("budget", [12.0, 30.0, 60.0])
    def test_hetero_dsp_under_gc_freezes(self, budget):
        config = ScenarioConfig(variant=ArchVariant.HETERO_DSP, imu_rate_hz=1000,
                                duration_s=4.0, relay=RelayConfig(heap_budget_mib=budget))
        _assert_lazy_matches_eager(config)

    @pytest.mark.parametrize("variant, unit", [(ArchVariant.BASELINE_CPU, "cpu2"),
                                               (ArchVariant.HETERO_DSP, "cpu0")])
    def test_propagation_on_a_unit_shared_with_another_stage(self, variant, unit):
        # The shared handoff's propagation unit is the lazy server, which
        # runs no other stage: the variant table refuses such an entry.
        spec = VARIANTS[variant]
        with pytest.raises(ConfigError, match=f"{unit} also runs another stage"):
            dataclasses.replace(spec, stage_units=MappingProxyType(
                {**spec.stage_units, Stage.PROPAGATION: unit}))

    @pytest.mark.parametrize("variant", [ArchVariant.BASELINE_CPU, ArchVariant.HETERO_DSP])
    def test_sub_nanosecond_propagation_is_a_zero_length_task(self, variant):
        config = ScenarioConfig(variant=variant, imu_rate_hz=1000, duration_s=2.0,
                                warmup_s=0.5, soc=SocConfig(propagation_ms=1e-7),
                                relay=RelayConfig(heap_budget_mib=30.0))
        lazy, _ = _assert_lazy_matches_eager(config)
        assert set(lazy.stage_durations_ns[Stage.PROPAGATION]) == {0}
        assert lazy.ledger.busy_ns("cpu1") == 0

    def test_events_only_where_a_sample_can_start_propagation(self):
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, duration_s=2.0, warmup_s=0.5)
        sim, targets = _run_recording_targets(config)
        # Two-bank: samples never kick propagation; cpu0 drains them after mapping.
        assert set(targets) == {"frames", "exec:dsp", "exec:cpu0", "exec:cpu1"}
        assert sim.engine.sample_index == 400


class TestPropagationServer:
    """The propagation-only unit of the shared handoff is a lazy server: its
    tasks and the samples that wake it take no engine event."""

    def test_only_a_propagation_only_shared_unit_is_a_server(self):
        servers = {variant: [uid for uid, ex in Simulation(ScenarioConfig(variant=variant))
                             .execs.items() if isinstance(ex, PropagationServer)]
                   for variant in ArchVariant}
        assert servers == {ArchVariant.BASELINE_CPU: ["cpu1"],
                           ArchVariant.HETERO_DSP: ["cpu1"], ArchVariant.SLAM_ARCH: []}

    def test_hetero_dsp_at_1_khz_delivers_no_propagation_or_imu_event(self):
        config = ScenarioConfig(variant=ArchVariant.HETERO_DSP, imu_rate_hz=1000,
                                duration_s=3.0, warmup_s=0.5,
                                relay=RelayConfig(heap_budget_mib=30.0))
        sim, targets = _run_recording_targets(config)
        assert set(targets) == {"frames", "gc", "exec:dsp", "exec:cpu0", "exec:cpu2",
                                "exec:cpu3"}
        assert len(sim.stage_durations_ns[Stage.PROPAGATION]) > 1000
        assert sim.gc_stalls
        eager = EagerImuSimulation(config)
        eager.run()
        assert sim.engine.delivered_count <= 0.3 * eager.engine.delivered_count

    def test_baseline_cpu_delivers_no_imu_event(self):
        sim, targets = _run_recording_targets(
            ScenarioConfig(variant=ArchVariant.BASELINE_CPU, duration_s=3.0))
        assert set(targets) == {"frames", "exec:cpu0", "exec:cpu2", "exec:cpu3"}
        assert sim.imu_done > 0


# ---------------------------------------------------------------------------
# Deferred integration against integrating each batch as its task completes.

class EagerPropagationSimulation(Simulation):
    """Test oracle: every completed propagation batch is drawn as
    `ImuSample`s with `sample_imu_block` and integrated into the estimate at
    once by the public `propagate`, each call chained to the previous batch's
    last sample."""

    def __init__(self, config):
        super().__init__(config)
        self.eager_samples = _eager_samples(self)
        self.eager_prev = None

    def _apply_propagation(self, last):
        assert self.imu_done < last
        samples = [next(self.eager_samples) for _ in range(self.imu_done, last)]
        prev = self.eager_prev
        self._est_pose = propagate(self._est_pose, samples, prev.t_ns if prev else 0,
                                   prev_sample=prev)
        self.eager_prev = samples[-1]
        self.imu_done = self.imu_integrated = last


def _pose_bits(pose):
    return tuple(map(float.hex, pose.position + pose.velocity + pose.orientation))


def _estimates(sim, cuts=()):
    """Run `sim`, cut at `cuts`; the estimate's bits after every update, at
    every cut and at the end, and the report line."""
    after_updates, apply = [], sim._apply_update

    def record(block):
        apply(block)
        after_updates.append((sim.engine.now(), _pose_bits(sim.est_pose)))

    sim._apply_update = record
    at_cuts = []
    for cut in sorted(cuts):
        sim.engine.run_until(cut)
        at_cuts.append(_pose_bits(sim.est_pose))
    sim.run()
    at_cuts.append(_pose_bits(sim.est_pose))
    return (after_updates, at_cuts, build_report(sim).to_json_line(), sim.imu_done)


class TestDeferredIntegration:
    @pytest.mark.parametrize("variant", list(ArchVariant))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_estimate_matches_integration_on_completion(self, variant, data):
        config = data.draw(tie_heavy_configs(variant))
        cuts = data.draw(st.lists(st.integers(0, int(config.duration_s * NS_PER_S)),
                                  max_size=8))
        assert _estimates(Simulation(config), cuts) == \
            _estimates(EagerPropagationSimulation(config), cuts)

    @pytest.mark.parametrize("variant", list(ArchVariant))
    def test_integration_runs_once_per_read(self, monkeypatch, variant):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "integrate", counting)
        config = ScenarioConfig(variant=variant, imu_rate_hz=1000, duration_s=3.0,
                                relay=RelayConfig(heap_budget_mib=30.0))
        sim = Simulation(config)
        updates = _estimates(sim)[0]
        assert 0 < len(calls) <= len(updates) + 1
        assert updates == _estimates(EagerPropagationSimulation(config))[0]


class TestImuBlockSize:
    """The rows do not depend on the block size `_imu_row_blocks` draws them
    in. The oracles above draw with the same IMU_BLOCK, so they cannot see a
    dependence on it; these runs compare the estimate bits after every
    update, at the end, and the report line across block sizes."""

    BLOCKS = (1, 7, 128, IMU_BLOCK)

    @staticmethod
    def _assert_same_across_blocks(config):
        seen = []
        for block in TestImuBlockSize.BLOCKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "IMU_BLOCK", block)
                seen.append(_estimates(Simulation(config)))
        assert all(result == seen[0] for result in seen[1:])
        return seen[0]

    def test_hetero_dsp_at_1_khz(self):
        config = ScenarioConfig(variant=ArchVariant.HETERO_DSP, imu_rate_hz=1000,
                                duration_s=3.0, warmup_s=0.5,
                                relay=RelayConfig(heap_budget_mib=30.0))
        after_updates = self._assert_same_across_blocks(config)[0]
        assert len(after_updates) > 50

    @pytest.mark.parametrize("variant", list(ArchVariant))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_tie_heavy_runs(self, variant, data):
        self._assert_same_across_blocks(data.draw(tie_heavy_configs(variant)))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_frame_blocks_do_not_depend_on_the_run_length(name):
    """Every frame block spans FRAME_BLOCK frames, the run's last one too:
    a 2 s and a 30 s run make the same block around the 2 s run's last
    frame, and around the first."""
    short, long = (Simulation(dataclasses.replace(preset(name), duration_s=d, warmup_s=0.5))
                   for d in (2.0, 30.0))
    for frame_id in (1, 2 * short.config.camera_fps):
        first = (frame_id - 1) // FRAME_BLOCK * FRAME_BLOCK + 1
        frames, block = short._frame_block(frame_id)
        assert frames == long._frame_block(frame_id)[0] == \
            range(first, first + FRAME_BLOCK)
        assert (block is None) == (long._frame_block(frame_id)[1] is None)


@pytest.mark.blas_bits
class TestFrameBlockSize:
    """Frames take their visible landmarks from blocks of FRAME_BLOCK; the
    reports and traces must not depend on the block size, on any preset and
    on a dense map, where every frame hits the feature cap."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        self._assert_same_across_blocks(dataclasses.replace(preset(name), duration_s=10.0))

    def test_dense_map(self):
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=50, duration_s=5.0,
                                kernel=KernelConfig(landmark_count=4000))
        self._assert_same_across_blocks(config)

    def test_fast_trajectory(self):
        """A dense map on a loop four times as fast as the default: every
        full block lies compact around its middle pose and is classified,
        and the report and trace equal the per-frame path's."""
        config = ScenarioConfig(variant=ArchVariant.SLAM_ARCH, camera_fps=50, duration_s=5.0,
                                kernel=KernelConfig(landmark_count=4000,
                                                    trajectory_period_s=15.0))
        full, check = [], pipeline.is_compact

        def recording(positions, *args):
            compact = check(positions, *args)
            if len(positions) == pipeline.FRAME_BLOCK > 1:
                full.append(compact)
            return compact

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "is_compact", recording)
            self._assert_same_across_blocks(config)
        assert len(full) > 10 and all(full)

    @pytest.mark.parametrize("period_s, compact", [(60.0, True), (15.0, True), (5.0, False),
                                                   (1.0, False)])
    def test_only_compact_blocks_are_made(self, period_s, compact):
        """Classifying pays only for a block whose frames stay close: for
        one that turns or moves far, by its first and last poses against its
        middle one, the pipeline makes no block, and its frames call
        `visible` one by one."""
        kernel_config = KernelConfig(landmark_count=400, trajectory_period_s=period_s)
        sim = Simulation(ScenarioConfig(variant=ArchVariant.SLAM_ARCH, duration_s=5.0,
                                        camera_fps=50, kernel=kernel_config))
        frames, block = sim._frame_block(1)
        assert (block is not None) == compact
        for j in frames:
            t_ns = j * NS_PER_S // 50
            want = sim.field.visible(sim.truth.pose_at(t_ns), kernel_config.visibility_range_m,
                                     kernel_config.fov_deg)
            frame = sim._make_frame(j)
            assert frame.t_ns == t_ns
            assert frame.visible_landmarks.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_frames_past_the_end(self, name):
        """`run_until` past the end of `run()` still makes frames: each frame
        after the run's last one gets a frame block that reaches it, and the
        ids of a per-frame `visible` call. The continuation accepts frames
        and matches the one after `run_until(duration)`, which ends no task."""
        config = dataclasses.replace(preset(name), duration_s=2.0, warmup_s=0.5)
        sim, plain = Simulation(config), Simulation(config)
        sim.run()
        plain.engine.run_until(plain.duration_ns)
        accepted = sim.frames_accepted
        made, make = [], sim._make_frame

        def record(frame_id):
            made.append(make(frame_id))
            return made[-1]

        sim._make_frame = record
        sim.engine.run_until(sim.duration_ns + 2 * NS_PER_S)
        plain.engine.run_until(plain.duration_ns + 2 * NS_PER_S)
        assert sim.frames_accepted > accepted
        assert (sim.frames_accepted, sim.update_completions, sim.trace) == \
            (plain.frames_accepted, plain.update_completions, plain.trace)
        k, fps = sim.config.kernel, sim.config.camera_fps
        assert made
        for frame in made:
            assert sim.duration_ns < frame.t_ns == frame.frame_id * NS_PER_S // fps
            want = sim.field.visible(sim.truth.pose_at(frame.t_ns), k.visibility_range_m,
                                     k.fov_deg)
            assert frame.visible_landmarks.tobytes() == want.tobytes()

    @staticmethod
    def _assert_same_across_blocks(config):
        """The same for blocks of 1, 7 and 32 frames, and for blocks of 32
        that test their edge landmarks one frame at a time."""
        seen = []
        for block, rows in ((1, kernel._STACKED_ROWS), (7, kernel._STACKED_ROWS),
                            (32, kernel._STACKED_ROWS), (32, 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "FRAME_BLOCK", block)
                mp.setattr(kernel, "_STACKED_ROWS", rows)
                report, sim = run_scenario(config)
            seen.append((report.to_json_line(), sim.trace))
        assert all(result == seen[0] for result in seen[1:])


# ---------------------------------------------------------------------------
# The timing skeleton reaches the kernel only through five seams and reads
# nothing they return (see the module notes of slamsim.pipeline).

SEAMS = ("_make_frame", "_extract_features", "_integrate_pending", "_apply_update",
         "_apply_mapping")
# Report fields the kernel makes; every other field is the timing model's.
KERNEL_FIELDS = ("map_size", "rms_position_error_m")
_HANDLE = object()


class NullKernelSimulation(Simulation):
    """The five seams as no-ops: every frame and every feature block is one
    opaque handle, the estimate is never integrated, and no update or
    mapping reaches the kernel."""

    def _make_frame(self, frame_id):
        return _HANDLE

    def _extract_features(self, frame):
        assert frame is _HANDLE
        return _HANDLE

    def _integrate_pending(self):
        pass

    def _apply_update(self, block):
        assert block is _HANDLE

    def _apply_mapping(self, block):
        assert block is _HANDLE


_CALIBRATIONS = [PowerCalibration(baseline_static_w=static, unit_idle_fraction=idle)
                 for static, idle in ((0.0, 0.05), (0.4, 0.3), (1.1, 0.6), (2.0, 0.95))]


def _timing_outputs(sim, ignore=KERNEL_FIELDS):
    """Run `sim`: its trace file's text, its report's JSON line without the
    `ignore` fields, and its average power re-priced under four
    calibrations."""
    sim.run()
    report = build_report(sim).to_dict()
    for key in ignore:
        del report[key]
    trace = io.StringIO()
    dump_trace(sim.trace, trace)
    prices = [sim.ledger.average_power_w((0, sim.duration_ns), cal).hex()
              for cal in _CALIBRATIONS]
    return trace.getvalue(), json.dumps(report, sort_keys=True), prices


class TestNullKernel:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        config = dataclasses.replace(preset(name), duration_s=8.0)
        assert _timing_outputs(NullKernelSimulation(config)) == \
            _timing_outputs(Simulation(config))

    @given(test_scenario._scenario())
    @settings(max_examples=40, deadline=None)
    def test_any_scenario(self, data):
        try:
            config = ScenarioConfig.from_dict(data)
        except ConfigError:
            assume(False)
        assert _timing_outputs(NullKernelSimulation(config)) == \
            _timing_outputs(Simulation(config))


@lru_cache(maxsize=None)
def _default_kernel_outputs(variant):
    return _timing_outputs(Simulation(ScenarioConfig.from_dict(
        {"variant": variant, "duration_s": 3.0})), KERNEL_FIELDS + ("config_digest",))


@pytest.mark.parametrize("variant", PRESET_NAMES)
@given(section=st.fixed_dictionaries(test_scenario._VALID["kernel"]))
@settings(max_examples=10, deadline=None)
def test_kernel_section_moves_no_timing_output(variant, section):
    """Metamorphic: any kernel section leaves the trace and every report
    field that the timing model makes as the default section leaves them."""
    config = ScenarioConfig.from_dict({"variant": variant, "duration_s": 3.0,
                                       "kernel": section})
    assert _timing_outputs(Simulation(config), KERNEL_FIELDS + ("config_digest",)) == \
        _default_kernel_outputs(variant)


# Besides the names `pipeline` binds from `kernel`, what only the kernel side
# of a `Simulation` may name: its state, the helpers of the seams, the
# kernel config section and the fields of the kernel's records (as attribute
# names), and the kernel's random streams (as constants).
KERNEL_STATE = ("truth", "imu_model", "field", "world_map", "_est_pose", "imu_integrated",
                "imu_blocks", "imu_rows", "imu_accel", "frame_range", "frame_block",
                "position_errors")
KERNEL_HELPERS = ("_frame_block", "_imu_row_blocks", "est_pose")
KERNEL_STREAMS = ("landmarks", "features", "obs", "imu")


def _kernel_names(module, func):
    """The names and stream constants in `func`'s bytecode, nested code
    included, that only the kernel side of `module`'s skeleton may use."""
    bound = {name for name, value in vars(module).items()
             if getattr(value, "__module__", None) == kernel.__name__}
    fields = {f.name for cls in (kernel.CameraFrame, kernel.Pose)
              for f in dataclasses.fields(cls)}
    fields |= {*kernel.FeatureBlock._fields, *kernel.ImuSample._fields}
    forbidden = bound | fields | {*KERNEL_STATE, *KERNEL_HELPERS, "kernel"}
    found, codes = set(), [func.__code__]
    while codes:
        code = codes.pop()
        found |= forbidden.intersection(code.co_names)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                codes.append(const)
            elif isinstance(const, str) and const in KERNEL_STREAMS:
                found.add(const)
    return found


def _methods(module):
    """Qualified name -> function of every method of the timing skeleton's
    classes, property getters included."""
    return {f"{cls.__name__}.{name}": value.fget if isinstance(value, property) else value
            for cls in (module._Unit, module.UnitExecutor, module.PropagationServer,
                        module.Simulation)
            for name, value in vars(cls).items()
            if isinstance(value, (types.FunctionType, property))}


def _kernel_reach(module):
    """{method: names} for every timing method of `module` that names what
    only the seams may; empty if the skeleton reaches the kernel only
    through them."""
    kernel_side = {"__init__", *SEAMS, *KERNEL_HELPERS}
    reach = {qualname: _kernel_names(module, func)
             for qualname, func in _methods(module).items()
             if qualname.split(".")[1] not in kernel_side}
    return {qualname: names for qualname, names in reach.items() if names}


class TestKernelGuard:
    def test_timing_methods_reach_the_kernel_only_through_the_seams(self):
        assert _kernel_reach(pipeline) == {}

    def test_every_seam_and_helper_names_the_kernel(self):
        """The guard sees each seam's kernel use, and its lists name what
        the simulation has."""
        methods = _methods(pipeline)
        for name in SEAMS + KERNEL_HELPERS:
            assert _kernel_names(pipeline, methods[f"Simulation.{name}"]), name
        sim = Simulation(preset("slam-arch"))
        assert all(hasattr(sim, name) for name in KERNEL_STATE)
