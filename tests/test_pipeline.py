import dataclasses
from types import MappingProxyType

import pytest

from slamsim.engine import NS_PER_MS, NS_PER_S, ms_to_ns
from slamsim.kernel import ImuSample
from slamsim.pipeline import ImuBatchBuffer, Simulation, StallTracker
from slamsim.report import audit_trace
from slamsim.scenario import VARIANTS, ArchVariant, ScenarioConfig
from slamsim.soc import ConfigError, SocConfig, Stage, UnitKind


def _run(variant, fps, duration_s, **kwargs):
    config = ScenarioConfig(variant=variant, camera_fps=fps,
                            duration_s=duration_s, **kwargs)
    sim = Simulation(config)
    sim.run()
    return sim


class TestStallTracker:
    def test_counts_gaps_over_threshold(self):
        tr = StallTracker(loss_threshold_ns=ms_to_ns(100))
        tr.record_update_completion(ms_to_ns(50))
        tr.record_update_completion(ms_to_ns(120))
        assert tr.loss_count == 0
        tr.record_update_completion(ms_to_ns(300))
        assert tr.loss_count == 1


class TestImuBatchBuffer:
    def test_push_drain_high_water(self):
        buf = ImuBatchBuffer()
        for t in (1, 2, 3):
            buf.push(ImuSample(t_ns=t, gyro=None, accel=None))
        assert buf.high_water == 3
        batch = buf.drain()
        assert [s.t_ns for s in batch] == [1, 2, 3]
        assert not buf.samples
        buf.push(ImuSample(t_ns=4, gyro=None, accel=None))
        assert buf.high_water == 3  # high-water mark persists


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
    return _run(ArchVariant.SLAM_ARCH, 50, 10.0)


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


class TestSlamArchPipeline:
    @pytest.fixture
    def sim(self, slam_sim):
        return slam_sim

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

    def test_imu_batching_consumes_everything_processed(self, sim):
        assert 0 < sim.imu_samples_processed <= sim.imu_samples_emitted
        assert sim.imu_buffer.high_water >= 2  # samples buffer while mapping runs


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
    assert a.error_samples == b.error_samples


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
