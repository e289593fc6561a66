import pytest
from hypothesis import given, settings, strategies as st

from slamsim.engine import NS_PER_MS, NS_PER_S
from slamsim.soc import (ComputeUnitSpec, ConfigError, LatencyTable, LedgerError,
                         MemoryPath, PowerCalibration, PowerLedger, SocConfig,
                         Stage, UnitKind, task_energy_mj)


@pytest.fixture
def table():
    return LatencyTable.default()


class TestLatencyTable:
    def test_feature_extraction_latencies(self, table):
        assert table.stage_latency_ms(Stage.FEATURE_EXTRACTION, UnitKind.CPU_CORE) == 45.0
        assert table.stage_latency_ms(Stage.FEATURE_EXTRACTION, UnitKind.GPU) == 50.0
        assert table.stage_latency_ms(Stage.FEATURE_EXTRACTION, UnitKind.DSP) == 20.0

    def test_scratchpad_path_latencies(self, table):
        assert table.stage_latency_ms(Stage.UPDATE, UnitKind.CPU_CORE,
                                      MemoryPath.SCRATCHPAD) == 24.0
        # derived: shared value x (1 - feature access fraction)
        shared = table.stage_latency_ms(Stage.MAPPING, UnitKind.CPU_CORE, MemoryPath.SHARED)
        expected = shared * (1.0 - 0.20)
        assert table.stage_latency_ms(Stage.MAPPING, UnitKind.CPU_CORE,
                                      MemoryPath.SCRATCHPAD) == pytest.approx(expected)
        assert expected == pytest.approx(12.0)

    def test_unmapped_pair_is_a_config_error(self, table):
        with pytest.raises(ConfigError):
            table.stage_latency_ms(Stage.PROPAGATION, UnitKind.GPU)

    def test_every_entry_derives_from_soc_config(self):
        soc = SocConfig(feature_extraction_cpu_ms=41.0, feature_extraction_gpu_ms=52.0,
                        feature_extraction_dsp_ms=18.0, propagation_ms=3.0,
                        update_shared_ms=40.0, mapping_shared_ms=10.0,
                        feature_access_fraction=0.5)
        table = LatencyTable.default(soc)
        cpu, fe = UnitKind.CPU_CORE, Stage.FEATURE_EXTRACTION
        assert [table.stage_latency_ms(fe, kind)
                for kind in (cpu, UnitKind.GPU, UnitKind.DSP)] == [41.0, 52.0, 18.0]
        assert table.stage_latency_ms(Stage.PROPAGATION, cpu) == 3.0
        assert table.stage_latency_ms(Stage.UPDATE, cpu, MemoryPath.SHARED) == 40.0
        assert table.stage_latency_ms(Stage.MAPPING, cpu, MemoryPath.SHARED) == 10.0
        assert table.stage_latency_ms(Stage.UPDATE, cpu, MemoryPath.SCRATCHPAD) == 20.0
        assert table.stage_latency_ms(Stage.MAPPING, cpu, MemoryPath.SCRATCHPAD) == 5.0


class TestTaskEnergy:
    def test_dsp_feature_extraction_energy(self, table):
        assert task_energy_mj(table, Stage.FEATURE_EXTRACTION, UnitKind.DSP) == \
            pytest.approx(30.0)

    def test_cpu_feature_extraction_energy_within_1pct_of_112(self, table):
        e = task_energy_mj(table, Stage.FEATURE_EXTRACTION, UnitKind.CPU_CORE)
        assert e == pytest.approx(112.5)
        assert abs(e - 112.0) / 112.0 < 0.01

    def test_gpu_feature_extraction_energy(self, table):
        assert task_energy_mj(table, Stage.FEATURE_EXTRACTION, UnitKind.GPU) == \
            pytest.approx(115.0)


@pytest.fixture
def ledger():
    units = {
        "cpu0": ComputeUnitSpec("cpu0", UnitKind.CPU_CORE),
        "dsp": ComputeUnitSpec("dsp", UnitKind.DSP),
    }
    return PowerLedger(units)


class TestPowerLedger:
    def test_dsp_busy_20ms_adds_30mj(self, ledger):
        ledger.record_busy("dsp", 0, 20 * NS_PER_MS)
        assert ledger.dynamic_energy_j() == pytest.approx(0.030)

    def test_zero_length_interval_rejected(self, ledger):
        with pytest.raises(LedgerError):
            ledger.record_busy("cpu0", 5, 5)

    def test_overlapping_interval_is_a_hard_fault(self, ledger):
        ledger.record_busy("cpu0", 0, 100)
        with pytest.raises(LedgerError):
            ledger.record_busy("cpu0", 50, 150)

    def test_fully_busy_core_for_1s(self, ledger):
        ledger.record_busy("cpu0", 0, NS_PER_S)
        window = (0, NS_PER_S)
        assert ledger.utilization("cpu0", window) == 1.0
        assert ledger.units["cpu0"].peak_power_w * ledger.busy_ns("cpu0", window) \
            / NS_PER_S == pytest.approx(2.5)

    def test_idle_system_with_only_scratchpad_leakage(self):
        soc = SocConfig()
        ledger = PowerLedger({"cpu0": ComputeUnitSpec("cpu0", UnitKind.CPU_CORE)},
                             {"scratchpad_leakage": soc.scratchpad_leakage_w})
        cal = PowerCalibration(baseline_static_w=0.0, unit_idle_fraction=0.0)
        assert ledger.average_power_w((0, NS_PER_S), cal) == pytest.approx(0.002)

    def test_empty_window_is_an_error(self, ledger):
        with pytest.raises(LedgerError):
            ledger.average_power_w((5, 5), PowerCalibration())

    def test_evaluation_walks_each_unit_once(self, ledger, monkeypatch):
        walked = []
        busy_ns = PowerLedger.busy_ns

        def counting(self, unit_id, window=None):
            walked.append(unit_id)
            return busy_ns(self, unit_id, window)

        monkeypatch.setattr(PowerLedger, "busy_ns", counting)
        ledger.average_power_w((0, NS_PER_S), PowerCalibration())
        assert walked == ["cpu0", "dsp"]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 20)), max_size=20),
       st.floats(0.0, 1.0), st.floats(0.0, 3.0))
def test_ledger_conservation(chunks, idle_fraction, static_w):
    """Total energy equals dynamic + idle + static, recomputed independently."""
    unit = ComputeUnitSpec("u", UnitKind.CPU_CORE)
    ledger = PowerLedger({"u": unit}, {"src": 0.1})
    cursor = 0
    busy = 0
    for gap, width in chunks:
        start = cursor + gap
        ledger.record_busy("u", start * NS_PER_MS, (start + width) * NS_PER_MS)
        busy += width
        cursor = start + width
    window = (0, max(cursor, 1) * NS_PER_MS)
    cal = PowerCalibration(baseline_static_w=static_w, unit_idle_fraction=idle_fraction)
    span_s = (window[1] - window[0]) / NS_PER_S
    busy_s = busy * NS_PER_MS / NS_PER_S
    expected = (unit.peak_power_w * busy_s
                + idle_fraction * unit.peak_power_w * (span_s - busy_s)
                + (static_w + 0.1) * span_s)
    assert ledger.total_energy_j(window, cal) == pytest.approx(expected)
    assert ledger.average_power_w(window, cal) * span_s == \
        pytest.approx(ledger.total_energy_j(window, cal))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 30)), max_size=25),
       st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(-50, 1200), st.integers(0, 1300)), max_size=10))
@settings(max_examples=50)
def test_busy_ns_total_matches_the_interval_walk(chunks, random, windows):
    """The running total (any window holding every interval) and the walk
    (partial windows) agree with a direct sum over the clipped intervals,
    for intervals recorded out of order."""
    intervals, cursor = [], 0
    for gap, width in chunks:
        intervals.append((cursor + gap, cursor + gap + width))
        cursor += gap + width
    random.shuffle(intervals)
    ledger = PowerLedger({"u": ComputeUnitSpec("u", UnitKind.CPU_CORE)})
    for a, b in intervals:
        ledger.record_busy("u", a, b)
    covering = [(0, cursor), (-5, cursor + 5)] + ([(0, 0)] if not intervals else [])
    for t0, t1 in windows + covering:
        expected = sum(max(0, min(b, t1) - max(a, t0)) for a, b in intervals)
        assert ledger.busy_ns("u", (t0, t1)) == expected
    assert ledger.busy_ns("u") == sum(b - a for a, b in intervals)


def test_scratchpad_bank_holds_a_feature_block():
    soc = SocConfig()
    assert soc.bank_capacity_bytes == 4096
    from slamsim.kernel import FEATURE_BLOCK_MAX_BYTES
    assert soc.bank_capacity_bytes >= FEATURE_BLOCK_MAX_BYTES


def test_soc_config_peak_power_per_kind():
    soc = SocConfig(cpu_peak_power_w=2.0, dsp_peak_power_w=1.0, gpu_peak_power_w=3.0)
    assert [soc.peak_power_w(k) for k in (UnitKind.CPU_CORE, UnitKind.DSP, UnitKind.GPU)] \
        == [2.0, 1.0, 3.0]


def test_unit_peak_power_defaults():
    assert ComputeUnitSpec("c", UnitKind.CPU_CORE).peak_power_w == 2.5
    assert ComputeUnitSpec("d", UnitKind.DSP).peak_power_w == 1.5
    assert ComputeUnitSpec("g", UnitKind.GPU).peak_power_w == 2.3
    with pytest.raises(ConfigError):
        ComputeUnitSpec("bad", UnitKind.DSP, peak_power_w=-1.0)
