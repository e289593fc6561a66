"""Short self-check of the benchmark harness (a few seconds per workload).

    python3 -m pytest -q perfbench/test_selfcheck.py

Runs every workload at a shortened simulated duration and checks that the
harness cannot perturb the simulation: plain, sliced and traced runs give
the same report digests. It also checks that the traced op's layer self
times account for its wall time, and that the recorded digest table covers
every seed the benchmark can draw.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import record_digests  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from slamsim.scenario import ScenarioConfig, preset  # noqa: E402

SHORT_SIM_S = 4.0
SEED = 3


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request):
    return workloads.WORKLOADS[request.param]


def traced_op(workload):
    tracer = tracing.Tracer()
    tracer.op = 0
    clock = workloads.Clock(gauge=True)
    res = tracing.traced_op(workload, SEED, tracer, clock, duration_s=SHORT_SIM_S)
    tracing.count_sims(tracer, res.sims, audited=workload.audits)
    return res, tracer, sum(workloads.nominal_host_s(clock.intervals))


def test_plain_sliced_and_traced_digests_agree(workload):
    plain = record_digests.plain_digests(workload, SEED, SHORT_SIM_S)
    assert record_digests.plain_digests(workload, SEED, SHORT_SIM_S) == plain
    clock = workloads.Clock()
    sliced = workloads.run_op(workload, SEED, clock=clock, duration_s=SHORT_SIM_S)
    slices = [iv for iv in clock.intervals if iv.kind == "slice"]
    assert len(slices) == len(sliced.sims) * SHORT_SIM_S * 1e9 / workloads.SLICE_NS
    assert sum(iv.sim_s for iv in slices) == pytest.approx(len(sliced.sims) * SHORT_SIM_S)
    assert sliced.digests == plain
    assert sliced.audit_ok
    traced, _, _ = traced_op(workload)
    assert traced.digests == plain


def test_layer_self_times_account_for_traced_op_wall(workload):
    _, tracer, wall_s = traced_op(workload)
    m = tracing.layer_metrics(tracer, [wall_s], [wall_s])
    # `scenario` has one span, from_dict; every other layer reports its total.
    layers = m["scenario.from_dict.self_s"] + sum(
        m[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "scenario")
    assert abs(1.0 - layers / wall_s) <= tracing.ACCOUNTING_TOLERANCE
    assert abs(m["trace.unattributed_share"]) <= tracing.ACCOUNTING_TOLERANCE


def test_instrumentation_is_removed_after_the_traced_op(workload):
    import slamsim.engine
    import slamsim.kernel
    import slamsim.pipeline
    traced_op(workload)
    assert slamsim.pipeline.propagate is slamsim.kernel.propagate
    assert slamsim.pipeline.sample_imu is slamsim.kernel.sample_imu
    assert "traced" not in slamsim.engine.Engine.run_until.__qualname__
    assert "traced" not in slamsim.kernel.LandmarkField.visible.__qualname__


@pytest.mark.parametrize("name", ["baseline-cpu", "hetero-dsp", "slam-arch"])
def test_generated_preset_dicts_are_the_library_presets(name):
    scenario = workloads.WORKLOADS["paper-presets"].scenario_dicts(SEED)[name]
    assert ScenarioConfig.from_dict(scenario) == dataclasses.replace(preset(name), seed=SEED)


def test_recorded_digests_cover_every_drawable_seed():
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    seeds = {str(s) for s in workloads.BENCH_POOL + workloads.HELD_OUT_POOL}
    for name, w in workloads.WORKLOADS.items():
        assert set(table[name]) == seeds
        labels = set(w.scenario_dicts(1)) | ({"reprice"} if w.audits else set())
        assert all(set(d) == labels for d in table[name].values())
    assert sorted(workloads.op_seeds(workloads.HELD_OUT_SEED)) == list(workloads.HELD_OUT_POOL)
    assert sorted(workloads.op_seeds(7)) == list(workloads.BENCH_POOL)
    assert workloads.op_seeds(7) == workloads.op_seeds(7) != workloads.op_seeds(8)


def test_metric_names_match_benchmark_json(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    clock = workloads.Clock(gauge=True)
    workloads.run_op(workload, SEED, clock=clock, duration_s=SHORT_SIM_S)
    host_s = workloads.nominal_host_s(clock.intervals)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(clock.intervals,
                                                                          host_s))
    _, tracer, wall_s = traced_op(workload)
    layer = tracing.layer_metrics(tracer, [wall_s], [wall_s])
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
