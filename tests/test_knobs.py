"""Every scenario key moves an output, or is named inert with its reason.

For each leaf key of `ScenarioConfig.to_dict()`, CASES gives a short
scenario and a value of the key at which some report field that is not a
copy of the config, or some trace record, differs from the scenario's own
run. The values bind: at the defaults times 1.37, `kernel.min_matches`,
`kernel.visibility_range_m` and `soc.scratchpad_capacity_bytes` move
nothing, so their cases take them far enough to matter. INERT names the keys
that move nothing, each with the reason; changing one of them must leave the
report (apart from `config_digest`) and the trace byte-equal on every preset.
A key with neither a case nor an INERT entry fails `test_every_key_is_listed`.
"""

import copy
import io
import json

import pytest

from slamsim.report import dump_trace, run_scenario
from slamsim.scenario import PRESET_NAMES, ScenarioConfig
from slamsim.soc import ConfigError


def _short(variant, duration_s=1.0, **keys):
    return {"variant": variant, "duration_s": duration_s, "warmup_s": 0.5, **keys}


BASELINE, HETERO, SLAM = _short("baseline-cpu"), _short("hetero-dsp"), _short("slam-arch")
# At the default 250 MiB heap budget hetero-dsp's first GC pause falls after
# about 3 s; at 50 MiB it falls within 1 s.
HETERO_GC = _short("hetero-dsp", relay={"heap_budget_mib": 50.0})

# key -> (scenario, a value of the key that moves an output of its run)
CASES = {
    "variant": (BASELINE, "slam-arch"),
    "camera_fps": (BASELINE, 20),
    "imu_rate_hz": (BASELINE, 100),
    "duration_s": (BASELINE, 1.5),
    "seed": (BASELINE, 2),
    "warmup_s": (BASELINE, 0.25),
    "memory_path": (BASELINE, "scratchpad"),
    "frame_size_bytes": (HETERO, 4 << 20),
    "loss_threshold_ms": (BASELINE, 1.0),
    "soc.cpu_peak_power_w": (BASELINE, 3.0),
    "soc.dsp_peak_power_w": (HETERO, 2.0),
    "soc.baseline_static_w": (BASELINE, 1.0),
    "soc.unit_idle_fraction": (BASELINE, 0.3),
    "soc.scratchpad_capacity_bytes": (SLAM, 2048),
    "soc.scratchpad_dynamic_w": (SLAM, 0.3),
    "soc.scratchpad_leakage_w": (SLAM, 0.01),
    "soc.io_pin_power_w": (SLAM, 0.3),
    "soc.feature_access_fraction": (SLAM, 0.5),
    "soc.feature_extraction_cpu_ms": (BASELINE, 40.0),
    "soc.feature_extraction_dsp_ms": (HETERO, 25.0),
    "soc.propagation_ms": (BASELINE, 3.0),
    "soc.update_shared_ms": (BASELINE, 40.0),
    "soc.mapping_shared_ms": (BASELINE, 20.0),
    "relay.copy_latency_ms_min": (HETERO, 2.0),
    "relay.copy_latency_ms_max": (HETERO, 4.0),
    "relay.heap_budget_mib": (HETERO, 50.0),
    "relay.gc_pause_ms": (HETERO_GC, 200.0),
    "kernel.accel_bias": (BASELINE, [0.1, 0.0, 0.0]),
    "kernel.gyro_bias": (BASELINE, [0.001, 0.0, 0.0]),
    "kernel.accel_noise_std": (BASELINE, 0.05),
    "kernel.gyro_noise_std": (BASELINE, 0.005),
    "kernel.update_gain": (BASELINE, 0.5),
    "kernel.obs_noise_std": (BASELINE, 0.05),
    "kernel.min_matches": (BASELINE, 200),
    "kernel.landmark_count": (BASELINE, 200),
    "kernel.visibility_range_m": (BASELINE, 6.0),
    "kernel.fov_deg": (BASELINE, 60.0),
    "kernel.trajectory_radius_m": (BASELINE, 4.0),
    "kernel.trajectory_period_s": (BASELINE, 30.0),
    "kernel.updates_enabled": (BASELINE, False),
}

INERT = {
    "soc.shared_access_ns": "accepted but not read by the model",
    "soc.scratchpad_access_ns": "accepted but not read by the model",
    "soc.scratchpad_banks": "2 is its only legal value",
    "soc.gpu_peak_power_w": "no named variant places a stage on a GPU",
    "soc.feature_extraction_gpu_ms": "no named variant places a stage on a GPU",
    "kernel.map_noise_std": "the map holds which landmarks are mapped, not their points",
}

# Report fields that copy a config value rather than measure the run.
ECHOES = {"config_digest", "variant", "seed", "duration_s", "warmup_s", "offered_camera_fps"}


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _get(scenario, key):
    node = ScenarioConfig.from_dict(scenario).to_dict()
    for part in key.split("."):
        node = node[part]
    return node


def _with(scenario, key, value):
    scenario = copy.deepcopy(scenario)
    *sections, leaf = key.split(".")
    node = scenario
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return scenario


def _outputs(scenario):
    """Each report field but `config_digest` as its JSON text, and the
    trace file's text, of a run of `scenario`."""
    report, sim = run_scenario(ScenarioConfig.from_dict(scenario))
    fields = {key: json.dumps(value, sort_keys=True) for key, value in report.to_dict().items()
              if key != "config_digest"}
    trace = io.StringIO()
    dump_trace(sim.trace, trace)
    return fields, trace.getvalue()


def test_every_key_is_listed():
    keys = set(_leaves(ScenarioConfig.from_dict(BASELINE).to_dict()))
    assert not CASES.keys() & INERT.keys()
    assert keys - CASES.keys() - INERT.keys() == set(), "a key with no case and no INERT entry"
    assert CASES.keys() | INERT.keys() <= keys


@pytest.mark.parametrize("key", sorted(CASES))
def test_key_moves_an_output(key):
    scenario, value = CASES[key]
    assert _get(scenario, key) != value
    fields, trace = _outputs(scenario)
    moved_fields, moved_trace = _outputs(_with(scenario, key, value))
    moved = [name for name in fields if name not in ECHOES and fields[name] != moved_fields[name]]
    assert moved or trace != moved_trace


@pytest.mark.parametrize("variant", PRESET_NAMES)
@pytest.mark.parametrize("key", sorted(INERT))
def test_inert_key_moves_nothing(key, variant):
    # 3 s reaches hetero-dsp's first GC pause at the default heap budget.
    scenario = _short(variant, 3.0)
    value = 2 * _get(scenario, key) + 1
    if key == "soc.scratchpad_banks":  # no second legal value to run
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(_with(scenario, key, value))
        return
    assert _outputs(_with(scenario, key, value)) == _outputs(scenario)
