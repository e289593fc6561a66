"""Byte-level golden outputs: the sha256 of the report line and of the trace
file for short runs of each preset, and of baseline-cpu over the scratchpad
path. The digests were recorded before the variant table replaced the
per-variant branches in the pipeline; any change to unit order, event
scheduling order, RNG draw order or ledger summation order shows up here.

Re-record only for an intended change to simulated results:
    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import pytest

from slamsim.report import run_scenario, write_trace
from slamsim.scenario import preset
from slamsim.soc import MemoryPath

# 5 s covers hetero-dsp's first GC pause (about 2.8 s of relay allocation
# at 30 FPS) and slam-arch's throttling (its 50 FPS source outruns the DSP).
DURATION_S = 5.0


def _cases() -> dict:
    cases = {name: dataclasses.replace(preset(name), duration_s=DURATION_S)
             for name in ("baseline-cpu", "hetero-dsp", "slam-arch")}
    cases["baseline-cpu-scratchpad"] = dataclasses.replace(
        cases["baseline-cpu"], memory_path=MemoryPath.SCRATCHPAD)
    return cases


# case -> (sha256 of to_json_line(), sha256 of the write_trace file)
GOLDEN = {
    "baseline-cpu": (
        "4696e5a4dbc28118ae59648102f52e17a7a13466b781b3ba506a284f0803e5f8",
        "034d7b806ba86f8fdbffb5d06be1a852902ed64864aab4b7cf59970e021806b7"),
    "hetero-dsp": (
        "d90fce1da0357d501088ef46bde451e5dead8652b440f390e71130f36f5b90e0",
        "df900fc24c0b36fcc1acbfd8fb92bfe8d54c52320e555f66558361dfe3051ebb"),
    "slam-arch": (
        "728f9a16f45d7a18284fc85bd497ff9fa0989fc7ad2860193b0fb5c4a478b37f",
        "ff6862e95dd4bc33966378cedcc8748e09dbf1d4f9e084b8ce7aec87d5592cc3"),
    "baseline-cpu-scratchpad": (
        "d34b501a8bffc8e7059c6739280bb3ad039c9afced4f1aa5844d1ba364e297e1",
        "7b45bde9bbdd2895feccd2b7d6ff6b1e50e7b63b4d88a1a6632d22d5878f969e"),
}


def _digests(config, trace_path: Path) -> tuple:
    report, sim = run_scenario(config)
    write_trace(sim.trace, trace_path)
    line = report.to_json_line().encode("utf-8")
    return (hashlib.sha256(line).hexdigest(),
            hashlib.sha256(trace_path.read_bytes()).hexdigest()), report


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_and_trace_bytes_match_golden(case, tmp_path):
    digests, _ = _digests(_cases()[case], tmp_path / "trace.jsonl")
    assert digests == GOLDEN[case]


def test_golden_runs_cover_gc_and_throttling(tmp_path):
    cases = _cases()
    _, hetero = _digests(cases["hetero-dsp"], tmp_path / "hetero.jsonl")
    _, slam = _digests(cases["slam-arch"], tmp_path / "slam.jsonl")
    assert hetero.gc_stall_count >= 1
    assert slam.throttled_frame_count > 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in _cases().items():
            digests, _ = _digests(config, Path(tmp) / "trace.jsonl")
            print(f"    {name!r}: {digests!r},")
