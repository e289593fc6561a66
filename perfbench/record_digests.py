"""Record the reference digests the benchmark checks every op against.

    python3 perfbench/record_digests.py

For each workload and each simulation seed in BENCH_POOL and HELD_OUT_POOL,
runs every scenario with a plain `run_scenario` (one `run()` call, no slices,
no spans) and writes the sha256 of `MetricsReport.to_json_line()` to
digests.json; auditing workloads also get the digest of the re-priced
ledgers. Re-record only for a change that means to alter simulated results,
and say so where the change is described: a speed-only change must leave
every digest identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from slamsim.report import audit_trace, run_scenario  # noqa: E402
from slamsim.scenario import ScenarioConfig  # noqa: E402

import workloads  # noqa: E402


def plain_digests(workload: workloads.Workload, sim_seed: int,
                  duration_s: float | None = None) -> dict:
    digests, sims = {}, {}
    for label, scenario in workload.scenario_dicts(sim_seed, duration_s).items():
        report, sim = run_scenario(ScenarioConfig.from_dict(scenario))
        if workload.audits and not audit_trace(sim.trace).ok:
            raise SystemExit(f"{workload.name} seed {sim_seed}: {label} fails the audit")
        digests[label] = workloads.sha256(report.to_json_line())
        sims[label] = sim
    if workload.audits:
        prices = workloads.reprice(sims, workloads.calibrations(sim_seed))
        digests["reprice"] = workloads.sha256(json.dumps(prices))
    return digests


def main() -> int:
    table = {}
    for name, w in workloads.WORKLOADS.items():
        table[name] = {str(s): plain_digests(w, s)
                       for s in workloads.BENCH_POOL + workloads.HELD_OUT_POOL}
        print(f"{name}: {len(table[name])} seeds", flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
