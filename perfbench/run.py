"""slamsim host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the simulator is imported from its `src/`.
Every number is host time (or host memory), not simulated time; simulated
results are only checked against the digests recorded in digests.json.

--trace 0 times ops for --seconds and reports the end-to-end metrics.
--trace 1 runs pairs of ops on the same inputs, one plain and one with spans
at every layer boundary, and reports the per-layer split plus the tracing
overhead. The last line of standard output is the JSON result; a results
file with the environment stamp and per-op details goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
RESULTS = HERE / "results"

# Setups timed per run for setup_s, after one warm-up setup.
SETUP_REPS = 41
# Post-run work timed per op for postrun_s: repeated on the same finished
# simulations (it only reads them) until this much time or this many reps.
POSTRUN_MIN_S = 1.5
POSTRUN_MAX_REPS = 25
# Simulated length of the untimed warm-up op.
WARMUP_SIM_S = 3.0


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(),
            "load_shape": "one process, one thread, closed loop (next op starts when "
                          "the previous one ends)"}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts ops and checks each op's digests and audits."""

    def __init__(self, workload: str, recorded: dict):
        self.workload = workload
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0

    def check(self, kind: str, op_fn):
        self.attempted += 1
        try:
            res = op_fn()
        except Exception:  # an op that raises is a failed op; keep measuring
            self.failed += 1
            print(f"{self.workload}: {kind} op raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        expected = self.recorded.get(str(res.sim_seed))
        problems = []
        if res.digests != expected:
            problems.append(f"digests {res.digests} != recorded {expected}")
        if not res.audit_ok:
            problems.append("trace audit failed")
        if problems:
            self.failed += 1
            print(f"{self.workload}: {kind} op at sim seed {res.sim_seed}: "
                  + "; ".join(problems), file=sys.stderr)
        return res


def another_op_fits(t_start: float, seconds: float, done: int) -> bool:
    """The first op always runs; a later one only if an op of the mean
    length so far still ends within `seconds`."""
    elapsed = perf_counter() - t_start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def end_to_end(intervals, host_s: list) -> dict:
    setups, postruns, slices = [], {}, []
    for iv, t in zip(intervals, host_s):
        if iv.kind == "setup":
            setups.append(t)
        elif iv.kind == "postrun":
            postruns[iv.group] = postruns.get(iv.group, 0.0) + t
        else:
            slices.append((t, iv.sim_s))
    per_sim_s = [t * 1e3 / sim_s for t, sim_s in slices]
    return {"sim_s_per_wall_s": sum(sim_s for _, sim_s in slices) / sum(t for t, _ in slices),
            "wall_ms_per_sim_s.p50": statistics.median(per_sim_s),
            "wall_ms_per_sim_s.p90": statistics.quantiles(per_sim_s, n=10)[8],
            "setup_s": statistics.median(setups),
            "postrun_s": statistics.median(postruns.values()),
            "peak_rss_mib": peak_rss_mib()}


def timed_run(w, seeds, seconds: float, check: Checker) -> tuple[dict, dict]:
    from workloads import Clock, nominal_host_s, postrun, run_op, setup

    # Setups are timed first, in the state a fresh process is in, as a
    # user's first setup is; then a short untimed op warms the run path.
    setup(w, seeds[0])
    clock = Clock(gauge=True)
    for i in range(SETUP_REPS):
        clock.time("setup", 0.0, setup, w, seeds[i % len(seeds)])
    run_op(w, seeds[0], duration_s=WARMUP_SIM_S)

    ops = []
    t_start = perf_counter()
    i = 0
    while another_op_fits(t_start, seconds, i):
        res = check.check("timed", lambda: run_op(w, seeds[i % len(seeds)], clock=clock))
        i += 1
        if res is None:
            continue
        spent = sum(iv.host_s for iv in clock.intervals if iv.group == clock.group)
        for _ in range(POSTRUN_MAX_REPS - 1):
            if spent >= POSTRUN_MIN_S:
                break
            t = perf_counter()
            postrun(w, res.sims, res.sim_seed, clock=clock)
            spent += perf_counter() - t
        ops.append({"sim_seed": res.sim_seed, "digests": res.digests})
        del res
        gc.collect()

    if not ops:
        return {}, {"ops": ops}
    intervals = clock.intervals
    raw = [iv.host_s for iv in intervals]
    details = {"ops": ops, "intervals": len(intervals),
               "slices": sum(iv.kind == "slice" for iv in intervals),
               "reference_s_median": statistics.median(iv.reference_s for iv in intervals),
               "raw_host_time_metrics": end_to_end(intervals, raw)}
    nominal = nominal_host_s(intervals)
    return end_to_end(intervals, nominal), details


def traced_run(w, seeds, seconds: float, check: Checker, workload: str) -> tuple[dict, dict]:
    import numpy as np
    from tracing import SPAN_FIELDS, Tracer, count_sims, layer_metrics, traced_op
    from workloads import Clock, nominal_host_s, run_op

    run_op(w, seeds[0], duration_s=WARMUP_SIM_S)
    tracer = Tracer()
    traced_walls, plain_walls, ops = [], [], []
    t_start = perf_counter()
    i = 0
    while another_op_fits(t_start, seconds, i):
        seed = seeds[i % len(seeds)]
        # Both ops are timed by gauged clocks, so their wall times (the sum
        # of their intervals) are at the nominal host speed, as the spans are.
        plain_clock = Clock(gauge=True)
        plain = check.check("plain", lambda: run_op(w, seed, clock=plain_clock))
        plain_wall = sum(nominal_host_s(plain_clock.intervals))
        del plain
        gc.collect()

        tracer.op = i
        clock = Clock(gauge=True)
        res = check.check("traced", lambda: traced_op(w, seed, tracer, clock))
        wall = sum(nominal_host_s(clock.intervals))
        i += 1
        if res is None:
            continue
        count_sims(tracer, res.sims, audited=w.audits)
        traced_walls.append(wall)
        plain_walls.append(plain_wall)
        ops.append({"op": tracer.op, "sim_seed": seed, "traced_wall_s": wall,
                    "plain_wall_s": plain_wall,
                    "traced_raw_wall_s": sum(iv.host_s for iv in clock.intervals),
                    "digests": res.digests})
        del res
        gc.collect()

    metrics = layer_metrics(tracer, traced_walls, plain_walls) if ops else {}
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"{workload}.spans.npz"
    np.savez(spans_file, spans=tracer.span_table(), fields=np.array(SPAN_FIELDS),
             names=np.array(tracer.names), env=np.array(json.dumps(environment())))
    details = {"ops": ops, "spans_file": spans_file.name, "spans": len(tracer.span_table()),
               "counts": dict(tracer.counts)}
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no recorded digests for {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read metric units from {BENCHMARK}: {exc}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    seeds = workloads.op_seeds(args.seed)

    check = Checker(args.workload, recorded)
    if args.trace:
        metrics, details = traced_run(w, seeds, args.seconds, check, args.workload)
    else:
        metrics, details = timed_run(w, seeds, args.seconds, check)

    result = {"correct": check.failed == 0 and bool(metrics), "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": environment(), "args": vars(args), "result": result,
                               "details": details}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
