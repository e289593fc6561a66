"""Command-line runner: run / compare / audit / presets.

Scenario arguments accept either a path to a scenario JSON file or
``preset:<name>`` for one of the built-in presets. Configuration comes only
from scenario files and flags; environment variables are deliberately not
consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import report as rpt
from .scenario import PRESET_NAMES, ScenarioConfig, preset
from .soc import ConfigError


class CliError(RuntimeError):
    pass


def _load_scenario(spec: str, seed=None, duration=None) -> ScenarioConfig:
    if spec.startswith("preset:"):
        config = preset(spec[len("preset:"):])
    else:
        try:
            config = ScenarioConfig.load(spec)
        except FileNotFoundError:
            raise CliError(f"scenario file not found: {spec}")
    import dataclasses
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if duration is not None:
        if not duration > config.warmup_s:
            raise CliError(f"--duration {duration:g} must exceed the scenario's "
                           f"warmup_s = {config.warmup_s:g}")
        overrides["duration_s"] = duration
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _open_output(stack: contextlib.ExitStack, path):
    """Open an output file before anything is simulated, so that an
    unwritable path fails at once; None (stdout) when no path is given."""
    return stack.enter_context(open(path, "w", encoding="utf-8")) if path else None


def _write_out(text: str, out) -> None:
    (out or sys.stdout).write(text)


def _cmd_run(args) -> int:
    config = _load_scenario(args.scenario, args.seed, args.duration)
    with contextlib.ExitStack() as stack:
        out = _open_output(stack, args.output)
        trace = _open_output(stack, args.trace)
        report, sim = rpt.run_scenario(config)
        if trace:
            rpt.dump_trace(sim.trace, trace)
        if args.format == "text":
            _write_out(rpt.report_text(report), out)
        elif args.format == "json-lines":
            _write_out(report.to_json_line(), out)
        else:
            _write_out(rpt.compare_csv([report]), out)
    return 0


def _cmd_compare(args) -> int:
    if len(args.scenarios) < 2:
        raise CliError("compare needs at least two scenarios")
    configs = [_load_scenario(spec, args.seed, args.duration) for spec in args.scenarios]
    with contextlib.ExitStack() as stack:
        out = _open_output(stack, args.output)
        reports = [rpt.run_scenario(config)[0] for config in configs]
        if args.format == "text":
            _write_out(rpt.compare_text(reports), out)
        elif args.format == "json-lines":
            _write_out(rpt.compare_json_lines(reports), out)
        else:
            _write_out(rpt.compare_csv(reports), out)
    return 0


def _cmd_audit(args) -> int:
    records = rpt.load_trace(args.trace)
    result = rpt.audit_trace(records)
    if result.ok:
        print(f"audit pass: {len(records)} records, 0 violations")
        return 0
    first = result.first()
    print(f"audit FAIL: {len(result.violations)} violation(s); first at "
          f"t={first['t_ns']} ns: [{first['rule']}] {first['message']}")
    return 1


def _cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        config = preset(name)
        if args.write_dir:
            import os
            path = os.path.join(args.write_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config.to_json())
            print(f"{name}: wrote {path}")
        else:
            print(f"{name}: camera_fps={config.camera_fps} imu_rate_hz={config.imu_rate_hz} "
                  f"duration_s={config.duration_s:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slamsim",
        description="Discrete-event simulator of mobile SoC architectures "
                    "running a visual-inertial SLAM pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and emit a metrics report")
    run.add_argument("--scenario", required=True,
                     help="scenario JSON path or preset:<name>")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--duration", type=float, default=None, help="seconds")
    run.add_argument("--output", default=None)
    run.add_argument("--format", choices=["text", "json-lines", "csv"], default="text")
    run.add_argument("--trace", default=None, help="write the event trace to this file")
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare", help="run several scenarios and tabulate them")
    cmp_.add_argument("scenarios", nargs="+",
                      help="two or more scenario paths or preset:<name>")
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--duration", type=float, default=None)
    cmp_.add_argument("--output", default=None)
    cmp_.add_argument("--format", choices=["text", "json-lines", "csv"], default="text")
    cmp_.set_defaults(func=_cmd_compare)

    audit = sub.add_parser("audit", help="replay a trace against the bank protocol")
    audit.add_argument("trace", help="trace file from run --trace")
    audit.set_defaults(func=_cmd_audit)

    presets = sub.add_parser("presets", help="list or write the built-in presets")
    presets.add_argument("--write-dir", default=None,
                         help="write each preset as <name>.json into this directory")
    presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
