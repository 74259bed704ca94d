"""Command-line interface: run scenarios, compile protocol scripts,
sweep parameters.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

from .compiler.compile import (CompileError, compile_protocol,
                               defer_measurements)
from .compiler.script import load_script
from .scenarios import ScenarioError, resolve, run_scenario

_TIME_UNITS_PS = {"s": 10**12, "ms": 10**9, "us": 10**6, "ns": 10**3, "ps": 1}


def parse_time_ps(text) -> int:
    """Parse a duration like '0.5s', '500ms', or '5e11ps' to picoseconds.

    Durations are non-negative; a negative one raises ValueError.
    """
    if isinstance(text, (int, float)):
        ps = int(text)
    else:
        m = re.fullmatch(r"\s*([0-9.eE+-]+)\s*(s|ms|us|ns|ps)?\s*", str(text))
        if m is None:
            raise ValueError(f"cannot parse duration {text!r}")
        value = float(m.group(1))
        unit = m.group(2) or "ps"
        ps = int(round(value * _TIME_UNITS_PS[unit]))
    if ps < 0:
        raise ValueError(f"duration must not be negative, got {text!r}")
    return ps


def _load_config(path):
    with open(path) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {config!r}")
    return config


def _apply_overrides(config, args):
    config = copy.deepcopy(config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.end_time is not None:
        config["end_time_ps"] = parse_time_ps(args.end_time)
    if args.log_level is not None:
        config["log_level"] = args.log_level
    return config


def cmd_run(args) -> int:
    try:
        config = _apply_overrides(_load_config(args.config), args)
        seed = resolve(config)[1]["seed"]
        out_dir = Path(args.out_dir)
    except (OSError, TypeError, ValueError) as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = run_scenario(config, seed, out_dir)
    except ScenarioError as exc:  # a check across keys, made by the runner
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside a valid scenario
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    printable = {k: v for k, v in metrics.items()
                 if isinstance(v, (int, float, str, bool))}
    print(json.dumps(printable, indent=2))
    return 0


def cmd_compile(args) -> int:
    try:
        path = Path(args.script)
        if not path.exists():
            raise FileNotFoundError(f"script file not found: {path}")
        instructions = load_script(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    nodes = sorted({op.node for op in instructions if hasattr(op, "node")}
                   | {end for op in instructions if hasattr(op, "src")
                      for end in (op.src, op.dst)})
    try:
        circuit = compile_protocol(instructions, nodes)
        if args.defer:
            circuit = defer_measurements(circuit)
    except CompileError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(circuit.to_json() + "\n")
    print(f"wrote {args.out} ({len(circuit.instructions)} instructions, "
          f"width {circuit.width})")
    return 0


def _set_by_path(config, dotted, value):
    """Set a dotted path of `config`: a nested key must exist, a top-level
    one may be new (`resolve` checks it against the scenario's keys)."""
    *parents, last = dotted.split(".")
    target = config
    for key in parents:
        target = target.get(key) if isinstance(target, dict) else None
    if not isinstance(target, dict) or (parents and last not in target):
        raise ValueError(f"parameter path not found in config: {dotted!r}")
    target[last] = value


def cmd_sweep(args) -> int:
    try:
        config = _apply_overrides(_load_config(args.config), args)
        if args.replications <= 0:
            raise ValueError("replications must be a positive integer")
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        values = [float(v) for v in args.values]
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise ValueError(f"--values lists {repeated:g} more than once")
        out_dir = Path(args.out_dir)
        jobs = []
        for value in values:
            cfg = copy.deepcopy(config)
            raw = int(value) if value.is_integer() else value
            _set_by_path(cfg, args.parameter, raw)
            base_seed = resolve(cfg)[1]["seed"]  # a rejected value starts no run
            jobs.extend((value, cfg, base_seed + 1000 * rep,
                         out_dir / f"value_{raw}_rep_{rep}")
                        for rep in range(args.replications))
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(
                lambda j: (j[0], run_scenario(*j[1:])["primary"]), jobs))
    except ScenarioError as exc:  # a check across keys, made by the runner
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    by_value = {v: [] for v in values}
    for value, metric in results:
        by_value[value].append(metric)
    with open(out_dir / "sweep.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([args.parameter, "mean", "std", "replications"])
        for value in values:  # row order follows the requested values
            samples = np.asarray(by_value[value], dtype=float)
            writer.writerow([value, float(samples.mean()),
                             float(samples.std(ddof=0)), len(samples)])
    print(f"wrote {out_dir / 'sweep.csv'} ({len(values)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetsim",
        description="Quantum network simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario config JSON")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--end-time", default=None,
                        help="duration, e.g. 0.5s / 500ms / 5e11ps")
    common.add_argument("--out-dir", default="out")
    common.add_argument("--log-level", default=None,
                        choices=["DEBUG", "INFO", "WARN"])  # SimEnv's levels

    sub.add_parser("run", parents=[common], help="run one scenario")

    p_compile = sub.add_parser("compile", help="compile a protocol script")
    p_compile.add_argument("--script", required=True)
    p_compile.add_argument("--defer", action="store_true",
                           help="apply deferred measurement")
    p_compile.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one config parameter")
    p_sweep.add_argument("--parameter", required=True,
                         help="dotted path into the config, e.g. capacity")
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.add_argument("--replications", type=int, default=1)
    p_sweep.add_argument("--jobs", type=int, default=4)
    return parser


def _glue_end_time(argv):
    """`--end-time -1s` -> `--end-time=-1s`, which argparse hands to
    parse_time_ps instead of taking "-1s" for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--end-time":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_end_time(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compile":
        return cmd_compile(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
