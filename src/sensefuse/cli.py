"""Command-line entry points.

``sensefuse sweep`` runs the Monte-Carlo grid and writes a CSV; ``sensefuse
demo`` executes the 16-step call flow against a persistent store and writes a
JSONL message trace.  Both take the same YAML config; every key is optional.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import __version__
from .config import load_config
from .errors import ConfigError, StoreCorruptError
from .harness import demo_callflow, run_sweep, write_csv
from .scenario import build_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensefuse",
        description="Map-aware sensing fusion: Monte-Carlo sweeps and the sensing call flow.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable info-level logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the (g, g_det) Monte-Carlo sweep")
    sweep.add_argument("--config", help="YAML config file (defaults apply if omitted)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, help="override the scenario seed")
    sweep.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="K",
        help="distribute realizations over K worker processes",
    )

    demo = sub.add_parser("demo", help="run the sensing-service call flow once")
    demo.add_argument("--config", help="YAML config file (defaults apply if omitted)")
    demo.add_argument("--trace", required=True, help="output JSONL message trace path")
    demo.add_argument(
        "--store",
        help="sensing data store log path (default: <trace>.store)",
    )
    demo.add_argument("--seed", type=int, help="override the scenario seed")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    scenario_cfg = cfg.scenario
    if args.seed is not None:
        scenario_cfg = replace(scenario_cfg, seed=args.seed)
    scenario = build_scenario(scenario_cfg)
    rows = run_sweep(scenario, cfg.sweep, workers=args.parallel)
    write_csv(rows, args.out)
    print(
        f"wrote {len(rows)} rows ({cfg.sweep.n_realizations} realizations, "
        f"{len(cfg.sweep.g_values)} margins x {len(cfg.sweep.g_det_values)} gates) to {args.out}"
    )
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one file: by inode when both exist, else by resolved path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_demo(args: argparse.Namespace) -> int:
    store_path = args.store if args.store else args.trace + ".store"
    if _same_file(args.trace, store_path):
        raise ConfigError(f"--trace and --store name the same file: {store_path}")
    cfg = load_config(args.config)
    scenario_cfg = cfg.scenario
    if args.seed is not None:
        scenario_cfg = replace(scenario_cfg, seed=args.seed)
    scenario = build_scenario(scenario_cfg)
    report = demo_callflow(cfg, scenario, args.trace, store_path)
    run = report.run
    print(f"trace: {report.trace_path} ({len(run.trace)} events)")
    print(f"store: {report.store_path}" + (" (preseeded)" if report.preseeded else ""))
    if run.abort_reason is not None:
        print(f"aborted: {run.abort_reason}")
        return 0
    assert run.result is not None
    res = run.result
    print(f"task {run.stid}: source={res.data_source}, mask={'on' if res.mask_enabled else 'off'}")
    print(
        f"  pd_avg={res.metrics.pd_avg:.4f}, fa_avg={res.metrics.fa_avg:.2f} "
        f"-> KPI {'satisfied' if res.kpi_satisfied else 'not satisfied'}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "version":
            print(__version__)
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StoreCorruptError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
