"""Command-line interface: simulate, filter, benchmark, and consistency checks."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import FilterNumericsError
from .harness import (
    build_scenario,
    config_from_dict,
    invariance_check,
    kalman_check,
    run_benchmark,
    run_filters,
    simulate_sde,
    summarize,
    trajectory_rng,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gifilter",
        description="Intrinsic nonlinear filtering: simulation, filtering, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--config", required=True, help="JSON scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--filters", default=None,
                       help="comma-separated subset of gif,ekf")
        p.add_argument("--no-collar", action="store_true",
                       help="disable the quadratic-term collar")
        p.add_argument("--no-quadratic", action="store_true",
                       help="drop the quadratic innovation term")
        p.add_argument("--substeps", type=int, default=None,
                       help="override filter sub-interval count")

    add_scenario_args(sub.add_parser("simulate", help="simulate truth and observations"))
    add_scenario_args(sub.add_parser("filter", help="simulate and run the filters"))
    add_scenario_args(sub.add_parser("benchmark", help="full Monte Carlo benchmark"))

    kp = sub.add_parser("kalman-check", help="linear-model equivalence with the Kalman filter")
    kp.add_argument("--seed", type=int, default=20240817)
    kp.add_argument("--steps", type=int, default=200)

    ip = sub.add_parser("invariance-check", help="coordinate-invariance scaling study")
    ip.add_argument("--seed", type=int, default=7)
    ip.add_argument("--steps", type=int, default=1000)
    return parser


def _load_config(args) -> "ScenarioConfig":
    raw = json.loads(Path(args.config).read_text())
    config = config_from_dict(raw)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.filters is not None:
        overrides["filters"] = tuple(f.strip() for f in args.filters.split(",") if f.strip())
    if args.no_collar:
        overrides["collar_enabled"] = False
    if args.no_quadratic:
        overrides["quadratic_enabled"] = False
    if args.substeps is not None:
        overrides["n_substeps"] = args.substeps
    return dataclasses.replace(config, **overrides) if overrides else config


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        if args.command == "kalman-check":
            report = kalman_check(seed=args.seed, n_steps=args.steps)
            print(json.dumps(report, indent=2))
            return EXIT_OK if report["passed"] else EXIT_NUMERIC
        if args.command == "invariance-check":
            report = invariance_check(seed=args.seed, n_steps=args.steps)
            print(json.dumps(report, indent=2))
            return EXIT_OK if report["passed"] else EXIT_NUMERIC

        config = _load_config(args)
        out_dir = Path(args.out)
        if args.command == "simulate":
            scenario = build_scenario(config)
            record = simulate_sde(scenario, trajectory_rng(config.seed, 0))
            out_dir.mkdir(parents=True, exist_ok=True)
            write_trajectory_csv([record], (), out_dir / "trajectory.csv")
            print(f"wrote {out_dir / 'trajectory.csv'} ({record.n_valid} cycles)")
            return EXIT_OK
        if args.command == "filter":
            scenario = build_scenario(config)
            record = simulate_sde(scenario, trajectory_rng(config.seed, 0))
            record = run_filters(scenario, record)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_trajectory_csv([record], config.filters, out_dir / "trajectory.csv")
            summary = summarize(config, [record])
            for name, stats in summary.per_filter.items():
                print(f"{name}: mean abs error {stats['mean_abs_error']:.6g} "
                      f"(aborted {stats['aborted_steps']})")
            print(f"wrote {out_dir / 'trajectory.csv'}")
            return EXIT_OK
        if args.command == "benchmark":
            summary, _ = run_benchmark(config, out_dir=out_dir)
            for name, stats in summary.per_filter.items():
                print(f"{name}: mean {stats['mean_abs_error']:.6g} "
                      f"median {stats['median_abs_error']:.6g} "
                      f"tail P(err>{stats['tail_threshold']:.4g}) = "
                      f"{stats['tail_frequency']:.4f}")
            print(f"wrote {out_dir}/trajectory.csv, summary.json, histogram.csv")
            return EXIT_OK
        parser.error(f"unknown command {args.command}")
        return EXIT_USAGE
    except FilterNumericsError as exc:
        # before ValueError: NonFiniteError is both
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
