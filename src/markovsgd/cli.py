"""Command-line entry points.

Subcommands:

* ``simulate --config cfg.json``   run one experiment config, print summaries
* ``sweep --config cfg.json --grid grid.json``   Cartesian parameter sweep
* ``accept --suite all [--fast]``   acceptance criteria, nonzero exit on FAIL
  (``--suite spectra`` checks the spectral facts behind replay)
* ``mixing --chain chain.json``   mixing time + total-variation curve

Relative output paths resolve under ``$MARKOVSGD_OUTPUT`` (default: the
current directory).  ``--seed`` overrides the config's seed without editing
the file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import chain_from_json, check_object, mixing_time
from .experiments import ExperimentConfig, accept, run_experiment, sweep


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = check_object(_load_json(args.config), "experiment config")
    if args.seed is not None:
        doc["seed"] = args.seed
    config = ExperimentConfig.from_json(doc)
    summaries = run_experiment(config)
    _emit([s.to_json() for s in summaries])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = check_object(_load_json(args.config), "experiment config")
    grid = _load_json(args.grid)
    if args.seed is not None:
        doc["seed"] = args.seed
    index = sweep(doc, grid)
    _emit(index)
    return 0


def cmd_accept(args: argparse.Namespace) -> int:
    report = accept(args.suite, fast=args.fast)
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_mixing(args: argparse.Namespace) -> int:
    spec = chain_from_json(_load_json(args.chain))
    report = mixing_time(spec)
    _emit(
        {
            "tau_mix": report.tau_mix,
            "method": report.method,
            "dmix_curve": [[t, d] for t, d in report.dmix_curve],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovsgd",
        description="Streaming least-squares estimators on Markov data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    p.add_argument("--config", required=True, help="base experiment config JSON")
    p.add_argument("--grid", required=True, help="JSON mapping dotted paths to value lists")
    p.add_argument("--seed", type=int, default=None, help="override the base seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("accept", help="run an acceptance suite")
    p.add_argument("--suite", default="all", help="bias|variance|replay|spectra|mixing|all")
    p.add_argument("--fast", action="store_true", help="reduced scale, indicative only")
    p.set_defaults(func=cmd_accept)

    p = sub.add_parser("mixing", help="mixing time of a chain spec")
    p.add_argument("--chain", required=True, help="chain spec JSON")
    p.set_defaults(func=cmd_mixing)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}")
    except KeyError as exc:
        raise SystemExit(f"error: missing config field {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
