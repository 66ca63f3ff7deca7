"""Command-line front end.

Exit codes follow the error taxonomy: 0 success, 2 configuration problems
(including bad arguments and unknown recipes or axes), 3 missing or
malformed data files, 4 other simulation failures, 1 anything unexpected.

A config file given on the command line is merged over the recipe's stock
config, so a file only needs the keys it wants to change.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import (
    ConfigError,
    DataFormatError,
    DataMissingError,
    SimulationError,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _read_doc(path) -> dict:
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise DataMissingError(f"config file not found: {p}")
    if not p.is_file():
        raise DataFormatError(f"config {p} is not a regular file")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"config {p} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataFormatError(f"config {p} must hold a JSON object")
    return doc


def _config_for(recipe: str, config_path) -> harness.ExperimentConfig:
    doc = harness.default_config(recipe)
    if config_path:
        user = _read_doc(config_path)
        user.pop("out_dir", None)  # the --out flag owns the destination
        doc = harness._merge(doc, user)
    doc["recipe"] = recipe
    return harness.config_from_dict(doc)


def _parse_axis(text: str):
    if "=" not in text:
        raise ConfigError("--axis expects <knob>=<v1,v2,...>")
    name, _, rest = text.partition("=")
    name = name.strip()
    if not rest.strip():
        raise ConfigError(f"axis {name!r} has no values")
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        raise ConfigError(f"axis values must be numbers: {rest!r}")
    return name, values


def _cmd_run(args) -> int:
    cfg = _config_for(args.recipe, args.config)
    summary = harness.run_recipe(cfg, out_dir=args.out)
    print(f"{args.recipe}: outputs written to {args.out}")
    for key in ("within_5pct_fraction", "mode_z_statistic",
                "matched_max_rel_drift"):
        if key in summary:
            print(f"  {key} = {summary[key]}")
    for mode, block in summary.get("per_mode", {}).items():
        print(f"  {mode} median manual-forming rate = "
              f"{block['manual_rate']['median']:.4f}")
    for scheme in summary.get("schemes", []):
        med = summary[scheme]["test"]["median"]
        print(f"  {scheme} median test fidelity = {med:.2f}%")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep needs --config naming the base recipe")
    recipe = _read_doc(args.config).get("recipe")
    if recipe is None:
        raise ConfigError("sweep config must name its base recipe")
    cfg = _config_for(recipe, args.config)
    axis, values = _parse_axis(args.axis)
    seeds = list(range(args.seeds)) if args.seeds is not None else None
    report = harness.run_sweep(cfg, axis, values, seeds=seeds,
                               workers=args.workers)
    harness.write_sweep_outputs(cfg, report, args.out)
    print(f"sweep over {axis}: outputs written to {args.out}")
    for name in report.series:
        med, _, _ = report.error_stats(name)
        pairs = ", ".join(f"{v:g}->{m:.2f}%" for v, m in
                          zip(report.values, med))
        print(f"  {name} median error: {pairs}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="memristive crossbar network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment recipe")
    p_run.add_argument("recipe", help="recipe name, e.g. fig8-exsitu")
    p_run.add_argument("--config", help="JSON config overriding the "
                                        "recipe defaults")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one knob over a grid")
    p_sweep.add_argument("--config", required=True,
                         help="base config (must name its recipe)")
    p_sweep.add_argument("--axis", required=True,
                         help="<knob>=<v1,v2,...>")
    p_sweep.add_argument("--seeds", type=int,
                         help="use seeds 0..N-1 instead of the config's")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker threads")
    p_sweep.add_argument("--out", default="sweep-out",
                         help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataMissingError, DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # last resort
        print(f"unexpected error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
