"""Command-line front end.

Subcommands: train, scale, quench, slice, clt-check, gradcheck, merge.
Exit codes: 0 success, 1 validation failure (bad config, bad arguments,
refused merge), 2 runtime failure (diverged run, failed check, failed
cells, other runtime, value or I/O errors).  Errors are emitted as one
JSON object on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from .diagnostics import ReportError, _atomic_write, great_circle_slice, two_angle_slice
from .dynamics import ScheduleError, StepFailure, load_checkpoint
from .experiments import (
    ConfigError,
    build_spec,
    merge_reports,
    run_experiment,
    write_summary,
)
from .geometry import InvalidDimensionError
from .targets import DimensionMismatchError, SpinTensor
from .units import UnitMismatchError

# the package's own input errors; any other ValueError is a runtime failure
_VALIDATION_ERRORS = (
    ConfigError,
    ScheduleError,
    ReportError,
    UnitMismatchError,
    InvalidDimensionError,
    DimensionMismatchError,
    FileNotFoundError,
)


def _fail(code: int, err: BaseException) -> int:
    sys.stderr.write(
        json.dumps({"error": type(err).__name__, "message": str(err)}, sort_keys=True) + "\n"
    )
    return code


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named preset shipped with the package")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    p.add_argument("--scale", type=float, help="multiply the step count")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--threads", type=int, help="worker processes over grid cells")


def _cmd_spec(args) -> int:
    """Build the spec, with the experiment kind the subcommand forces, run
    it and print its summary.  scale keeps a configured *-scaling kind and
    otherwise takes the unit's; replace re-runs the spec's checks."""
    overrides = _parse_overrides(args.overrides)
    for key, value in (("master_seed", args.seed), ("out_dir", args.out),
                       ("threads", args.threads), ("experiment", args.kind)):
        if value is not None:
            overrides[key] = str(value)
    spec = build_spec(
        preset=args.preset,
        config_path=args.config,
        overrides=overrides,
        scale=args.scale,
    )
    if args.command == "scale" and not spec.experiment.endswith("-scaling"):
        spec = dataclasses.replace(spec, experiment=f"{spec.unit}-scaling")
    summary = run_experiment(spec)
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _slice_to_csv(fh, header: dict, cols: dict) -> None:
    fh.write("# spinnet-slice v1\n")
    fh.write("# meta " + json.dumps(header, sort_keys=True) + "\n")
    names = list(cols)
    fh.write(",".join(names) + "\n")
    arrays = [np.asarray(cols[k]) for k in names]
    for row in range(arrays[0].size):
        fh.write(",".join(repr(float(a[row])) for a in arrays) + "\n")


def _cmd_slice(args) -> int:
    ensemble, step, meta = load_checkpoint(args.checkpoint)
    if not isinstance(meta.get("tensor"), dict):
        raise ScheduleError(f"{args.checkpoint}: checkpoint meta has no 'tensor' key")
    target = SpinTensor.from_dict(meta["tensor"])
    if args.two_angle:
        cols = two_angle_slice(ensemble, target, args.resolution)
    else:
        try:
            i, j = (int(p) for p in args.axes.split(","))
        except ValueError:
            raise ConfigError(f"--axes expects two integers I,J, got {args.axes!r}") from None
        cols = great_circle_slice(ensemble, target, i, j, args.resolution)
    header = {
        "step": step,
        "config_hash": meta.get("config_hash"),
        "master_seed": meta.get("master_seed"),
    }
    if args.out:
        with _atomic_write(args.out) as fh:
            _slice_to_csv(fh, header, cols)
    else:
        _slice_to_csv(sys.stdout, header, cols)
    return 0


def _cmd_merge(args) -> int:
    paths = []
    for p in args.inputs:
        if os.path.isdir(p):
            paths.extend(glob.glob(os.path.join(p, "run_*.csv")))
        else:
            paths.append(p)
    summary = merge_reports(paths, force=args.force)
    out = args.out
    if out is None and len(args.inputs) == 1 and os.path.isdir(args.inputs[0]):
        out = os.path.join(args.inputs[0], "summary.json")
    if out:
        write_summary(out, summary)
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnet",
        description="Particle-system training of shallow networks on 3-spin targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # subcommand, the experiment kind it forces, help; scale's kind is
    # chosen by _cmd_spec once the unit is known
    for name, kind, doc in (
        ("train", None, "run the configured experiment grid"),
        ("scale", None, "error-scaling study over an n list (needs >= 3 n values)"),
        ("quench", "quench", "SGD run with a batch-size quench"),
        ("clt-check", "clt-check", "initialization fluctuation variance check"),
        ("gradcheck", "gradcheck", "finite-difference validation of all gradients"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_spec_args(p)
        p.set_defaults(fn=_cmd_spec, kind=kind)

    p = sub.add_parser("slice", help="evaluate target and network on a sphere slice")
    p.add_argument("checkpoint", help="checkpoint JSON written by a training run")
    p.add_argument("--axes", default="0,1", metavar="I,J",
                   help="great-circle coordinate plane (default 0,1)")
    p.add_argument("--two-angle", action="store_true",
                   help="two-angle 2-sphere slice instead of a great circle")
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_slice)

    p = sub.add_parser("merge", help="merge run CSVs into a summary JSON")
    p.add_argument("inputs", nargs="+", help="run CSV files or a directory of them")
    p.add_argument("--out", help="summary path (default: <dir>/summary.json)")
    p.add_argument("--force", action="store_true",
                   help="allow mixing reports with different config hashes")
    p.set_defaults(fn=_cmd_merge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage; that is a validation failure here
        return 1 if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except StepFailure as err:
        return _fail(2, err)
    except _VALIDATION_ERRORS as err:
        return _fail(1, err)
    except (RuntimeError, OSError, ValueError) as err:
        return _fail(2, err)


if __name__ == "__main__":
    sys.exit(main())
