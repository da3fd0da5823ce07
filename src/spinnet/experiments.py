"""Experiment orchestration: flat configs, presets, run grids, merging.

An experiment is a grid over (n, tensor realization, init seed).  Each cell
derives its own seed from the experiment master seed, so cells can run in
any order or in parallel without perturbing each other; re-running with the
same config and seed reproduces every artifact byte for byte.

Artifacts per cell: a probe-series CSV and a final-state checkpoint, both
embedding the experiment config hash and master seed.  merge_reports folds
cell CSVs into one summary (per-n loss statistics plus a fitted log-log
slope when at least three n values are present).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .diagnostics import Batch, ReportError, empirical_loss, fit_scaling_slope, read_report
from .dynamics import (
    DiagnosticPlan,
    InitSpec,
    ScheduleError,
    TrainConfig,
    init_from_string,
    noise_amplitude,
    run_schedule,
    save_checkpoint,
)
from .geometry import sample_sphere_rows
from .rng import stream, subseed
from .targets import SpinTensor, evaluate_target
from .units import RbfUnit, SigmoidUnit


class ConfigError(ValueError):
    pass


EXPERIMENT_KINDS = (
    "train",
    "rbf-scaling",
    "sigmoid-scaling",
    "quench",
    "slice",
    "clt-check",
    "gradcheck",
)

# field name -> (type tag, default); None default means required
_SPEC_FIELDS = {
    "experiment": ("str", "train"),
    "d": ("int", None),
    "unit": ("str", None),
    "alpha": ("opt_float", None),
    "n_list": ("int_list", None),
    "realizations": ("int", 1),
    "seeds": ("int", 1),
    "dynamics": ("str", None),
    "dt": ("float", 1e-3),
    "steps": ("int", None),
    "batch_divisor": ("float", 5.0),
    "quench_frac": ("opt_float", None),
    "noise_beta": ("opt_float", None),
    "noise_until_frac": ("float", 0.5),
    "beta": ("opt_float", None),
    "c_init": ("str", "zero"),
    "probe_every": ("int", 100),
    "eval_batch_size": ("int", 4096),
    "final_eval_batch_size": ("int", 100000),
    "master_seed": ("int", 1),
    "out_dir": ("str", "runs"),
    "threads": ("int", 1),
}

# execution parameters that do not change what is computed
_UNHASHED = ("out_dir", "threads")


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    d: int
    unit: str
    alpha: float | None
    n_list: tuple
    realizations: int
    seeds: int
    dynamics: str
    dt: float
    steps: int
    batch_divisor: float
    quench_frac: float | None
    noise_beta: float | None
    noise_until_frac: float
    beta: float | None
    c_init: str
    probe_every: int
    eval_batch_size: int
    final_eval_batch_size: int
    master_seed: int
    out_dir: str
    threads: int

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.unit not in ("rbf", "sigmoid"):
            raise ConfigError(f"unit must be rbf or sigmoid, got {self.unit!r}")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ConfigError(f"n_list must be positive ints, got {self.n_list}")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigError(f"n_list must be strictly increasing, got {self.n_list}")
        if self.dynamics not in ("gd", "sgd", "langevin"):
            raise ConfigError(f"unknown dynamics {self.dynamics!r}")
        if self.dynamics == "gd" and self.unit != "rbf":
            raise ConfigError("exact-flow dynamics requires the rbf unit")
        if self.steps < 0 or self.realizations < 1 or self.seeds < 1:
            raise ConfigError("steps must be >= 0; realizations, seeds >= 1")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.quench_frac is not None and not (0.0 < self.quench_frac < 1.0):
            raise ConfigError(f"quench_frac must be in (0,1), got {self.quench_frac}")
        if not (self.batch_divisor > 0):
            raise ConfigError("batch_divisor must be positive")
        if self.probe_every < 1 or self.eval_batch_size < 1 or self.final_eval_batch_size < 1:
            raise ConfigError("probe_every and eval batch sizes must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        try:
            init_from_string(self.c_init)
        except ScheduleError as err:
            raise ConfigError(str(err)) from None

    def build_unit(self):
        if self.unit == "rbf":
            alpha = self.alpha if self.alpha is not None else 5.0 / self.d
            return RbfUnit(alpha=alpha, d=self.d)
        return SigmoidUnit(d=self.d)

    def batch_size(self, n: int) -> int:
        return max(1, int(n // self.batch_divisor))

    def quench_batch_size(self, n: int) -> int:
        return max(1, int(n // self.batch_divisor)) ** 2

    def cells(self):
        for n in self.n_list:
            for r in range(self.realizations):
                for s in range(self.seeds):
                    yield (int(n), r, s)


def _format_value(name: str, value) -> str:
    if value is None:
        return ""
    if name == "n_list":
        return ",".join(str(int(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "opt_float":
            return None if raw == "" else float(raw)
        if tag == "int_list":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        return raw
    except ValueError as err:
        raise ConfigError(f"bad value for {name}: {raw!r} ({err})") from None


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in _SPEC_FIELDS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def spec_from_mapping(mapping: dict) -> ExperimentSpec:
    kwargs = {}
    for name, (tag, default) in _SPEC_FIELDS.items():
        if name in mapping:
            kwargs[name] = _parse_value(name, tag, str(mapping[name]))
        elif default is not None or tag == "opt_float":
            kwargs[name] = default
        else:
            raise ConfigError(f"missing required config key {name!r}")
    unknown = set(mapping) - set(_SPEC_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentSpec(**kwargs)


def spec_to_config_text(spec: ExperimentSpec) -> str:
    lines = []
    for name in _SPEC_FIELDS:
        value = getattr(spec, name)
        if value is None:
            continue
        lines.append(f"{name} = {_format_value(name, value)}")
    return "\n".join(lines) + "\n"


def config_hash(spec: ExperimentSpec) -> str:
    lines = []
    for name in _SPEC_FIELDS:
        if name in _UNHASHED:
            continue
        value = getattr(spec, name)
        lines.append(f"{name}={_format_value(name, value)}")
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def load_preset(name: str) -> dict:
    path = resources.files("spinnet").joinpath("presets", f"{name}.cfg")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {name!r}") from None
    return parse_config_text(text)


def build_spec(
    preset: str | None = None,
    config_path: str | None = None,
    overrides: dict | None = None,
    scale: float | None = None,
) -> ExperimentSpec:
    """Layer preset < config file < explicit overrides, then apply scale.

    scale multiplies the step count (schedule changepoints are expressed as
    fractions, so they move with it).
    """
    mapping: dict = {}
    if preset:
        mapping.update(load_preset(preset))
    if config_path:
        with open(config_path) as fh:
            mapping.update(parse_config_text(fh.read()))
    if overrides:
        for key in overrides:
            if key not in _SPEC_FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
        mapping.update({k: str(v) for k, v in overrides.items()})
    spec = spec_from_mapping(mapping)
    if scale is not None:
        if not (scale > 0):
            raise ConfigError(f"scale must be positive, got {scale}")
        scaled = dict(mapping)
        scaled["steps"] = str(max(1, int(round(spec.steps * scale))))
        spec = spec_from_mapping(scaled)
    return spec


# ---------------------------------------------------------------------------
# grid execution


def _train_config(spec: ExperimentSpec, n: int, run_seed: int) -> TrainConfig:
    batch_schedule: tuple = ()
    noise_schedule: tuple = ()
    if spec.dynamics in ("sgd", "langevin"):
        entries = [(0, spec.batch_size(n))]
        if spec.quench_frac is not None:
            qstep = int(spec.quench_frac * spec.steps)
            if 0 < qstep < spec.steps:
                entries.append((qstep, spec.quench_batch_size(n)))
        batch_schedule = tuple(entries)
    if spec.dynamics == "gd" and spec.noise_beta is not None:
        half = int(spec.noise_until_frac * spec.steps)
        entries = [(0, noise_amplitude(spec.noise_beta, n))]
        if 0 < half < spec.steps:
            entries.append((half, 0.0))
        noise_schedule = tuple(entries)
    return TrainConfig(
        dt=spec.dt,
        steps=spec.steps,
        dynamics=spec.dynamics,
        init=init_from_string(spec.c_init),
        master_seed=run_seed,
        batch_schedule=batch_schedule,
        noise_schedule=noise_schedule,
        beta=spec.beta,
    )


def cell_paths(out_dir: str, n: int, r: int, s: int) -> tuple[str, str]:
    tag = f"n{n}_r{r}_s{s}"
    return (
        os.path.join(out_dir, f"run_{tag}.csv"),
        os.path.join(out_dir, f"ckpt_{tag}.json"),
    )


def run_cell(spec: ExperimentSpec, n: int, r: int, s: int) -> dict:
    """Run one grid cell and write its CSV + checkpoint.  Deterministic in
    (spec-hash, n, r, s) alone."""
    h = config_hash(spec)
    unit = spec.build_unit()
    tensor = SpinTensor.sample(spec.d, subseed(spec.master_seed, "tensor", r))
    run_seed = subseed(spec.master_seed, f"cell-{n}-{r}", s)

    eval_pts = sample_sphere_rows(spec.d, spec.eval_batch_size, stream(spec.master_seed, "eval-batch"))
    eval_batch = Batch(points=eval_pts, target_values=evaluate_target(tensor, eval_pts))

    cfg = _train_config(spec, n, run_seed)
    init = cfg.init
    e0 = init.sample(unit, n, stream(run_seed, "init"))
    plan = DiagnosticPlan(probe_every=spec.probe_every, eval_batch=eval_batch)
    final, report = run_schedule(cfg, e0, tensor, plan)

    big_pts = sample_sphere_rows(
        spec.d, spec.final_eval_batch_size, stream(spec.master_seed, "final-eval-batch")
    )
    big_batch = Batch(points=big_pts, target_values=evaluate_target(tensor, big_pts))
    final_loss_big = empirical_loss(final, big_batch)

    report.meta.update(
        {
            "config_hash": h,
            "master_seed": spec.master_seed,
            "experiment": spec.experiment,
            "d": spec.d,
            "n": n,
            "realization": r,
            "seed_index": s,
            "tensor_seed": tensor.seed,
        }
    )
    report.summaries["final_loss_big"] = float(final_loss_big)

    csv_path, ckpt_path = cell_paths(spec.out_dir, n, r, s)
    report.to_csv(csv_path)
    save_checkpoint(
        ckpt_path,
        final,
        cfg.steps,
        {
            "config_hash": h,
            "master_seed": spec.master_seed,
            "run_seed": run_seed,
            "n": n,
            "realization": r,
            "seed_index": s,
            "tensor": tensor.to_dict(),
            "train": cfg.to_dict(),
        },
    )
    return {
        "n": n,
        "realization": r,
        "seed_index": s,
        "final_loss": float(final_loss_big),
        "csv": os.path.basename(csv_path),
        "checkpoint": os.path.basename(ckpt_path),
    }


def _run_cell_args(args) -> dict:
    spec_mapping, n, r, s = args
    return run_cell(spec_from_mapping(spec_mapping), n, r, s)


def _run_grid(spec: ExperimentSpec) -> dict:
    """Execute every cell, then merge.  Worker processes each own whole
    cells and write only their own files, so output bytes do not depend on
    the worker count."""
    cells = list(spec.cells())
    failures = []
    if spec.threads == 1 or len(cells) == 1:
        for n, r, s in cells:
            try:
                run_cell(spec, n, r, s)
            except Exception as err:  # noqa: BLE001 - cell isolation
                failures.append({"cell": [n, r, s], "error": f"{type(err).__name__}: {err}"})
    else:
        mapping = parse_config_text(spec_to_config_text(spec))
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            futs = {pool.submit(_run_cell_args, (mapping, n, r, s)): (n, r, s) for n, r, s in cells}
            for fut, cell in futs.items():
                try:
                    fut.result()
                except Exception as err:  # noqa: BLE001 - cell isolation
                    failures.append({"cell": list(cell), "error": f"{type(err).__name__}: {err}"})
    if failures:
        failures.sort(key=lambda f: f["cell"])
        with open(os.path.join(spec.out_dir, "failures.json"), "w") as fh:
            json.dump({"failures": failures}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise RuntimeError(f"{len(failures)} cell(s) failed; see failures.json")

    csvs = [cell_paths(spec.out_dir, n, r, s)[0] for n, r, s in cells]
    return merge_reports(csvs)


def run_clt_check(spec: ExperimentSpec, rtol: float = 0.15) -> dict:
    """Initialization-fluctuation check at a fresh probe point.

    Measures n * Var[f^(n)(probe)] over spec.seeds fresh initializations and
    compares it with the single-unit Monte Carlo prediction Var[c phihat].
    Both vanish identically for the zero weight law.
    """
    from .diagnostics import init_fluctuation_variance

    if spec.seeds < 2:
        raise ConfigError("clt-check needs seeds >= 2 to estimate a variance")
    unit = spec.build_unit()
    init = init_from_string(spec.c_init)
    n = int(spec.n_list[0])
    probe = sample_sphere_rows(spec.d, 1, stream(spec.master_seed, "clt-probe"))[0]
    measured, predicted = init_fluctuation_variance(
        init, unit, n, probe, seeds=spec.seeds, seed=spec.master_seed
    )
    both_zero = abs(measured) < 1e-12 and abs(predicted) < 1e-12
    passed = both_zero or (
        predicted > 0 and abs(measured - predicted) <= rtol * predicted
    )
    return {
        "schema": 1,
        "experiment": "clt-check",
        "config_hash": config_hash(spec),
        "master_seed": spec.master_seed,
        "n": n,
        "seeds": spec.seeds,
        "measured": measured,
        "predicted": predicted,
        "rtol": rtol,
        "passed": bool(passed),
    }


def _central_diff(fun, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.empty(x.size)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(fd, dtype=np.float64).ravel()
    scale = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def run_gradcheck(spec: ExperimentSpec, cases: int = 20, tol: float = 1e-6) -> dict:
    """Central-difference validation (h = 1e-5) of every analytic gradient:
    the target gradient, unit parameter and input gradients, and the SGD
    drift against the batch loss.  All gradients are ambient, so the
    difference quotients never need the constraint."""
    from .diagnostics import draw_batch
    from .dynamics import sgd_drift
    from .targets import spin3_grad_rows

    d = spec.d
    unit = spec.build_unit()
    tensor = SpinTensor.sample(d, subseed(spec.master_seed, "tensor", 0))
    gen = stream(spec.master_seed, "gradcheck").generator()
    errs: dict = {"target_grad": 0.0, "unit_grad_param": 0.0, "unit_grad_input": 0.0, "drift": 0.0}

    for _ in range(cases):
        x = sample_sphere_rows(d, 1, gen)[0]
        z = unit.init_rows(1, gen)[0]
        errs["target_grad"] = max(
            errs["target_grad"],
            _rel_err(
                spin3_grad_rows(tensor, x[None, :])[0],
                _central_diff(lambda v: float(evaluate_target(tensor, v[None, :])[0]), x),
            ),
        )
        errs["unit_grad_param"] = max(
            errs["unit_grad_param"],
            _rel_err(
                unit.grad_param(x, z),
                _central_diff(lambda v: unit.eval_one(x, v), z),
            ),
        )
        errs["unit_grad_input"] = max(
            errs["unit_grad_input"],
            _rel_err(
                unit.grad_input(x[None, :], z)[0],
                _central_diff(lambda v: unit.eval_one(v, z), x),
            ),
        )

    # SGD drift = -n * ambient gradient of the batch loss; the loss is
    # formed directly so differenced positions may leave the sphere
    n_small, P_small = 8, 32
    init = InitSpec(c_law="normal")
    ens = init.sample(unit, n_small, gen)
    batch = draw_batch(tensor, d, P_small, gen)
    dc, dZ = sgd_drift(ens, batch)

    def batch_loss(c, Z):
        r = batch.target_values - (unit.features(batch.points, Z) @ c) / n_small
        return float(0.5 * np.mean(r * r))

    fd_c = -n_small * _central_diff(lambda v: batch_loss(v, ens.z), ens.c.copy())
    errs["drift"] = max(errs["drift"], _rel_err(dc, fd_c))
    fd_z = -n_small * _central_diff(
        lambda v: batch_loss(ens.c, v.reshape(ens.z.shape)), ens.z.ravel().copy()
    )
    errs["drift"] = max(errs["drift"], _rel_err(dZ.ravel(), fd_z))

    passed = all(v < tol for v in errs.values())
    return {
        "schema": 1,
        "experiment": "gradcheck",
        "config_hash": config_hash(spec),
        "master_seed": spec.master_seed,
        "cases": cases,
        "tol": tol,
        "max_rel_err": {k: float(v) for k, v in sorted(errs.items())},
        "passed": bool(passed),
    }


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the spec and write config + artifacts + summary.json.

    Training families execute the (n x realization x seed) grid; clt-check
    and gradcheck produce a single summary.  A failed check or failed cells
    raise RuntimeError after writing partial artifacts.
    """
    if spec.experiment == "slice":
        raise ConfigError("slice renders a trained checkpoint; use the slice subcommand")
    os.makedirs(spec.out_dir, exist_ok=True)
    with open(os.path.join(spec.out_dir, "config.cfg"), "w") as fh:
        fh.write(spec_to_config_text(spec))

    if spec.experiment == "clt-check":
        summary = run_clt_check(spec)
    elif spec.experiment == "gradcheck":
        summary = run_gradcheck(spec)
    else:
        summary = _run_grid(spec)
    write_summary(os.path.join(spec.out_dir, "summary.json"), summary)
    if summary.get("passed") is False:
        raise RuntimeError(f"{spec.experiment} failed: {json.dumps(summary, sort_keys=True)}")
    return summary


# ---------------------------------------------------------------------------
# merging


def merge_reports(paths, force: bool = False) -> dict:
    """Fold run CSVs into one summary dict.

    All reports must carry the same config hash unless force is set.  The
    result depends only on the sorted file list, so merging is idempotent.
    """
    paths = sorted(str(p) for p in paths)
    if not paths:
        raise ConfigError("nothing to merge")
    reports = [read_report(p) for p in paths]
    hashes = sorted({r.meta["config_hash"] for r in reports})
    if len(hashes) > 1 and not force:
        raise ConfigError(f"refusing to merge mixed config hashes {hashes}; pass force to override")

    runs = []
    by_n: dict = {}
    for path, rep in zip(paths, reports):
        loss = rep.summaries.get("final_loss_big")
        if loss is None:
            loss = float(rep.series["loss"][-1]) if rep.rows else math.nan
        entry = {
            "csv": os.path.basename(path),
            "n": int(rep.meta.get("n", -1)),
            "realization": int(rep.meta.get("realization", -1)),
            "seed_index": int(rep.meta.get("seed_index", -1)),
            "final_loss": float(loss),
        }
        runs.append(entry)
        by_n.setdefault(entry["n"], []).append(float(loss))

    per_n = {}
    for n in sorted(by_n):
        vals = np.array(by_n[n])
        per_n[str(n)] = {
            "count": int(vals.size),
            "mean_loss": float(np.mean(vals)),
            "sem_loss": float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0,
        }

    summary = {
        "schema": 1,
        "config_hash": hashes[0] if len(hashes) == 1 else hashes,
        "master_seed": reports[0].meta.get("master_seed"),
        "per_n": per_n,
        "runs": runs,
    }
    ns = sorted(by_n)
    if len(ns) >= 3 and all(per_n[str(n)]["mean_loss"] > 0 for n in ns):
        pts = [
            (n, per_n[str(n)]["mean_loss"], per_n[str(n)]["sem_loss"] or None)
            for n in ns
        ]
        try:
            slope, stderr = fit_scaling_slope(pts)
            summary["slope"] = {"value": slope, "stderr": stderr}
        except ReportError as err:
            summary["slope_error"] = str(err)
    return summary


def write_summary(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
