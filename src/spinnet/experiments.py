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

import glob
import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from importlib import resources

import numpy as np

from .diagnostics import (
    ReportError,
    _atomic_write,
    _sampled_loss,
    draw_batch,
    fit_scaling_slope,
    init_fluctuation_variance,
    read_report,
)
from .dynamics import (
    DiagnosticPlan,
    InitSpec,
    TrainConfig,
    init_from_string,
    noise_amplitude,
    run_schedule,
    save_checkpoint,
    sgd_drift,
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
    "clt-check",
    "gradcheck",
)

# execution parameters that do not change what is computed
_UNHASHED = ("out_dir", "threads")


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """The config schema: one field per key, in config_hash and config.cfg
    order; a field without a default is a required key."""

    experiment: str = "train"
    d: int
    unit: str
    alpha: float | None = None
    n_list: tuple
    realizations: int = 1
    seeds: int = 1
    dynamics: str
    dt: float = 1e-3
    steps: int
    batch_divisor: float = 5.0
    quench_frac: float | None = None
    noise_beta: float | None = None
    noise_until_frac: float = 0.5
    beta: float | None = None
    c_init: str = "zero"
    probe_every: int = 100
    eval_batch_size: int = 4096
    final_eval_batch_size: int = 100000
    master_seed: int = 1
    out_dir: str = "runs"
    threads: int = 1

    def __post_init__(self):
        """Check the rules that belong to the spec, then build what a cell
        builds, so a value any of those objects refuses is a ConfigError."""
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
        if self.dynamics == "gd" and self.unit != "rbf":
            raise ConfigError("exact-flow dynamics requires the rbf unit")
        if self.realizations < 1 or self.seeds < 1:
            raise ConfigError("realizations and seeds must be >= 1")
        if self.quench_frac is not None and not (0.0 < self.quench_frac < 1.0):
            raise ConfigError(f"quench_frac must be in (0,1), got {self.quench_frac}")
        if self.experiment == "quench" and self.quench_frac is None:
            raise ConfigError("quench needs quench_frac set")
        if self.experiment.endswith("-scaling") and len(self.n_list) < 3:
            raise ConfigError("a scaling study needs at least 3 n values for the slope fit")
        if self.experiment == "clt-check" and self.seeds < 2:
            raise ConfigError("clt-check needs seeds >= 2 to estimate a variance")
        if not (self.batch_divisor > 0):
            raise ConfigError("batch_divisor must be positive")
        if self.eval_batch_size < 1 or self.final_eval_batch_size < 1:
            raise ConfigError("eval batch sizes must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        try:
            self.build_unit()
            for n in self.n_list:
                _train_config(self, n, 0)
            DiagnosticPlan(probe_every=self.probe_every)
        except (ValueError, OverflowError) as err:
            raise ConfigError(str(err)) from None

    def build_unit(self):
        if self.unit == "rbf":
            return RbfUnit(alpha=5.0 / self.d if self.alpha is None else self.alpha, d=self.d)
        return SigmoidUnit(d=self.d)

    def batch_size(self, n: int) -> int:
        return max(1, int(n // self.batch_divisor))

    def quench_batch_size(self, n: int) -> int:
        return self.batch_size(n) ** 2

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


# field annotation -> parser of the raw config value
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda raw: None if raw == "" else float(raw),
    "tuple": lambda raw: tuple(int(p) for p in raw.split(",") if p.strip() != ""),
    "str": str,
}

# config key -> ExperimentSpec field, in the field order
_FIELDS = {f.name: f for f in fields(ExperimentSpec)}


def _parse_value(f, raw: str):
    raw = raw.strip()
    if f.type != "str" and "_" in raw:
        # int() and float() read "1_0" as 10
        raise ConfigError(f"bad value for {f.name}: {raw!r} (no underscores in numbers)")
    try:
        return _PARSERS[f.type](raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {f.name}: {raw!r} ({err})") from None


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
        if key not in _FIELDS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def spec_from_mapping(mapping: dict) -> ExperimentSpec:
    kwargs = {}
    for f in _FIELDS.values():
        if f.name in mapping:
            kwargs[f.name] = _parse_value(f, str(mapping[f.name]))
        elif f.default is MISSING:
            raise ConfigError(f"missing required config key {f.name!r}")
    unknown = set(mapping) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentSpec(**kwargs)


def spec_to_config_text(spec: ExperimentSpec) -> str:
    lines = []
    for name in _FIELDS:
        value = getattr(spec, name)
        if value is None:
            continue
        lines.append(f"{name} = {_format_value(name, value)}")
    return "\n".join(lines) + "\n"


def config_hash(spec: ExperimentSpec) -> str:
    lines = []
    for name in _FIELDS:
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
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
        mapping.update({k: str(v) for k, v in overrides.items()})
    spec = spec_from_mapping(mapping)
    if scale is not None:
        if not (scale > 0 and math.isfinite(spec.steps * scale)):
            raise ConfigError(f"scale must be positive and give a finite step count, got {scale}")
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
        if not math.isfinite(spec.noise_until_frac):
            raise ConfigError(f"noise_until_frac must be finite, got {spec.noise_until_frac}")
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


def run_cell(spec: ExperimentSpec, n: int, r: int, s: int, tensor: SpinTensor,
             eval_batch) -> tuple:
    """Train one grid cell on its realization's tensor and probe batch,
    write its checkpoint, and return (final ensemble, report); the report
    still lacks final_loss_big.  Deterministic in (spec-hash, n, r, s)
    alone."""
    h = config_hash(spec)
    run_seed = subseed(spec.master_seed, f"cell-{n}-{r}", s)
    cfg = _train_config(spec, n, run_seed)
    e0 = cfg.init.sample(spec.build_unit(), n, stream(run_seed, "init"))
    plan = DiagnosticPlan(probe_every=spec.probe_every, eval_batch=eval_batch)
    final, report = run_schedule(cfg, e0, tensor, plan)

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
    save_checkpoint(
        cell_paths(spec.out_dir, n, r, s)[1],
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
    return final, report


def _failure(cell, err: Exception) -> dict:
    return {"cell": list(cell), "error": f"{type(err).__name__}: {err}"}


def _train_cells(spec: ExperimentSpec, cells) -> tuple[list, list]:
    """Train the given cells, all of one tensor realization, and write
    their checkpoints; return (trained, failures), with one (cell, final
    ensemble, report) entry per trained cell and one {"cell", "error"}
    entry per failed one.

    The realization's tensor and probe batch are built once and every
    cell trains through run_cell.  A cell that raises fails alone; the
    others go on.  Never raises, so a pool task returns its failures
    rather than an exception that the parent would have to unpickle.
    """
    try:
        tensor = SpinTensor.sample(spec.d, subseed(spec.master_seed, "tensor", cells[0][1]))
        eval_batch = draw_batch(
            tensor, spec.d, spec.eval_batch_size, stream(spec.master_seed, "eval-batch")
        )
    except Exception as err:  # noqa: BLE001 - the cells fail together
        return [], [_failure(cell, err) for cell in cells]
    trained, failures = [], []
    for cell in cells:
        try:
            trained.append((cell, *run_cell(spec, *cell, tensor, eval_batch)))
        except Exception as err:  # noqa: BLE001 - cell isolation
            failures.append(_failure(cell, err))
    return trained, failures


def _finish_cells(spec: ExperimentSpec, r: int, trained) -> list:
    """Value the trained cells of realization r on one draw of the
    final-evaluation points, which depend on the master seed alone, and
    write their CSVs; return the failures.

    One _sampled_loss call values every final ensemble, on the tensor
    rebuilt from its seed.  Never raises, like _train_cells.
    """
    if not trained:
        return []
    try:
        losses = _sampled_loss(
            [final for _, final, _ in trained],
            SpinTensor.sample(spec.d, subseed(spec.master_seed, "tensor", r)),
            spec.final_eval_batch_size,
            stream(spec.master_seed, "final-eval-batch"),
        )
    except Exception as err:  # noqa: BLE001 - the trained cells fail together
        return [_failure(cell, err) for cell, _, _ in trained]
    failures = []
    for (cell, _, report), loss in zip(trained, losses):
        report.summaries["final_loss_big"] = loss
        try:
            report.to_csv(cell_paths(spec.out_dir, *cell)[0])
        except Exception as err:  # noqa: BLE001 - cell isolation
            failures.append(_failure(cell, err))
    return failures


def _by_realization(cells) -> dict:
    """realization -> its cells, in grid order."""
    return {r: [c for c in cells if c[1] == r] for r in dict.fromkeys(c[1] for c in cells)}


def run_cells(spec: ExperimentSpec, cells) -> list:
    """Run the given grid cells in this process and write each one's CSV
    and checkpoint; return the failures, one {"cell", "error"} entry per
    failed cell.  Each realization's cells are trained by one _train_cells
    call, then valued and written by one _finish_cells call."""
    failures = []
    for r, group in _by_realization(cells).items():
        trained, failed = _train_cells(spec, group)
        failures += failed + _finish_cells(spec, r, trained)
    return failures


def _run_grid(spec: ExperimentSpec) -> dict:
    """Execute every cell, then merge.  A one-process grid runs all cells
    through one run_cells call.  A pool runs the same two routines as two
    kinds of task: one _train_cells task per cell, all queued first, in
    grid order; then, as soon as all of a realization's cells are back,
    one _finish_cells task that values their final ensembles in one pass.
    Every grid thus draws each realization's final points once.  A task
    that dies with its worker (a broken pool) fails the cells it held, and
    the temp files a killed worker left for a failed cell are removed.
    Each cell writes only its own files, so output bytes do not depend on
    the worker count."""
    cells = list(spec.cells())
    if spec.threads == 1 or len(cells) == 1:
        failures = run_cells(spec, cells)
    else:
        # imported here for cost: it pulls in multiprocessing, which a
        # one-process run never uses
        from concurrent.futures import ProcessPoolExecutor

        failures, finishing = [], []
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            futs = {cell: pool.submit(_train_cells, spec, [cell]) for cell in cells}
            for r, group in _by_realization(cells).items():
                trained = []
                for cell in group:
                    try:
                        done, failed = futs[cell].result()
                    except Exception as err:  # noqa: BLE001 - cell isolation
                        done, failed = [], [_failure(cell, err)]
                    trained += done
                    failures += failed
                try:
                    finishing.append((trained, pool.submit(_finish_cells, spec, r, trained)))
                except Exception as err:  # noqa: BLE001 - the trained cells fail together
                    failures += [_failure(cell, err) for cell, _, _ in trained]
            for trained, fut in finishing:
                try:
                    failures += fut.result()
                except Exception as err:  # noqa: BLE001 - the trained cells fail together
                    failures += [_failure(cell, err) for cell, _, _ in trained]
    if failures:
        failures.sort(key=lambda f: f["cell"])
        for f in failures:
            for path in cell_paths(spec.out_dir, *f["cell"]):
                for tmp in glob.glob(glob.escape(path) + ".*.tmp"):
                    os.remove(tmp)
        write_summary(os.path.join(spec.out_dir, "failures.json"), {"failures": failures})
        raise RuntimeError(f"{len(failures)} cell(s) failed; see failures.json")

    csvs = [cell_paths(spec.out_dir, n, r, s)[0] for n, r, s in cells]
    return merge_reports(csvs)


def run_clt_check(spec: ExperimentSpec, rtol: float = 0.15) -> dict:
    """Initialization-fluctuation check at a fresh probe point.

    Measures n * Var[f^(n)(probe)] over spec.seeds fresh initializations and
    compares it with the single-unit Monte Carlo prediction Var[c phihat].
    Both vanish identically for the zero weight law.
    """
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
                tensor.grad_rows(x[None, :])[0],
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
    os.makedirs(spec.out_dir, exist_ok=True)
    with _atomic_write(os.path.join(spec.out_dir, "config.cfg")) as fh:
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


def _meta_int(meta: dict, key: str) -> int:
    """meta[key] (default -1) as an int; a value that int() would change,
    such as 3.7, is refused rather than truncated."""
    value = meta.get(key, -1)
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{key} = {value!r} is not an integer")
    return int(value)


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
        try:
            entry = {
                "csv": os.path.basename(path),
                **{key: _meta_int(rep.meta, key) for key in ("n", "realization", "seed_index")},
                "final_loss": float(loss),
            }
        except (TypeError, ValueError, OverflowError) as err:
            raise ReportError(f"{path}: malformed report meta or summaries ({err})") from None
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
    with _atomic_write(path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
