"""Losses, error estimators, kernels, fluctuation checks, slices, reports.

Conventions:

* empirical loss on a batch is (1/2P) sum_p (f - f^(n))^2;
* the RBF pair loss is the batch-free surrogate
  -(1/n) sum_i c_i f(z_i) + (1/2n^2) sum_ij c_i c_j phihat(z_i, z_j),
  which the exact flow descends monotonically (the target-only constant
  is not included);
* signed errors split the residual mean by the sign of the target, with
  f(x) = 0 points contributing to neither side.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _FINAL_EVAL_CHUNK,
    InvalidDimensionError,
    _gaussian_rows_into,
    _scale_to_sphere,
    _short_rows,
    _sphere_rows_into,
    _sq_norms_into,
    sample_sphere_rows,
)
from .rng import generator_for, stream
from .targets import _check_target_d, _spin3_scratch, evaluate_target
from .units import (
    ParticleEnsemble,
    RbfUnit,
    _eval_block_rows,
    _kernel_sums_into,
    network_eval_rows,
)


class EmptyBatchError(ValueError):
    pass


class ReportError(ValueError):
    pass


@contextmanager
def _atomic_write(path):
    """Text handle on a temp file next to path that replaces path when the
    block ends; if the block raises, the temp file is removed and path is
    left as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _check_values(pts: np.ndarray, vals: np.ndarray) -> None:
    """Raise InvalidDimensionError unless vals holds one value per row of pts."""
    if vals.shape != (pts.shape[0],):
        raise InvalidDimensionError(
            f"target_values shape {vals.shape} does not match {pts.shape[0]} points"
        )


def _check_on_sphere(pts: np.ndarray, nrm: np.ndarray, tmp: np.ndarray) -> None:
    """Raise InvalidDimensionError unless every row of pts lies on
    S^{d-1}(sqrt(d)) (relative tol 1e-10); nrm (P,) and tmp (P, d) are
    scratch."""
    radius = np.sqrt(pts.shape[1])
    dev = np.sqrt(_sq_norms_into(pts, nrm, tmp), out=nrm)
    dev -= radius
    dev = np.abs(dev, out=dev).max()
    if not dev <= 1e-10 * radius:  # a NaN row fails too
        raise InvalidDimensionError(
            f"batch points off the sphere by {dev:.3e} (relative tol 1e-10)"
        )


@dataclass(frozen=True)
class Batch:
    """Evaluation points on S^{d-1}(sqrt(d)) with precomputed target values."""

    points: np.ndarray
    target_values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        vals = np.asarray(self.target_values, dtype=np.float64)
        if pts.shape[0] < 1:
            raise EmptyBatchError("batch must contain at least one point")
        _check_values(pts, vals)
        _check_on_sphere(pts, np.empty(pts.shape[0]), np.empty(pts.shape))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "target_values", vals)

    @property
    def P(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def draw_batch(target, d: int, P: int, rng) -> Batch:
    """Fresh uniform batch on the sphere with target values attached."""
    if P < 1:
        raise EmptyBatchError(f"batch size must be >= 1, got {P}")
    X = sample_sphere_rows(d, P, rng)
    return Batch(points=X, target_values=evaluate_target(target, X))


def batch_residual(e: ParticleEnsemble, batch: Batch) -> np.ndarray:
    """f(x_p) - f^(n)(x_p) over the batch."""
    return batch.target_values - network_eval_rows(e, batch.points)


def _add_squares(total: float, r: np.ndarray) -> float:
    """total + sum_p r_p^2, the squares summed in pieces of
    _FINAL_EVAL_CHUNK entries that are added to total left to right, so r
    taken in pieces of whole chunks adds up to r taken at once."""
    for lo in range(0, r.size, _FINAL_EVAL_CHUNK):
        piece = r[lo : lo + _FINAL_EVAL_CHUNK]
        total += float(np.add.reduce(piece * piece))
    return total


def residual_loss(r: np.ndarray) -> float:
    """(1/2P) sum_p r_p^2 for a residual over P points; for P <= 4096 this
    is 0.5 * np.mean(r * r) bit for bit."""
    return 0.5 * (_add_squares(0.0, r) / r.size)


def residual_signed_split(r: np.ndarray, target_values: np.ndarray) -> tuple[float, float, float]:
    """(plus, minus, plus + minus): residual sums over sign(f) = +1 and
    sign(f) = -1, each divided by the batch size.

    The restricted mean is assembled as plus + minus, so the sign split is
    an exact identity, not an up-to-roundoff one.
    """
    plus = float(np.sum(np.where(target_values > 0, r, 0.0)) / r.size)
    minus = float(np.sum(np.where(target_values < 0, r, 0.0)) / r.size)
    return plus, minus, plus + minus


def empirical_loss(e: ParticleEnsemble, batch: Batch) -> float:
    """(1/2P) sum_p (f - f^(n))^2."""
    return residual_loss(batch_residual(e, batch))


def signed_error_summary(e: ParticleEnsemble, batch: Batch) -> tuple[float, float, float]:
    """(plus, minus, residual mean over f != 0) in one pass over the batch."""
    return residual_signed_split(batch_residual(e, batch), batch.target_values)


def _sphere_batches_into(target, X: np.ndarray, y: np.ndarray, P: int, gen_at,
                         nrm: np.ndarray, tmp: np.ndarray, s3: tuple) -> None:
    """Fill X with len(X) // P batches of P uniform points on
    S^{d-1}(sqrt(d)), batch i drawn from gen_at(i) as _sphere_rows_into
    draws it, and y with their target values, each batch's those of a
    one-shot evaluation of its rows; nrm, tmp and s3 are scratch.

    For a batch with a short row, gen_at(i) is called again and the batch
    drawn again from it by _gaussian_rows_into, which redraws its short
    rows.
    """
    for lo in range(0, len(X), P):
        gen_at(lo // P).standard_normal(out=X[lo : lo + P])
    nrm = np.sqrt(_sq_norms_into(X, nrm, tmp), out=nrm)
    short = _short_rows(nrm)
    if short.any():  # np.unique's first call imports about 1 MB
        for i in np.unique(np.flatnonzero(short) // P).tolist():
            rows = slice(i * P, (i + 1) * P)
            _gaussian_rows_into(X.shape[1], gen_at(i), X[rows], nrm[rows], tmp[rows])
    _scale_to_sphere(X, nrm)
    _check_on_sphere(X, nrm, tmp)
    target._eval_into(X, y, None, s3, P)


def _checked_sphere_rows_into(gen, X: np.ndarray) -> None:
    """Fill X with uniform points on S^{d-1}(sqrt(d)) drawn from gen as
    _sphere_rows_into draws them, and check them as a Batch does; the
    scratch lives only in this call."""
    nrm, tmp = np.empty(X.shape[0]), np.empty(X.shape)
    _sphere_rows_into(X.shape[1], gen, X, nrm, tmp)
    _check_on_sphere(X, nrm, tmp)


def _sampled_loss(ensembles, target, size: int, rng) -> list:
    """[empirical_loss(e, draw_batch(target, d, size, rng)) for e in
    ensembles] bit for bit, from one draw of the batch, which is never
    held whole.

    The batch is taken in chunks of _FINAL_EVAL_CHUNK rows: each chunk is
    drawn, checked and valued once, goes through every network, and adds
    its squared residuals to one running sum per ensemble.  The sampler,
    the network evaluation and residual_loss each follow their chunk rule,
    so this equals the one-shot loss by construction.  A row-local target
    (3-spin) is valued chunk by chunk; any other (planted) is one product
    over the whole batch, so its batch is one chunk.  Each chunk's scratch
    is allocated in turn, so the call holds one chunk's points and values
    and the scratch of one step at a time.
    """
    gen = generator_for(rng)
    if size < 1:
        raise EmptyBatchError(f"batch size must be >= 1, got {size}")
    for e in ensembles:
        _check_target_d(target, e.unit)
    if not ensembles:
        return []
    chunk = min(size, _FINAL_EVAL_CHUNK) if target.row_local else size
    X, y = np.empty((chunk, target.d)), np.empty(chunk)
    totals = [0.0] * len(ensembles)
    for lo in range(0, size, chunk):
        k = min(chunk, size - lo)
        _checked_sphere_rows_into(gen, X[:k])
        target._eval_into(X[:k], y[:k], None, _spin3_scratch(target.d, k), k)
        for i, e in enumerate(ensembles):
            r = network_eval_rows(e, X[:k])
            totals[i] = _add_squares(totals[i], np.subtract(y[:k], r, out=r))
    return [0.5 * (total / size) for total in totals]


def rbf_pair_terms(e: ParticleEnsemble) -> tuple[np.ndarray, float]:
    """Interaction sums of the RBF pair loss.

    Returns (g, quad) with g_i = sum_j c_j phihat(z_i, z_j) and
    quad = sum_ij c_i c_j phihat(z_i, z_j).
    """
    if not isinstance(e.unit, RbfUnit):
        raise InvalidDimensionError("pair loss is defined for RBF ensembles only")
    # a contiguous (alpha Z)^T, as the exact flow's drift uses
    AZT = e.unit._kernel_params(e.z.T, np.empty((e.unit.d, e.n)))
    F = np.empty((min(e.n, _eval_block_rows(e.n)), e.n))
    (g,) = _kernel_sums_into(e.unit, e.z, AZT, (e.c,), (np.empty(e.n),), F)
    return g, float(np.dot(e.c, g))


def rbf_exact_loss(e: ParticleEnsemble, target) -> float:
    """Batch-free RBF surrogate loss (target constant excluded)."""
    # pair terms first: they reject non-RBF ensembles before the target is
    # asked to evaluate at parameter vectors that are not sphere points
    _, quad = rbf_pair_terms(e)
    fz = evaluate_target(target, e.z)
    n = e.n
    return float(-np.dot(e.c, fz) / n + 0.5 * quad / (n * n))


def tangent_kernel_gram(e: ParticleEnsemble, probes: np.ndarray) -> np.ndarray:
    """(m, m) kernel governing the network response at probe points:

    M_kl = (1/n) sum_i [ c_i^2 grad_z phihat(x_k, z_i) . grad_z phihat(x_l, z_i)
                         + phihat(x_k, z_i) phihat(x_l, z_i) ].

    Assembled from feature and gradient Gram factors, so it is symmetric and
    positive semidefinite up to roundoff.
    """
    X = np.atleast_2d(np.asarray(getattr(probes, "points", probes), dtype=np.float64))
    m = X.shape[0]
    F = e.unit.features(X, e.z)
    G = e.unit.grad_param_all(X, e.z) * e.c[None, :, None]
    W = G.reshape(m, -1)
    M = (W @ W.T + F @ F.T) / e.n
    return 0.5 * (M + M.T)


def init_fluctuation_variance(
    init,
    unit,
    n: int,
    probe: np.ndarray,
    seeds: int,
    seed: int,
    param_draws: int = 10**6,
) -> tuple[float, float]:
    """Initialization fluctuation check at one probe point.

    measured:  n * Var over fresh initializations of f^(n)(probe);
    predicted: Var_{mu_in}[c phihat(probe, z)] by Monte Carlo with
               param_draws parameter samples.
    """
    probe = np.asarray(probe, dtype=np.float64)
    vals = np.empty(seeds)
    for s in range(seeds):
        ens = init.sample(unit, n, stream(seed, "fluct-measure", s))
        vals[s] = network_eval_rows(ens, probe[None, :])[0]
    measured = float(n * np.var(vals, ddof=1))

    big = init.sample(unit, param_draws, stream(seed, "fluct-predict"))
    phi = big.c * big.unit.features(probe[None, :], big.z)[0]
    predicted = float(np.var(phi))
    return measured, predicted


def fit_scaling_slope(points) -> tuple[float, float]:
    """Weighted least-squares slope of log(mean) against log(n).

    points: iterable of (n, mean, sem).  SEMs are propagated to log scale
    (sigma_log = sem/mean) and used as inverse-variance weights; if any SEM
    is missing or nonpositive the fit falls back to an unweighted one with
    a residual-based standard error.
    """
    pts = [(float(n), float(m), None if s is None else float(s)) for n, m, s in points]
    if len({p[0] for p in pts}) < 3:
        raise ReportError("slope fit needs at least 3 distinct n values")
    if any(p[0] <= 0 or p[1] <= 0 for p in pts):
        raise ReportError("slope fit needs positive n and positive means")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    weighted = all(p[2] is not None and p[2] > 0 for p in pts)
    if weighted:
        sig = np.array([p[2] / p[1] for p in pts])
        w = 1.0 / (sig * sig)
    else:
        w = np.ones_like(x)
    W = np.sum(w)
    xb = np.sum(w * x) / W
    yb = np.sum(w * y) / W
    sxx = np.sum(w * (x - xb) ** 2)
    if sxx == 0.0:
        raise ReportError("slope fit needs spread in n")
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    if weighted:
        stderr = float(np.sqrt(1.0 / sxx))
    else:
        resid = y - (yb + slope * (x - xb))
        dof = max(1, len(pts) - 2)
        stderr = float(np.sqrt(np.sum(resid * resid) / dof / sxx))
    return slope, stderr


def great_circle_slice(
    e: ParticleEnsemble, target, i: int, j: int, resolution: int
) -> dict:
    """Target and network along the great circle in the (i, j) coordinate
    plane: x_i = sqrt(d) cos(theta), x_j = sqrt(d) sin(theta), rest 0."""
    d = e.unit.d
    if i == j:
        raise InvalidDimensionError("great circle needs two distinct axes")
    if not (0 <= i < d and 0 <= j < d):
        raise InvalidDimensionError(f"axes ({i}, {j}) out of range for d = {d}")
    if resolution < 2:
        raise InvalidDimensionError("resolution must be >= 2")
    theta = np.linspace(0.0, 2.0 * np.pi, resolution)
    X = np.zeros((resolution, d))
    X[:, i] = np.sqrt(d) * np.cos(theta)
    X[:, j] = np.sqrt(d) * np.sin(theta)
    return {
        "theta": theta,
        "target": evaluate_target(target, X),
        "network": network_eval_rows(e, X),
    }


def two_angle_slice(e: ParticleEnsemble, target, resolution: int) -> dict:
    """Target and network on the 2-sphere slice
    x = sqrt(d) (sin t cos p, sin t sin p, cos t, 0, ..., 0)."""
    d = e.unit.d
    if d < 3:
        raise InvalidDimensionError(f"two-angle slice needs d >= 3, got d = {d}")
    if resolution < 2:
        raise InvalidDimensionError("resolution must be >= 2")
    t = np.linspace(0.0, np.pi, resolution)
    p = np.linspace(0.0, 2.0 * np.pi, resolution)
    T, Ph = np.meshgrid(t, p, indexing="ij")
    T, Ph = T.ravel(), Ph.ravel()
    X = np.zeros((T.size, d))
    X[:, 0] = np.sqrt(d) * np.sin(T) * np.cos(Ph)
    X[:, 1] = np.sqrt(d) * np.sin(T) * np.sin(Ph)
    X[:, 2] = np.sqrt(d) * np.cos(T)
    return {
        "theta": T,
        "phi": Ph,
        "target": evaluate_target(target, X),
        "network": network_eval_rows(e, X),
    }


REPORT_SCHEMA = 1

REPORT_COLUMNS = (
    "step",
    "time",
    "P",
    "sigma",
    "noise",
    "loss",
    "batch_loss",
    "exact_loss",
    "signed_plus",
    "signed_minus",
    "resid_nonzero",
    "sphere_dev",
    "c_absmax",
)

_INT_COLUMNS = {"step", "P"}


@dataclass
class ExperimentReport:
    """Probe series of one run plus identifying metadata and summaries.

    meta must identify the run (config hash, master seed, tensor key);
    series holds one equal-length array per REPORT_COLUMNS entry with
    strictly increasing steps; summaries carries derived scalars.
    """

    meta: dict
    series: dict
    summaries: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict, repr=False)  # in-memory only

    def __post_init__(self):
        missing = [c for c in REPORT_COLUMNS if c not in self.series]
        if missing:
            raise ReportError(f"series missing columns: {missing}")
        lengths = {c: len(self.series[c]) for c in REPORT_COLUMNS}
        if len(set(lengths.values())) > 1:
            raise ReportError(f"ragged series columns: {lengths}")
        steps = np.asarray(self.series["step"])
        if steps.size and np.any(np.diff(steps) <= 0):
            raise ReportError("series steps must be strictly increasing")
        for key in ("config_hash", "master_seed"):
            if key not in self.meta:
                raise ReportError(f"report meta missing {key!r}")

    @property
    def rows(self) -> int:
        return len(self.series["step"])

    def to_csv(self, path) -> None:
        with _atomic_write(path) as fh:
            fh.write(f"# spinnet-report v{REPORT_SCHEMA}\n")
            fh.write("# meta " + json.dumps(self.meta, sort_keys=True) + "\n")
            fh.write("# summaries " + json.dumps(self.summaries, sort_keys=True) + "\n")
            fh.write(",".join(REPORT_COLUMNS) + "\n")
            cols = [np.asarray(self.series[c]) for c in REPORT_COLUMNS]
            for row in range(self.rows):
                cells = []
                for name, col in zip(REPORT_COLUMNS, cols):
                    v = col[row]
                    cells.append(str(int(v)) if name in _INT_COLUMNS else repr(float(v)))
                fh.write(",".join(cells) + "\n")


def read_report(path) -> ExperimentReport:
    """Parse a report CSV written by ExperimentReport.to_csv."""
    try:
        return _parse_report(path)
    except ReportError:
        raise
    except (ValueError, OverflowError) as err:  # bad JSON, a non-number or oversized cell
        raise ReportError(f"{path}: malformed report ({err})") from None


def _parse_report(path) -> ExperimentReport:
    meta, summaries = None, {}
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# spinnet-report v{REPORT_SCHEMA}":
            raise ReportError(f"{path}: unrecognized report header {first!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta ") :])
            elif line.startswith("# summaries "):
                summaries = json.loads(line[len("# summaries ") :])
            elif line.startswith("#"):
                continue
            elif line.startswith("step,"):
                header = tuple(line.split(","))
                if header != REPORT_COLUMNS:
                    raise ReportError(f"{path}: unexpected columns {header}")
            else:
                cells = line.split(",")
                if len(cells) != len(REPORT_COLUMNS):
                    raise ReportError(
                        f"{path}: a data row has {len(cells)} cells, not {len(REPORT_COLUMNS)}"
                    )
                rows.append(cells)
    if meta is None:
        raise ReportError(f"{path}: missing meta line")
    if not isinstance(meta, dict) or not isinstance(summaries, dict):
        raise ReportError(f"{path}: meta and summaries must be JSON objects")
    if not isinstance(meta.get("config_hash", ""), str):
        raise ReportError(f"{path}: config_hash must be a string")
    series = {}
    for k, name in enumerate(REPORT_COLUMNS):
        if name in _INT_COLUMNS:
            series[name] = np.array([int(r[k]) for r in rows], dtype=np.int64)
        else:
            series[name] = np.array([float(r[k]) for r in rows])
    return ExperimentReport(meta=meta, series=series, summaries=summaries)
