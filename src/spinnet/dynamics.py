"""Training dynamics for particle ensembles.

Three step families share one drift/apply structure:

* exact descent flow ("gd", RBF only): the network is trained on the
  batch-free pair loss, so the drift is
      dz_i = c_i grad f(z_i) - (alpha/n) sum_j c_i c_j z_j phihat(z_i, z_j)
      dc_i = f(z_i) - (1/n) sum_j c_j phihat(z_i, z_j),
  with the z-drift tangent-projected and the updated position retracted to
  the sphere (no Lagrange multiplier is ever formed);
* online SGD ("sgd"): a fresh uniform batch of size P is drawn every step
  and the population averages above are replaced by batch averages; the
  resulting drift is the residual-weighted feature average
      dc_i = <phihat(., z_i), f - f^(n)>_P,
      dz_i = c_i <grad_z phihat(., z_i), f - f^(n)>_P,
  an unbiased estimator of the population drift with effective noise
  sigma = dt/P;
* Langevin ("langevin"): adds (beta n)^{-1} grad log rho0(theta) dt and
  per-coordinate Gaussian noise of variance 2 dt/(beta n) on top of either
  base drift; beta = inf reduces bit-for-bit to the noiseless step.

Within a run every batch draw and every noise draw owns a stream keyed by
the absolute step index, so runs are reproducible under any scheduling and
a checkpoint needs only (ensemble, step) to resume bit-exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    _PAIR_CHUNK_ENTRIES,
    Batch,
    ExperimentReport,
    REPORT_COLUMNS,
    batch_residual,
    draw_batch,
    rbf_exact_loss,
    rbf_pair_sums,
    residual_loss,
    residual_signed_split,
)
from .geometry import retract_rows, tangent_project_rows
from .rng import generator_for, stream
from .targets import PlantedTarget, SpinTensor, evaluate_target, target_grad_rows
from .units import ParticleEnsemble, RbfUnit

DYNAMICS_KINDS = ("gd", "sgd", "langevin")


class ScheduleError(ValueError):
    pass


class StepFailure(RuntimeError):
    """Raised when a step produces non-finite state."""

    def __init__(self, step: int, particle: int, what: str):
        self.step = step
        self.particle = particle
        super().__init__(f"non-finite {what} at step {step}, particle {particle}")


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    """Product law for the initial ensemble.

    c_law: "zero", "normal", ("uniform", lo, hi), or "jordan" (weights
    +/- total variation tied to the planted atom signs; requires a planted
    z_law).  z_law: "uniform" (the unit's own parameter law) or
    ("planted", PlantedTarget).
    """

    c_law: object = "zero"
    z_law: object = "uniform"

    def __post_init__(self):
        c = self.c_law
        if not (
            c in ("zero", "normal", "jordan")
            or (isinstance(c, tuple) and len(c) == 3 and c[0] == "uniform")
        ):
            raise ScheduleError(f"unknown c_law: {c!r}")
        if isinstance(c, tuple) and not (float(c[1]) <= float(c[2])):
            raise ScheduleError(f"uniform c_law needs lo <= hi, got {c!r}")
        z = self.z_law
        if not (
            z == "uniform"
            or (isinstance(z, tuple) and len(z) == 2 and z[0] == "planted"
                and isinstance(z[1], PlantedTarget))
        ):
            raise ScheduleError(f"unknown z_law: {z!r}")
        if c == "jordan" and z == "uniform":
            raise ScheduleError("c_law 'jordan' requires a planted z_law")

    def sample(self, unit, n: int, rng) -> ParticleEnsemble:
        """Draw an ensemble; weights are drawn first, then positions."""
        if n < 1:
            raise ScheduleError(f"n must be >= 1, got {n}")
        gen = generator_for(rng)
        if self.z_law != "uniform" and self.c_law == "jordan":
            from .targets import jordan_sample

            return jordan_sample(self.z_law[1], n, gen)
        if self.c_law == "zero":
            c = np.zeros(n)
        elif self.c_law == "normal":
            c = gen.standard_normal(n)
        else:
            c = gen.uniform(self.c_law[1], self.c_law[2], size=n)
        if self.z_law == "uniform":
            z = unit.init_rows(n, gen)
        else:
            planted = self.z_law[1]
            probs = np.abs(planted.weights) / planted.total_variation
            idx = gen.choice(planted.weights.size, size=n, p=probs)
            z = planted.locations[idx].copy()
        return ParticleEnsemble(unit=unit, c=c, z=z)


def init_to_string(init: InitSpec) -> str:
    c = init.c_law
    if isinstance(c, tuple):
        return f"uniform:{c[1]!r}:{c[2]!r}"
    return str(c)


def init_from_string(text: str) -> InitSpec:
    """Parse the flat-config form of the weight law (z_law stays uniform)."""
    text = text.strip()
    if text in ("zero", "normal"):
        return InitSpec(c_law=text)
    if text.startswith("uniform:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ScheduleError(f"bad uniform c_law: {text!r}")
        return InitSpec(c_law=("uniform", float(parts[1]), float(parts[2])))
    raise ScheduleError(f"unknown c_law string: {text!r}")


# ---------------------------------------------------------------------------
# priors for the Langevin regularizer


@dataclass(frozen=True)
class GaussianPrior:
    """Standard Gaussian in c; uniform over the sphere for constrained
    units (no z term), isotropic Gaussian in (a, b) otherwise."""

    def grad_c(self, c: np.ndarray):
        return -c

    def grad_z(self, Z: np.ndarray, unit):
        return None if unit.constrained else -Z


@dataclass(frozen=True)
class FlatPrior:
    """No regularizer; useful for calibrating the noise in isolation."""

    def grad_c(self, c: np.ndarray):
        return None

    def grad_z(self, Z: np.ndarray, unit):
        return None


DEFAULT_PRIOR = GaussianPrior()


def noise_amplitude(beta: float, n: int) -> float:
    """Per-coordinate noise std per unit sqrt-time at inverse temperature
    beta for an n-particle ensemble: sqrt(2/(beta n))."""
    if not (beta > 0):
        raise ScheduleError(f"beta must be positive, got {beta}")
    if math.isinf(beta):
        return 0.0
    return math.sqrt(2.0 / (beta * n))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the initial ensemble and the target.

    batch_schedule / noise_schedule are (step, value) changepoint lists: the
    value applies from its step onward.  Times are always step * dt.
    """

    dt: float
    steps: int
    dynamics: str
    init: InitSpec
    master_seed: int
    batch_schedule: tuple = ()
    noise_schedule: tuple = ()
    beta: float | None = None

    def __post_init__(self):
        if not (self.dt > 0):
            raise ScheduleError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ScheduleError(f"steps must be >= 0, got {self.steps}")
        if self.dynamics not in DYNAMICS_KINDS:
            raise ScheduleError(f"dynamics must be one of {DYNAMICS_KINDS}")
        bs = tuple((int(s), int(P)) for s, P in self.batch_schedule)
        ns = tuple((int(s), float(a)) for s, a in self.noise_schedule)
        for sched, name in ((bs, "batch_schedule"), (ns, "noise_schedule")):
            marks = [s for s, _ in sched]
            if marks != sorted(set(marks)):
                raise ScheduleError(f"{name} steps must be strictly increasing")
        if any(P < 1 for _, P in bs):
            raise ScheduleError("batch sizes must be >= 1")
        if any(a < 0 for _, a in ns):
            raise ScheduleError("noise amplitudes must be >= 0")
        if self.dynamics == "sgd":
            if not bs or bs[0][0] != 0:
                raise ScheduleError("sgd needs a batch_schedule starting at step 0")
        if self.dynamics == "gd" and bs:
            raise ScheduleError("gd is batch-free; batch_schedule must be empty")
        if self.dynamics == "langevin":
            if self.beta is None or not (self.beta > 0):
                raise ScheduleError("langevin needs beta > 0")
            if ns:
                raise ScheduleError("langevin noise comes from beta; noise_schedule must be empty")
            if bs and bs[0][0] != 0:
                raise ScheduleError("langevin batch_schedule must start at step 0")
        object.__setattr__(self, "batch_schedule", bs)
        object.__setattr__(self, "noise_schedule", ns)

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "steps": self.steps,
            "dynamics": self.dynamics,
            "batch_schedule": [list(x) for x in self.batch_schedule],
            "noise_schedule": [list(x) for x in self.noise_schedule],
            "beta": self.beta,
            "c_law": init_to_string(self.init),
            "master_seed": self.master_seed,
        }


def train_config_hash(cfg: TrainConfig, extra: dict | None = None) -> str:
    blob = cfg.to_dict()
    if extra:
        blob.update(extra)
    text = json.dumps(blob, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class DiagnosticPlan:
    """What to record while a schedule runs.

    eval_batch: fixed batch for loss/signed-error probes (drawn once per
    experiment and shared across runs so comparisons are paired).
    track_flow_energy: record the pair loss and squared drift norm at every
    step of an exact-flow run (returned in report.extras, not in the CSV).
    """

    probe_every: int = 100
    eval_batch: Batch | None = None
    track_flow_energy: bool = False

    def __post_init__(self):
        if self.probe_every < 1:
            raise ScheduleError(f"probe_every must be >= 1, got {self.probe_every}")


# ---------------------------------------------------------------------------
# drifts


def _rbf_flow_drift(unit: RbfUnit, c, Z, target):
    """Pair-loss descent drift and the current loss."""
    n = c.size
    alpha = unit.alpha
    fz = evaluate_target(target, Z)
    gradf = target_grad_rows(target, Z)
    # g_i = sum_j c_j phihat(z_i, z_j), gcz_i = sum_j c_j phihat(z_i, z_j) z_j
    g, gcz = rbf_pair_sums(alpha, Z, (c, c[:, None] * Z))
    dc = fz - g / n
    dZ = c[:, None] * gradf - (alpha / n) * c[:, None] * gcz
    loss = float(-np.dot(c, fz) / n + 0.5 * np.dot(c, g) / (n * n))
    return dc, dZ, loss


def _sgd_drift(unit, c, Z, batch: Batch):
    """Residual-weighted batch averages; returns (dc, dZ, batch_loss)."""
    n = c.size
    X, y = batch.points, batch.target_values
    P = X.shape[0]
    dc = np.zeros(n)
    acc = np.zeros((n, unit.param_dim))
    ss = 0.0
    rows = max(1, _PAIR_CHUNK_ENTRIES // max(1, n))
    for lo in range(0, P, rows):
        Xc, yc = X[lo : lo + rows], y[lo : lo + rows]
        F = unit.features(Xc, Z)
        r = yc - (F @ c) / n
        dc += F.T @ r
        acc += unit.weighted_grad_sum(Xc, Z, r[:, None], feats=F)
        ss += float(np.dot(r, r))
    dc /= P
    dZ = c[:, None] * (acc / P)
    return dc, dZ, 0.5 * ss / P


def rbf_flow_step(e: ParticleEnsemble, target, dt: float) -> ParticleEnsemble:
    """One Euler step of the exact descent flow (RBF ensembles only)."""
    if not isinstance(e.unit, RbfUnit):
        raise ScheduleError("the exact flow is defined for RBF ensembles")
    if dt < 0:
        raise ScheduleError(f"dt must be >= 0, got {dt}")
    dc, dZ, _ = _rbf_flow_drift(e.unit, e.c, e.z, target)
    c, Z = _apply_step(e.unit, e.c, e.z, dc, dZ, dt)
    return ParticleEnsemble(unit=e.unit, c=c, z=Z)


def sgd_drift(e: ParticleEnsemble, batch: Batch):
    """(dc, dZ) ambient drift for a given batch (no step applied)."""
    dc, dZ, _ = _sgd_drift(e.unit, e.c, e.z, batch)
    return dc, dZ


def sgd_step(e: ParticleEnsemble, target, P: int, dt: float, rng) -> ParticleEnsemble:
    """One online-SGD step on a fresh uniform batch of size P."""
    if dt < 0:
        raise ScheduleError(f"dt must be >= 0, got {dt}")
    gen = generator_for(rng)
    batch = draw_batch(target, e.unit.d, P, gen)
    dc, dZ, _ = _sgd_drift(e.unit, e.c, e.z, batch)
    c, Z = _apply_step(e.unit, e.c, e.z, dc, dZ, dt)
    return ParticleEnsemble(unit=e.unit, c=c, z=Z)


def langevin_step(
    e: ParticleEnsemble,
    target,
    batch_size: int | None,
    dt: float,
    beta: float,
    rng,
    prior=DEFAULT_PRIOR,
) -> ParticleEnsemble:
    """One Euler-Maruyama step at inverse temperature beta.

    batch_size None uses the exact RBF drift, an integer uses a fresh SGD
    batch.  The batch (if any) is drawn from rng first, then the noise.
    beta = inf skips regularizer and noise entirely, reproducing the
    noiseless step bit-for-bit.
    """
    if dt < 0:
        raise ScheduleError(f"dt must be >= 0, got {dt}")
    if not (beta > 0):
        raise ScheduleError(f"beta must be positive, got {beta}")
    gen = generator_for(rng)
    if batch_size is None:
        if not isinstance(e.unit, RbfUnit):
            raise ScheduleError("exact-drift langevin requires an RBF ensemble")
        dc, dZ, _ = _rbf_flow_drift(e.unit, e.c, e.z, target)
    else:
        batch = draw_batch(target, e.unit.d, batch_size, gen)
        dc, dZ, _ = _sgd_drift(e.unit, e.c, e.z, batch)
    if math.isinf(beta):
        c, Z = _apply_step(e.unit, e.c, e.z, dc, dZ, dt)
        return ParticleEnsemble(unit=e.unit, c=c, z=Z)
    inv = 1.0 / (beta * e.n)
    gc = prior.grad_c(e.c)
    if gc is not None:
        dc = dc + inv * gc
    gz = prior.grad_z(e.z, e.unit)
    if gz is not None:
        dZ = dZ + inv * gz
    amp = noise_amplitude(beta, e.n)
    xi_c = gen.standard_normal(e.n)
    xi_z = gen.standard_normal(e.z.shape)
    c, Z = _apply_step(e.unit, e.c, e.z, dc, dZ, dt, noise=(amp, xi_c, xi_z))
    return ParticleEnsemble(unit=e.unit, c=c, z=Z)


def _retract_checked(U: np.ndarray, radius: float, step: int) -> np.ndarray:
    """Retract post-step positions, turning degenerate rows into StepFailure.

    A row can reach norm 0 (drift cancels the position) or a norm that is
    not representable (overflow after a diverging step); both mean the
    particle left the manifold for good.
    """
    nrm = np.linalg.norm(U, axis=-1)
    bad = (nrm == 0.0) | ~np.isfinite(nrm)
    if np.any(bad):
        raise StepFailure(step, int(np.flatnonzero(bad)[0]), "position")
    return retract_rows(U, radius)


def _apply_step(unit, c, Z, dc, dZ, dt, noise=None, step=0):
    """Euler(-Maruyama) update; constrained units get tangent-projected
    increments and a retraction.  Returns new (c, Z)."""
    if noise is None:
        c_new = c + dt * dc
        if unit.constrained:
            V = tangent_project_rows(dZ, Z)
            Z_new = _retract_checked(Z + dt * V, unit.radius, step)
        else:
            Z_new = Z + dt * dZ
        return c_new, Z_new
    amp, xi_c, xi_z = noise
    sq = math.sqrt(dt)
    c_new = c + dt * dc + (amp * sq) * xi_c
    if unit.constrained:
        V = tangent_project_rows(dt * dZ + (amp * sq) * xi_z, Z)
        Z_new = _retract_checked(Z + V, unit.radius, step)
    else:
        Z_new = Z + dt * dZ + (amp * sq) * xi_z
    return c_new, Z_new


# ---------------------------------------------------------------------------
# schedule runner


def _active(schedule: tuple, step: int, default):
    out = default
    for s, v in schedule:
        if s <= step:
            out = v
        else:
            break
    return out


def _check_finite(step: int, c: np.ndarray, Z: np.ndarray) -> None:
    if not np.all(np.isfinite(c)):
        raise StepFailure(step, int(np.flatnonzero(~np.isfinite(c))[0]), "weight")
    bad = ~np.all(np.isfinite(Z), axis=1)
    if np.any(bad):
        raise StepFailure(step, int(np.flatnonzero(bad)[0]), "position")


def _target_key(target) -> dict:
    if isinstance(target, SpinTensor):
        return target.to_dict()
    if isinstance(target, PlantedTarget):
        return {"kind": "planted", "atoms": int(target.weights.size)}
    return {"kind": type(target).__name__}


def run_schedule(
    cfg: TrainConfig,
    e0: ParticleEnsemble,
    target,
    plan: DiagnosticPlan | None = None,
    start_step: int = 0,
) -> tuple[ParticleEnsemble, ExperimentReport]:
    """Run cfg.steps steps of the configured dynamics from e0.

    Probe rows land at step 0 (when starting fresh), every probe_every-th
    step, and the final step.  Resuming with start_step > 0 replays the
    exact tail of a fresh run because every per-step stream is keyed by the
    absolute step index.
    """
    plan = plan or DiagnosticPlan()
    if not (0 <= start_step <= cfg.steps):
        raise ScheduleError(f"start_step {start_step} outside [0, {cfg.steps}]")
    unit = e0.unit
    exact_flow = cfg.dynamics == "gd" or (cfg.dynamics == "langevin" and not cfg.batch_schedule)
    if exact_flow and not isinstance(unit, RbfUnit):
        raise ScheduleError("batch-free dynamics requires an RBF ensemble")
    n = e0.n
    c = e0.c.copy()
    Z = e0.z.copy()
    seed = cfg.master_seed
    beta = cfg.beta
    langevin = cfg.dynamics == "langevin"
    lan_amp = noise_amplitude(beta, n) if langevin else 0.0
    prior = DEFAULT_PRIOR
    inv_beta_n = 0.0 if not langevin or math.isinf(beta) else 1.0 / (beta * n)

    rows: list[tuple] = []
    extras: dict = {}
    if plan.track_flow_energy and exact_flow:
        extras["flow_energy"] = np.empty(cfg.steps - start_step + 1)
        extras["flow_driftsq"] = np.empty(cfg.steps - start_step)

    last_batch_loss = math.nan

    def probe(step: int, batch_loss: float) -> None:
        ens = ParticleEnsemble(unit=unit, c=c.copy(), z=Z.copy())
        P_now = _active(cfg.batch_schedule, step, 0)
        if langevin:
            amp_now = lan_amp
        else:
            amp_now = _active(cfg.noise_schedule, step, 0.0)
        if plan.eval_batch is not None:
            r = batch_residual(ens, plan.eval_batch)
            loss = residual_loss(r)
            sp, sm, rest = residual_signed_split(r, plan.eval_batch.target_values)
        else:
            loss = sp = sm = rest = math.nan
        if isinstance(unit, RbfUnit):
            ex_loss = rbf_exact_loss(ens, target)
            dev = float(np.max(np.abs(np.linalg.norm(Z, axis=1) - unit.radius)))
        else:
            ex_loss = math.nan
            dev = math.nan
        sigma = cfg.dt / P_now if P_now > 0 else math.nan
        rows.append(
            (
                step,
                step * cfg.dt,
                P_now,
                sigma,
                amp_now,
                loss,
                batch_loss,
                ex_loss,
                sp,
                sm,
                rest,
                dev,
                float(np.max(np.abs(c))),
            )
        )

    if start_step == 0 and cfg.steps > 0:
        probe(0, math.nan)

    for k in range(start_step, cfg.steps):
        # drift at the current state
        if exact_flow:
            dc, dZ, pair_loss = _rbf_flow_drift(unit, c, Z, target)
            if plan.track_flow_energy:
                extras["flow_energy"][k - start_step] = pair_loss
        else:
            P = _active(cfg.batch_schedule, k, None)
            if P is None:
                raise ScheduleError(f"no batch size active at step {k}")
            batch = draw_batch(target, unit.d, P, stream(seed, "batch", k))
            dc, dZ, last_batch_loss = _sgd_drift(unit, c, Z, batch)

        # regularizer
        if langevin and inv_beta_n > 0.0:
            gc = prior.grad_c(c)
            if gc is not None:
                dc = dc + inv_beta_n * gc
            gz = prior.grad_z(Z, unit)
            if gz is not None:
                dZ = dZ + inv_beta_n * gz

        # noise amplitude this step
        if langevin:
            amp = lan_amp
        else:
            amp = _active(cfg.noise_schedule, k, 0.0)

        if amp > 0.0:
            gen = stream(seed, "noise", k).generator()
            noise = (amp, gen.standard_normal(n), gen.standard_normal(Z.shape))
            c2, Z2 = _apply_step(unit, c, Z, dc, dZ, cfg.dt, noise=noise, step=k)
        else:
            c2, Z2 = _apply_step(unit, c, Z, dc, dZ, cfg.dt, step=k)

        if plan.track_flow_energy and exact_flow:
            if unit.constrained:
                V = tangent_project_rows(dZ, Z)
            else:
                V = dZ
            extras["flow_driftsq"][k - start_step] = float(
                np.dot(dc, dc) + np.sum(V * V)
            )

        c, Z = c2, Z2
        _check_finite(k, c, Z)

        step_done = k + 1
        if step_done % plan.probe_every == 0 or step_done == cfg.steps:
            probe(step_done, last_batch_loss)

    if plan.track_flow_energy and exact_flow:
        if cfg.steps > start_step:
            _, _, final_loss = _rbf_flow_drift(unit, c, Z, target)
            extras["flow_energy"][cfg.steps - start_step] = final_loss
        else:
            extras["flow_energy"] = extras["flow_energy"][:0]

    final = ParticleEnsemble(unit=unit, c=c, z=Z)
    series = {name: np.array([r[i] for r in rows]) for i, name in enumerate(REPORT_COLUMNS)}
    series["step"] = series["step"].astype(np.int64)
    series["P"] = series["P"].astype(np.int64)
    meta = {
        "schema": 1,
        "config_hash": train_config_hash(cfg),
        "master_seed": cfg.master_seed,
        "dynamics": cfg.dynamics,
        "unit": unit.to_dict(),
        "n": n,
        "steps": cfg.steps,
        "dt": cfg.dt,
        "target": _target_key(target),
    }
    summaries = {}
    if rows:
        summaries["final_loss"] = float(rows[-1][5])
        summaries["final_exact_loss"] = float(rows[-1][7])
    report = ExperimentReport(meta=meta, series=series, summaries=summaries)
    report.extras = extras
    return final, report


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_SCHEMA = 1


def save_checkpoint(path, e: ParticleEnsemble, step: int, meta: dict) -> None:
    """Everything needed to resume bit-exactly: state, step, identity.

    Per-step streams are stateless functions of (master seed, role, step),
    so no generator cursors have to be stored.
    """
    blob = {
        "schema": CHECKPOINT_SCHEMA,
        "step": int(step),
        "meta": meta,
        "ensemble": e.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_checkpoint(path) -> tuple[ParticleEnsemble, int, dict]:
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("schema") != CHECKPOINT_SCHEMA:
        raise ScheduleError(f"unsupported checkpoint schema: {blob.get('schema')!r}")
    return ParticleEnsemble.from_dict(blob["ensemble"]), int(blob["step"]), blob["meta"]
