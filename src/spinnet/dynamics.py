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
    Batch,
    ExperimentReport,
    REPORT_COLUMNS,
    _atomic_write,
    _sphere_batches_into,
    batch_residual,
    draw_batch,
    rbf_exact_loss,
    residual_loss,
    residual_signed_split,
)
from .geometry import (
    _RETRACT_GATE,
    _retract_into,
    _sq_norms_into,
    _tangent_project_into,
)
from .rng import _StepStreams, _check_rng, generator_for
from .targets import _check_target_d, _spin3_scratch
from .units import (
    _EVAL_BLOCK_ENTRIES,
    ParticleEnsemble,
    RbfUnit,
    UnitMismatchError,
    _check_points,
    _eval_block_rows,
    _kernel_sum_calls,
)

DYNAMICS_KINDS = ("gd", "sgd", "langevin")

# A run draws the batches of consecutive steps into one window of up to
# this many normal entries (at least one batch), and normalizes and checks
# them in one pass.
_WINDOW_ENTRIES = _EVAL_BLOCK_ENTRIES
# Steps whose noise seed states one table holds.
_NOISE_TABLE_STEPS = 256


class ScheduleError(ValueError):
    pass


class StepFailure(RuntimeError):
    """Raised when a step produces non-finite state."""

    def __init__(self, step: int, particle: int, what: str):
        self.step = step
        self.particle = particle
        self.what = what
        super().__init__(f"non-finite {what} at step {step}, particle {particle}")

    def __reduce__(self):
        # the default would call __init__ with the message as its one argument
        return StepFailure, (self.step, self.particle, self.what)


# ---------------------------------------------------------------------------
# initialization


@dataclass(frozen=True)
class InitSpec:
    """Product law for the initial ensemble: weights c_law ("zero",
    "normal" or ("uniform", lo, hi)), positions from the unit's own
    parameter law."""

    c_law: object = "zero"

    def __post_init__(self):
        c = self.c_law
        if not (
            c in ("zero", "normal")
            or (isinstance(c, tuple) and len(c) == 3 and c[0] == "uniform")
        ):
            raise ScheduleError(f"unknown c_law: {c!r}")
        if isinstance(c, tuple) and not (0.0 <= float(c[2]) - float(c[1]) < math.inf):
            raise ScheduleError(f"uniform c_law needs lo <= hi and a finite hi - lo, got {c!r}")

    def sample(self, unit, n: int, rng) -> ParticleEnsemble:
        """Draw an ensemble; weights are drawn first, then positions."""
        if n < 1:
            raise ScheduleError(f"n must be >= 1, got {n}")
        gen = generator_for(rng)
        if self.c_law == "zero":
            c = np.zeros(n)
        elif self.c_law == "normal":
            c = gen.standard_normal(n)
        else:
            c = gen.uniform(self.c_law[1], self.c_law[2], size=n)
        return ParticleEnsemble(unit=unit, c=c, z=unit.init_rows(n, gen))


def init_to_string(init: InitSpec) -> str:
    c = init.c_law
    if isinstance(c, tuple):
        return f"uniform:{c[1]!r}:{c[2]!r}"
    return str(c)


def init_from_string(text: str) -> InitSpec:
    """Parse the flat-config form of the weight law."""
    text = text.strip()
    if text in ("zero", "normal"):
        return InitSpec(c_law=text)
    if text.startswith("uniform:"):
        try:
            if "_" in text:  # float() reads "1_0" as 10
                raise ValueError
            lo, hi = (float(p) for p in text.split(":")[1:])
        except ValueError:
            raise ScheduleError(f"bad uniform c_law: {text!r}") from None
        return InitSpec(c_law=("uniform", lo, hi))
    raise ScheduleError(f"unknown c_law string: {text!r}")


# ---------------------------------------------------------------------------
# Langevin noise


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
        if not (0 < self.dt < math.inf):
            raise ScheduleError(f"dt must be positive and finite, got {self.dt}")
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


def train_config_hash(cfg: TrainConfig) -> str:
    text = json.dumps(cfg.to_dict(), sort_keys=True)
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


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


class _Workspace:
    """State and scratch buffers of one run, allocated once.

    c and Z hold the current ensemble and are updated in place by apply();
    for an unconstrained unit they are the columns of one (n, p + 1) buffer
    cz = [c | Z].  It has two modes.  exact=True: flow_drift() writes the
    exact-flow drift of the current state into dc and dZ (RBF ensembles
    only) by a fixed run of numpy calls on views built once: the target's
    value and gradient pass at Z, bound by the target itself
    (_bind_eval) on the workspace's _spin3_scratch buffers when it first
    meets the target, whatever kind of target it is, then the pair
    kernel's (alpha Z)^T from _kernel_params and its blocks as the calls of
    units._kernel_sum_calls, and the drift's combination, bound when the
    workspace is built.  batch > 0: batch_drift() writes the SGD drift
    of a given batch of up to `batch` points into dc and dZ, the columns of
    one (n, p + 1) buffer D = [dc | dZ]; the batches come from the caller
    (run_schedule's window, or draw_batch), and the parameter side goes
    through _kernel_params into a (p, n) buffer.  Every kernel is walked in
    blocks of _EVAL_BLOCK_ENTRIES entries.
    """

    def __init__(self, unit, c: np.ndarray, Z: np.ndarray, exact: bool = False, batch: int = 0):
        n, p = Z.shape
        self.unit, self.n = unit, n
        if unit.constrained:
            self.cz = None
            self.c, self.Z = c.copy(), Z.copy()
            self.radius = unit.radius
            self.zz, self.coef, self.nrm, self.scale = (np.empty(n) for _ in range(4))
            self.scale_col = self.scale[:, None]
            self.V, self.U = np.empty((n, p)), np.empty((n, p))
        else:
            self.cz = np.empty((n, p + 1))
            self.c, self.Z = self.cz[:, 0], self.cz[:, 1:]
            np.copyto(self.c, c)
            np.copyto(self.Z, Z)
            self.cz_flat = self.cz.reshape(-1)
        self.c_col = self.c[:, None]
        self.inc_c, self.xi_c = np.empty(n), np.empty(n)
        self.tmp, self.xi_z = np.empty((n, p)), np.empty((n, p))
        if exact:
            self._bind_flow()
        if batch > 0:
            self.D, self.Dtmp = np.empty((n, p + 1)), np.empty((n, p + 1))
            self.AZ = np.empty((p, n))
            self.dc, self.dZ = self.D[:, 0], self.D[:, 1:]
            rows = min(batch, _eval_block_rows(n))
            self.feat, self.WF, self.S = (np.empty((rows, n)) for _ in range(3))
            self.net = np.empty(rows)
            self.gsum = np.empty((n, p))

    def ensemble(self) -> ParticleEnsemble:
        return ParticleEnsemble(unit=self.unit, c=self.c, z=self.Z)

    def _bind_flow(self) -> None:
        """The exact-flow buffers, and every numpy call of the drift after
        the target's pass as a (function, args) pair on views of them."""
        unit, c, Z, (n, p) = self.unit, self.c, self.Z, self.Z.shape
        self.dc, self.dZ = np.empty(n), np.empty((n, p))
        self.s3 = _spin3_scratch(p, n)
        self.fz, self.g, self.cn = (np.empty(n) for _ in range(3))
        self.gradf, self.cZ, self.gcz = (np.empty((n, p)) for _ in range(3))
        ZT, F = np.empty((p, n)), np.empty((min(n, _eval_block_rows(n)), n))
        # g_i = sum_j c_j phihat(z_i, z_j), gcz_i = sum_j c_j phihat(z_i, z_j) z_j
        calls = [(np.multiply, (self.c_col, Z, self.cZ)), (unit._kernel_params, (Z, ZT)),
                 *_kernel_sum_calls(unit, Z, ZT, (c, self.cZ), (self.g, self.gcz), F)]
        # dc = f(z) - g / n, dZ = c grad f(z) - ((alpha / n) c) gcz
        calls += [(np.divide, (self.g, n, self.dc)), (np.subtract, (self.fz, self.dc, self.dc)),
                  (np.multiply, (self.c_col, self.gradf, self.dZ)),
                  (np.multiply, (unit.alpha / n, c, self.cn)),
                  (np.multiply, (self.cn[:, None], self.gcz, self.tmp)),
                  (np.subtract, (self.dZ, self.tmp, self.dZ))]
        self.pair_calls, self.bound_target, self.drift_calls = tuple(calls), None, ()

    def flow_drift(self, target):
        """Pair-loss descent drift (dc, dZ) at the current state."""
        if target is not self.bound_target:
            calls = target._bind_eval(self.Z, self.fz, self.gradf, self.s3)
            self.bound_target, self.drift_calls = target, calls + self.pair_calls
        for f, args in self.drift_calls:
            f(*args)
        return self.dc, self.dZ

    def batch_drift(self, XL: np.ndarray, y: np.ndarray, loss: bool = False):
        """SGD drift (dc, dZ) at the current state of the batch of lifted
        rows XL = unit._lift(X) and target values y, residual-weighted
        feature averages, and the batch loss if loss is set, else NaN."""
        unit, c, Z, n = self.unit, self.c, self.Z, self.n
        P = XL.shape[0]
        dc, acc = self.dc, self.dZ
        ss = 0.0
        rows = self.feat.shape[0]
        ZT = unit._kernel_params(Z, self.AZ)
        for lo in range(0, P, rows):
            Xb = XL[lo : lo + rows]
            k = Xb.shape[0]
            F = unit._features_into(Xb, ZT, self.feat[:k], self.S[:k])
            # r = y - F c / n
            r = np.matmul(F, c, out=self.net[:k])
            r /= n
            np.subtract(y[lo : lo + rows], r, out=r)
            if loss:
                ss += float(np.dot(r, r))
            WF = np.multiply(r[:, None], F, out=self.WF[:k])
            # the first block's sums go straight into dc and acc
            if lo == 0:
                np.matmul(F.T, r, out=dc)
                unit._grad_sum_into(Xb, WF, F, acc, self.S[:k])
            else:
                dc += np.matmul(F.T, r, out=self.inc_c)
                acc += unit._grad_sum_into(Xb, WF, F, self.gsum, self.S[:k])
        # [dc | acc] / P, then dZ = c (acc / P)
        self.D /= P
        acc *= self.c_col
        return dc, self.dZ, 0.5 * ss / P if loss else math.nan

    def flow_loss(self) -> float:
        """Pair loss of the state seen by the last flow_drift() call; valid
        until the next apply()."""
        c, n = self.c, self.n
        return float(-np.dot(c, self.fz) / n + 0.5 * np.dot(c, self.g) / (n * n))

    def apply(self, dc, dZ, dt: float, step: int, noise=None) -> None:
        """Euler(-Maruyama) update of c and Z in place, then the checks.

        noise is None or (amp, generator): both Gaussian increments, weights
        first, are drawn from the generator and scaled by amp sqrt(dt).
        Constrained units get a tangent-projected increment and a
        retraction; an unconstrained state handed the workspace's own batch
        drift steps in one pass over cz and D.  Raises StepFailure for a
        post-step norm that is zero or not finite, then for a non-finite
        weight, then for a non-finite position; the particle is located
        only then.
        """
        c, Z, tmp, inc_c = self.c, self.Z, self.tmp, self.inc_c
        if noise is not None:
            amp, gen = noise
            a = amp * math.sqrt(dt)
            gen.standard_normal(out=self.xi_c)
            gen.standard_normal(out=self.xi_z)
        joint = self.cz is not None and dc is self.dc and dZ is self.dZ
        if joint:
            self.cz += np.multiply(self.D, dt, out=self.Dtmp)
        else:
            c += np.multiply(dc, dt, out=inc_c)
        if noise is not None:
            c += np.multiply(self.xi_c, a, out=inc_c)
        if self.cz is not None:
            if not joint:
                Z += np.multiply(dZ, dt, out=tmp)
            if noise is not None:
                Z += np.multiply(self.xi_z, a, out=tmp)
            ss = np.dot(self.cz_flat, self.cz_flat)
        else:
            V, U = self.V, self.U
            zz = _sq_norms_into(Z, self.zz, tmp)
            if noise is None:
                _tangent_project_into(dZ, Z, zz, V, self.coef, tmp)
                np.multiply(V, dt, out=U)
            else:
                np.multiply(dZ, dt, out=V)
                V += np.multiply(self.xi_z, a, out=tmp)
                _tangent_project_into(V, Z, zz, U, self.coef, tmp)
            U += Z
            nrm = np.sqrt(_sq_norms_into(U, self.nrm, tmp), out=self.nrm)
            lo, radius = nrm.min(), self.radius
            if not (0.0 < lo and nrm.max() < math.inf):  # a NaN fails too
                # norm 0 (the drift cancels the position) or not representable
                # (overflow after a diverging step): the particle left the
                # manifold for good
                raise StepFailure(step, _first((nrm == 0.0) | ~np.isfinite(nrm)), "position")
            if lo - radius > _RETRACT_GATE * radius:
                # subtraction is monotone, so no row is within the gate that
                # _retract_into keeps: every row is rescaled
                np.divide(radius, nrm, out=self.scale)
                np.multiply(U, self.scale_col, out=Z)
            else:
                _retract_into(U, nrm, radius, Z, self.scale)
            # a nonzero norm is at least sqrt(5e-324), so radius / nrm is
            # finite and a rescaled entry is at most about radius; a kept row
            # has a finite norm, so finite entries: Z needs no check
            ss = np.dot(c, c)
        if math.isfinite(ss):
            return  # every entry is finite; a sum that overflows is checked entry by entry
        if not np.isfinite(c).all():
            raise StepFailure(step, _first(~np.isfinite(c)), "weight")
        if not np.isfinite(Z).all():
            raise StepFailure(step, _first(~np.all(np.isfinite(Z), axis=1)), "position")


def _add_prior(inv: float, dc, dZ, c, Z, unit):
    """Drift plus (beta n)^{-1} grad log rho0, inv = (beta n)^{-1}, for the
    Gaussian prior rho0: standard normal in c, uniform over the sphere for
    constrained units (no z term), isotropic normal in z = (a, b) otherwise."""
    dc = dc + inv * -c
    if not unit.constrained:
        dZ = dZ + inv * -Z
    return dc, dZ


def sgd_drift(e: ParticleEnsemble, batch: Batch):
    """(dc, dZ) ambient drift for a given batch (no step applied)."""
    _check_points(e.unit, batch.points)
    ws = _Workspace(e.unit, e.c, e.z, batch=batch.P)
    dc, dZ, _ = ws.batch_drift(e.unit._lift(batch.points), batch.target_values)
    return dc, dZ


def langevin_step(
    e: ParticleEnsemble,
    target,
    batch_size: int | None,
    dt: float,
    beta: float,
    rng,
) -> ParticleEnsemble:
    """One Euler-Maruyama step at inverse temperature beta.

    batch_size None uses the exact RBF drift, an integer uses a fresh SGD
    batch.  The batch (if any) is drawn from rng first, then the noise.
    beta = inf skips regularizer and noise entirely, reproducing the
    noiseless step bit-for-bit.
    """
    if not (0 <= dt < math.inf):
        raise ScheduleError(f"dt must be >= 0 and finite, got {dt}")
    if not (beta > 0):
        raise ScheduleError(f"beta must be positive, got {beta}")
    _check_rng(rng)
    exact = batch_size is None
    if exact and not isinstance(e.unit, RbfUnit):
        raise ScheduleError("exact-drift langevin requires an RBF ensemble")
    _check_target_d(target, e.unit)
    # a generator is built only for a step that draws a batch or noise
    gen = None if exact and math.isinf(beta) else generator_for(rng)
    ws = _Workspace(e.unit, e.c, e.z, exact=exact, batch=batch_size or 0)
    if exact:
        dc, dZ = ws.flow_drift(target)
    else:
        batch = draw_batch(target, e.unit.d, batch_size, gen)
        dc, dZ, _ = ws.batch_drift(e.unit._lift(batch.points), batch.target_values)
    if math.isinf(beta):
        ws.apply(dc, dZ, dt, 0)
    else:
        dc, dZ = _add_prior(1.0 / (beta * e.n), dc, dZ, e.c, e.z, e.unit)
        ws.apply(dc, dZ, dt, 0, noise=(noise_amplitude(beta, e.n), gen))
    return ws.ensemble()


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
    exact_flow = not cfg.batch_schedule
    if exact_flow and not isinstance(unit, RbfUnit):
        raise ScheduleError("batch-free dynamics requires an RBF ensemble")
    _check_target_d(target, unit)
    if plan.eval_batch is not None:
        _check_points(unit, plan.eval_batch.points)
    n, d = e0.n, unit.d
    P_max = max((P for _, P in cfg.batch_schedule), default=0)
    ws = _Workspace(unit, e0.c, e0.z, exact=exact_flow, batch=P_max)
    c, Z = ws.c, ws.Z
    if not exact_flow:
        # the batch window: the points, their lifted rows and the target
        # values of the batches of consecutive steps, and the sampler's
        # scratch, allocated once
        window = max(P_max, _WINDOW_ENTRIES // d)
        X, xtmp = np.empty((window, d)), np.empty((window, d))
        XL = unit._lift(X)  # X itself for an rbf unit
        xn, y = np.empty(window), np.empty(window)
        xs3 = _spin3_scratch(d, window)
    batch_streams = _StepStreams(cfg.master_seed, "batch")
    noise_streams = _StepStreams(cfg.master_seed, "noise")
    window_lo = window_hi = start_step
    beta = cfg.beta
    langevin = cfg.dynamics == "langevin"
    # Langevin's noise is one amplitude from step 0 on
    noise_schedule = ((0, noise_amplitude(beta, n)),) if langevin else cfg.noise_schedule
    inv_beta_n = 0.0 if not langevin or math.isinf(beta) else 1.0 / (beta * n)

    rows: list[tuple] = []
    extras: dict = {}
    # the last state visited; a run with no steps left visits none
    last = cfg.steps if cfg.steps > start_step else start_step - 1
    energy = None
    if plan.track_flow_energy and exact_flow:
        energy = extras["flow_energy"] = np.empty(last - start_step + 1)
        extras["flow_driftsq"] = np.empty(cfg.steps - start_step)

    last_batch_loss = math.nan

    def probed(k: int) -> bool:
        return k == 0 or (k > start_step and (k % plan.probe_every == 0 or k == cfg.steps))

    def probe(step: int) -> None:
        P_now = _active(cfg.batch_schedule, step, 0)
        amp_now = _active(noise_schedule, step, 0.0)
        if plan.eval_batch is not None:
            r = batch_residual(ws.ensemble(), plan.eval_batch)
            loss = residual_loss(r)
            sp, sm, rest = residual_signed_split(r, plan.eval_batch.target_values)
        else:
            loss = sp = sm = rest = math.nan
        if isinstance(unit, RbfUnit):
            # an exact-flow state's pair loss is the one its drift just formed
            ex_loss = ws.flow_loss() if exact_flow else rbf_exact_loss(ws.ensemble(), target)
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
                last_batch_loss,
                ex_loss,
                sp,
                sm,
                rest,
                dev,
                float(np.max(np.abs(c))),
            )
        )

    # state k is probed (see above), then stepped unless it is the last one
    for k in range(start_step, last + 1):
        # drift at the current state
        if exact_flow:
            dc, dZ = ws.flow_drift(target)
            if energy is not None:
                energy[k - start_step] = ws.flow_loss()
        if probed(k):
            probe(k)
        if k == last:
            break
        if not exact_flow:
            if k == window_hi:
                # the next window: as many steps of this batch size as fit,
                # up to the next batch-size change
                P = _active(cfg.batch_schedule, k, None)
                if P is None:
                    raise ScheduleError(f"no batch size active at step {k}")
                change = next((s for s, _ in cfg.batch_schedule if s > k), cfg.steps)
                window_lo, window_hi = k, min(k + window // P, change, cfg.steps)
                batch_streams.cover(window_lo, window_hi)
                hi = P * (window_hi - k)
                _sphere_batches_into(target, X[:hi], y[:hi], P,
                                     lambda i: batch_streams.generator(window_lo + i),
                                     xn[:hi], xtmp[:hi], xs3)
                unit._lift(X[:hi], XL[:hi])
            lo = (k - window_lo) * P
            # the batch loss is formed only for the probe of the next state
            dc, dZ, last_batch_loss = ws.batch_drift(XL[lo : lo + P], y[lo : lo + P],
                                                     probed(k + 1))

        if langevin and inv_beta_n > 0.0:
            dc, dZ = _add_prior(inv_beta_n, dc, dZ, c, Z, unit)

        if energy is not None:
            # |dc|^2 + |tangent part of dZ|^2, formed as tangent_project_rows
            # forms it, on the workspace buffers that apply() overwrites
            zz = _sq_norms_into(Z, ws.zz, ws.tmp)
            V = _tangent_project_into(dZ, Z, zz, ws.V, ws.coef, ws.tmp)
            VV = np.multiply(V, V, out=ws.U)
            extras["flow_driftsq"][k - start_step] = float(np.dot(dc, dc) + np.sum(VV))

        amp = _active(noise_schedule, k, 0.0)
        noise = None
        if amp > 0.0:
            if not noise_streams.lo <= k < noise_streams.hi:
                noise_streams.cover(k, min(k + _NOISE_TABLE_STEPS, cfg.steps))
            noise = (amp, noise_streams.generator(k))
        ws.apply(dc, dZ, cfg.dt, k, noise)

    final = ws.ensemble()
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
        "target": target.report_key(),
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
    with _atomic_write(path) as fh:
        json.dump(blob, fh)


def load_checkpoint(path) -> tuple[ParticleEnsemble, int, dict]:
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScheduleError(f"{path}: not a checkpoint ({err})") from None
    if not isinstance(blob, dict) or blob.get("schema") != CHECKPOINT_SCHEMA:
        schema = blob.get("schema") if isinstance(blob, dict) else None
        raise ScheduleError(f"unsupported checkpoint schema: {schema!r}")
    for key, kind in (("step", int), ("meta", dict), ("ensemble", dict)):
        val = blob.get(key)
        if not isinstance(val, kind) or isinstance(val, bool):
            raise ScheduleError(f"{path}: checkpoint {key!r} is missing or not a {kind.__name__}")
    if blob["step"] < 0:
        raise ScheduleError(f"{path}: checkpoint 'step' must be >= 0, got {blob['step']}")
    try:
        ensemble = ParticleEnsemble.from_dict(blob["ensemble"])
    except UnitMismatchError:
        raise  # positions off the sphere, a bad unit kind or shape
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise ScheduleError(f"{path}: malformed checkpoint ensemble ({err!r})") from None
    return ensemble, blob["step"], blob["meta"]
