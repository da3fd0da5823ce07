"""Exact flow, online SGD, Langevin steps, and schedule execution."""
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import spinnet.diagnostics as diag
import spinnet.dynamics as dyn
import spinnet.geometry as geo
import spinnet.targets as targets
import spinnet.units as units
from spinnet.diagnostics import draw_batch, empirical_loss, signed_error_summary
from spinnet.dynamics import (
    DiagnosticPlan,
    InitSpec,
    ScheduleError,
    StepFailure,
    TrainConfig,
    init_from_string,
    init_to_string,
    langevin_step,
    load_checkpoint,
    noise_amplitude,
    run_schedule,
    save_checkpoint,
    sgd_drift,
)
from spinnet.geometry import _sphere_rows_into, sample_sphere_rows
from spinnet.rng import RngStream, _StepStreams, stream
from spinnet.targets import (
    DimensionMismatchError,
    PlantedTarget,
    SpinTensor,
    evaluate_target,
    jordan_sample,
)
from spinnet.units import ParticleEnsemble, RbfUnit, SigmoidUnit


def planted_one_atom(d=4, alpha=1.0, seed=31):
    unit = RbfUnit(alpha=alpha, d=d)
    z = sample_sphere_rows(d, 1, stream(seed, "z"))
    target = PlantedTarget(unit=unit, weights=np.array([1.0]), locations=z)
    e = ParticleEnsemble(unit=unit, c=np.array([1.0]), z=z.copy())
    return unit, target, e


# -- single steps -------------------------------------------------------------

def test_flow_zero_weights_moves_only_c():
    # every z-drift term carries a factor c, so c = 0 freezes the positions
    # and the c-drift reduces to f(z_i)
    d, n = 5, 8
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 3)
    Z = sample_sphere_rows(d, n, stream(32, "z"))
    e = ParticleEnsemble(unit=unit, c=np.zeros(n), z=Z)
    dt = 1e-3
    e2 = langevin_step(e, t, None, dt, math.inf, stream(32, "step"))
    assert np.array_equal(e2.z, Z)
    assert np.allclose(e2.c, dt * t.eval_rows(Z), rtol=0, atol=1e-18)


def test_flow_drift_makes_one_spin3_pass_per_step(monkeypatch):
    # the value and the gradient at the particles come from one call of
    # the 3-spin kernel, for every state the exact flow visits
    kernel, calls = targets.SpinTensor._eval_into, []
    monkeypatch.setattr(targets.SpinTensor, "_eval_into",
                        lambda t, X, fx, gradf, *a: calls.append((fx is None, gradf is None))
                        or kernel(t, X, fx, gradf, *a))
    d, n = 5, 16
    unit = RbfUnit(alpha=1.0, d=d)
    cfg = TrainConfig(dt=1e-3, steps=4, dynamics="gd", init=InitSpec(c_law="normal"),
                      master_seed=41)
    e0 = cfg.init.sample(unit, n, stream(41, "init"))
    run_schedule(cfg, e0, SpinTensor.sample(d, 41), DiagnosticPlan())
    assert calls == [(False, False)] * (cfg.steps + 1)


@pytest.mark.parametrize("d", [2, 5, 10, 25])
@pytest.mark.parametrize("n", [1, 15, 16, 17, 100])
def test_flow_drift_target_terms_are_the_one_shot_rows_bitwise(n, d):
    t = SpinTensor.sample(d, 43)
    unit = RbfUnit(alpha=0.2, d=d)
    e = InitSpec(c_law="normal").sample(unit, n, stream(43 + d, "init", n))
    ws = dyn._Workspace(unit, e.c, e.z, exact=True)
    ws.flow_drift(t)
    assert np.array_equal(ws.fz, t.eval_rows(e.z))
    assert np.array_equal(ws.gradf, t.grad_rows(e.z))


def test_flow_planted_fixed_point_is_bitwise():
    _, target, e = planted_one_atom()
    e2 = langevin_step(e, target, None, 1e-3, math.inf, stream(31, "step"))
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_sgd_planted_fixed_point_is_bitwise():
    _, target, e = planted_one_atom()
    e2 = langevin_step(e, target, 16, 1e-3, math.inf, stream(33, "batch"))
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_sgd_jordan_one_atom_fixed_point():
    unit = RbfUnit(alpha=0.9, d=3)
    z = sample_sphere_rows(3, 1, stream(34, "z"))
    target = PlantedTarget(unit=unit, weights=np.array([0.7]), locations=z)
    e = jordan_sample(target, 6, stream(34, "draw"))
    e2 = langevin_step(e, target, 32, 1e-3, math.inf, stream(34, "batch"))
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_dt_zero_is_bitwise_noop():
    d = 4
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 9)
    gen = stream(35, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(10),
                         z=sample_sphere_rows(d, 10, gen))
    for e2 in (langevin_step(e, t, None, 0.0, math.inf, stream(35, "step")),
               langevin_step(e, t, 8, 0.0, math.inf, stream(35, "batch"))):
        assert np.array_equal(e2.c, e.c)
        assert np.array_equal(e2.z, e.z)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -1e-3])
def test_langevin_step_refuses_a_dt_that_is_not_finite_and_nonnegative(dt):
    # refused as TrainConfig refuses it, not left to end in a StepFailure
    d = 3
    unit = RbfUnit(alpha=1.0, d=d)
    gen = stream(36, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(4), z=sample_sphere_rows(d, 4, gen))
    t = SpinTensor.sample(d, 9)
    for batch, beta in ((None, math.inf), (8, math.inf), (8, 100.0)):
        with pytest.raises(ScheduleError, match="dt must be"):
            langevin_step(e, t, batch, dt, beta, stream(36, "step"))


def test_sgd_keeps_rbf_on_sphere():
    d = 5
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 11)
    e = InitSpec(c_law="normal").sample(unit, 12, stream(36, "init"))
    for k in range(50):
        e = langevin_step(e, t, 16, 1e-2, math.inf, stream(36, "batch", k))
    dev = np.max(np.abs(np.linalg.norm(e.z, axis=1) - np.sqrt(d)))
    assert dev < 1e-10


def test_sgd_drift_matches_ambient_gradient_of_batch_loss():
    # drift = -n * d/dtheta of the batch loss, checked by central differences
    d, n, P = 3, 6, 24
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 13)
    gen = stream(37, "ens").generator()
    c0 = gen.standard_normal(n)
    Z0 = gen.standard_normal((n, d + 1))
    batch = draw_batch(t, d, P, stream(37, "batch"))

    def batch_loss(c, Z):
        net = unit.features(batch.points, Z) @ c / n
        r = batch.target_values - net
        return 0.5 * float(np.mean(r * r))

    e = ParticleEnsemble(unit=unit, c=c0, z=Z0)
    dc, dZ = sgd_drift(e, batch)
    h = 1e-6
    for i in range(n):
        cp = c0.copy(); cp[i] += h
        cm = c0.copy(); cm[i] -= h
        want = -n * (batch_loss(cp, Z0) - batch_loss(cm, Z0)) / (2 * h)
        assert abs(dc[i] - want) < 1e-6 * max(1.0, abs(want))
    for i in range(n):
        for j in range(d + 1):
            Zp = Z0.copy(); Zp[i, j] += h
            Zm = Z0.copy(); Zm[i, j] -= h
            want = -n * (batch_loss(c0, Zp) - batch_loss(c0, Zm)) / (2 * h)
            assert abs(dZ[i, j] - want) < 1e-6 * max(1.0, abs(want))


# -- langevin -----------------------------------------------------------------

def test_noise_amplitude_formula():
    assert noise_amplitude(4.0, 25) == np.sqrt(2.0 / 100.0)
    assert noise_amplitude(math.inf, 3) == 0.0


@pytest.mark.parametrize("entries", [None, 64], ids=["one-block", "two-blocks"])
@pytest.mark.parametrize("unit", [SigmoidUnit(d=4), RbfUnit(alpha=1.0, d=4)],
                         ids=["sigmoid", "rbf"])
def test_beta_infinity_matches_sgd_bitwise(monkeypatch, unit, entries):
    # beta = inf is the plain Euler step on the SGD drift of a draw_batch
    # batch from the same stream: z + dZ dt for unconstrained units, the
    # retraction of z + (tangent part of dZ) dt on the sphere.  64-entry
    # blocks walk the 16-point batch in two feature blocks of 8 rows
    if entries is not None:
        monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", entries)
    d, dt = 4, 1e-3
    t = SpinTensor.sample(d, 17)
    gen = stream(38, "ens").generator()
    c = gen.standard_normal(8)
    z = sample_sphere_rows(d, 8, gen) if unit.constrained else gen.standard_normal((8, d + 1))
    e = ParticleEnsemble(unit=unit, c=c, z=z)
    dc, dZ = sgd_drift(e, draw_batch(t, d, 16, stream(38, "step")))
    b = langevin_step(e, t, 16, dt, math.inf, stream(38, "step").generator())
    assert np.array_equal(e.c + dc * dt, b.c)
    if unit.constrained:
        step = geo.retract_rows(e.z + geo.tangent_project_rows(dZ, e.z) * dt, unit.radius)
        assert np.array_equal(step, b.z)
    else:
        assert np.array_equal(e.z + dZ * dt, b.z)


def test_gaussian_prior_gradients():
    # grad log rho0 of the Gaussian prior, read off a zero drift at unit scale:
    # -c on the weights, -(a, b) on unconstrained units, none on the sphere
    c = np.array([1.0, -2.0, 0.5])
    Z = np.array([[0.5, -1.0], [2.0, 0.25], [-3.0, 1.5]])
    zc, zZ = np.zeros_like(c), np.zeros_like(Z)
    gc, gZ = dyn._add_prior(1.0, zc, zZ, c, Z, SigmoidUnit(d=1))
    assert np.array_equal(gc, -c)
    assert np.array_equal(gZ, -Z)
    gc, gZ = dyn._add_prior(1.0, zc, zZ, c, Z, RbfUnit(alpha=1.0, d=2))
    assert np.array_equal(gc, -c)
    assert gZ is zZ


def test_gaussian_prior_pull_on_c():
    # the drift gains (beta n)^{-1} grad log rho0: -c/(beta n) on the weights,
    # -z/(beta n) on unconstrained parameters, nothing on sphere positions
    d, n, beta = 3, 5, 50.0
    inv = 1.0 / (beta * n)
    gen = stream(39, "ens").generator()
    c, dc = gen.standard_normal(n), gen.standard_normal(n)
    Z, dZ = gen.standard_normal((n, d + 1)), gen.standard_normal((n, d + 1))
    pc, pZ = dyn._add_prior(inv, dc, dZ, c, Z, SigmoidUnit(d=d))
    assert pc.tobytes() == (dc + inv * -c).tobytes()
    assert pZ.tobytes() == (dZ + inv * -Z).tobytes()
    unit = RbfUnit(alpha=1.0, d=d)
    Z, dZ = sample_sphere_rows(d, n, gen), gen.standard_normal((n, d))
    pc, pZ = dyn._add_prior(inv, dc, dZ, c, Z, unit)
    assert pc.tobytes() == (dc + inv * -c).tobytes()
    assert pZ is dZ


def test_langevin_keeps_rbf_on_sphere():
    unit, target, e = planted_one_atom(d=5, seed=40)
    gen = stream(40, "chain").generator()
    for _ in range(200):
        e = langevin_step(e, target, 8, 1e-3, 100.0, gen)
    dev = np.max(np.abs(np.linalg.norm(e.z, axis=1) - np.sqrt(5.0)))
    assert dev < 1e-10


def test_langevin_planted_loss_stays_small():
    # qualitative equilibrium bound: loss below 10/(beta n) over 1e4 steps
    d, beta = 3, 1e5
    unit = RbfUnit(alpha=1.0, d=d)
    z1 = sample_sphere_rows(d, 1, stream(31, "z"))
    target = PlantedTarget(unit=unit, weights=np.array([1.0]), locations=z1)
    evb = draw_batch(target, d, 512, stream(31, "eval"))
    e = ParticleEnsemble(unit=unit, c=np.array([1.0]), z=z1.copy())
    gen = stream(31, "chain").generator()
    worst = 0.0
    for _ in range(10**4):
        e = langevin_step(e, target, 32, 1e-3, beta, gen)
        worst = max(worst, empirical_loss(e, evb))
    assert worst < 10.0 / (beta * 1)


# -- config validation --------------------------------------------------------

def test_config_rejects_bad_fields():
    init = InitSpec(c_law="zero")
    ok = dict(dt=1e-3, steps=10, dynamics="sgd", init=init, master_seed=0,
              batch_schedule=((0, 8),))
    TrainConfig(**ok)
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "dt": 0.0})
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "dt": math.inf})
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "steps": -1})
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "dynamics": "adam"})
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "batch_schedule": ((5, 8),)})  # must start at 0
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "batch_schedule": ((0, 8), (4, 16), (4, 32))})
    with pytest.raises(ScheduleError):
        TrainConfig(**{**ok, "batch_schedule": ((0, 0),)})
    with pytest.raises(ScheduleError):
        TrainConfig(dt=1e-3, steps=10, dynamics="gd", init=init, master_seed=0,
                    batch_schedule=((0, 8),))
    with pytest.raises(ScheduleError):
        TrainConfig(dt=1e-3, steps=10, dynamics="langevin", init=init,
                    master_seed=0, batch_schedule=((0, 8),))  # no beta
    with pytest.raises(ScheduleError):
        TrainConfig(dt=1e-3, steps=10, dynamics="langevin", init=init,
                    master_seed=0, batch_schedule=((0, 8),), beta=10.0,
                    noise_schedule=((0, 0.1),))


def test_init_spec_round_trip():
    for text in ("zero", "normal", "uniform:-2.5:2.5"):
        assert init_to_string(init_from_string(text)) == text
    with pytest.raises(ValueError):
        init_from_string("cauchy")
    with pytest.raises(ValueError):
        init_from_string("uniform:3:1")
    for text in ("uniform:-inf:inf", "uniform:0:1e400"):
        # hi - lo overflows, so the uniform draw would not be finite
        with pytest.raises(ValueError):
            init_from_string(text)
    with pytest.raises(ValueError):
        # jordan initialization carries a planted target object, so it has
        # no flat-config spelling
        init_from_string("jordan")


def test_init_spec_sampling_laws():
    unit = RbfUnit(alpha=1.0, d=3)
    e0 = InitSpec(c_law="zero").sample(unit, 20, stream(41, "a"))
    assert np.array_equal(e0.c, np.zeros(20))
    eu = InitSpec(c_law=("uniform", -2.0, 3.0)).sample(unit, 500, stream(41, "b"))
    assert eu.c.min() >= -2.0 and eu.c.max() <= 3.0
    assert eu.c.max() > 1.0  # actually spread out
    dev = np.max(np.abs(np.linalg.norm(eu.z, axis=1) - np.sqrt(3.0)))
    assert dev < 1e-12 * np.sqrt(3.0)


# -- schedules ----------------------------------------------------------------

def sgd_cfg(steps, seed=7, schedule=((0, 8),), dt=1e-3):
    return TrainConfig(dt=dt, steps=steps, dynamics="sgd",
                       init=InitSpec(c_law="normal"), master_seed=seed,
                       batch_schedule=schedule)


def test_zero_steps_returns_input_and_empty_series():
    d = 3
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 23)
    cfg = sgd_cfg(0)
    e0 = cfg.init.sample(unit, 4, stream(cfg.master_seed, "init"))
    final, report = run_schedule(cfg, e0, t, DiagnosticPlan())
    assert report.rows == 0
    assert np.array_equal(final.c, e0.c)
    assert np.array_equal(final.z, e0.z)


def test_report_names_its_target_by_kind():
    # the target entry of a report's meta, for both kinds of target
    unit, planted, e0 = planted_one_atom(d=3)
    cfg = TrainConfig(dt=1e-3, steps=2, dynamics="gd", init=InitSpec(c_law="zero"),
                      master_seed=5)
    for t, key in ((SpinTensor.sample(3, 23), {"kind": "spin3", "d": 3, "seed": 23}),
                   (planted, {"kind": "planted", "atoms": 1})):
        _, report = run_schedule(cfg, e0, t, DiagnosticPlan())
        assert report.meta["target"] == key


def test_quench_changepoint_is_recorded_exactly():
    d = 3
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 29)
    cfg = sgd_cfg(40, schedule=((0, 4), (25, 16)))
    e0 = cfg.init.sample(unit, 4, stream(cfg.master_seed, "init"))
    _, report = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=1))
    steps = np.asarray(report.series["step"])
    P = np.asarray(report.series["P"])
    assert np.array_equal(P[steps < 25], np.full((steps < 25).sum(), 4))
    assert np.array_equal(P[steps >= 25], np.full((steps >= 25).sum(), 16))
    sig = np.asarray(report.series["sigma"])
    assert np.allclose(sig, cfg.dt / P, rtol=0, atol=0)


def test_run_schedule_is_deterministic():
    d = 4
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 31)
    cfg = sgd_cfg(60)
    e0 = cfg.init.sample(unit, 6, stream(cfg.master_seed, "init"))
    f1, r1 = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=10))
    f2, r2 = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=10))
    assert np.array_equal(f1.c, f2.c)
    assert np.array_equal(f1.z, f2.z)
    # the step-0 probe has no batch yet, so batch_loss starts at nan
    assert np.array_equal(
        r1.series["batch_loss"], r2.series["batch_loss"], equal_nan=True
    )


def test_resume_from_midpoint_is_bit_exact():
    # per-step RNG streams are keyed by absolute step index, so running
    # 0..100 in one go equals running 0..50 then 50..100
    d = 3
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 37)
    cfg_half = sgd_cfg(50)
    cfg_full = sgd_cfg(100)
    e0 = cfg_full.init.sample(unit, 5, stream(cfg_full.master_seed, "init"))
    mid, _ = run_schedule(cfg_half, e0, t, DiagnosticPlan())
    resumed, _ = run_schedule(cfg_full, mid, t, DiagnosticPlan(), start_step=50)
    direct, _ = run_schedule(cfg_full, e0, t, DiagnosticPlan())
    assert np.array_equal(resumed.c, direct.c)
    assert np.array_equal(resumed.z, direct.z)


def test_probe_row_matches_standalone_diagnostics_bitwise():
    # the probe derives loss and signed errors from one residual pass; they
    # must equal the standalone diagnostics of the returned state.  The eval
    # batch spans several evaluation row blocks.
    d = 4
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 43)
    cfg = sgd_cfg(30)
    eval_batch = draw_batch(t, d, 12000, stream(43, "eval"))
    e0 = cfg.init.sample(unit, 6, stream(cfg.master_seed, "init"))
    plan = DiagnosticPlan(probe_every=10, eval_batch=eval_batch)
    final, report = run_schedule(cfg, e0, t, plan)
    plus, minus, rest = signed_error_summary(final, eval_batch)
    assert report.series["loss"][-1] == empirical_loss(final, eval_batch)
    assert report.series["signed_plus"][-1] == plus
    assert report.series["signed_minus"][-1] == minus
    assert report.series["resid_nonzero"][-1] == rest == plus + minus


@pytest.mark.parametrize("pair_block", [None, 64])
def test_exact_loss_column_is_the_flow_energy_bitwise(monkeypatch, pair_block):
    # the probe's exact loss and the drift's pair loss share one pair kernel
    if pair_block is not None:
        monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", pair_block)
    d, n = 5, 40
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 47)
    cfg = TrainConfig(dt=1e-3, steps=50, dynamics="gd",
                      init=InitSpec(c_law="normal"), master_seed=47)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    plan = DiagnosticPlan(probe_every=10, track_flow_energy=True)
    _, report = run_schedule(cfg, e0, t, plan)
    steps = report.series["step"]
    assert steps.tolist() == [0, 10, 20, 30, 40, 50]
    assert np.array_equal(report.series["exact_loss"], report.extras["flow_energy"][steps])


def test_exact_flow_probes_read_the_drift_pass(monkeypatch):
    # an exact-flow probe takes its exact loss from the drift of the state
    # it records; only a batch state has to evaluate the pair loss on its own
    def refuse(*args):
        raise AssertionError("rbf_exact_loss called for an exact-flow state")

    monkeypatch.setattr(dyn, "rbf_exact_loss", refuse)
    d, n = 5, 16
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 89)
    plan = DiagnosticPlan(probe_every=7, eval_batch=draw_batch(t, d, 64, stream(89, "eval")),
                          track_flow_energy=True)
    for kind, extra in (("gd", {}), ("langevin", {"beta": 1e3})):
        cfg = TrainConfig(dt=1e-3, steps=20, dynamics=kind, init=InitSpec(c_law="normal"),
                          master_seed=89, **extra)
        e0 = cfg.init.sample(unit, n, stream(89, "init"))
        _, report = run_schedule(cfg, e0, t, plan)
        steps = report.series["step"]
        assert steps.tolist() == [0, 7, 14, 20]
        assert np.array_equal(report.series["exact_loss"], report.extras["flow_energy"][steps])
        # resuming at the last step records nothing
        _, tail = run_schedule(cfg, e0, t, plan, start_step=cfg.steps)
        assert tail.rows == 0
        assert tail.extras["flow_energy"].shape == (0,)
        assert tail.extras["flow_driftsq"].shape == (0,)
    monkeypatch.undo()
    cfg = sgd_cfg(20, seed=89)
    e0 = cfg.init.sample(unit, n, stream(89, "init"))
    final, report = run_schedule(cfg, e0, t, plan)
    assert "flow_energy" not in report.extras
    assert report.series["exact_loss"][-1] == diag.rbf_exact_loss(final, t)


def test_flow_monotone_descent_with_euler_tolerance():
    d, n = 5, 16
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 41)
    cfg = TrainConfig(dt=1e-3, steps=1000, dynamics="gd",
                      init=InitSpec(c_law="zero"), master_seed=41)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    _, report = run_schedule(cfg, e0, t, DiagnosticPlan(track_flow_energy=True))
    energy = report.extras["flow_energy"]
    driftsq = report.extras["flow_driftsq"]
    assert energy.shape == (1001,)
    rises = energy[1:] - energy[:-1] - (1e-9 + 10.0 * (cfg.dt**2) * driftsq)
    assert np.all(rises <= 0.0)
    assert energy[-1] < energy[0]  # it actually trains


def test_langevin_schedule_runs_and_records_noise():
    d = 3
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 43)
    cfg = TrainConfig(dt=1e-3, steps=30, dynamics="langevin",
                      init=InitSpec(c_law="normal"), master_seed=43,
                      batch_schedule=((0, 8),), beta=100.0)
    e0 = cfg.init.sample(unit, 4, stream(cfg.master_seed, "init"))
    _, report = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=10))
    noise = np.asarray(report.series["noise"])
    assert np.allclose(noise, noise_amplitude(100.0, 4), rtol=0, atol=0)


def test_step_failure_carries_the_step_index():
    # a huge dt overflows the interaction term within a few steps
    d, n = 3, 4
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 47)
    cfg = TrainConfig(dt=1e150, steps=10, dynamics="gd",
                      init=InitSpec(c_law=("uniform", -1e3, 1e3)), master_seed=47)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    with np.errstate(over="ignore"), pytest.raises(StepFailure) as err:
        run_schedule(cfg, e0, t, DiagnosticPlan())
    assert (err.value.step, err.value.particle, err.value.what) == (0, 0, "position")
    assert str(err.value) == "non-finite position at step 0, particle 0"


def test_step_failure_survives_pickling():
    # a pool task's exception reaches the parent pickled
    err = pickle.loads(pickle.dumps(StepFailure(3, 1, "weight")))
    assert type(err) is StepFailure
    assert (err.step, err.particle, err.what) == (3, 1, "weight")
    assert str(err) == "non-finite weight at step 3, particle 1"


@pytest.mark.parametrize("batch", [None, 8])
def test_tensor_of_another_d_is_refused_before_the_first_step(batch):
    # a d=4 tensor and a d=4 planted target against d=5 units, exact flow
    # (gd, exact-drift langevin) and batch dynamics alike
    unit = RbfUnit(alpha=1.0, d=5)
    _, planted, _ = planted_one_atom(d=4, seed=53)
    e0 = InitSpec(c_law="normal").sample(unit, 6, stream(53, "init"))
    sched = {} if batch is None else {"batch_schedule": ((0, batch),)}
    kinds = ["langevin", "gd" if batch is None else "sgd"]
    for t, name in ((SpinTensor.sample(4, 53), "tensor"), (planted, "planted")):
        msg = f"points have d = 5, {name} d = 4"
        for kind, steps in ((k, s) for k in kinds for s in (0, 3)):
            beta = {"beta": 1e3} if kind == "langevin" else {}
            cfg = TrainConfig(dt=1e-3, steps=steps, dynamics=kind, init=InitSpec(c_law="normal"),
                              master_seed=53, **sched, **beta)
            with pytest.raises(DimensionMismatchError, match=msg):
                run_schedule(cfg, e0, t, DiagnosticPlan())
        for beta in (1e3, math.inf):
            with pytest.raises(DimensionMismatchError, match=msg):
                langevin_step(e0, t, batch, 1e-3, beta, stream(53, "step"))


def test_an_object_that_is_not_a_target_is_refused_before_the_first_step(monkeypatch):
    # a callable and a string, exact flow and batch dynamics alike
    steps = []
    monkeypatch.setattr(dyn._Workspace, "apply", lambda self, *a, **k: steps.append(a))
    unit = RbfUnit(alpha=1.0, d=5)
    e0 = InitSpec(c_law="normal").sample(unit, 6, stream(54, "init"))
    for bad in (lambda X: np.sum(X, axis=1), "not a target"):
        for kind, sched in (("gd", ()), ("sgd", ((0, 8),))):
            cfg = TrainConfig(dt=1e-3, steps=3, dynamics=kind, init=InitSpec(c_law="normal"),
                              master_seed=54, batch_schedule=sched)
            with pytest.raises(TypeError, match="cannot train on"):
                run_schedule(cfg, e0, bad, DiagnosticPlan())
        for batch, beta in ((None, math.inf), (8, math.inf), (8, 1e3)):
            with pytest.raises(TypeError, match="cannot train on"):
                langevin_step(e0, bad, batch, 1e-3, beta, stream(54, "step"))
    assert steps == []


def test_exact_step_at_beta_inf_builds_no_generator(monkeypatch):
    # an exact step at beta = inf draws nothing, so it builds no generator;
    # a batch or noise step builds one, and a bad rng is refused every time
    unit = RbfUnit(alpha=1.0, d=5)
    t = SpinTensor.sample(5, 55)
    cfg = TrainConfig(dt=1e-3, steps=1, dynamics="gd", init=InitSpec(c_law="normal"),
                      master_seed=55)
    e0 = cfg.init.sample(unit, 12, stream(cfg.master_seed, "init"))
    want, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    built, generator = [], RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda s: built.append(s) or generator(s))
    e1 = langevin_step(e0, t, None, cfg.dt, math.inf, stream(55, "step"))
    assert built == []
    assert np.array_equal(e1.c, want.c) and np.array_equal(e1.z, want.z)
    for batch, beta in ((None, math.inf), (8, math.inf), (None, 1e3)):
        with pytest.raises(TypeError, match="expected RngStream or numpy Generator"):
            langevin_step(e0, t, batch, cfg.dt, beta, 12345)
    assert built == []
    for batch, beta in ((8, math.inf), (None, 1e3)):
        langevin_step(e0, t, batch, cfg.dt, beta, stream(55, "step"))
    assert len(built) == 2


def _other_d_call(call, e, batch):
    # batch has d = 4; e's unit has d = 5
    if call == "run_schedule":
        kind = "gd" if isinstance(e.unit, RbfUnit) else "sgd"
        sched = () if kind == "gd" else ((0, 8),)
        cfg = TrainConfig(dt=1e-3, steps=5, dynamics=kind, init=InitSpec(c_law="normal"),
                          master_seed=56, batch_schedule=sched)
        plan = DiagnosticPlan(probe_every=1000, eval_batch=batch)
        return run_schedule(cfg, e, SpinTensor.sample(5, 56), plan, start_step=1)
    return {
        "network_eval_rows": lambda: units.network_eval_rows(e, batch.points),
        "features": lambda: e.unit.features(batch.points, e.z),
        "sgd_drift": lambda: sgd_drift(e, batch),
        "empirical_loss": lambda: empirical_loss(e, batch),
        "weighted_kernel_gram": lambda: units.weighted_kernel_gram(e, batch),
        "tangent_kernel_gram": lambda: diag.tangent_kernel_gram(e, batch.points),
    }[call]()


@pytest.mark.parametrize("call", ["network_eval_rows", "features", "sgd_drift", "empirical_loss",
                                  "weighted_kernel_gram", "tangent_kernel_gram", "run_schedule"])
@pytest.mark.parametrize("unit", [RbfUnit(alpha=1.0, d=5), SigmoidUnit(d=5)],
                         ids=["rbf", "sigmoid"])
def test_points_of_another_d_are_refused_by_the_network_side(monkeypatch, unit, call):
    # numpy's bare matmul ValueError before; run_schedule refuses its eval
    # batch before the first step, not at its first probe
    steps = []
    monkeypatch.setattr(dyn._Workspace, "apply", lambda self, *a, **k: steps.append(a))
    e = InitSpec(c_law="normal").sample(unit, 6, stream(56, "init"))
    X = sample_sphere_rows(4, 8, stream(56, "x"))
    batch = diag.Batch(points=X, target_values=np.ones(8))
    with pytest.raises(geo.InvalidDimensionError, match="points have d = 4, unit d = 5"):
        _other_d_call(call, e, batch)
    assert steps == []


@pytest.mark.parametrize(
    "kind, dt, seed, pinned",
    [
        # the noisy exact-flow update (thermal noise on for the whole run)
        ("gd", 100.0, 48, (26, 1, "position")),
        # the exact-drift langevin update (prior pull on c, beta noise)
        ("langevin", 30.0, 46, (32, 2, "position")),
    ],
)
def test_noisy_step_failure_is_pinned(kind, dt, seed, pinned):
    # (step, particle, quantity) of the first failure, as recorded before
    # the exact-flow step moved onto a per-run workspace
    d, n = 3, 4
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, seed)
    extra = {"noise_schedule": ((0, 0.1),)} if kind == "gd" else {"beta": 100.0}
    cfg = TrainConfig(dt=dt, steps=40, dynamics=kind,
                      init=InitSpec(c_law=("uniform", -1e3, 1e3)), master_seed=seed, **extra)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as err:
        run_schedule(cfg, e0, t, DiagnosticPlan())
    assert (err.value.step, err.value.particle, err.value.what) == pinned


@pytest.mark.parametrize("kind", ["rbf", "sigmoid"])
def test_finite_state_whose_sum_of_squares_overflows_steps(kind):
    # weights of 1e200 are finite, but their squares sum past DBL_MAX, so
    # the update check falls back to the entry-by-entry test, which passes.
    # Two particles at one position with opposite weights and unit features
    # (alpha = 0, a saturated sigmoid) cancel exactly in every kernel sum,
    # and a dt of 1e-200 keeps the position step on scale
    d = 5
    if kind == "rbf":
        unit = RbfUnit(alpha=0.0, d=d)
        z = unit.init_rows(1, stream(45, "z").generator())
    else:
        unit = SigmoidUnit(d=d)
        z = np.array([[0.0] * d + [50.0]])
    e = ParticleEnsemble(unit=unit, c=np.array([1e200, -1e200]), z=np.vstack([z, z]))
    with np.errstate(over="ignore"):
        e2 = langevin_step(e, SpinTensor.sample(d, 45), None if kind == "rbf" else 8,
                           1e-200, math.inf, stream(45, "step"))
        assert not np.isfinite(np.dot(e2.c, e2.c))
    assert np.isfinite(e2.c).all() and np.isfinite(e2.z).all()


def test_run_schedule_equals_repeated_flow_steps_bitwise():
    # the schedule runner and the public step function share one step kernel
    d, n = 5, 24
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 53)
    cfg = TrainConfig(dt=1e-3, steps=30, dynamics="gd",
                      init=InitSpec(c_law="normal"), master_seed=53)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    final, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    e = e0
    for _ in range(cfg.steps):
        e = langevin_step(e, t, None, cfg.dt, math.inf, stream(53, "step"))
    assert np.array_equal(final.c, e.c)
    assert np.array_equal(final.z, e.z)


@pytest.mark.parametrize("pair_block", [None, 64])
def test_exact_flow_resume_at_noise_switch_is_bit_exact(monkeypatch, pair_block):
    # thermal noise for the first half, resumed exactly where it switches off;
    # 64-entry pair blocks walk the n x n kernel one row at a time
    if pair_block is not None:
        monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", pair_block)
    d, n = 5, 40
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 59)

    def cfg(steps):
        return TrainConfig(dt=1e-3, steps=steps, dynamics="gd",
                           init=InitSpec(c_law="normal"), master_seed=59,
                           noise_schedule=((0, 0.05), (50, 0.0)))

    e0 = cfg(100).init.sample(unit, n, stream(59, "init"))
    mid, _ = run_schedule(cfg(50), e0, t, DiagnosticPlan())
    resumed, _ = run_schedule(cfg(100), mid, t, DiagnosticPlan(), start_step=50)
    direct, _ = run_schedule(cfg(100), e0, t, DiagnosticPlan())
    assert not np.array_equal(mid.z, e0.z)
    assert np.array_equal(resumed.c, direct.c)
    assert np.array_equal(resumed.z, direct.z)


@pytest.mark.parametrize(
    "unit, kind, dt, seed, pinned",
    [
        (SigmoidUnit(d=3), "sgd", 1e300, 47, (1, 0, "weight")),
        (RbfUnit(alpha=1.0, d=3), "sgd", 1e150, 47, (0, 0, "position")),
        (SigmoidUnit(d=3), "langevin", 1e50, 46, (6, 0, "weight")),
        (RbfUnit(alpha=1.0, d=3), "langevin", 30.0, 46, (29, 0, "position")),
    ],
    ids=["sgd-sigmoid", "sgd-rbf", "langevin-sigmoid", "langevin-rbf"],
)
def test_batch_step_failure_is_pinned(unit, kind, dt, seed, pinned):
    # (step, particle, quantity) of the first failure of a batch step, as
    # recorded before the batch step moved onto the per-run workspace
    t = SpinTensor.sample(unit.d, seed)
    extra = {"beta": 100.0} if kind == "langevin" else {}
    cfg = TrainConfig(dt=dt, steps=40, dynamics=kind, batch_schedule=((0, 8),),
                      init=InitSpec(c_law=("uniform", -1e3, 1e3)), master_seed=seed, **extra)
    e0 = cfg.init.sample(unit, 4, stream(cfg.master_seed, "init"))
    with np.errstate(all="ignore"), pytest.raises(StepFailure) as err:
        run_schedule(cfg, e0, t, DiagnosticPlan())
    assert (err.value.step, err.value.particle, err.value.what) == pinned
    step, particle, what = pinned
    assert str(err.value) == f"non-finite {what} at step {step}, particle {particle}"


def _quench_cfg(steps, seed=61, sizes=(12, 40)):
    return TrainConfig(dt=1e-2, steps=steps, dynamics="sgd", init=InitSpec(c_law="normal"),
                       master_seed=seed, batch_schedule=((0, sizes[0]), (15, sizes[1])))


_SGD_CASES = [(kind, d, sizes) for kind in ("rbf", "sigmoid") for d in (5, 25)
              for sizes in ((12, 40), (1, 1), (2, 144))]


def _sgd_case_id(case):
    kind, d, (p0, p1) = case
    return kind if (d, p0, p1) == (5, 12, 40) else f"{kind}-d{d}-{p0}-{p1}"


@pytest.mark.parametrize("pair_block", [None, 64])
@pytest.mark.parametrize("case", _SGD_CASES, ids=_sgd_case_id)
def test_run_schedule_equals_repeated_sgd_steps_bitwise(monkeypatch, case, pair_block):
    # the schedule runner and the public step function share one batch
    # step; 64-entry blocks split each batch into up to 36 (P=144) feature
    # blocks of 4 rows.  The runner evaluates a window of batches at once,
    # whose 3-spin rows move in their last bits at d = 25 or P = 1 unless
    # each batch is cut as a one-shot draw of its P rows
    if pair_block is not None:
        monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", pair_block)
    kind, d, sizes = case
    n = 16
    # alpha d = 5 keeps the rbf kernel's peak, and the step, as at d = 5
    unit = RbfUnit(alpha=5.0 / d, d=d) if kind == "rbf" else SigmoidUnit(d=d)
    t = SpinTensor.sample(unit.d, 61)
    cfg = _quench_cfg(30, sizes=sizes)
    e0 = cfg.init.sample(unit, n, stream(cfg.master_seed, "init"))
    final, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    e = e0
    for k in range(cfg.steps):
        P = sizes[0] if k < 15 else sizes[1]
        e = langevin_step(e, t, P, cfg.dt, math.inf, stream(cfg.master_seed, "batch", k))
    assert not np.array_equal(final.c, e0.c)
    assert np.array_equal(final.c, e.c)
    assert np.array_equal(final.z, e.z)


@pytest.mark.parametrize("unit", [RbfUnit(alpha=1.0, d=5), SigmoidUnit(d=5)],
                         ids=["rbf", "sigmoid"])
def test_sgd_resume_at_quench_step_is_bit_exact(unit):
    t = SpinTensor.sample(unit.d, 67)
    e0 = _quench_cfg(30, seed=67).init.sample(unit, 16, stream(67, "init"))
    mid, _ = run_schedule(_quench_cfg(15, seed=67), e0, t, DiagnosticPlan())
    resumed, r_res = run_schedule(_quench_cfg(30, seed=67), mid, t,
                                  DiagnosticPlan(probe_every=5), start_step=15)
    direct, r_dir = run_schedule(_quench_cfg(30, seed=67), e0, t, DiagnosticPlan(probe_every=5))
    assert np.array_equal(resumed.c, direct.c)
    assert np.array_equal(resumed.z, direct.z)
    assert r_res.series["P"].tolist() == [40, 40, 40]
    tail = r_dir.series["step"] > 15
    assert np.array_equal(r_res.series["batch_loss"], r_dir.series["batch_loss"][tail])


@pytest.mark.parametrize("unit", [RbfUnit(alpha=1.0, d=5), SigmoidUnit(d=5)],
                         ids=["rbf", "sigmoid"])
def test_batch_loss_column_does_not_depend_on_the_probe_rate(unit):
    # a step forms its batch's loss only for the probe of the state it
    # leads to; probing every state or every 7th one records the same bits
    t = SpinTensor.sample(unit.d, 83)
    cfg = _quench_cfg(30, seed=83)
    e0 = cfg.init.sample(unit, 16, stream(83, "init"))
    _, every = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=1))
    _, sparse = run_schedule(cfg, e0, t, DiagnosticPlan(probe_every=7))
    steps = sparse.series["step"]
    assert steps.tolist() == [0, 7, 14, 21, 28, 30]
    assert every.series["step"].tolist() == list(range(31))
    loss = sparse.series["batch_loss"]
    assert math.isnan(loss[0]) and np.isfinite(loss[1:]).all()
    assert every.series["batch_loss"][steps].tobytes() == loss.tobytes()


def test_sgd_drift_reads_the_batch_in_place_over_blocks(monkeypatch):
    # blocks of 4 rows walk the batch's own arrays; the drift matches the
    # single-block one to roundoff and leaves the batch untouched
    d, n, P = 4, 16, 30
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 71)
    e = InitSpec(c_law="normal").sample(unit, n, stream(71, "init"))
    batch = draw_batch(t, d, P, stream(71, "batch"))
    points, values = batch.points.copy(), batch.target_values.copy()
    dc1, dZ1 = sgd_drift(e, batch)
    monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", 64)
    dc8, dZ8 = sgd_drift(e, batch)
    assert np.array_equal(batch.points, points)
    assert np.array_equal(batch.target_values, values)
    assert np.allclose(dc8, dc1, rtol=1e-13, atol=1e-15)
    assert np.allclose(dZ8, dZ1, rtol=1e-13, atol=1e-15)


def test_exact_workspace_stays_cache_sized():
    # at n = 1024, d = 25 an unblocked pair block and 3-spin gradient scratch
    # held 8 MB and 4.9 MB; 2^15-entry blocks hold 256 KB each, besides about
    # a dozen (n, d) and (n,) arrays of state and drift (2 MB)
    d, n = 25, 1024
    unit = RbfUnit(alpha=0.2, d=d)
    t = SpinTensor.sample(d, 79)
    t._grad_matrix()  # the tensor's cached (d, d^2) matrix is not the workspace's
    e = InitSpec(c_law="normal").sample(unit, n, stream(79, "init"))
    tracemalloc.start()
    try:
        ws = dyn._Workspace(unit, e.c, e.z, exact=True)
        ws.flow_drift(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "entries, floor",
    [(0, None), (400, None), (600, None), (None, 2.0)],
    ids=["3+1", "6+2", "10+3", "redraw"],
)
def test_batch_windows_equal_repeated_sgd_steps(monkeypatch, entries, floor):
    # window rows max(40, entries // 5): 3, 6 or 10 steps at P=12, the last
    # one cut at the switch to P=40, then windows of 1, 2 or 3 steps, the last
    # one cut at the run's end; a norm floor of 2 redraws about 45% of the
    # 5-d Gaussian rows, replaying each affected step's stream
    if entries is not None:
        monkeypatch.setattr(dyn, "_WINDOW_ENTRIES", entries)
    if floor is not None:
        monkeypatch.setattr(geo, "_NORM_FLOOR", floor)
    unit = SigmoidUnit(d=5)
    t = SpinTensor.sample(unit.d, 73)
    cfg = _quench_cfg(30, seed=73)
    e0 = cfg.init.sample(unit, 16, stream(73, "init"))
    final, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    e = e0
    for k in range(cfg.steps):
        e = langevin_step(e, t, 12 if k < 15 else 40, cfg.dt, math.inf, stream(73, "batch", k))
    assert np.array_equal(final.c, e.c)
    assert np.array_equal(final.z, e.z)


@pytest.mark.parametrize("entries", [None, 400])
@pytest.mark.parametrize("kind", ["sgd", "langevin"])
def test_batch_resume_inside_a_window_is_bit_exact(monkeypatch, kind, entries):
    # step 8 lies inside the first window (default: 546 steps at d=5, P=12)
    # or inside the second one (6 steps); langevin adds the noise streams
    if entries is not None:
        monkeypatch.setattr(dyn, "_WINDOW_ENTRIES", entries)
    unit = RbfUnit(alpha=1.0, d=5)
    t = SpinTensor.sample(unit.d, 79)

    def cfg(steps):
        extra = {"beta": 1e3} if kind == "langevin" else {}
        return TrainConfig(dt=1e-2, steps=steps, dynamics=kind, init=InitSpec(c_law="normal"),
                           master_seed=79, batch_schedule=((0, 12), (15, 40)), **extra)

    e0 = cfg(30).init.sample(unit, 16, stream(79, "init"))
    mid, _ = run_schedule(cfg(8), e0, t, DiagnosticPlan())
    resumed, _ = run_schedule(cfg(30), mid, t, DiagnosticPlan(), start_step=8)
    direct, _ = run_schedule(cfg(30), e0, t, DiagnosticPlan())
    assert np.array_equal(resumed.c, direct.c)
    assert np.array_equal(resumed.z, direct.z)


def test_window_redraws_short_rows_as_the_per_step_sampler(monkeypatch):
    # with the norm floor at 2, about 45% of 5-d Gaussian rows are redrawn
    monkeypatch.setattr(geo, "_NORM_FLOOR", 2.0)
    d, P, count, seed = 5, 12, 7, 83
    t = SpinTensor.sample(d, seed)
    rows = P * count
    Xw, yw = np.empty((rows, d)), np.empty(rows)
    streams = _StepStreams(seed, "batch")
    streams.cover(0, count)
    diag._sphere_batches_into(t, Xw, yw, P, streams.generator, np.empty(rows),
                              np.empty((rows, d)), targets._spin3_scratch(d, rows))
    for k in range(count):
        want = _sphere_rows_into(d, stream(seed, "batch", k).generator(),
                                 np.empty((P, d)), np.empty(P), np.empty((P, d)))
        X, y = Xw[k * P : (k + 1) * P], yw[k * P : (k + 1) * P]
        assert np.array_equal(X, want)
        assert np.array_equal(y, t.eval_rows(want))
        assert np.all(np.linalg.norm(want, axis=1) > 0)


@pytest.mark.parametrize("P", [1, 2, 12, 53, 144])
@pytest.mark.parametrize("d", [5, 25])
@pytest.mark.parametrize("kind", ["spin", "planted"])
def test_window_values_are_the_one_shot_batch_values(kind, d, P):
    # the window's 3-spin pass cuts each batch as a one-shot draw of its P
    # rows; plain blocks across batches move rows in their last bits at
    # P = 1, and at d = 25 for P = 2 and 53
    unit = SigmoidUnit(d=d)
    if kind == "spin":
        t = SpinTensor.sample(d, 3)
    else:
        locations = stream(3, "atoms").generator().standard_normal((2, d + 1))
        t = PlantedTarget(unit=unit, weights=np.array([0.7, -1.2]), locations=locations)
    window = max(P, dyn._WINDOW_ENTRIES // d)
    count = window // P
    rows = P * count
    Xw, yw = np.empty((rows, d)), np.empty(rows)
    streams = _StepStreams(5, "batch")
    streams.cover(0, count)
    diag._sphere_batches_into(t, Xw, yw, P, streams.generator, np.empty(rows),
                              np.empty((rows, d)), targets._spin3_scratch(d, window))
    for k in range(count):
        X, y = Xw[k * P : (k + 1) * P], yw[k * P : (k + 1) * P]
        assert np.array_equal(y, evaluate_target(t, X.copy())), k


@pytest.mark.parametrize("table", [None, 7])
def test_noisy_flow_equals_a_loop_over_the_noise_streams(monkeypatch, table):
    # noise for 280 of 300 steps: the default 256-step table is rebuilt once,
    # 7-step tables 40 times
    if table is not None:
        monkeypatch.setattr(dyn, "_NOISE_TABLE_STEPS", table)
    d, n, seed = 4, 6, 97
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, seed)
    cfg = TrainConfig(dt=1e-3, steps=300, dynamics="gd", init=InitSpec(c_law="normal"),
                      master_seed=seed, noise_schedule=((0, 0.1), (280, 0.0)))
    e0 = cfg.init.sample(unit, n, stream(seed, "init"))
    final, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    ws = dyn._Workspace(unit, e0.c, e0.z, exact=True)
    for k in range(cfg.steps):
        dc, dZ = ws.flow_drift(t)
        noise = (0.1, stream(seed, "noise", k).generator()) if k < 280 else None
        ws.apply(dc, dZ, cfg.dt, k, noise)
    assert np.array_equal(final.c, ws.c)
    assert np.array_equal(final.z, ws.Z)


def test_exact_langevin_run_equals_repeated_langevin_steps():
    d, n, seed = 4, 6, 101
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, seed)
    cfg = TrainConfig(dt=1e-3, steps=40, dynamics="langevin", init=InitSpec(c_law="normal"),
                      master_seed=seed, beta=1e3)
    e0 = cfg.init.sample(unit, n, stream(seed, "init"))
    final, _ = run_schedule(cfg, e0, t, DiagnosticPlan())
    e = e0
    for k in range(cfg.steps):
        e = langevin_step(e, t, None, cfg.dt, cfg.beta, stream(seed, "noise", k))
    assert np.array_equal(final.c, e.c)
    assert np.array_equal(final.z, e.z)


def test_missing_batch_schedule_segment():
    with pytest.raises(ScheduleError):
        sgd_cfg(10, schedule=())


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(tmp_path):
    d = 4
    unit = RbfUnit(alpha=1.0, d=d)
    gen = stream(53, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(7),
                         z=sample_sphere_rows(d, 7, gen))
    path = tmp_path / "ck.json"
    save_checkpoint(path, e, 123, {"note": "mid-run"})
    e2, step, meta = load_checkpoint(path)
    assert step == 123
    assert meta["note"] == "mid-run"
    assert np.array_equal(e.c, e2.c)
    assert np.array_equal(e.z, e2.z)
    assert e2.unit.to_dict() == unit.to_dict()
