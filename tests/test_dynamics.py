"""Exact flow, online SGD, Langevin steps, and schedule execution."""
import math

import numpy as np
import pytest

import spinnet.diagnostics as diag
from spinnet.diagnostics import Batch, draw_batch, empirical_loss, signed_error_summary
from spinnet.dynamics import (
    DiagnosticPlan,
    FlatPrior,
    GaussianPrior,
    InitSpec,
    ScheduleError,
    StepFailure,
    TrainConfig,
    init_from_string,
    init_to_string,
    langevin_step,
    load_checkpoint,
    noise_amplitude,
    rbf_flow_step,
    run_schedule,
    save_checkpoint,
    sgd_drift,
    sgd_step,
)
from spinnet.geometry import sample_sphere_rows
from spinnet.rng import stream
from spinnet.targets import PlantedTarget, SpinTensor, jordan_sample, spin3_eval_rows
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
    e2 = rbf_flow_step(e, t, dt)
    assert np.array_equal(e2.z, Z)
    assert np.allclose(e2.c, dt * spin3_eval_rows(t, Z), rtol=0, atol=1e-18)


def test_flow_planted_fixed_point_is_bitwise():
    _, target, e = planted_one_atom()
    e2 = rbf_flow_step(e, target, 1e-3)
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_sgd_planted_fixed_point_is_bitwise():
    _, target, e = planted_one_atom()
    e2 = sgd_step(e, target, 16, 1e-3, stream(33, "batch"))
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_sgd_jordan_one_atom_fixed_point():
    unit = RbfUnit(alpha=0.9, d=3)
    z = sample_sphere_rows(3, 1, stream(34, "z"))
    target = PlantedTarget(unit=unit, weights=np.array([0.7]), locations=z)
    e = jordan_sample(target, 6, stream(34, "draw"))
    e2 = sgd_step(e, target, 32, 1e-3, stream(34, "batch"))
    assert np.array_equal(e2.c, e.c)
    assert np.array_equal(e2.z, e.z)


def test_dt_zero_is_bitwise_noop():
    d = 4
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 9)
    gen = stream(35, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(10),
                         z=sample_sphere_rows(d, 10, gen))
    for e2 in (rbf_flow_step(e, t, 0.0),
               sgd_step(e, t, 8, 0.0, stream(35, "batch"))):
        assert np.array_equal(e2.c, e.c)
        assert np.array_equal(e2.z, e.z)


def test_sgd_keeps_rbf_on_sphere():
    d = 5
    unit = RbfUnit(alpha=1.0, d=d)
    t = SpinTensor.sample(d, 11)
    e = InitSpec(c_law="normal").sample(unit, 12, stream(36, "init"))
    for k in range(50):
        e = sgd_step(e, t, 16, 1e-2, stream(36, "batch", k))
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


def test_beta_infinity_matches_sgd_bitwise():
    d = 4
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 17)
    gen = stream(38, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(8),
                         z=gen.standard_normal((8, d + 1)))
    a = sgd_step(e, t, 16, 1e-3, stream(38, "step"))
    b = langevin_step(e, t, 16, 1e-3, math.inf, stream(38, "step").generator())
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.z, b.z)


def test_gaussian_prior_pull_on_c():
    # with everything else identical, the Gaussian prior shifts the c update
    # by -c/(beta n) dt relative to a flat prior
    d, n, beta, dt = 3, 5, 50.0, 1e-3
    unit = SigmoidUnit(d=d)
    t = SpinTensor.sample(d, 19)
    gen = stream(39, "ens").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(n),
                         z=gen.standard_normal((n, d + 1)))
    g = langevin_step(e, t, 8, dt, beta, stream(39, "s").generator(),
                      prior=GaussianPrior())
    f = langevin_step(e, t, 8, dt, beta, stream(39, "s").generator(),
                      prior=FlatPrior())
    got = g.c - f.c
    want = -e.c / (beta * n) * dt
    assert np.max(np.abs(got - want)) < 1e-15


def test_gaussian_prior_gradients():
    c = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(GaussianPrior().grad_c(c), -c)
    assert FlatPrior().grad_c(c) is None


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
        monkeypatch.setattr(diag, "_PAIR_CHUNK_ENTRIES", pair_block)
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
    assert err.value.step >= 0


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
