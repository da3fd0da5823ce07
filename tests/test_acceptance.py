"""Acceptance suite: one test per shipping criterion, pinned tolerances.

Each test prints one PASS/FAIL line (visible with -s or in captured output)
and asserts the same condition, so `pytest -v` shows one verdict per
criterion.  Long runs are shared through session fixtures; every random
quantity is driven by a pinned seed, so the suite is deterministic.
"""
import glob
import os
import time

import numpy as np
import pytest

import spinnet as sn
from spinnet.diagnostics import (
    Batch,
    empirical_loss,
    fit_scaling_slope,
    init_fluctuation_variance,
    read_report,
    tangent_kernel_gram,
)
from spinnet.dynamics import (
    DiagnosticPlan,
    InitSpec,
    TrainConfig,
    langevin_step,
    run_schedule,
    sgd_drift,
)
from spinnet.experiments import build_spec, run_experiment, run_gradcheck
from spinnet.targets import evaluate_target, jordan_sample

# the slow suite: `pytest -m "not acceptance"` runs the rest
pytestmark = pytest.mark.acceptance


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


# -- shared runs -----------------------------------------------------------

@pytest.fixture(scope="session")
def flow_run():
    """Exact descent flow, d = 5, n = 128, 2e4 steps, per-step energies."""
    d, n = 5, 128
    unit = sn.RbfUnit(alpha=1.0, d=d)
    tensor = sn.SpinTensor.sample(d, 23)
    cfg = TrainConfig(dt=1e-3, steps=20000, dynamics="gd",
                      init=InitSpec(c_law="zero"), master_seed=23)
    e0 = cfg.init.sample(unit, n, sn.stream(cfg.master_seed, "init"))
    plan = DiagnosticPlan(probe_every=100, track_flow_energy=True)
    t0 = time.perf_counter()
    final, report = run_schedule(cfg, e0, tensor, plan)
    return final, report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def scaling_grid(tmp_path_factory):
    """RBF error-scaling grid: d = 5, n in {16,32,64,128}, 3 realizations."""
    out = str(tmp_path_factory.mktemp("accept") / "rbf-scale")
    spec = build_spec(overrides={
        "experiment": "rbf-scaling",
        "d": "5", "unit": "rbf", "alpha": "1.0",
        "n_list": "16,32,64,128", "realizations": "3",
        "dynamics": "gd", "dt": "0.001", "steps": "20000",
        "c_init": "zero", "probe_every": "100",
        "eval_batch_size": "4096", "final_eval_batch_size": "100000",
        "master_seed": "1", "out_dir": out, "threads": "4",
    })
    t0 = time.perf_counter()
    summary = run_experiment(spec)
    return out, summary, time.perf_counter() - t0


@pytest.fixture(scope="session")
def quench_run(tmp_path_factory):
    """Online SGD with a batch quench: sigmoid, d = 10, n = 64, 2e5 steps."""
    out = str(tmp_path_factory.mktemp("accept") / "quench")
    spec = build_spec(preset="paper-sigmoid-d10", overrides={"out_dir": out})
    t0 = time.perf_counter()
    summary = run_experiment(spec)
    return out, summary, time.perf_counter() - t0


# -- criteria ----------------------------------------------------------------

def test_criterion_01_finite_difference_gradients():
    # 104 random cases across d in {2, 5, 10, 25}, both unit families:
    # every analytic gradient within 1e-6 of central differences (h = 1e-5)
    t0 = time.perf_counter()
    worst: dict = {}
    for d in (2, 5, 10, 25):
        for unit in ("rbf", "sigmoid"):
            spec = build_spec(overrides={
                "experiment": "gradcheck", "d": str(d), "unit": unit,
                "alpha": "1.0" if unit == "rbf" else "",
                "n_list": "8",
                "dynamics": "gd" if unit == "rbf" else "sgd",
                "steps": "10", "master_seed": str(100 + d)})
            result = run_gradcheck(spec, cases=13)
            assert result["passed"], (d, unit, result["max_rel_err"])
            for key, val in result["max_rel_err"].items():
                worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.perf_counter() - t0
    top = max(worst.values())
    verdict(1, "finite-difference gradients",
            top < 1e-6 and elapsed < 10.0,
            f"104 cases, max rel err {top:.2e}, {elapsed:.1f}s")


def test_criterion_02_sphere_constraint_preserved(flow_run):
    final, report, elapsed = flow_run
    dev_series = float(np.max(report.series["sphere_dev"]))
    radius = final.unit.radius
    dev_final = float(np.max(np.abs(np.linalg.norm(final.z, axis=1) - radius)))
    dev = max(dev_series, dev_final)
    verdict(2, "sphere constraint",
            dev < 1e-10 and elapsed < 300.0,
            f"max |norm - radius| {dev:.2e} over 2e4 steps, {elapsed:.1f}s")


def test_criterion_03_exact_flow_descends(flow_run):
    _, report, _ = flow_run
    energy = report.extras["flow_energy"]
    diffs = np.diff(energy)
    viol = diffs[diffs > 0]
    frac = viol.size / diffs.size
    worst = float(viol.max()) if viol.size else 0.0
    verdict(3, "exact flow descends",
            frac <= 1e-3 and worst < 1e-9,
            f"{viol.size}/{diffs.size} increases, worst {worst:.2e}")


def test_criterion_04_sgd_drift_unbiased():
    # mean single-batch drift (1e5 batches of P = 64) against a 1e7-point
    # reference, componentwise within 4 standard errors, for 5 particles
    t0 = time.perf_counter()
    seed, d = 11, 5
    tensor = sn.SpinTensor.sample(d, seed)
    devs = {}
    for tag, unit in (("rbf", sn.RbfUnit(alpha=1.0, d=d)),
                      ("sig", sn.SigmoidUnit(d=d))):
        e = InitSpec(c_law="normal").sample(unit, 16, sn.stream(seed, tag + "-ens"))
        B = 10**5
        s1c = np.zeros(5)
        s2c = np.zeros(5)
        s1z = np.zeros((5, unit.param_dim))
        s2z = np.zeros((5, unit.param_dim))
        for k in range(B):
            batch = sn.draw_batch(tensor, d, 64, sn.stream(seed, tag + "-batch", k))
            dc, dZ = sgd_drift(e, batch)
            v, w = dc[:5], dZ[:5]
            s1c += v
            s2c += v * v
            s1z += w
            s2z += w * w
        mean_c = s1c / B
        se_c = np.sqrt((s2c / B - mean_c**2) / (B - 1))
        mean_z = s1z / B
        se_z = np.sqrt((s2z / B - mean_z**2) / (B - 1))
        gen = sn.stream(seed, tag + "-ref").generator()
        ref_c = np.zeros(16)
        ref_z = np.zeros((16, unit.param_dim))
        for _ in range(100):
            X = sn.sample_sphere_rows(d, 10**5, gen)
            big = Batch(points=X, target_values=evaluate_target(tensor, X))
            dc, dZ = sgd_drift(e, big)
            ref_c += dc
            ref_z += dZ
        ref_c /= 100
        ref_z /= 100
        devs[tag] = max(
            float(np.max(np.abs(mean_c - ref_c[:5]) / se_c)),
            float(np.max(np.abs(mean_z - ref_z[:5]) / se_z)),
        )
    elapsed = time.perf_counter() - t0
    top = max(devs.values())
    verdict(4, "sgd drift unbiased",
            top <= 4.0 and elapsed < 600.0,
            f"max |dev|/se rbf {devs['rbf']:.2f}, sigmoid {devs['sig']:.2f}, "
            f"{elapsed:.0f}s")


def test_criterion_05_response_kernel_psd():
    # 10 fresh ensembles per unit family, 20 probes each: smallest
    # eigenvalue of the response kernel never below -1e-8
    t0 = time.perf_counter()
    seed = 515
    worst = np.inf
    for tag, unit in (("rbf", sn.RbfUnit(alpha=1.0, d=5)),
                      ("sig", sn.SigmoidUnit(d=5))):
        for k in range(10):
            e = InitSpec(c_law="normal").sample(
                unit, 200, sn.stream(seed, f"{tag}-init", k))
            probes = sn.sample_sphere_rows(
                5, 20, sn.stream(seed, f"{tag}-probe", k).generator())
            M = tangent_kernel_gram(e, probes)
            worst = min(worst, float(np.linalg.eigvalsh(M)[0]))
    elapsed = time.perf_counter() - t0
    verdict(5, "response kernel psd",
            worst >= -1e-8 and elapsed < 60.0,
            f"min eigenvalue {worst:.2e} over 20 grams, {elapsed:.1f}s")


def test_criterion_06_init_fluctuation_clt():
    # n * Var[f^(n)(probe)] over 1e3 fresh initializations against the
    # single-unit Monte Carlo prediction, within 10%
    t0 = time.perf_counter()
    unit = sn.SigmoidUnit(d=5)
    init = InitSpec(c_law=("uniform", -1.0, 1.0))
    probe = sn.sample_sphere_rows(5, 1, sn.stream(2026, "clt-probe"))[0]
    measured, predicted = init_fluctuation_variance(
        init, unit, 100, probe, seeds=1000, seed=2026)
    elapsed = time.perf_counter() - t0
    ratio = measured / predicted
    verdict(6, "initialization fluctuations",
            abs(ratio - 1.0) <= 0.10 and elapsed < 300.0,
            f"measured/predicted {ratio:.4f}, {elapsed:.0f}s")


def test_criterion_07_error_scaling_slope(scaling_grid):
    _, summary, elapsed = scaling_grid
    means = [summary["per_n"][str(n)]["mean_loss"] for n in (16, 32, 64, 128)]
    slope = summary["slope"]["value"]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    verdict(7, "error scaling",
            slope <= -0.8 and decreasing and elapsed < 7200.0,
            f"slope {slope:.3f}, means {['%.3g' % m for m in means]}, "
            f"{elapsed:.0f}s")


def test_criterion_08_quench_reduces_fluctuations(quench_run):
    out, _, elapsed = quench_run
    report = read_report(os.path.join(out, "run_n64_r0_s0.csv"))
    steps, bl = report.series["step"], report.series["batch_loss"]
    pre = bl[(steps > 170000) & (steps <= 180000)]
    post = bl[(steps > 190000) & (steps <= 200000)]
    assert pre.size == 100 and post.size == 100
    ratio = float(np.std(post, ddof=1) / np.std(pre, ddof=1))
    verdict(8, "batch quench",
            ratio < 0.5 and elapsed < 3600.0,
            f"post/pre batch-loss std {ratio:.3f}, {elapsed:.0f}s")


def test_criterion_09_two_atom_init_loss_scaling():
    # loss of a fresh two-atom-supported initialization decays like 1/n
    t0 = time.perf_counter()
    seed, d = 909, 3
    unit = sn.RbfUnit(alpha=1.0, d=d)
    loc = sn.sample_sphere_rows(d, 2, sn.stream(seed, "atoms"))
    target = sn.PlantedTarget(unit=unit, weights=np.array([1.0, -1.0]),
                              locations=loc)
    batch = sn.draw_batch(target, d, 2048, sn.stream(seed, "eval"))
    pts = []
    for n in (10**2, 10**3, 10**4):
        vals = np.empty(100)
        for s in range(100):
            e = jordan_sample(target, n, sn.stream(seed, f"init-{n}", s).generator())
            vals[s] = empirical_loss(e, batch)
        pts.append((n, vals.mean(), vals.std(ddof=1) / 10.0))
    slope, stderr = fit_scaling_slope(pts)
    elapsed = time.perf_counter() - t0
    verdict(9, "two-atom init loss scaling",
            -1.3 <= slope <= -0.7 and elapsed < 300.0,
            f"slope {slope:.3f} +- {stderr:.3f}, {elapsed:.0f}s")


def test_criterion_10_langevin_noise_floor():
    # at a drift-free fixed point the weight increments are pure noise with
    # variance 2 dt / (beta n); measured over 1e5 steps within 5%
    t0 = time.perf_counter()
    seed, d = 404, 5
    unit = sn.RbfUnit(alpha=0.0, d=d)
    zstar = sn.sample_sphere_rows(d, 1, sn.stream(seed, "atom"))[0]
    target = sn.PlantedTarget(unit=unit, weights=np.array([1.0]),
                              locations=zstar[None, :])
    e = sn.ParticleEnsemble(unit=unit, c=np.array([1.0]), z=zstar[None, :].copy())
    gen = sn.stream(seed, "chain").generator()
    steps, dt, beta = 10**5, 1e-3, 1e6
    inc = np.empty(steps)
    for k in range(steps):
        c0 = e.c[0]
        e = langevin_step(e, target, 8, dt, beta, gen)
        inc[k] = e.c[0] - c0
    rel = abs(float(inc.var(ddof=1)) / (2.0 * dt / (beta * 1)) - 1.0)
    elapsed = time.perf_counter() - t0
    verdict(10, "langevin noise floor",
            rel <= 0.05 and elapsed < 120.0,
            f"increment variance off by {rel:.4f}, {elapsed:.0f}s")


def test_criterion_11_signed_error_identity(scaling_grid, quench_run):
    # on every recorded probe row of the scaling and quench suites the sign
    # split reassembles the restricted residual mean exactly
    paths = sorted(glob.glob(os.path.join(scaling_grid[0], "run_*.csv")))
    paths += sorted(glob.glob(os.path.join(quench_run[0], "run_*.csv")))
    assert len(paths) == 13
    rows = 0
    exact = True
    for path in paths:
        rep = read_report(path)
        sp = rep.series["signed_plus"]
        sm = rep.series["signed_minus"]
        rest = rep.series["resid_nonzero"]
        exact = exact and np.array_equal(sp + sm, rest)
        rows += rep.rows
    verdict(11, "signed error identity",
            exact and rows > 0,
            f"exact on all {rows} probe rows of 13 runs")
