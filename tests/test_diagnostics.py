"""Losses, signed errors, kernel grams, fluctuation checks, fits, reports."""
import math
import tracemalloc

import numpy as np
import pytest

import spinnet.diagnostics as diag
import spinnet.targets as targets
import spinnet.units as units
from spinnet.diagnostics import (
    Batch,
    EmptyBatchError,
    ExperimentReport,
    REPORT_COLUMNS,
    ReportError,
    batch_residual,
    draw_batch,
    empirical_loss,
    fit_scaling_slope,
    great_circle_slice,
    init_fluctuation_variance,
    rbf_exact_loss,
    rbf_pair_terms,
    read_report,
    residual_loss,
    signed_error_summary,
    tangent_kernel_gram,
    two_angle_slice,
)
from spinnet.dynamics import InitSpec, save_checkpoint
from spinnet.experiments import write_summary
from spinnet.geometry import InvalidDimensionError, sample_sphere_rows
from spinnet.rng import stream
from spinnet.targets import DimensionMismatchError, PlantedTarget, SpinTensor, evaluate_target
from spinnet.units import (
    ParticleEnsemble,
    RbfUnit,
    SigmoidUnit,
    _eval_block_rows,
    network_eval_rows,
)


# -- oracles -------------------------------------------------------------

def pair_loss_loop(c, Z, fz, alpha):
    """Double-loop RBF pair loss: -(1/n) sum c_i f(z_i)
    + (1/2n^2) sum_ij c_i c_j exp(alpha z_i.z_j)."""
    n = len(c)
    lin = sum(c[i] * fz[i] for i in range(n))
    quad = 0.0
    for i in range(n):
        for j in range(n):
            quad += c[i] * c[j] * math.exp(alpha * float(np.dot(Z[i], Z[j])))
    return -lin / n + 0.5 * quad / (n * n)


def gram_loop(unit, c, Z, X):
    """Triple-loop tangent kernel: (1/n) sum_i [c_i^2 g_ki.g_li + F_ki F_li]."""
    m, n = X.shape[0], len(c)
    M = np.zeros((m, m))
    for k in range(m):
        for l in range(m):
            s = 0.0
            for i in range(n):
                gk = unit.grad_param(X[k], Z[i])
                gl = unit.grad_param(X[l], Z[i])
                fk = unit.eval_one(X[k], Z[i])
                fl = unit.eval_one(X[l], Z[i])
                s += c[i] * c[i] * float(np.dot(gk, gl)) + fk * fl
            M[k, l] = s / n
    return M


def rbf_ensemble(d, n, alpha, seed, c=None):
    unit = RbfUnit(alpha=alpha, d=d)
    Z = sample_sphere_rows(d, n, stream(seed, "z"))
    if c is None:
        c = stream(seed, "c").generator().uniform(-1.0, 1.0, size=n)
    return ParticleEnsemble(unit=unit, c=np.asarray(c, dtype=np.float64), z=Z)


# -- batches -------------------------------------------------------------

def test_batch_shape_and_properties():
    X = sample_sphere_rows(4, 7, stream(1, "x"))
    b = Batch(points=X, target_values=np.arange(7.0))
    assert b.P == 7 and b.d == 4


def test_batch_rejects_off_sphere_points():
    X = sample_sphere_rows(4, 3, stream(1, "x"))
    X[1] *= 1.0 + 1e-6
    with pytest.raises(InvalidDimensionError):
        Batch(points=X, target_values=np.zeros(3))
    X[1, 2] = np.nan
    with pytest.raises(InvalidDimensionError):
        Batch(points=X, target_values=np.zeros(3))


def test_batch_rejects_mismatched_values():
    X = sample_sphere_rows(4, 3, stream(1, "x"))
    with pytest.raises(InvalidDimensionError):
        Batch(points=X, target_values=np.zeros(4))


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatchError):
        Batch(points=np.zeros((0, 3)), target_values=np.zeros(0))
    with pytest.raises(EmptyBatchError):
        draw_batch(SpinTensor.sample(3, 1), 3, 0, stream(1, "b"))


def test_draw_batch_attaches_target_values():
    t = SpinTensor.sample(3, 5)
    b = draw_batch(t, 3, 50, stream(5, "b"))
    assert b.P == 50 and b.d == 3
    assert np.array_equal(b.target_values, evaluate_target(t, b.points))


# -- empirical loss ------------------------------------------------------

def test_loss_zero_when_network_matches_target():
    d = 4
    z0 = sample_sphere_rows(d, 1, stream(3, "z"))[0]
    unit = RbfUnit(alpha=0.9, d=d)
    tgt = PlantedTarget(unit=unit, weights=np.array([1.7]), locations=z0[None, :])
    e = ParticleEnsemble(unit=unit, c=np.array([1.7]), z=z0[None, :])
    b = draw_batch(tgt, d, 200, stream(3, "b"))
    assert empirical_loss(e, b) == 0.0


def test_loss_with_zero_network_is_half_mean_square():
    t = SpinTensor.sample(5, 9)
    e = rbf_ensemble(5, 8, 1.0, 9, c=np.zeros(8))
    b = draw_batch(t, 5, 400, stream(9, "b"))
    # residual is the raw target, so the loss equals the target constant
    v = b.target_values
    assert empirical_loss(e, b) == 0.5 * np.mean(v * v)
    assert empirical_loss(e, b) >= 0.0


def test_loss_agrees_across_independent_batches():
    # two fresh 1e6 batches of the same zero network: same population mean
    t = SpinTensor.sample(5, 9)
    e = rbf_ensemble(5, 8, 1.0, 9, c=np.zeros(8))
    b1 = draw_batch(t, 5, 10**6, stream(9, "b", 0))
    b2 = draw_batch(t, 5, 10**6, stream(9, "b", 1))
    l1, l2 = empirical_loss(e, b1), empirical_loss(e, b2)
    se = []
    for b in (b1, b2):
        per_point = 0.5 * b.target_values**2
        se.append(np.std(per_point, ddof=1) / np.sqrt(b.P))
    assert abs(l1 - l2) <= 4.0 * float(np.hypot(*se))


def test_target_constant_is_half_second_moment():
    b = Batch(points=sample_sphere_rows(2, 4, stream(2, "x")),
              target_values=np.array([2.0, -4.0, 0.0, 2.0]))
    assert residual_loss(b.target_values) == 3.0
    e = rbf_ensemble(2, 3, 1.0, 2, c=np.zeros(3))
    assert empirical_loss(e, b) == 3.0


# -- streamed loss of a fresh batch --------------------------------------

def _unit(kind, d):
    return RbfUnit(alpha=5.0 / d, d=d) if kind == "rbf" else SigmoidUnit(d=d)


def _target(kind, e):
    if kind == "spin":
        return SpinTensor.sample(e.unit.d, 7)
    # the network itself as a mixture: the residual is rounding error, so a
    # target or network value that moves in its last bit moves the loss
    # (cut into chunks, the mixture's values do move)
    return PlantedTarget(unit=e.unit, weights=e.c / e.n, locations=e.z)


@pytest.mark.parametrize("target_kind", ["spin", "planted"])
@pytest.mark.parametrize("d", [3, 5, 10, 25])
@pytest.mark.parametrize("unit_kind", ["rbf", "sigmoid"])
def test_sampled_loss_equals_the_drawn_batch_loss_bitwise(unit_kind, d, target_kind):
    # the sizes straddle the 4096-row chunk; the n give network blocks of
    # 32768 // n rows that do and do not divide a chunk
    for n in (1, 3, 12, 64, 100, 256):
        e = InitSpec(c_law="normal").sample(_unit(unit_kind, d), n, stream(1, "init", n))
        t = _target(target_kind, e)
        for size in (1, 4095, 4097, 10000):
            want = empirical_loss(e, draw_batch(t, d, size, stream(3, "big")))
            assert diag._sampled_loss([e], t, size, stream(3, "big"))[0] == want, (n, size)


@pytest.mark.parametrize("target_kind", ["spin", "planted"])
@pytest.mark.parametrize("unit_kind", ["rbf", "sigmoid"])
def test_sampled_loss_of_a_group_is_each_ensembles_loss_bitwise(unit_kind, target_kind):
    # one draw for networks of every block shape: one row-block per chunk
    # (n = 1, 3), blocks that do not divide a chunk (100) and ones that do
    unit = _unit(unit_kind, 5)
    group = [InitSpec(c_law="normal").sample(unit, n, stream(2, "init", n))
             for n in (1, 3, 100, 256)]
    t = _target(target_kind, group[2]) if target_kind == "planted" else SpinTensor.sample(5, 7)
    for size in (1, 4095, 4096, 4097, 10000):
        gen = stream(3, "big").generator()
        got = diag._sampled_loss(group, t, size, gen)
        for e, loss in zip(group, got):
            alone = diag._sampled_loss([e], t, size, stream(3, "big"))
            assert alone == [loss], (e.n, size)
            assert empirical_loss(e, draw_batch(t, 5, size, stream(3, "big"))) == loss, (e.n, size)
        ref = stream(3, "big").generator()
        sample_sphere_rows(5, size, ref)
        assert gen.bit_generator.state == ref.bit_generator.state
    assert diag._sampled_loss([], t, 10, stream(3, "big")) == []


@pytest.mark.parametrize("n, size", [(1, 40000), (12, 10000), (100, 10000), (256, 4097)])
def test_sampled_loss_cuts_the_batch_where_the_whole_batch_is_cut(monkeypatch, n, size):
    # a row's network value moves in its last bits when the network meets
    # it in a block of another row count, which a mean can hide.  The
    # network walks every batch in 4096-row chunks and each chunk in blocks
    # of 32768 // n rows, so the streamed pass, which hands it one chunk at
    # a time, meets the same blocks as one call over the whole batch.  A
    # 3-spin value depends on its own row alone, so the 3-spin calls need
    # only cover the batch
    chunks = [4096] * (size // 4096) + [size % 4096]
    kernel, spin = units._kernel_sums_into, targets.SpinTensor._eval_into
    calls, spin_rows = [], []
    monkeypatch.setattr(units, "_kernel_sums_into",
                        lambda u, X, ZT, rhs, outs, F, *a: calls.append((len(X), len(F)))
                        or kernel(u, X, ZT, rhs, outs, F, *a))
    monkeypatch.setattr(targets.SpinTensor, "_eval_into",
                        lambda t, X, *a: spin_rows.append(len(X)) or spin(t, X, *a))
    e = InitSpec(c_law="normal").sample(SigmoidUnit(d=5), n, stream(1, "init", n))
    t = SpinTensor.sample(5, 7)
    network_eval_rows(e, sample_sphere_rows(5, size, stream(3, "big")))
    whole, calls[:] = calls[:], []
    diag._sampled_loss([e], t, size, stream(3, "big"))
    block = min(4096, _eval_block_rows(n))
    assert whole == [(m, block) for m in chunks]
    assert calls == [(m, min(m, block)) for m in chunks]
    assert sum(spin_rows) == size


def _short_row_floor_calls(monkeypatch, d, size, floor, n=64):
    """_sampled_loss of one sigmoid ensemble under the norm floor, with the
    rows of each draw and each network call, against the one-shot points,
    loss and generator state.  The points are compared too: a redraw moved
    to the end of the batch permutes the same rows, which the loss and the
    generator state can miss."""
    monkeypatch.setattr("spinnet.geometry._NORM_FLOOR", floor)
    t = SpinTensor.sample(d, 7)
    e = InitSpec(c_law="normal").sample(SigmoidUnit(d=d), n, stream(1, "init"))
    gen, ref = stream(5, "big").generator(), stream(5, "big").generator()
    batch = draw_batch(t, d, size, ref)
    want = empirical_loss(e, batch)
    calls, seen, draw, net = [], [], diag._sphere_rows_into, diag.network_eval_rows
    monkeypatch.setattr(diag, "_sphere_rows_into",
                        lambda d, g, X, *a: calls.append(("draw", len(X))) or draw(d, g, X, *a))
    monkeypatch.setattr(diag, "network_eval_rows",
                        lambda e, X: calls.append(("net", len(X))) or seen.append(X.copy())
                        or net(e, X))
    monkeypatch.setattr(diag, "draw_batch", lambda *a: calls.append("replay") or draw_batch(*a))
    assert diag._sampled_loss([e], t, size, gen) == [want]
    assert np.array_equal(np.concatenate(seen), batch.points)
    assert gen.bit_generator.state == ref.bit_generator.state
    return calls


def test_sampled_loss_replays_a_batch_with_short_rows(monkeypatch):
    # a floor of 2.0 makes short Gaussian rows common at d = 3, so the
    # first chunk redraws some of its rows before the second is drawn, as
    # the one-shot sampler does; each chunk is still drawn and valued once
    calls = _short_row_floor_calls(monkeypatch, 3, 5000, 2.0)
    assert calls == [("draw", 4096), ("net", 4096), ("draw", 904), ("net", 904)]


def test_sampled_loss_replays_a_batch_with_short_rows_in_a_later_chunk(monkeypatch):
    # a floor between the smallest norm of the first chunk and that of the
    # batch leaves the first chunk whole, so the first redraw comes after a
    # chunk went through the network
    d, size = 3, 10000
    nrm = np.linalg.norm(stream(5, "big").generator().standard_normal((size, d)), axis=1)
    assert nrm.min() < nrm[:4096].min()
    floor = 0.5 * (nrm.min() + nrm[:4096].min())
    calls = _short_row_floor_calls(monkeypatch, d, size, floor)
    assert calls == [("draw", 4096), ("net", 4096)] * 2 + [("draw", 1808), ("net", 1808)]


def test_sampled_loss_validation():
    e = InitSpec(c_law="normal").sample(SigmoidUnit(d=3), 4, stream(1, "init"))
    with pytest.raises(EmptyBatchError):
        diag._sampled_loss([e], SpinTensor.sample(3, 7), 0, stream(3, "big"))
    with pytest.raises(DimensionMismatchError, match="tensor d = 4"):
        diag._sampled_loss([e], SpinTensor.sample(4, 7), 10, stream(3, "big"))
    # an object that is not a target is refused before a point is drawn
    gen = stream(3, "big").generator()
    state = gen.bit_generator.state
    for bad in (lambda X: np.sum(X, axis=1), "not a target"):
        with pytest.raises(TypeError, match="cannot train on"):
            diag._sampled_loss([e], bad, 10, gen)
    assert gen.bit_generator.state == state


def test_sampled_loss_evaluates_a_planted_target_as_one_chunk(monkeypatch):
    # a planted target moves bits when its batch is cut, so the streamed
    # loop takes its whole batch as one chunk and never replays it
    size = 10000
    e = InitSpec(c_law="normal").sample(SigmoidUnit(d=5), 12, stream(1, "init"))
    t = _target("planted", e)
    want = empirical_loss(e, draw_batch(t, 5, size, stream(3, "big")))
    calls, net = [], diag.network_eval_rows
    monkeypatch.setattr(diag, "network_eval_rows",
                        lambda e, X: calls.append(len(X)) or net(e, X))
    monkeypatch.setattr(diag, "draw_batch", lambda *a: calls.append("replay") or draw_batch(*a))
    assert diag._sampled_loss([e], t, size, stream(3, "big"))[0] == want
    assert calls == [size]


def test_sampled_loss_keeps_no_batch_sized_array():
    # a (size,) residual is 1.6 MB; the streamed call holds one chunk's
    # points and values (0.36 MB) and the scratch of one step at a time:
    # the sampler's, the 3-spin blocks' or one network's 256 KB feature
    # block, which a sigmoid network doubles with its logistic scratch and
    # its lifted rows (0.26 MB at n = 64, 0.18 MB more at n = 16)
    size, d = 200_000, 10
    t = SpinTensor.sample(d, 7)
    for unit, ns in ((RbfUnit(alpha=0.5, d=d), (16, 64, 256)), (SigmoidUnit(d=d), (64,))):
        group = [InitSpec(c_law="normal").sample(unit, n, stream(1, "init", n)) for n in ns]
        tracemalloc.start()
        try:
            diag._sampled_loss(group, t, size, stream(3, "big"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (unit, peak)


@pytest.mark.parametrize("call", ["draw_batch", "sampled_loss"])
def test_spin3_scratch_stays_cache_sized(call):
    # a 4096-row chunk's (4096, d^2) scratch is 20 MB at d = 25; the 3-spin
    # blocks of 2^15 entries hold 256 KB.  Besides it, each call holds two
    # (4096, d) arrays at once, the points and the sampler's or the sphere
    # check's scratch, and a few (4096,) vectors
    d, size = 25, 4096
    t = SpinTensor.sample(d, 7)
    e = InitSpec(c_law="normal").sample(SigmoidUnit(d=d), 1, stream(1, "init"))
    tracemalloc.start()
    try:
        if call == "draw_batch":
            draw_batch(t, d, size, stream(3, "big"))
        else:
            diag._sampled_loss([e], t, size, stream(3, "big"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * size * d * 8 < 1 << 20


# -- exact rbf loss ------------------------------------------------------

def test_exact_loss_zero_weights():
    t = SpinTensor.sample(3, 7)
    e = rbf_ensemble(3, 5, 0.8, 7, c=np.zeros(5))
    assert rbf_exact_loss(e, t) == 0.0


def test_exact_loss_matches_double_loop():
    t = SpinTensor.sample(3, 7)
    e = rbf_ensemble(3, 13, 0.6, 7)
    want = pair_loss_loop(e.c, e.z, evaluate_target(t, e.z), 0.6)
    got = rbf_exact_loss(e, t)
    assert got == pytest.approx(want, rel=1e-12)


def test_exact_loss_single_particle_quadratic():
    # n = 1: L(c) = -c f(z) + c^2 exp(alpha d) / 2, minimized at
    # c* = f(z) exp(-alpha d) with L(c*) = -f(z)^2 exp(-alpha d) / 2
    d, alpha = 4, 0.8
    t = SpinTensor.sample(d, 11)
    z = sample_sphere_rows(d, 1, stream(11, "z"))
    f = float(evaluate_target(t, z)[0])
    cstar = f * math.exp(-alpha * d)

    def loss(c):
        e = ParticleEnsemble(unit=RbfUnit(alpha=alpha, d=d),
                             c=np.array([c]), z=z)
        return rbf_exact_loss(e, t)

    assert loss(cstar) == pytest.approx(-0.5 * f * f * math.exp(-alpha * d), rel=1e-12)
    assert loss(cstar + 0.1) > loss(cstar)
    assert loss(cstar - 0.1) > loss(cstar)
    # the linear term cancels in L(1) + L(-1), leaving the curvature
    assert loss(1.0) + loss(-1.0) == pytest.approx(math.exp(alpha * d), rel=1e-12)


def test_pair_terms_chunking_is_invisible(monkeypatch):
    e = rbf_ensemble(3, 29, 0.6, 7)
    g0, q0 = rbf_pair_terms(e)
    monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", 8)
    g1, q1 = rbf_pair_terms(e)
    # row blocks of different heights may reassociate the BLAS sums
    assert np.allclose(g1, g0, rtol=1e-13, atol=0.0)
    assert q1 == pytest.approx(q0, rel=1e-13)


def test_exact_loss_requires_rbf():
    unit = SigmoidUnit(d=3)
    e = ParticleEnsemble(unit=unit, c=np.ones(2),
                         z=np.zeros((2, 4)))
    with pytest.raises(InvalidDimensionError):
        rbf_exact_loss(e, SpinTensor.sample(3, 1))


# -- signed errors -------------------------------------------------------

def test_signed_error_hand_values():
    # zero network, dyadic targets: the masked means are exact
    X = sample_sphere_rows(3, 8, stream(4, "x"))
    v = np.array([2.0, -1.0, 0.0, 4.0, -8.0, 16.0, 0.0, 3.0])
    b = Batch(points=X, target_values=v)
    e = rbf_ensemble(3, 5, 1.0, 4, c=np.zeros(5))
    plus, minus, both = signed_error_summary(e, b)
    assert (plus, minus, both) == (25.0 / 8.0, -9.0 / 8.0, 2.0)


def test_signed_error_zero_residual():
    d = 4
    z0 = sample_sphere_rows(d, 1, stream(6, "z"))[0]
    unit = RbfUnit(alpha=0.9, d=d)
    tgt = PlantedTarget(unit=unit, weights=np.array([1.3]), locations=z0[None, :])
    e = ParticleEnsemble(unit=unit, c=np.array([1.3]), z=z0[None, :])
    b = draw_batch(tgt, d, 100, stream(6, "b"))
    plus, minus, _ = signed_error_summary(e, b)
    assert (plus, minus) == (0.0, 0.0)


def test_split_is_exact_identity():
    t = SpinTensor.sample(5, 13)
    e = rbf_ensemble(5, 20, 1.0, 13)
    b = draw_batch(t, 5, 997, stream(13, "b"))
    plus, minus, both = signed_error_summary(e, b)
    assert plus + minus == both  # exact, not approximate
    # and the assembled value is the residual mean over f != 0
    r = batch_residual(e, b)
    mask = b.target_values != 0.0
    assert both == pytest.approx(float(np.sum(r[mask])) / b.P, rel=1e-12, abs=1e-15)


def test_zero_target_points_are_excluded():
    # nonzero residual at f = 0 points must not leak into either side
    d = 3
    X = sample_sphere_rows(d, 6, stream(8, "x"))
    v = np.array([1.0, 0.0, -2.0, 0.0, 3.0, -1.0])
    b = Batch(points=X, target_values=v)
    e = rbf_ensemble(d, 4, 0.7, 8)  # nonzero network everywhere
    r = batch_residual(e, b)
    assert np.all(r[v == 0.0] != 0.0)
    plus, minus, both = signed_error_summary(e, b)
    assert both != pytest.approx(float(np.mean(r)))
    assert both == pytest.approx(float(np.sum(r[v != 0.0])) / b.P, rel=1e-12)


# -- tangent kernel gram -------------------------------------------------

def test_gram_zero_weights_is_feature_gram():
    e = rbf_ensemble(3, 6, 0.8, 21, c=np.zeros(6))
    X = sample_sphere_rows(3, 4, stream(21, "probes"))
    F = e.unit.features(X, e.z)
    want = (F @ F.T) / e.n
    assert np.allclose(tangent_kernel_gram(e, X), want, rtol=1e-13, atol=0.0)


def test_gram_matches_triple_loop_rbf():
    e = rbf_ensemble(3, 6, 0.8, 22)
    X = sample_sphere_rows(3, 4, stream(22, "probes"))
    M = tangent_kernel_gram(e, X)
    want = gram_loop(e.unit, e.c, e.z, X)
    assert np.allclose(M, want, rtol=1e-12, atol=1e-14)


def test_gram_matches_triple_loop_sigmoid():
    d, n = 3, 5
    unit = SigmoidUnit(d=d)
    gen = stream(23, "params").generator()
    Z = gen.normal(size=(n, d + 1))
    c = gen.uniform(-1.0, 1.0, size=n)
    e = ParticleEnsemble(unit=unit, c=c, z=Z)
    X = sample_sphere_rows(d, 3, stream(23, "probes"))
    M = tangent_kernel_gram(e, X)
    want = gram_loop(unit, c, Z, X)
    assert np.allclose(M, want, rtol=1e-12, atol=1e-14)


def test_gram_is_symmetric_and_near_psd():
    e = rbf_ensemble(5, 200, 1.0, 24)
    X = sample_sphere_rows(5, 20, stream(24, "probes"))
    M = tangent_kernel_gram(e, X)
    assert np.array_equal(M, M.T)
    assert float(np.linalg.eigvalsh(M)[0]) >= -1e-8


def test_gram_single_probe_nonnegative():
    e = rbf_ensemble(4, 10, 0.9, 25)
    X = sample_sphere_rows(4, 1, stream(25, "probes"))
    M = tangent_kernel_gram(e, X)
    assert M.shape == (1, 1) and M[0, 0] >= 0.0


# -- initialization fluctuations -----------------------------------------

def test_fluctuation_zero_init_is_degenerate():
    unit = RbfUnit(alpha=0.7, d=3)
    probe = sample_sphere_rows(3, 1, stream(70, "probe"))[0]
    m, p = init_fluctuation_variance(InitSpec(c_law="zero"), unit, 4,
                                     probe, seeds=5, seed=70, param_draws=100)
    assert m == 0.0 and p == 0.0


def test_fluctuation_measured_side_is_reproducible():
    # the measured side is a plain sample variance over keyed streams
    unit = RbfUnit(alpha=0.7, d=3)
    init = InitSpec(c_law=("uniform", -1.0, 1.0))
    probe = sample_sphere_rows(3, 1, stream(71, "probe"))[0]
    n, seeds, seed = 4, 40, 71
    m, _ = init_fluctuation_variance(init, unit, n, probe,
                                     seeds=seeds, seed=seed, param_draws=100)
    vals = np.empty(seeds)
    for s in range(seeds):
        ens = init.sample(unit, n, stream(seed, "fluct-measure", s))
        vals[s] = network_eval_rows(ens, probe[None, :])[0]
    assert m == float(n * np.var(vals, ddof=1))


def test_fluctuation_matches_single_unit_variance():
    # n * Var[f^(n)] should approach Var[c phihat] for iid particles
    unit = RbfUnit(alpha=0.7, d=3)
    init = InitSpec(c_law=("uniform", -1.0, 1.0))
    probe = sample_sphere_rows(3, 1, stream(77, "probe"))[0]
    m, p = init_fluctuation_variance(init, unit, 4, probe,
                                     seeds=1000, seed=77, param_draws=10**5)
    assert m == pytest.approx(p, rel=0.15)


# -- slope fits ----------------------------------------------------------

def test_slope_exact_power_laws():
    for truth in (-1.0, -2.0):
        pts = [(n, 3.0 * n**truth, None) for n in (10, 100, 1000, 10000)]
        slope, err = fit_scaling_slope(pts)
        assert slope == pytest.approx(truth, abs=1e-10)
        assert err < 1e-10


def test_slope_weighted_matches_hand_formula():
    pts = [(10.0, 2.0, 0.2), (100.0, 0.9, 0.05), (1000.0, 0.4, 0.1)]
    slope, err = fit_scaling_slope(pts)
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    w = np.array([(p[1] / p[2]) ** 2 for p in pts])
    xb = np.sum(w * x) / np.sum(w)
    yb = np.sum(w * y) / np.sum(w)
    sxx = float(np.sum(w * (x - xb) ** 2))
    want = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    assert slope == pytest.approx(want, rel=1e-13)
    assert err == pytest.approx(math.sqrt(1.0 / sxx), rel=1e-13)


def test_slope_recovers_noisy_power_law():
    rng = np.random.default_rng(556)
    pts = []
    for n in (100, 316, 1000, 3162, 10000):
        mean_true = 5.0 / n
        sem = 0.05 * mean_true
        pts.append((n, mean_true + sem * rng.standard_normal(), sem))
    slope, err = fit_scaling_slope(pts)
    assert abs(slope + 1.0) <= 3.0 * err


def test_slope_fit_validation():
    with pytest.raises(ReportError):
        fit_scaling_slope([(10, 1.0, None), (10, 0.9, None), (10, 0.8, None)])
    with pytest.raises(ReportError):
        fit_scaling_slope([(10, 1.0, None), (20, 2.0, None)])
    with pytest.raises(ReportError):
        fit_scaling_slope([(10, 1.0, None), (20, -2.0, None), (30, 1.0, None)])
    with pytest.raises(ReportError):
        fit_scaling_slope([(-10, 1.0, None), (20, 2.0, None), (30, 1.0, None)])


def test_slope_mixed_sems_fall_back_to_unweighted():
    pts_none = [(n, 3.0 / n, None) for n in (10, 100, 1000)]
    pts_mixed = [(10, 3.0 / 10, 0.01), (100, 3.0 / 100, None), (1000, 3.0 / 1000, 0.01)]
    assert fit_scaling_slope(pts_mixed) == fit_scaling_slope(pts_none)


# -- slices --------------------------------------------------------------

def test_great_circle_geometry():
    d = 4
    e = rbf_ensemble(d, 3, 0.8, 30, c=np.zeros(3))
    t = SpinTensor.sample(d, 30)
    out = great_circle_slice(e, t, 0, 2, resolution=33)
    assert out["theta"][0] == 0.0 and out["theta"][-1] == pytest.approx(2.0 * np.pi)
    assert np.array_equal(out["network"], np.zeros(33))
    # first sample sits at sqrt(d) e_0 exactly
    x0 = np.zeros(d)
    x0[0] = np.sqrt(d)
    assert out["target"][0] == evaluate_target(t, x0[None, :])[0]


def test_great_circle_points_stay_on_sphere():
    d = 5
    e = rbf_ensemble(d, 3, 0.8, 31)
    t = SpinTensor.sample(d, 31)
    out = great_circle_slice(e, t, 1, 3, resolution=64)
    theta = out["theta"]
    X = np.zeros((64, d))
    X[:, 1] = np.sqrt(d) * np.cos(theta)
    X[:, 3] = np.sqrt(d) * np.sin(theta)
    assert np.allclose(np.linalg.norm(X, axis=1), np.sqrt(d), rtol=1e-12)
    assert np.array_equal(out["network"], network_eval_rows(e, X))


def test_great_circle_validation():
    e = rbf_ensemble(3, 2, 1.0, 32)
    t = SpinTensor.sample(3, 32)
    with pytest.raises(InvalidDimensionError):
        great_circle_slice(e, t, 1, 1, 16)
    with pytest.raises(InvalidDimensionError):
        great_circle_slice(e, t, 0, 3, 16)
    with pytest.raises(InvalidDimensionError):
        great_circle_slice(e, t, 0, 1, 1)


def test_two_angle_slice_geometry():
    d = 4
    e = rbf_ensemble(d, 3, 0.8, 33)
    t = SpinTensor.sample(d, 33)
    res = 17
    out = two_angle_slice(e, t, resolution=res)
    assert out["theta"].shape == (res * res,)
    X = np.zeros((res * res, d))
    X[:, 0] = np.sqrt(d) * np.sin(out["theta"]) * np.cos(out["phi"])
    X[:, 1] = np.sqrt(d) * np.sin(out["theta"]) * np.sin(out["phi"])
    X[:, 2] = np.sqrt(d) * np.cos(out["theta"])
    assert np.allclose(np.linalg.norm(X, axis=1), np.sqrt(d), rtol=1e-12)
    # theta = 0 pins the north pole sqrt(d) e_2 exactly
    x0 = np.zeros(d)
    x0[2] = np.sqrt(d)
    assert out["target"][0] == evaluate_target(t, x0[None, :])[0]


def test_two_angle_slice_needs_three_dims():
    e = rbf_ensemble(2, 2, 1.0, 34)
    t = SpinTensor.sample(2, 34)
    with pytest.raises(InvalidDimensionError):
        two_angle_slice(e, t, 8)
    e3 = rbf_ensemble(3, 2, 1.0, 34)
    with pytest.raises(InvalidDimensionError):
        two_angle_slice(e3, SpinTensor.sample(3, 34), 1)


# -- reports -------------------------------------------------------------

def make_report(rows=3):
    gen = np.random.default_rng(40)
    series = {}
    for name in REPORT_COLUMNS:
        if name == "step":
            series[name] = np.arange(rows, dtype=np.int64) * 10
        elif name == "P":
            series[name] = np.full(rows, 64, dtype=np.int64)
        else:
            series[name] = gen.uniform(-1.0, 1.0, size=rows)
    series["batch_loss"][0] = math.nan
    series["loss"][0] = math.pi
    series["time"][-1] = 1.0 / 3.0
    series["c_absmax"][-1] = 1e300
    series["sigma"][0] = 5e-324
    return ExperimentReport(
        meta={"config_hash": "abc123", "master_seed": 7, "tensor": "spin3:5:9"},
        series=series,
        summaries={"slope": -1.25},
    )


def test_report_round_trips_bitwise(tmp_path):
    r = make_report()
    path = tmp_path / "r.csv"
    r.to_csv(path)
    back = read_report(path)
    assert back.meta == r.meta
    assert back.summaries == r.summaries
    assert back.rows == r.rows
    for name in REPORT_COLUMNS:
        a, b = np.asarray(r.series[name]), back.series[name]
        # repr cells carry the full 17 significant digits
        assert np.array_equal(a, b, equal_nan=True), name
    assert back.series["step"].dtype == np.int64


def _write_report(path, meta):
    r = make_report()
    ExperimentReport(meta={**r.meta, **meta}, series=r.series, summaries=r.summaries).to_csv(path)


def _write_checkpoint(path, meta):
    unit = RbfUnit(alpha=1.0, d=3)
    e = ParticleEnsemble(unit=unit, c=np.ones(2), z=sample_sphere_rows(3, 2, stream(5, "z")))
    save_checkpoint(path, e, 7, meta)


def _write_summary(path, meta):
    write_summary(path, {"cells": 3, **meta})


@pytest.mark.parametrize("write", [_write_report, _write_checkpoint, _write_summary],
                         ids=["report", "checkpoint", "summary"])
def test_failed_write_keeps_the_old_file(tmp_path, write):
    # the serializer raises after it has written part of the new file
    path = tmp_path / "artifact"
    write(path, {"config_hash": "old", "master_seed": 1})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        write(path, {"config_hash": "new", "master_seed": 1, "zz": object()})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    write(path, {"config_hash": "new", "master_seed": 1})
    assert path.read_bytes() != old


def test_report_validation():
    r = make_report()
    bad = dict(r.series)
    del bad["loss"]
    with pytest.raises(ReportError):
        ExperimentReport(meta=r.meta, series=bad)
    ragged = dict(r.series)
    ragged["loss"] = np.zeros(99)
    with pytest.raises(ReportError):
        ExperimentReport(meta=r.meta, series=ragged)
    stuck = {k: np.asarray(v).copy() for k, v in r.series.items()}
    stuck["step"] = np.array([0, 0, 1])
    with pytest.raises(ReportError):
        ExperimentReport(meta=r.meta, series=stuck)
    with pytest.raises(ReportError):
        ExperimentReport(meta={"config_hash": "x"}, series=r.series)


def test_read_report_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("hello\n")
    with pytest.raises(ReportError):
        read_report(p)
    p.write_text("# spinnet-report v1\n" + ",".join(REPORT_COLUMNS) + "\n")
    with pytest.raises(ReportError):  # no meta line
        read_report(p)
    p.write_text("# spinnet-report v1\n# meta {\"config_hash\": \"a\", "
                 "\"master_seed\": 1}\nstep,wrong\n")
    with pytest.raises(ReportError):
        read_report(p)
