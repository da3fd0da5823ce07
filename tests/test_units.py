"""Units, network evaluation, and the batch kernel estimators."""
import json

import numpy as np
import pytest

import spinnet.units as units
from spinnet.diagnostics import draw_batch
from spinnet.geometry import sample_sphere_rows
from spinnet.rng import stream
from spinnet.targets import PlantedTarget, SpinTensor
from spinnet.units import (
    ParticleEnsemble,
    RbfUnit,
    SigmoidUnit,
    UnitMismatchError,
    network_eval_rows,
    target_overlap_mc,
    unit_from_dict,
    unit_kernel_mc,
    weighted_kernel_gram,
)


def central_diff(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


# -- pointwise unit values ----------------------------------------------------

def test_rbf_alpha_zero_is_constant_one():
    unit = RbfUnit(alpha=0.0, d=4)
    X = sample_sphere_rows(4, 6, stream(0, "x"))
    Z = sample_sphere_rows(4, 3, stream(0, "z"))
    assert np.array_equal(unit.features(X, Z), np.ones((6, 3)))


def test_rbf_orthogonal_arguments():
    unit = RbfUnit(alpha=1.0, d=2)
    x = np.array([np.sqrt(2.0), 0.0])
    z = np.array([0.0, np.sqrt(2.0)])
    assert unit.eval_one(x, z) == 1.0


def test_rbf_from_gaussian_absorbs_the_constant():
    # exp(-k/2 |x-z|^2) = exp(-k d) * phihat(x,z) on the sphere of radius sqrt(d)
    kappa, d = 0.6, 5
    unit = RbfUnit(alpha=kappa, d=d)
    x = sample_sphere_rows(d, 1, stream(1, "x"))[0]
    z = sample_sphere_rows(d, 1, stream(1, "z"))[0]
    bump = np.exp(-0.5 * kappa * np.sum((x - z) ** 2))
    assert abs(bump - np.exp(-kappa * d) * unit.eval_one(x, z)) < 1e-15


def test_rbf_rejects_negative_alpha():
    with pytest.raises(ValueError):
        RbfUnit(alpha=-1.0, d=3)
    with pytest.raises(ValueError):
        RbfUnit(alpha=float("nan"), d=3)
    # alpha * d = 1000 > ln(DBL_MAX): the kernel peak exp(alpha d) overflows
    with pytest.raises(ValueError, match="overflows the rbf kernel"):
        RbfUnit(alpha=200.0, d=5)


def test_sigmoid_midpoint():
    unit = SigmoidUnit(d=3)
    x = sample_sphere_rows(3, 1, stream(2, "x"))[0]
    z = np.concatenate([np.zeros(3), [0.0]])  # a = 0, b = 0
    assert unit.eval_one(x, z) == 0.5


def test_sigmoid_is_overflow_safe():
    unit = SigmoidUnit(d=2)
    x = np.array([1.0, 1.0])
    hi = np.array([0.0, 0.0, 1e4])
    lo = np.array([0.0, 0.0, -1e4])
    with np.errstate(over="raise"):
        assert unit.eval_one(x, hi) == 1.0
        assert unit.eval_one(x, lo) == 0.0


def test_sigmoid_features_are_overflow_safe_on_arrays():
    # a = 0, so the preactivations are exactly the biases +-1e4
    unit = SigmoidUnit(d=2)
    X = np.array([[1.0, 1.0], [-1.0, 1.0], [0.5, -2.0]])
    Z = np.array([[0.0, 0.0, 1e4], [0.0, 0.0, -1e4]])
    with np.errstate(over="raise"):
        F = unit.features(X, Z)
    assert np.array_equal(F, np.array([[1.0, 0.0]] * 3))


def _logistic_where_reference(u):
    # the select written with np.where: 1 where u >= 0, exp(-|u|) elsewhere
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def test_logistic_matches_the_where_select_bitwise():
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e4, -1e4,
             5e-324, -5e-324, 36.0, -36.0, 710.0, -710.0]
    rand = stream(4, "u").generator().standard_normal(2000) * 20.0
    u = np.concatenate([edges, rand])
    with np.errstate(over="raise"):
        got = units._logistic(u.copy())
    assert got.tobytes() == _logistic_where_reference(u).tobytes()
    for v in (0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 3.25, -3.25):
        got = units._logistic(np.asarray(v))
        assert got.shape == ()
        assert got.tobytes() == _logistic_where_reference(v).tobytes()
    assert units._logistic(np.asarray(-745.0)) > 0.0  # exp(-745) is subnormal, not 0


# -- parameter gradients ------------------------------------------------------

def test_rbf_grad_alpha_zero():
    unit = RbfUnit(alpha=0.0, d=3)
    x = sample_sphere_rows(3, 1, stream(3, "x"))[0]
    z = sample_sphere_rows(3, 1, stream(3, "z"))[0]
    assert np.array_equal(unit.grad_param(x, z), np.zeros(3))


def test_sigmoid_grad_at_midpoint():
    unit = SigmoidUnit(d=2)
    x = np.array([1.0, 0.0])
    z = np.zeros(3)
    assert np.array_equal(unit.grad_param(x, z), np.array([0.25, 0.0, 0.25]))


@pytest.mark.parametrize("kind", ["rbf", "sigmoid"])
def test_grad_param_matches_finite_differences(kind):
    d = 5
    unit = RbfUnit(alpha=1.0, d=d) if kind == "rbf" else SigmoidUnit(d=d)
    gen = stream(4, kind).generator()
    for _ in range(20):
        x = sample_sphere_rows(d, 1, gen)[0]
        if kind == "rbf":
            z = sample_sphere_rows(d, 1, gen)[0]
        else:
            z = gen.standard_normal(d + 1)
        got = unit.grad_param(x, z)
        want = central_diff(lambda p: unit.eval_one(x, p), z)
        assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["rbf", "sigmoid"])
def test_grad_input_matches_finite_differences(kind):
    d = 4
    unit = RbfUnit(alpha=0.8, d=d) if kind == "rbf" else SigmoidUnit(d=d)
    gen = stream(5, kind).generator()
    X = sample_sphere_rows(d, 6, gen)
    z = sample_sphere_rows(d, 1, gen)[0] if kind == "rbf" else gen.standard_normal(d + 1)
    got = unit.grad_input(X, z)
    for p in range(6):
        want = central_diff(lambda x: unit.eval_one(x, z), X[p])
        assert np.max(np.abs(got[p] - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["rbf", "sigmoid"])
def test_grad_param_all_stacks_single_gradients(kind):
    d = 3
    unit = RbfUnit(alpha=1.1, d=d) if kind == "rbf" else SigmoidUnit(d=d)
    gen = stream(6, kind).generator()
    X = sample_sphere_rows(d, 5, gen)
    Z = sample_sphere_rows(d, 4, gen) if kind == "rbf" else gen.standard_normal((4, d + 1))
    G = unit.grad_param_all(X, Z)
    assert G.shape == (5, 4, unit.param_dim)
    for p in range(5):
        for i in range(4):
            assert np.max(np.abs(G[p, i] - unit.grad_param(X[p], Z[i]))) < 1e-14


@pytest.mark.parametrize("kind", ["rbf", "sigmoid"])
def test_weighted_grad_sum_matches_loop(kind):
    d = 3
    unit = RbfUnit(alpha=0.9, d=d) if kind == "rbf" else SigmoidUnit(d=d)
    gen = stream(7, kind).generator()
    X = sample_sphere_rows(d, 8, gen)
    Z = sample_sphere_rows(d, 3, gen) if kind == "rbf" else gen.standard_normal((3, d + 1))
    W = gen.standard_normal((8, 3))  # per point-particle pair
    got = unit.weighted_grad_sum(X, Z, W)
    want = np.zeros((3, unit.param_dim))
    for p in range(8):
        for i in range(3):
            want[i] += W[p, i] * unit.grad_param(X[p], Z[i])
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


# -- network evaluation -------------------------------------------------------

def test_network_zero_weights():
    unit = RbfUnit(alpha=1.0, d=3)
    e = ParticleEnsemble(unit=unit, c=np.zeros(5),
                         z=sample_sphere_rows(3, 5, stream(8, "z")))
    X = sample_sphere_rows(3, 7, stream(8, "x"))
    assert np.array_equal(network_eval_rows(e, X), np.zeros(7))


def test_network_single_particle_is_the_unit():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(9, "z"))
    e = ParticleEnsemble(unit=unit, c=np.array([1.0]), z=z)
    x = sample_sphere_rows(3, 1, stream(9, "x"))[0]
    assert network_eval_rows(e, x[None])[0] == unit.eval_one(x, z[0])


def test_network_matches_hand_sum():
    unit = SigmoidUnit(d=2)
    c = np.array([1.5, -2.0, 0.5])
    Z = np.array([[0.3, -0.1, 0.2],
                  [-0.5, 0.4, 0.0],
                  [1.0, 1.0, -0.7]])
    e = ParticleEnsemble(unit=unit, c=c, z=Z)
    x = np.array([np.sqrt(2.0), 0.0])
    def h(u):
        return 1.0 / (1.0 + np.exp(-u))
    want = (c[0] * h(Z[0, :2] @ x + Z[0, 2])
            + c[1] * h(Z[1, :2] @ x + Z[1, 2])
            + c[2] * h(Z[2, :2] @ x + Z[2, 2])) / 3.0
    assert abs(network_eval_rows(e, x[None])[0] - want) < 1e-15


def test_network_is_linear_in_c():
    unit = RbfUnit(alpha=1.0, d=4)
    gen = stream(10, "lin").generator()
    Z = sample_sphere_rows(4, 20, gen)
    c1 = gen.standard_normal(20)
    c2 = gen.standard_normal(20)
    X = sample_sphere_rows(4, 15, gen)
    both = network_eval_rows(ParticleEnsemble(unit=unit, c=c1 + c2, z=Z), X)
    split = (network_eval_rows(ParticleEnsemble(unit=unit, c=c1, z=Z), X)
             + network_eval_rows(ParticleEnsemble(unit=unit, c=c2, z=Z), X))
    assert np.max(np.abs(both - split)) < 1e-12 * max(1.0, np.max(np.abs(both)))


def test_network_of_no_points_is_empty():
    # the block scratch is sized from the row count; an empty walk still
    # needs a nonzero block size
    for unit in (RbfUnit(alpha=1.0, d=3), SigmoidUnit(d=3)):
        gen = stream(13, "empty").generator()
        e = ParticleEnsemble(unit=unit, c=gen.standard_normal(6), z=unit.init_rows(6, gen))
        out = network_eval_rows(e, np.empty((0, 3)))
        assert out.shape == (0,)


@pytest.mark.parametrize("unit", [RbfUnit(alpha=1.0, d=4), SigmoidUnit(d=4)],
                         ids=["rbf", "sigmoid"])
def test_network_is_the_blockwise_feature_sum_bitwise(unit):
    # 3000 points at n = 40 walk four blocks of 819 rows and a short one;
    # each block's values are features(X_block, z) @ c / n bit for bit
    gen = stream(14, "blocks").generator()
    n = 40
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(n), z=unit.init_rows(n, gen))
    X = sample_sphere_rows(4, 3000, gen)
    rows = units._eval_block_rows(n)
    assert rows < X.shape[0]
    want = np.concatenate([unit.features(X[lo : lo + rows], e.z) @ e.c
                           for lo in range(0, X.shape[0], rows)]) / n
    assert np.array_equal(network_eval_rows(e, X), want)


def test_network_chunking_is_invisible(monkeypatch):
    # different block sizes may reassociate the BLAS sums, so compare to a
    # tolerance rather than bitwise
    unit = RbfUnit(alpha=1.0, d=3)
    gen = stream(11, "chunk").generator()
    e = ParticleEnsemble(unit=unit, c=gen.standard_normal(10),
                         z=sample_sphere_rows(3, 10, gen))
    X = sample_sphere_rows(3, 101, gen)
    b = network_eval_rows(e, X)
    monkeypatch.setattr(units, "_EVAL_BLOCK_ENTRIES", 8)  # one row per block
    a = network_eval_rows(e, X)
    assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(b)))


# -- ensemble validation and serialization ------------------------------------

def test_ensemble_validates_shapes_and_sphere():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 2, stream(12, "z"))
    with pytest.raises(UnitMismatchError):
        ParticleEnsemble(unit=unit, c=np.zeros(0), z=np.zeros((0, 3)))
    with pytest.raises(UnitMismatchError):
        ParticleEnsemble(unit=unit, c=np.ones(3), z=z)
    with pytest.raises(ValueError):
        ParticleEnsemble(unit=unit, c=np.ones(2), z=1.5 * z)  # off the sphere
    # sigmoid parameters are unconstrained
    su = SigmoidUnit(d=3)
    ParticleEnsemble(unit=su, c=np.ones(2), z=np.full((2, 4), 37.0))


def test_ensemble_roundtrip_is_bitwise():
    gen = stream(13, "rt").generator()
    for unit in (RbfUnit(alpha=1.7, d=4), SigmoidUnit(d=4)):
        n = 9
        z = sample_sphere_rows(4, n, gen) if unit.constrained else gen.standard_normal((n, 5))
        e = ParticleEnsemble(unit=unit, c=gen.standard_normal(n), z=z)
        # through JSON text, as a checkpoint stores it
        e2 = ParticleEnsemble.from_dict(json.loads(json.dumps(e.to_dict())))
        assert np.array_equal(e.c, e2.c)
        assert np.array_equal(e.z, e2.z)
        assert e2.unit.to_dict() == unit.to_dict()


def test_unit_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        unit_from_dict({"kind": "relu", "d": 3})


@pytest.mark.parametrize("blob", [
    {"kind": "rbf", "alpha": True, "d": 2},
    {"kind": "rbf", "alpha": 1.0, "d": 2.5},
    {"kind": "rbf", "alpha": 1.0, "d": 2.0},
    {"kind": "sigmoid", "d": True},
    {"kind": "sigmoid", "d": "3"},
])
def test_unit_from_dict_converts_nothing(blob):
    # int() and float() would read each of these as another unit
    with pytest.raises(UnitMismatchError):
        unit_from_dict(blob)


def test_unit_from_dict_reads_numbers_as_written():
    assert unit_from_dict({"kind": "rbf", "alpha": 2, "d": 3}) == RbfUnit(alpha=2.0, d=3)
    assert unit_from_dict({"kind": "sigmoid", "d": 3}) == SigmoidUnit(d=3)
    with pytest.raises(TypeError):
        unit_from_dict({"kind": "rbf", "alpha": "1.5", "d": 2})


# -- batch kernel estimators --------------------------------------------------

def test_khat_diagonal_is_nonnegative():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(14, "z"))[0]
    X = sample_sphere_rows(3, 64, stream(14, "x"))
    assert unit_kernel_mc(unit, z, z, X) >= 0.0


def test_khat_sigmoid_zero_params_is_exactly_quarter():
    unit = SigmoidUnit(d=3)
    z = np.zeros(4)
    X = sample_sphere_rows(3, 37, stream(15, "x"))  # odd P on purpose
    assert unit_kernel_mc(unit, z, z, X) == 0.25


def test_khat_is_bitwise_symmetric():
    unit = RbfUnit(alpha=1.2, d=5)
    gen = stream(16, "sym").generator()
    X = sample_sphere_rows(5, 128, gen)
    z1 = sample_sphere_rows(5, 1, gen)[0]
    z2 = sample_sphere_rows(5, 1, gen)[0]
    assert unit_kernel_mc(unit, z1, z2, X) == unit_kernel_mc(unit, z2, z1, X)


def test_khat_monte_carlo_consistency():
    unit = SigmoidUnit(d=4)
    gen = stream(17, "mc").generator()
    z1 = gen.standard_normal(5)
    z2 = gen.standard_normal(5)
    P = 10**6
    ests, ses = [], []
    for tag in ("a", "b"):
        X = sample_sphere_rows(4, P, stream(17, tag))
        prod = (unit.features(X, z1[None, :])[:, 0]
                * unit.features(X, z2[None, :])[:, 0])
        ests.append(unit_kernel_mc(unit, z1, z2, X))
        ses.append(prod.std(ddof=1) / np.sqrt(P))
    gap = abs(ests[0] - ests[1])
    assert gap < 4 * np.hypot(ses[0], ses[1])


def test_fhat_zero_target():
    unit = RbfUnit(alpha=1.0, d=3)
    p = PlantedTarget(unit=unit, weights=np.zeros(0), locations=np.zeros((0, 3)))
    batch = draw_batch(p, 3, 32, stream(18, "b"))
    z = sample_sphere_rows(3, 1, stream(18, "z"))[0]
    assert target_overlap_mc(unit, z, batch) == 0.0


def test_fhat_of_a_planted_unit_equals_khat():
    unit = RbfUnit(alpha=1.0, d=3)
    z0 = sample_sphere_rows(3, 1, stream(19, "z"))[0]
    p = PlantedTarget(unit=unit, weights=np.array([1.0]), locations=z0[None, :])
    batch = draw_batch(p, 3, 256, stream(19, "b"))
    assert target_overlap_mc(unit, z0, batch) == unit_kernel_mc(unit, z0, z0, batch)


def test_fhat_standard_deviation_scales_as_inverse_sqrt_P():
    d = 5
    t = SpinTensor.sample(d, 21)
    unit = RbfUnit(alpha=1.0, d=d)
    z = sample_sphere_rows(d, 1, stream(21, "z"))[0]
    stds = {}
    for P in (10**3, 10**4, 10**5):
        vals = np.array([
            target_overlap_mc(unit, z, draw_batch(t, d, P, stream(21, f"b{P}", r)))
            for r in range(200)
        ])
        stds[P] = vals.std(ddof=1)
    for big, small in ((10**3, 10**4), (10**4, 10**5)):
        ratio = stds[big] / stds[small]
        assert abs(ratio / np.sqrt(10.0) - 1.0) < 0.2


def test_empty_batch_is_rejected():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(22, "z"))[0]
    with pytest.raises(UnitMismatchError):
        unit_kernel_mc(unit, z, z, np.zeros((0, 3)))


# -- weighted kernel gram -----------------------------------------------------

def test_gram_zero_weights():
    unit = RbfUnit(alpha=1.0, d=3)
    e = ParticleEnsemble(unit=unit, c=np.zeros(4),
                         z=sample_sphere_rows(3, 4, stream(23, "z")))
    X = sample_sphere_rows(3, 50, stream(23, "x"))
    assert np.array_equal(weighted_kernel_gram(e, X), np.zeros((4, 4)))


def test_gram_single_particle():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(24, "z"))
    e = ParticleEnsemble(unit=unit, c=np.array([-1.5]), z=z)
    X = sample_sphere_rows(3, 40, stream(24, "x"))
    G = weighted_kernel_gram(e, X)
    assert G.shape == (1, 1)
    assert G[0, 0] >= 0.0
    want = 1.5 * 1.5 * unit_kernel_mc(unit, z[0], z[0], X)
    assert abs(G[0, 0] - want) < 1e-14 * max(1.0, abs(want))


def test_gram_structure_and_feature_psd():
    unit = SigmoidUnit(d=3)
    gen = stream(25, "gram").generator()
    n, P = 50, 10**4
    c = gen.standard_normal(n)
    Z = gen.standard_normal((n, 4))
    e = ParticleEnsemble(unit=unit, c=c, z=Z)
    X = sample_sphere_rows(3, P, gen)
    G = weighted_kernel_gram(e, X)
    assert np.array_equal(G, G.T)
    # G = D Khat D with D = diag(c); Khat is a feature gram, PSD up to roundoff
    K = G / np.outer(c, c)
    F = unit.features(X, Z)
    K_direct = (F.T @ F) / P
    assert np.max(np.abs(K - K_direct)) < 1e-12 * np.max(np.abs(K_direct))
    assert np.linalg.eigvalsh(K_direct)[0] >= -1e-8
