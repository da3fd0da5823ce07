"""3-spin and planted targets against brute-force and finite-difference oracles."""
import numpy as np
import pytest

from spinnet import targets
from spinnet.diagnostics import draw_batch
from spinnet.geometry import sample_sphere_rows
from spinnet.rng import stream
from spinnet.targets import (
    DegenerateMeasureError,
    DimensionMismatchError,
    PlantedTarget,
    SpinTensor,
    evaluate_target,
    jordan_sample,
    spin3_eval_rows,
    spin3_grad_rows,
    target_grad_rows,
)
from spinnet.units import RbfUnit, SigmoidUnit, network_eval_rows


# -- independent oracles ------------------------------------------------------

def spin3_naive(a, x):
    """Triple-loop reference for (1/d) sum a_pqr x_p x_q x_r."""
    d = len(x)
    acc = 0.0
    for p in range(d):
        for q in range(d):
            for r in range(d):
                acc += a[p, q, r] * x[p] * x[q] * x[r]
    return acc / d


def spin3_grad_naive(a, z):
    """Component p: (1/d) sum_qr (a_pqr + a_rpq + a_qrp) z_q z_r."""
    d = len(z)
    g = np.zeros(d)
    for p in range(d):
        acc = 0.0
        for q in range(d):
            for r in range(d):
                acc += (a[p, q, r] + a[r, p, q] + a[q, r, p]) * z[q] * z[r]
        g[p] = acc / d
    return g


def central_diff(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


# -- spin3 evaluation ---------------------------------------------------------

def test_zero_tensor_evaluates_to_zero():
    t = SpinTensor(d=4, seed=0, a=np.zeros((4, 4, 4)))
    X = sample_sphere_rows(4, 8, stream(0, "pts"))
    assert np.array_equal(spin3_eval_rows(t, X), np.zeros(8))


def test_d1_single_entry():
    t = SpinTensor(d=1, seed=0, a=np.array([[[2.0]]]))
    assert spin3_eval_rows(t, np.array([[1.0]]))[0] == 2.0
    assert spin3_eval_rows(t, np.array([[-1.0]]))[0] == -2.0


def test_d2_all_ones_closed_form():
    # a = 1 everywhere: f(x) = (x1+x2)^3 / 2, so x = (sqrt(2), 0) gives sqrt(2)
    t = SpinTensor(d=2, seed=0, a=np.ones((2, 2, 2)))
    x = np.array([np.sqrt(2.0), 0.0])
    got = spin3_eval_rows(t, x[None])[0]
    assert abs(got - np.sqrt(2.0)) < 1e-14
    assert abs(got - spin3_naive(t.a, x)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5])
def test_eval_matches_triple_loop(d):
    t = SpinTensor.sample(d, 100 + d)
    X = sample_sphere_rows(d, 6, stream(1, "loop", d))
    got = spin3_eval_rows(t, X)
    want = np.array([spin3_naive(t.a, x) for x in X])
    assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("d", [2, 5, 10, 25])
def test_eval_of_a_slice_is_the_slice_of_the_eval_bitwise(d):
    # a row's value does not depend on where it sits: a row alone, a run
    # inside a slab, a run across a slab and a block boundary and a tail
    # shorter than a slab all equal the same rows of the whole evaluation
    t = SpinTensor.sample(d, 5)
    block = targets._spin3_scratch(d, 1 << 20)[0].shape[0] // targets._SLAB * targets._SLAB
    n = 2 * block + 7
    X = sample_sphere_rows(d, n, stream(5, "slice"))
    whole = spin3_eval_rows(t, X)
    for lo, hi in [(3, 4), (3, 10), (block - 21, block + 9), (n - 7, n), (n - 40, n)]:
        assert np.array_equal(spin3_eval_rows(t, X[lo:hi]), whole[lo:hi]), (lo, hi)


def test_eval_is_exactly_odd():
    t = SpinTensor.sample(7, 42)
    X = sample_sphere_rows(7, 32, stream(2, "odd"))
    assert np.array_equal(spin3_eval_rows(t, -X), -spin3_eval_rows(t, X))


def test_eval_dimension_mismatch():
    t = SpinTensor.sample(3, 0)
    with pytest.raises(DimensionMismatchError):
        spin3_eval_rows(t, np.ones((1, 4)))


def test_tensor_validation():
    with pytest.raises(DimensionMismatchError):
        SpinTensor(d=0, seed=0, a=np.zeros((0, 0, 0)))
    with pytest.raises(DimensionMismatchError):
        SpinTensor(d=3, seed=0, a=np.zeros((3, 3)))


def test_tensor_roundtrip_is_bitwise():
    t = SpinTensor.sample(6, 99)
    t2 = SpinTensor.from_dict(t.to_dict())
    assert np.array_equal(t.a, t2.a)
    with pytest.raises(DimensionMismatchError):
        SpinTensor.from_dict({"kind": "other"})


# -- spin3 gradient -----------------------------------------------------------

def test_grad_zero_tensor():
    t = SpinTensor(d=3, seed=0, a=np.zeros((3, 3, 3)))
    assert np.array_equal(spin3_grad_rows(t, np.ones((1, 3)))[0], np.zeros(3))


def test_grad_d2_all_ones():
    # symmetrized sum: each component (1/2) * 3 * (z1+z2)^2 = 6 at z = (1,1)
    t = SpinTensor(d=2, seed=0, a=np.ones((2, 2, 2)))
    g = spin3_grad_rows(t, np.array([[1.0, 1.0]]))[0]
    assert np.allclose(g, [6.0, 6.0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_grad_matches_symmetrized_loop(d):
    t = SpinTensor.sample(d, 55 + d)
    Z = sample_sphere_rows(d, 5, stream(3, "gloop", d))
    got = spin3_grad_rows(t, Z)
    want = np.array([spin3_grad_naive(t.a, z) for z in Z])
    assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


def test_grad_matches_finite_differences_d10():
    t = SpinTensor.sample(10, 7)
    Z = sample_sphere_rows(10, 5, stream(4, "fd"))
    for z in Z:
        got = spin3_grad_rows(t, z[None])[0]
        want = central_diff(lambda x: spin3_eval_rows(t, x[None])[0], z)
        rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        assert rel < 1e-6


def test_grad_walks_cache_sized_blocks():
    # at d = 25 a block of the (rows, d^2) scratch holds 52 rows, so 130
    # rows walk two whole blocks and a short one, each computed as a one-shot
    # call on its own rows
    d, n = 25, 130
    t = SpinTensor.sample(d, 9)
    Z = sample_sphere_rows(d, n, stream(5, "gblocks"))
    rows = 52
    want = np.concatenate([spin3_grad_rows(t, Z[lo : lo + rows]) for lo in range(0, n, rows)])
    assert np.array_equal(spin3_grad_rows(t, Z), want)


# -- planted targets ----------------------------------------------------------

def test_empty_mixture_is_zero_target():
    unit = RbfUnit(alpha=1.0, d=3)
    p = PlantedTarget(unit=unit, weights=np.zeros(0), locations=np.zeros((0, 3)))
    x = sample_sphere_rows(3, 1, stream(5, "x"))[0]
    assert p.eval_rows(x[None])[0] == 0.0
    assert p.total_variation == 0.0


def test_single_atom_is_the_unit():
    unit = RbfUnit(alpha=0.7, d=4)
    z = sample_sphere_rows(4, 1, stream(6, "z"))[0]
    p = PlantedTarget(unit=unit, weights=np.array([1.0]), locations=z[None, :])
    x = sample_sphere_rows(4, 1, stream(6, "x"))[0]
    assert p.eval_rows(x[None])[0] == unit.eval_one(x, z)


def test_opposite_atoms_cancel_exactly():
    unit = SigmoidUnit(d=3)
    z = np.array([0.5, -0.2, 0.1, 0.3])
    p = PlantedTarget(unit=unit, weights=np.array([2.0, -2.0]), locations=np.vstack([z, z]))
    X = sample_sphere_rows(3, 16, stream(7, "x"))
    assert np.array_equal(p.eval_rows(X), np.zeros(16))


def test_planted_matches_explicit_sum():
    unit = RbfUnit(alpha=1.3, d=3)
    locs = sample_sphere_rows(3, 4, stream(8, "locs"))
    w = np.array([0.5, -1.0, 2.0, -0.25])
    p = PlantedTarget(unit=unit, weights=w, locations=locs)
    X = sample_sphere_rows(3, 10, stream(8, "x"))
    want = sum(w[k] * unit.features(X, locs[k : k + 1])[:, 0] for k in range(4))
    assert np.max(np.abs(p.eval_rows(X) - want)) < 1e-14


def test_planted_rejects_zero_weight_and_bad_shape():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(9, "z"))
    with pytest.raises(DimensionMismatchError):
        PlantedTarget(unit=unit, weights=np.array([0.0]), locations=z)
    with pytest.raises(DimensionMismatchError):
        PlantedTarget(unit=unit, weights=np.array([1.0, 2.0]), locations=z)


@pytest.mark.parametrize("kind", ["spin", "planted-rbf", "planted-sigmoid"])
def test_targets_refuse_points_of_another_d(kind):
    # a planted target of d = 5 used to meet 3-d points in a bare matmul
    if kind == "spin":
        t, owner = SpinTensor.sample(5, 0), "tensor"
    else:
        unit = RbfUnit(alpha=1.0, d=5) if kind == "planted-rbf" else SigmoidUnit(d=5)
        locs = sample_sphere_rows(5, 2, stream(9, "atoms"))
        if kind == "planted-sigmoid":
            locs = np.hstack([locs, np.ones((2, 1))])
        t, owner = PlantedTarget(unit=unit, weights=np.array([0.7, -1.2]), locations=locs), "planted"
    X = sample_sphere_rows(3, 8, stream(9, "x"))
    msg = f"points have d = 3, {owner} d = 5"
    with pytest.raises(DimensionMismatchError, match=msg):
        draw_batch(t, 3, 8, stream(9, "x"))
    with pytest.raises(DimensionMismatchError, match=msg):
        evaluate_target(t, X)
    with pytest.raises(DimensionMismatchError, match=msg):
        target_grad_rows(t, X)


def test_planted_gradient_matches_finite_differences():
    unit = SigmoidUnit(d=4)
    locs = stream(10, "locs").generator().standard_normal((3, 5))
    p = PlantedTarget(unit=unit, weights=np.array([1.0, -0.5, 0.7]), locations=locs)
    x = sample_sphere_rows(4, 1, stream(10, "x"))[0]
    got = target_grad_rows(p, x[None, :])[0]
    want = central_diff(lambda y: p.eval_rows(y[None])[0], x)
    assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


# -- jordan sampling ----------------------------------------------------------

def test_one_atom_support_is_exact():
    unit = RbfUnit(alpha=1.0, d=3)
    z = sample_sphere_rows(3, 1, stream(11, "z"))[0]
    w = 0.75
    p = PlantedTarget(unit=unit, weights=np.array([w]), locations=z[None, :])
    X = sample_sphere_rows(3, 20, stream(11, "x"))
    for n in (1, 2, 4, 7):
        e = jordan_sample(p, n, stream(11, "draw", n))
        assert np.array_equal(e.c, np.full(n, w))
        assert np.array_equal(e.z, np.tile(z, (n, 1)))
        got = network_eval_rows(e, X)
        want = p.eval_rows(X)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_two_atom_fractions_are_binomial():
    unit = RbfUnit(alpha=1.0, d=3)
    locs = sample_sphere_rows(3, 2, stream(12, "locs"))
    p = PlantedTarget(unit=unit, weights=np.array([1.0, -1.0]), locations=locs)
    n = 10**4
    e = jordan_sample(p, n, stream(12, "draw"))
    frac_a = float(np.mean(e.c > 0))
    assert abs(frac_a - 0.5) < 3 * np.sqrt(0.25 / n)
    assert set(np.unique(e.c)) == {-2.0, 2.0}  # +-|gamma|_TV


def test_jordan_networks_are_unbiased():
    unit = RbfUnit(alpha=1.2, d=3)
    locs = sample_sphere_rows(3, 3, stream(13, "locs"))
    p = PlantedTarget(unit=unit, weights=np.array([1.1, -0.4, 0.6]), locations=locs)
    x = sample_sphere_rows(3, 1, stream(13, "x"))[0]
    vals = np.array([
        network_eval_rows(jordan_sample(p, 100, stream(13, "draw", s)), x[None])[0]
        for s in range(1000)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - p.eval_rows(x[None])[0]) < 4 * se


def test_jordan_rejects_zero_mass():
    unit = RbfUnit(alpha=1.0, d=3)
    p = PlantedTarget(unit=unit, weights=np.zeros(0), locations=np.zeros((0, 3)))
    with pytest.raises(DegenerateMeasureError):
        jordan_sample(p, 5, stream(14, "draw"))
    with pytest.raises(DimensionMismatchError):
        jordan_sample(PlantedTarget(unit=unit, weights=np.array([1.0]),
                                    locations=sample_sphere_rows(3, 1, stream(14, "z"))),
                      0, stream(14, "draw"))


# -- dispatch -----------------------------------------------------------------

def test_evaluate_target_dispatch():
    t = SpinTensor.sample(3, 1)
    X = sample_sphere_rows(3, 4, stream(15, "x"))
    assert np.array_equal(evaluate_target(t, X), spin3_eval_rows(t, X))
    fn = lambda pts: np.sum(pts, axis=1)
    for bad in (fn, "not a target"):
        with pytest.raises(TypeError):
            evaluate_target(bad, X)
        with pytest.raises(TypeError):
            target_grad_rows(bad, X)
