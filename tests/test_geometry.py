"""Sphere sampling, retraction, and tangent projection."""
import numpy as np
import pytest

from spinnet.geometry import (
    DegenerateVectorError,
    InvalidDimensionError,
    retract_rows,
    sample_sphere_rows,
    tangent_project_rows,
)
from spinnet.rng import stream


def test_d1_sphere_is_two_points():
    X = sample_sphere_rows(1, 4096, stream(0, "d1"))
    assert set(np.unique(X)) == {-1.0, 1.0}
    # fair coin: 4 sigma band around 1/2
    frac = float(np.mean(X > 0))
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4096)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 25])
def test_sample_norm_is_sqrt_d(d):
    X = sample_sphere_rows(d, 200, stream(1, "norm", d))
    nrm = np.linalg.norm(X, axis=1)
    assert np.max(np.abs(nrm - np.sqrt(d))) < 1e-12 * np.sqrt(d)


def test_sample_sphere_single_point():
    p = sample_sphere_rows(5, 1, stream(2, "one"))[0]
    assert p.shape == (5,)
    assert abs(np.linalg.norm(p) - np.sqrt(5)) < 1e-12 * np.sqrt(5)


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        sample_sphere_rows(0, 3, stream(0, "bad"))


def test_d3_moments():
    # uniform on S^2(sqrt(3)): E x_i = 0, E x_i^2 = 1
    X = sample_sphere_rows(3, 10**6, stream(3, "moments"))
    mean = X.mean(axis=0)
    second = (X**2).mean(axis=0)
    se = X.std(axis=0, ddof=1) / np.sqrt(X.shape[0])
    assert np.all(np.abs(mean) < 4 * se)
    assert np.max(np.abs(second - 1.0)) < 0.01


def test_sample_covariance_near_identity():
    X = sample_sphere_rows(4, 10**5, stream(4, "cov"))
    C = (X.T @ X) / X.shape[0]
    dev = np.linalg.norm(C - np.eye(4)) / np.linalg.norm(np.eye(4))
    assert dev < 0.02


def test_retract_scales_to_radius():
    p = retract_rows(np.array([[2.0, 0.0, 0.0]]), np.sqrt(3.0))[0]
    assert np.allclose(p, [np.sqrt(3.0), 0.0, 0.0], rtol=0, atol=1e-15)


def test_retract_near_sphere_is_noop():
    gen = stream(5, "noop").generator()
    v = sample_sphere_rows(6, 1, gen)[0]
    w = retract_rows(v[None], np.sqrt(6.0))[0]
    assert np.array_equal(v, w)


def test_retract_is_bitwise_idempotent():
    gen = stream(6, "idem").generator()
    V = gen.standard_normal((50, 9)) * 3.0
    once = retract_rows(V, 2.5)
    twice = retract_rows(once, 2.5)
    assert np.array_equal(once, twice)


def test_retract_rejects_zero_vector():
    with pytest.raises(DegenerateVectorError):
        retract_rows(np.zeros((1, 3)), 1.0)
    with pytest.raises(DegenerateVectorError):
        retract_rows(np.ones((1, 3)), 0.0)


def test_tangent_kills_parallel_component():
    z = np.array([0.0, 2.0, 0.0])
    assert np.array_equal(tangent_project_rows(3.5 * z[None], z[None])[0], np.zeros(3))


def test_tangent_keeps_orthogonal_component():
    z = np.array([0.0, 2.0, 0.0])
    v = np.array([1.0, 0.0, -4.0])
    assert np.array_equal(tangent_project_rows(v[None], z[None])[0], v)


def test_tangent_orthogonality_d7():
    gen = stream(7, "orth").generator()
    z = sample_sphere_rows(7, 1, gen)[0]
    v = gen.standard_normal(7)
    w = tangent_project_rows(v[None], z[None])[0]
    cosang = abs(np.dot(w, z)) / (np.linalg.norm(w) * np.linalg.norm(z))
    assert cosang < 1e-12


def test_tangent_is_linear_and_idempotent():
    gen = stream(8, "lin").generator()
    Z = sample_sphere_rows(5, 20, gen)
    U = gen.standard_normal((20, 5))
    W = gen.standard_normal((20, 5))
    lhs = tangent_project_rows(2.0 * U - 3.0 * W, Z)
    rhs = 2.0 * tangent_project_rows(U, Z) - 3.0 * tangent_project_rows(W, Z)
    scale = np.max(np.abs(lhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale
    again = tangent_project_rows(lhs, Z)
    assert np.max(np.abs(again - lhs)) < 1e-12 * scale


def test_tangent_rejects_origin():
    with pytest.raises(DegenerateVectorError):
        tangent_project_rows(np.ones((1, 3)), np.zeros((1, 3)))


def test_accepts_plain_generator():
    gen = stream(9, "gen").generator()
    X = sample_sphere_rows(3, 5, gen)
    assert X.shape == (5, 3)
