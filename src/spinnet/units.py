"""Unit families and particle ensembles.

A network is f(x) = (1/n) sum_i c_i phihat(x, z_i).  Two unit families are
implemented:

* RbfUnit: phihat(x, z) = exp(alpha * x.z) with both x and z on the sphere
  of radius sqrt(d).  This is the reduced form of the Gaussian bump
  exp(-alpha/2 * |x - z|^2): on the sphere |x|^2 and |z|^2 are constant, so
  the bump equals exp(-alpha*d) * exp(alpha * x.z) and the constant is
  absorbed into the outer weights.  The reduced kernel must keep the
  positive sign in the exponent to stay positive definite; see
  pair-interaction notes in dynamics.
* SigmoidUnit: phihat(x, z) = h(a.x + b) with z = (a, b) unconstrained in
  R^{d+1} and h the logistic function, evaluated in the overflow-safe form.

Units expose a small array-level interface (features, parameter gradients,
input gradients) that targets, dynamics and diagnostics all share.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import InvalidDimensionError, retract_rows


class UnitMismatchError(ValueError):
    pass


def _logistic(u: np.ndarray) -> np.ndarray:
    """h(u) for a fresh array u (0-d included), which is overwritten.

    exp is only ever taken of a non-positive argument, so nothing overflows.
    """
    pos = u >= 0.0
    e = np.abs(u, out=u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(pos, 1.0, e)
    e += 1.0
    out /= e
    return out


@dataclass(frozen=True)
class RbfUnit:
    """Exponential dot-product unit on S^{d-1}(sqrt(d))."""

    alpha: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidDimensionError(f"d must be >= 1, got {self.d}")
        if not (self.alpha >= 0.0):
            raise InvalidDimensionError(f"alpha must be >= 0, got {self.alpha}")

    @classmethod
    def from_gaussian(cls, kappa: float, d: int) -> "RbfUnit":
        """Unit defined by the bump exp(-kappa/2 |x-z|^2); the constant
        exp(-kappa*d) prefactor is absorbed into the outer weights."""
        return cls(alpha=kappa, d=d)

    @property
    def param_dim(self) -> int:
        return self.d

    @property
    def radius(self) -> float:
        return float(np.sqrt(self.d))

    @property
    def constrained(self) -> bool:
        return True

    def validate_params(self, Z: np.ndarray) -> None:
        Z = np.atleast_2d(Z)
        if Z.shape[1] != self.d:
            raise UnitMismatchError(f"params have dim {Z.shape[1]}, expected {self.d}")
        if Z.shape[0] == 0:
            return
        nrm = np.linalg.norm(Z, axis=1)
        dev = np.max(np.abs(nrm - self.radius))
        if dev > 1e-10 * self.radius:
            raise UnitMismatchError(
                f"rbf particle positions off the sphere by {dev:.3e} (relative tol 1e-10)"
            )

    def features(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """(P, n) matrix phihat(x_p, z_i) = exp(alpha * x_p . z_i)."""
        F = np.atleast_2d(X) @ np.atleast_2d(Z).T
        F *= self.alpha
        return np.exp(F, out=F)

    def eval_one(self, x: np.ndarray, z: np.ndarray) -> float:
        return float(np.exp(self.alpha * float(np.dot(x, z))))

    def grad_param(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """d/dz phihat(x, z) = alpha * x * phihat (ambient)."""
        return self.alpha * np.asarray(x, dtype=np.float64) * self.eval_one(x, z)

    def grad_param_all(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """(m, n, d) ambient parameter gradients for all point/particle pairs."""
        X = np.atleast_2d(X)
        F = self.features(X, Z)
        return self.alpha * X[:, None, :] * F[:, :, None]

    def weighted_grad_sum(self, X, Z, W, feats=None) -> np.ndarray:
        """(n, d) rows sum_p W[p,i] * d/dz phihat(x_p, z_i)."""
        if feats is None:
            feats = self.features(X, Z)
        return self.alpha * ((W * feats).T @ np.atleast_2d(X))

    def grad_input(self, X: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(P, d) rows d/dx phihat(x_p, z) = alpha * z * phihat."""
        X = np.atleast_2d(X)
        f = np.exp(self.alpha * (X @ np.asarray(z, dtype=np.float64)))
        return self.alpha * f[:, None] * z[None, :]

    def init_rows(self, n: int, gen: np.random.Generator) -> np.ndarray:
        from .geometry import sample_sphere_rows

        return sample_sphere_rows(self.d, n, gen)

    def to_dict(self) -> dict:
        return {"kind": "rbf", "alpha": self.alpha, "d": self.d}


@dataclass(frozen=True)
class SigmoidUnit:
    """Logistic ridge unit h(a.x + b) with unconstrained z = (a, b)."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidDimensionError(f"d must be >= 1, got {self.d}")

    @property
    def param_dim(self) -> int:
        return self.d + 1

    @property
    def constrained(self) -> bool:
        return False

    def validate_params(self, Z: np.ndarray) -> None:
        Z = np.atleast_2d(Z)
        if Z.shape[1] != self.param_dim:
            raise UnitMismatchError(
                f"params have dim {Z.shape[1]}, expected {self.param_dim}"
            )

    def _preact(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        Z = np.atleast_2d(Z)
        U = X @ Z[:, : self.d].T
        U += Z[:, self.d]
        return U

    def features(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return _logistic(self._preact(X, Z))

    def eval_one(self, x: np.ndarray, z: np.ndarray) -> float:
        u = float(np.dot(x, z[: self.d]) + z[self.d])
        return float(_logistic(np.asarray(u)))

    def grad_param(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """d/dz phihat = h'(u) * (x, 1) with h' = h(1-h)."""
        s = self.eval_one(x, z)
        g = np.empty(self.param_dim)
        g[: self.d] = s * (1.0 - s) * np.asarray(x, dtype=np.float64)
        g[self.d] = s * (1.0 - s)
        return g

    def grad_param_all(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        F = self.features(X, Z)
        D = F * (1.0 - F)
        out = np.empty((X.shape[0], np.atleast_2d(Z).shape[0], self.param_dim))
        out[:, :, : self.d] = D[:, :, None] * X[:, None, :]
        out[:, :, self.d] = D
        return out

    def weighted_grad_sum(self, X, Z, W, feats=None) -> np.ndarray:
        if feats is None:
            feats = self.features(X, Z)
        WD = W * feats * (1.0 - feats)
        out = np.empty((WD.shape[1], self.param_dim))
        out[:, : self.d] = WD.T @ np.atleast_2d(X)
        out[:, self.d] = np.sum(WD, axis=0)
        return out

    def grad_input(self, X: np.ndarray, z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        u = X @ np.asarray(z[: self.d], dtype=np.float64) + z[self.d]
        s = _logistic(u)
        return (s * (1.0 - s))[:, None] * z[None, : self.d]

    def init_rows(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """a_i uniform on the unit sphere, b_i uniform on [-1, 1]."""
        from .geometry import sample_sphere_rows

        A = sample_sphere_rows(self.d, n, gen) / np.sqrt(self.d)
        b = gen.uniform(-1.0, 1.0, size=n)
        return np.hstack([A, b[:, None]])

    def to_dict(self) -> dict:
        return {"kind": "sigmoid", "d": self.d}


def unit_from_dict(blob: dict):
    kind = blob.get("kind")
    if kind == "rbf":
        return RbfUnit(alpha=float(blob["alpha"]), d=int(blob["d"]))
    if kind == "sigmoid":
        return SigmoidUnit(d=int(blob["d"]))
    raise UnitMismatchError(f"unknown unit kind: {kind!r}")


@dataclass
class ParticleEnsemble:
    """State of an n-particle network: outer weights c and unit parameters z.

    Treated as an immutable snapshot between dynamics steps; step functions
    return new ensembles rather than mutating in place.
    """

    unit: RbfUnit | SigmoidUnit
    c: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.z = np.atleast_2d(np.asarray(self.z, dtype=np.float64))
        if self.c.ndim != 1 or self.c.size < 1:
            raise UnitMismatchError("c must be a non-empty 1-d array")
        if self.z.shape != (self.c.size, self.unit.param_dim):
            raise UnitMismatchError(
                f"z shape {self.z.shape} does not match n = {self.c.size}, "
                f"param_dim = {self.unit.param_dim}"
            )
        self.unit.validate_params(self.z)

    @property
    def n(self) -> int:
        return self.c.size

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(unit=self.unit, c=self.c.copy(), z=self.z.copy())

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "unit": self.unit.to_dict(),
            "c": self.c.tolist(),
            "z": self.z.tolist(),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "ParticleEnsemble":
        return cls(
            unit=unit_from_dict(blob["unit"]),
            c=np.asarray(blob["c"], dtype=np.float64),
            z=np.asarray(blob["z"], dtype=np.float64),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "ParticleEnsemble":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# entries per feature block when walking many eval points: 256 KB blocks
# stay in a core's L2 cache through the in-place feature passes
_EVAL_BLOCK_ENTRIES = 1 << 15


def _eval_block_rows(n: int) -> int:
    return max(1, _EVAL_BLOCK_ENTRIES // max(1, n))


def network_eval_rows(e: ParticleEnsemble, X: np.ndarray) -> np.ndarray:
    """f^(n)(x) = (1/n) sum_i c_i phihat(x, z_i), in row blocks over eval points."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0])
    rows = _eval_block_rows(e.n)
    for lo in range(0, X.shape[0], rows):
        Xc = X[lo : lo + rows]
        out[lo : lo + rows] = e.unit.features(Xc, e.z) @ e.c
    out /= e.n
    return out


def network_eval(e: ParticleEnsemble, x: np.ndarray) -> float:
    """Network value at a single point."""
    return float(network_eval_rows(e, np.asarray(x, dtype=np.float64)[None, :])[0])


def _batch_points(batch) -> np.ndarray:
    pts = getattr(batch, "points", batch)
    return np.atleast_2d(np.asarray(pts, dtype=np.float64))


def unit_kernel_mc(unit, z1: np.ndarray, z2: np.ndarray, batch) -> float:
    """Batch Monte Carlo estimate of E[phihat(x,z1) phihat(x,z2)].

    The accumulation is an elementwise product followed by one sum, so the
    estimate is exactly symmetric in (z1, z2) for a fixed batch.
    """
    X = _batch_points(batch)
    if X.shape[0] == 0:
        raise UnitMismatchError("empty batch")
    f1 = unit.features(X, np.atleast_2d(z1))[:, 0]
    f2 = unit.features(X, np.atleast_2d(z2))[:, 0]
    return float(np.sum(f1 * f2) / X.shape[0])


def target_overlap_mc(unit, z: np.ndarray, batch) -> float:
    """Batch Monte Carlo estimate of E[f(x) phihat(x,z)] using the batch's
    stored target values."""
    X = _batch_points(batch)
    if X.shape[0] == 0:
        raise UnitMismatchError("empty batch")
    vals = np.asarray(batch.target_values, dtype=np.float64)
    f = unit.features(X, np.atleast_2d(z))[:, 0]
    return float(np.sum(vals * f) / X.shape[0])


def weighted_kernel_gram(e: ParticleEnsemble, batch) -> np.ndarray:
    """(n, n) matrix c_i c_j Khat(z_i, z_j) with Khat the batch MC kernel.

    Exactly symmetric; Khat itself is a Gram matrix of features, so its
    spectrum is nonnegative up to roundoff.
    """
    X = _batch_points(batch)
    if X.shape[0] == 0:
        raise UnitMismatchError("empty batch")
    K = np.zeros((e.n, e.n))
    rows = _eval_block_rows(e.n)
    for lo in range(0, X.shape[0], rows):
        F = e.unit.features(X[lo : lo + rows], e.z)
        K += F.T @ F
    K /= X.shape[0]
    K = 0.5 * (K + K.T)
    return K * np.outer(e.c, e.c)
