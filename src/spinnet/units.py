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
input gradients) that targets, dynamics and diagnostics all share.  The
private kernels take lifted input rows, _lift(X): an rbf unit's points
themselves, a sigmoid unit's rows (x, 1), whose product with Z^T is a.x + b,
so that a block's features and its gradient sum are one gemm each.  The
lift goes block by block where the rows are many (network evaluation) and
once per batch window in a run.  On the parameter side they take
_kernel_params(Z)^T: an rbf unit's alpha Z, so that its features are
exp(X (alpha Z)^T) with no pass over the (rows, n) block for alpha, and a
sigmoid unit's Z itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _FINAL_EVAL_CHUNK, InvalidDimensionError, sample_sphere_rows

# the largest alpha * d whose kernel peak exp(alpha d) is a finite double
_LOG_DBL_MAX = float(np.log(np.finfo(np.float64).max))


class UnitMismatchError(ValueError):
    pass


def _check_points(unit, X: np.ndarray) -> np.ndarray:
    """X, or InvalidDimensionError unless its rows have the unit's d
    entries.  The per-step _features_into calls go without it."""
    if X.shape[1] != unit.d:
        raise InvalidDimensionError(f"points have d = {X.shape[1]}, unit d = {unit.d}")
    return X


def _logistic_into(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = h(u); u is overwritten and out must be a different array.

    exp is only ever taken of a non-positive argument, so nothing overflows.
    With e = exp(-|u|) in [0, 1], max(e, [u >= 0]) selects 1 where u >= 0
    and e elsewhere (NaN included) without a data-dependent branch.
    """
    np.greater_equal(u, 0.0, out=out)
    e = np.abs(u, out=u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def _logistic(u: np.ndarray) -> np.ndarray:
    """h(u) for a fresh array u (0-d included), which is overwritten."""
    return _logistic_into(u, np.empty_like(u))


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
        if self.alpha * self.d > _LOG_DBL_MAX:
            # phihat = exp(alpha x.z) peaks at exp(alpha d) on the sphere
            raise InvalidDimensionError(
                f"alpha * d = {self.alpha * self.d!r} overflows the rbf kernel "
                f"exp(alpha x.z); it must be <= ln(DBL_MAX) = {_LOG_DBL_MAX:.2f}"
            )

    @property
    def param_dim(self) -> int:
        return self.d

    @property
    def radius(self) -> float:
        return math.sqrt(self.d)

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
        if not dev <= 1e-10 * self.radius:  # a NaN row fails too
            raise UnitMismatchError(
                f"rbf particle positions off the sphere by {dev:.3e} (relative tol 1e-10)"
            )

    def _lift(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The kernel's input rows of the points X: X itself; out is not used."""
        return X

    def _kernel_params(self, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The kernel's parameter side of Z: alpha Z, in out or in a new
        array of Z's layout."""
        return np.multiply(Z, self.alpha, out=out)

    def _features_into(self, X: np.ndarray, AZT: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray | None = None) -> np.ndarray:
        """out = exp(X (alpha Z)^T) for 2-d X and AZT = _kernel_params(Z)^T;
        scratch is not used."""
        return np.exp(np.matmul(X, AZT, out=out), out=out)

    def features(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """(P, n) matrix phihat(x_p, z_i) = exp(alpha * x_p . z_i)."""
        X, Z = _check_points(self, np.atleast_2d(X)), np.atleast_2d(Z)
        return self._features_into(X, self._kernel_params(Z).T, np.empty((X.shape[0], Z.shape[0])))

    def eval_one(self, x: np.ndarray, z: np.ndarray) -> float:
        return float(np.exp(float(np.dot(x, self._kernel_params(z)))))

    def grad_param(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """d/dz phihat(x, z) = alpha * x * phihat (ambient)."""
        return self.alpha * np.asarray(x, dtype=np.float64) * self.eval_one(x, z)

    def grad_param_all(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """(m, n, d) ambient parameter gradients for all point/particle pairs."""
        X = np.atleast_2d(X)
        F = self.features(X, Z)
        return self.alpha * X[:, None, :] * F[:, :, None]

    def _grad_sum_into(self, X: np.ndarray, WF: np.ndarray, F: np.ndarray,
                       out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = rows sum_p WF[p,i] alpha x_p, given WF = W * F with F the
        features of X; F and scratch are not used."""
        np.matmul(WF.T, X, out=out)
        out *= self.alpha
        return out

    def weighted_grad_sum(self, X, Z, W) -> np.ndarray:
        """(n, d) rows sum_p W[p,i] * d/dz phihat(x_p, z_i)."""
        return _weighted_grad_sum(self, X, Z, W)

    def grad_input(self, X: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(P, d) rows d/dx phihat(x_p, z) = alpha * z * phihat."""
        X = np.atleast_2d(X)
        f = np.exp(X @ self._kernel_params(np.asarray(z, dtype=np.float64)))
        return self.alpha * f[:, None] * z[None, :]

    def init_rows(self, n: int, gen: np.random.Generator) -> np.ndarray:
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
        if not np.isfinite(Z).all():
            raise UnitMismatchError("sigmoid unit parameters must be finite")

    def _lift(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The rows (x, 1) of the points X, in out, (P, d + 1), or in a new
        array."""
        XL = np.empty((X.shape[0], self.d + 1)) if out is None else out
        XL[:, : self.d] = X
        XL[:, self.d] = 1.0
        return XL

    def _kernel_params(self, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The kernel's parameter side of Z: Z itself; out is not used."""
        return Z

    def _features_into(self, XL: np.ndarray, ZT: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
        """out = h(a.x + b) for lifted rows XL = _lift(X) and ZT = Z^T;
        scratch has out's shape."""
        return _logistic_into(np.matmul(XL, ZT, out=scratch), out)

    def features(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X, Z = _check_points(self, np.atleast_2d(X)), np.atleast_2d(Z)
        shape = (X.shape[0], Z.shape[0])
        return self._features_into(self._lift(X), Z.T, np.empty(shape), np.empty(shape))

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

    def _grad_sum_into(self, XL: np.ndarray, WF: np.ndarray, F: np.ndarray,
                       out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = rows sum_p WF[p,i] (1 - F[p,i]) (x_p, 1), given lifted rows
        XL = _lift(X) and WF = W * F with F the features of X; WF is
        overwritten, scratch has its shape."""
        WD = np.multiply(WF, np.subtract(1.0, F, out=scratch), out=WF)
        return np.matmul(WD.T, XL, out=out)

    def weighted_grad_sum(self, X, Z, W) -> np.ndarray:
        """(n, d + 1) rows sum_p W[p,i] * d/dz phihat(x_p, z_i)."""
        return _weighted_grad_sum(self, X, Z, W)

    def grad_input(self, X: np.ndarray, z: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        u = X @ np.asarray(z[: self.d], dtype=np.float64) + z[self.d]
        s = _logistic(u)
        return (s * (1.0 - s))[:, None] * z[None, : self.d]

    def init_rows(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """a_i uniform on the unit sphere, b_i uniform on [-1, 1]."""
        A = sample_sphere_rows(self.d, n, gen) / np.sqrt(self.d)
        b = gen.uniform(-1.0, 1.0, size=n)
        return np.hstack([A, b[:, None]])

    def to_dict(self) -> dict:
        return {"kind": "sigmoid", "d": self.d}


def _weighted_grad_sum(unit, X, Z, W) -> np.ndarray:
    X = np.atleast_2d(X)
    feats = unit.features(X, Z)
    WF = W * feats
    out = np.empty((WF.shape[1], unit.param_dim))
    return unit._grad_sum_into(unit._lift(X), WF, feats, out, np.empty(WF.shape))


def unit_from_dict(blob: dict):
    """The unit of a to_dict() blob, read without conversion.

    int() would truncate a d of 2.5 and read true as 1, and float() would
    read an alpha of true as 1.0: another network.  So a d that is not an
    int and a bool alpha raise UnitMismatchError; an alpha that is not a
    number raises TypeError.
    """
    kind = blob.get("kind")
    if kind not in ("rbf", "sigmoid"):
        raise UnitMismatchError(f"unknown unit kind: {kind!r}")
    d = blob["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise UnitMismatchError(f"{kind} unit 'd' must be an int, got {d!r}")
    if kind == "sigmoid":
        return SigmoidUnit(d=d)
    alpha = blob["alpha"]
    if isinstance(alpha, bool):
        raise UnitMismatchError(f"rbf unit 'alpha' must be a real number, got {alpha!r}")
    if not isinstance(alpha, (int, float)):
        raise TypeError(f"rbf unit 'alpha' must be a number, got {alpha!r}")
    return RbfUnit(alpha=float(alpha), d=d)


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
        if not np.isfinite(self.c).all():
            raise UnitMismatchError("c must be finite")
        if self.z.shape != (self.c.size, self.unit.param_dim):
            raise UnitMismatchError(
                f"z shape {self.z.shape} does not match n = {self.c.size}, "
                f"param_dim = {self.unit.param_dim}"
            )
        self.unit.validate_params(self.z)

    @property
    def n(self) -> int:
        return self.c.size

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


# entries per block of every blocked kernel (features, pair kernel, 3-spin
# rows): 256 KB blocks stay in a core's L2 cache through the in-place passes
_EVAL_BLOCK_ENTRIES = 1 << 15


def _eval_block_rows(n: int) -> int:
    return max(1, _EVAL_BLOCK_ENTRIES // max(1, n))


def _kernel_sums_into(unit, X: np.ndarray, ZT: np.ndarray, rhs: tuple, outs: tuple,
                      F: np.ndarray, S: np.ndarray | None = None,
                      XL: np.ndarray | None = None) -> tuple:
    """outs[k] = features(X, Z) @ rhs[k], in row blocks of F.shape[0] rows.

    ZT is unit._kernel_params(Z)^T, (p, n), in the caller's layout: a
    contiguous copy and the view of a transpose can give other last bits.  F and S (sigmoid units) are block
    scratch.  X holds the points; a sigmoid unit lifts them into XL (S
    given), whose row count may be below the block's: then the block's
    features are formed in pieces of that many rows, and its sums still in
    one call."""
    rows = F.shape[0]
    for lo in range(0, X.shape[0], rows):
        Xb = X[lo : lo + rows]
        k = Xb.shape[0]
        if XL is None:
            unit._features_into(Xb, ZT, F[:k], None if S is None else S[:k])
        else:
            for a in range(0, k, XL.shape[0]):
                Xa = Xb[a : a + XL.shape[0]]
                m = a + Xa.shape[0]
                unit._features_into(unit._lift(Xa, XL[: m - a]), ZT, F[a:m], S[a:m])
        for out, R in zip(outs, rhs):
            np.matmul(F[:k], R, out=out[lo : lo + k])
    return outs


def network_eval_rows(e: ParticleEnsemble, X: np.ndarray) -> np.ndarray:
    """f^(n)(x) = (1/n) sum_i c_i phihat(x, z_i) at the rows of X.

    X is walked in chunks of _FINAL_EVAL_CHUNK rows and each chunk in
    cache-sized row blocks, so a row's value depends only on where it sits
    in its chunk: X evaluated in pieces of whole chunks has the bits of X
    evaluated at once.
    """
    X = _check_points(e.unit, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    out = np.empty(X.shape[0])
    # at least one row: an empty walk still needs a block size
    F = np.empty((max(1, min(X.shape[0], _FINAL_EVAL_CHUNK, _eval_block_rows(e.n))), e.n))
    # a sigmoid unit's lifted rows, cache-sized like F, and its logistic scratch
    p = e.unit.param_dim
    XL = S = None
    if p != e.unit.d:
        XL, S = np.empty((min(F.shape[0], _eval_block_rows(p)), p)), np.empty_like(F)
    ZT = e.unit._kernel_params(e.z).T
    for lo in range(0, X.shape[0], _FINAL_EVAL_CHUNK):
        rows = slice(lo, lo + _FINAL_EVAL_CHUNK)
        _kernel_sums_into(e.unit, X[rows], ZT, (e.c,), (out[rows],), F, S, XL)
    return np.divide(out, e.n, out=out)


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
