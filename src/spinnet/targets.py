"""Target functions: spherical 3-spin polynomials and planted unit mixtures.

A 3-spin target is f(x) = (1/d) sum_{pqr} a_pqr x_p x_q x_r with a dense,
unsymmetrized coefficient tensor of i.i.d. standard normals.  The tensor is
keyed by (d, realization seed) and is reconstructed from that key on load,
so realizations can be pinned across runs without shipping d^3 floats.
f is a homogeneous cubic, so f(x) = x . grad f(x) / 3 (Euler's identity):
one pass of one kernel gives a row's gradient and, from it, its value.

A planted target is a finite signed mixture of units, f(x) = sum_k w_k
phihat(x, z_k); it gives initializations and fixed points with known
structure.

These two are the only targets, and each answers for itself through the
one interface of _Target, so no other module asks which kind it holds;
evaluate_target, target_grad_rows and _check_target_d refuse any other
object with a TypeError.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .rng import generator_for, stream
from .units import ParticleEnsemble, _eval_block_rows


class DimensionMismatchError(ValueError):
    pass


class DegenerateMeasureError(ValueError):
    """Raised when an operation needs a nonzero total-variation mixture."""


def _points_of_d(X, d: int, owner: str) -> np.ndarray:
    """X as 2-d float rows of d entries, or DimensionMismatchError."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != d:
        raise DimensionMismatchError(f"points have d = {X.shape[1]}, {owner} d = {d}")
    return X


class _Target:
    """The target interface.  Each kind sets d (input dimension), _name
    (its word in error messages) and row_local (True when a batch's rows
    may be evaluated in pieces of any size without moving a bit), and
    writes report_key() (the target entry of a run's metadata) and the
    unchecked _eval_into(X, fx, gradf, scratch, P), which writes the
    values at the rows of X into fx and the gradient rows into gradf,
    either of them None, and returns fx, or gradf when fx is None; scratch
    is _spin3_scratch(d, len(X)) and X holds batches of P rows, each
    valued as a one-shot evaluation of its rows."""

    def _bind_eval(self, X, fx, gradf, scratch) -> tuple:
        """_eval_into(X, fx, gradf, scratch, len(X)) as (function, args)
        calls bound once: made in order, they value the rows X holds then.
        X and gradf are C-contiguous arrays that outlive the calls."""
        return ((self._eval_into, (X, fx, gradf, scratch, X.shape[0])),)

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        """Target values at the rows of X, evaluated as one batch."""
        X = _points_of_d(X, self.d, self._name)
        n = X.shape[0]
        return self._eval_into(X, np.empty(n), None, _spin3_scratch(self.d, n), max(n, 1))

    def grad_rows(self, Z: np.ndarray) -> np.ndarray:
        """Ambient input-space gradient rows at the rows of Z."""
        Z = _points_of_d(Z, self.d, self._name)
        n = Z.shape[0]
        return self._eval_into(Z, None, np.empty(Z.shape), _spin3_scratch(self.d, n), max(n, 1))


@dataclass(eq=False)
class SpinTensor(_Target):
    """Dense order-3 coefficient tensor; immutable after construction."""

    d: int
    seed: int
    a: np.ndarray
    _sym_pqr: np.ndarray | None = field(default=None, init=False, repr=False)

    _name = "tensor"
    # each value depends on its own row alone, so a batch may be cut anywhere
    row_local = True

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatchError(f"d must be >= 1, got {self.d}")
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.shape != (self.d, self.d, self.d):
            raise DimensionMismatchError(
                f"tensor shape {self.a.shape} does not match d = {self.d}"
            )

    @classmethod
    def sample(cls, d: int, seed: int) -> "SpinTensor":
        """The realization owned by (d, seed): d^3 i.i.d. N(0,1) entries."""
        if d < 1:
            raise DimensionMismatchError(f"d must be >= 1, got {d}")
        gen = stream(seed, "spin-tensor").generator()
        return cls(d=d, seed=seed, a=gen.standard_normal((d, d, d)))

    def _grad_matrix(self) -> np.ndarray:
        """G_pqr = a_pqr + a_prq + a_rpq laid out as a (p, qr) matrix,
        cached: sum_pq x_p x_q G_pqr = d df/dx_r."""
        if self._sym_pqr is None:
            a, d = self.a, self.d
            sym = a + a.transpose((0, 2, 1)) + a.transpose((1, 2, 0))
            self._sym_pqr = sym.reshape(d, d * d)
        return self._sym_pqr

    def _eval_into(self, X, fx, gradf, scratch, P):
        """fx = f(X) and gradf = grad f(X) row by row; gradf is a
        contiguous (n, d) array and P is not used, since every row is
        evaluated alone.  The calls are those of _calls, made as they come."""
        for f, args in self._calls(X, fx, gradf, scratch):
            f(*args)
        return gradf if fx is None else fx

    def _bind_eval(self, X, fx, gradf, scratch) -> tuple:
        return tuple(self._calls(X, fx, gradf, scratch))

    def _calls(self, X, fx, gradf, scratch):
        """The numpy calls of the 3-spin kernel, as (function, args) pairs
        whose views are built as they come.

        The first contraction, with _grad_matrix(), is a gemm whose rows
        can move in their last bits with the number of rows it meets, so
        every gemm meets _SLAB rows: X is walked in blocks of whole slabs,
        and a tail shorter than a slab goes through zero-padded in pad
        (its zero rows are written here, before its calls).  The second
        contraction, row by row, gives m = d grad f(x), and the value is
        x . m / (3d), so each row's value and gradient are the same
        wherever the row sits in X and whichever of them is asked for.
        """
        d, G = self.d, self._grad_matrix()
        m1, m2, pad = scratch
        block = m1.shape[0] // _SLAB * _SLAB
        for lo in range(0, X.shape[0], block):
            Xc = X[lo : lo + block]
            k = Xc.shape[0]
            whole = k - k % _SLAB
            if whole:  # sum over p, one gemm per slab
                yield np.matmul, (Xc[:whole].reshape(-1, _SLAB, d), G,
                                  m1[:whole].reshape(-1, _SLAB, d * d))
            if whole < k:
                pad[k - whole :] = 0.0
                yield operator.setitem, (pad, slice(k - whole), Xc[whole:])
                yield np.matmul, (pad, G, m1[whole : whole + _SLAB])
            m = m2[:k] if gradf is None else gradf[lo : lo + k].reshape(k, 1, d)
            yield np.matmul, (Xc[:, None, :], m1[:k].reshape(k, d, d), m)  # sum over q
            if fx is not None:
                xm = m2[:k, 0]
                yield np.multiply, (m[:, 0], Xc, xm)
                yield np.add.reduce, (xm, 1, None, fx[lo : lo + k])  # sum over r
        if gradf is not None:
            yield np.divide, (gradf, d, gradf)
        if fx is not None:
            yield np.divide, (fx, 3 * d, fx)

    def to_dict(self) -> dict:
        return {"kind": "spin3", "d": self.d, "seed": self.seed}

    report_key = to_dict

    @classmethod
    def from_dict(cls, blob: dict) -> "SpinTensor":
        if blob.get("kind") != "spin3":
            raise DimensionMismatchError(f"not a spin3 tensor blob: {blob!r}")
        for key in ("d", "seed"):
            # int() would truncate 2.5 and read true as 1: another realization
            if not isinstance(blob.get(key), int) or isinstance(blob[key], bool):
                raise DimensionMismatchError(
                    f"spin3 tensor {key!r} must be an int, got {blob.get(key)!r}"
                )
        return cls.sample(blob["d"], blob["seed"])


# rows of every gemm in the first contraction of the 3-spin kernel
_SLAB = 16


def _spin3_scratch(d: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m1, m2, pad) scratch of SpinTensor._eval_into for calls of up to
    rows rows, which every caller of _Target._eval_into or _bind_eval passes, whatever
    the kind of target.  A (k, d^2) block of m1 holds about
    _EVAL_BLOCK_ENTRIES entries and stays in a core's cache."""
    k = max(_SLAB, min(rows, _eval_block_rows(d * d)))
    return np.empty((k, d * d)), np.empty((k, 1, d)), np.empty((_SLAB, d))


@dataclass(frozen=True)
class PlantedTarget(_Target):
    """Finite signed mixture of units: f(x) = sum_k w_k phihat(x, z_k)."""

    unit: object
    weights: np.ndarray
    locations: np.ndarray

    _name = "planted"
    # one product per batch, whose rows move in their last bits when it is cut
    row_local = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        loc = np.asarray(self.locations, dtype=np.float64)
        if w.size == 0:
            # an empty mixture is the zero target
            w = w.reshape(0)
            loc = loc.reshape(0, self.unit.param_dim)
        else:
            loc = np.atleast_2d(loc)
        if w.ndim != 1:
            raise DimensionMismatchError("weights must be a 1-d array")
        if np.any(w == 0.0):
            raise DimensionMismatchError("atom weights must be nonzero")
        if loc.shape != (w.size, self.unit.param_dim):
            raise DimensionMismatchError(
                f"locations shape {loc.shape} does not match "
                f"{w.size} atoms of param_dim {self.unit.param_dim}"
            )
        self.unit.validate_params(loc)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "locations", loc)

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    @property
    def d(self) -> int:
        return self.unit.d

    def report_key(self) -> dict:
        return {"kind": "planted", "atoms": int(self.weights.size)}

    def _eval_into(self, X, fx, gradf, scratch, P):
        """fx = f(X), one product per batch of P rows, and gradf = the
        input-space gradient rows of the mixture; scratch is not used."""
        if fx is not None:
            for lo in range(0, X.shape[0], P):
                fx[lo : lo + P] = self.unit.features(X[lo : lo + P], self.locations) @ self.weights
        if gradf is not None:
            gradf.fill(0.0)
            for w, z in zip(self.weights, self.locations):
                gradf += w * self.unit.grad_input(X, z)
        return gradf if fx is None else fx


def jordan_sample(p: PlantedTarget, n: int, rng):
    """Unbiased n-particle representation of the mixture.

    Locations are drawn i.i.d. from the |w|-weighted atom distribution and
    every particle weight is +/- total_variation with the sign of its atom,
    so the expected network equals the mixture pointwise.
    """
    if n < 1:
        raise DimensionMismatchError(f"n must be >= 1, got {n}")
    gen = generator_for(rng)
    tv = p.total_variation
    if tv == 0.0:
        raise DegenerateMeasureError("cannot sample from a zero-mass mixture")
    probs = np.abs(p.weights) / tv
    idx = gen.choice(p.weights.size, size=n, p=probs)
    c = tv * np.sign(p.weights[idx])
    return ParticleEnsemble(unit=p.unit, c=c, z=p.locations[idx].copy())


def _as_target(target, what: str) -> _Target:
    """target, or TypeError unless it is a SpinTensor or a PlantedTarget."""
    if not isinstance(target, _Target):
        raise TypeError(f"{what} target of type {type(target).__name__}")
    return target


def evaluate_target(target, X: np.ndarray) -> np.ndarray:
    """Target values at the rows of X for a SpinTensor or a PlantedTarget;
    any other object raises TypeError."""
    return _as_target(target, "cannot evaluate").eval_rows(X)


def target_grad_rows(target, Z: np.ndarray) -> np.ndarray:
    """Ambient input-space gradient rows of a SpinTensor or a PlantedTarget;
    any other object raises TypeError."""
    return _as_target(target, "no gradient available for").grad_rows(Z)


def _check_target_d(target, unit) -> None:
    """Raise TypeError unless target is a SpinTensor or a PlantedTarget and
    DimensionMismatchError unless it lives in the unit's input dimension."""
    if _as_target(target, "cannot train on").d != unit.d:
        raise DimensionMismatchError(f"points have d = {unit.d}, {target._name} d = {target.d}")
