"""Target functions: spherical 3-spin polynomials and planted unit mixtures.

A 3-spin target is f(x) = (1/d) sum_{pqr} a_pqr x_p x_q x_r with a dense,
unsymmetrized coefficient tensor of i.i.d. standard normals.  The tensor is
keyed by (d, realization seed) and is reconstructed from that key on load,
so realizations can be pinned across runs without shipping d^3 floats.

A planted target is a finite signed mixture of units, f(x) = sum_k w_k
phihat(x, z_k); it gives initializations and fixed points with known
structure.  These two are the only targets: evaluate_target and
target_grad_rows refuse anything else with a TypeError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import generator_for, stream
from .units import ParticleEnsemble, _eval_block_rows


class DimensionMismatchError(ValueError):
    pass


class DegenerateMeasureError(ValueError):
    """Raised when an operation needs a nonzero total-variation mixture."""


@dataclass(eq=False)
class SpinTensor:
    """Dense order-3 coefficient tensor; immutable after construction."""

    d: int
    seed: int
    a: np.ndarray
    _sym_qpr: np.ndarray | None = field(default=None, init=False, repr=False)

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
        """The symmetrized tensor a_pqr + a_rpq + a_qrp laid out as a
        (q, p r) matrix, cached for the gradient."""
        if self._sym_qpr is None:
            a, d = self.a, self.d
            sym = a + a.transpose((1, 2, 0)) + a.transpose((2, 0, 1))
            self._sym_qpr = sym.transpose((1, 0, 2)).reshape(d, d * d)
        return self._sym_qpr

    def to_dict(self) -> dict:
        return {"kind": "spin3", "d": self.d, "seed": self.seed}

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


# rows per chunk of the 3-spin evaluation of a batch
_SPIN3_CHUNK = 4096


def _spin3_block_rows(d: int) -> int:
    """Rows per block of the 3-spin evaluation: a (rows, d^2) block holds
    _EVAL_BLOCK_ENTRIES entries and stays in a core's cache."""
    return min(_SPIN3_CHUNK, _eval_block_rows(d * d))


def _spin3_scratch(d: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(m1, m2) scratch of _spin3_eval_into for calls of up to rows rows."""
    k = max(1, min(rows, _spin3_block_rows(d)))
    return np.empty((k, d * d)), np.empty((k, 1, d))


def _spin3_blocks(rows: int, part: int, block: int) -> list:
    """(lo, hi, g) row blocks of _spin3_eval_into: rows lo..hi go through
    the first contraction as g gemms of (hi - lo) / g rows."""
    if rows <= min(part, block):
        return [(0, rows, 1)]
    cuts = []
    if part <= block:
        whole = rows - rows % part
        step = block // part * part
        for lo in range(0, whole, step):
            hi = min(lo + step, whole)
            cuts.append((lo, hi, (hi - lo) // part))
        if whole < rows:
            cuts.append((whole, rows, 1))
        return cuts
    for plo in range(0, rows, part):
        phi = min(plo + part, rows)
        for clo in range(plo, phi, _SPIN3_CHUNK):
            chi = min(clo + _SPIN3_CHUNK, phi)
            cuts.extend((lo, min(lo + block, chi), 1) for lo in range(clo, chi, block))
    return cuts


def _spin3_eval_into(t: SpinTensor, X: np.ndarray, out: np.ndarray, m1: np.ndarray,
                     m2: np.ndarray, part: int = _SPIN3_CHUNK) -> np.ndarray:
    """out = f(X) row by row; (m1, m2) is _spin3_scratch(d, len(X)).

    The first contraction is a gemm whose rows can move in their last bits
    with the number of rows it meets.  So it cuts X as one-shot calls on
    consecutive parts of `part` rows would: each part in chunks of
    _SPIN3_CHUNK rows, each chunk in blocks of _spin3_block_rows(d) rows.
    Parts no longer than a block go a block's worth of whole parts at a
    time through one stacked matmul, which makes one gemm per part.  The
    other steps work row by row.
    """
    d = t.d
    flat = t.a.reshape(d, d * d)
    for lo, hi, g in _spin3_blocks(X.shape[0], part, _spin3_block_rows(d)):
        Xc = X[lo:hi]
        k = hi - lo
        if g == 1:
            np.matmul(Xc, flat, out=m1[:k])                                # sum over p
        else:  # one gemm per part
            np.matmul(Xc.reshape(g, k // g, d), flat, out=m1[:k].reshape(g, k // g, d * d))
        m = np.matmul(Xc[:, None, :], m1[:k].reshape(k, d, d), out=m2[:k])  # sum over q
        m = m[:, 0, :]
        m *= Xc
        np.add.reduce(m, axis=1, out=out[lo:hi])                            # sum over r
    out /= d
    return out


def spin3_eval_rows(t: SpinTensor, X: np.ndarray) -> np.ndarray:
    """f(x) = (1/d) sum_{pqr} a_pqr x_p x_q x_r for each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != t.d:
        raise DimensionMismatchError(f"points have d = {X.shape[1]}, tensor d = {t.d}")
    return _spin3_eval_into(t, X, np.empty(X.shape[0]), *_spin3_scratch(t.d, X.shape[0]))


def _spin3_grad_into(t: SpinTensor, Z: np.ndarray, out: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """out = gradient rows at Z, in blocks of _spin3_block_rows(d) rows;
    out is a contiguous (n, d) array and m1 is _spin3_scratch(d, n)[0]."""
    n, d = Z.shape
    rows = m1.shape[0]
    for lo in range(0, n, rows):
        Zb = Z[lo : lo + rows]
        k = Zb.shape[0]
        T = np.matmul(Zb, t._grad_matrix(), out=m1[:k]).reshape(k, d, d)  # sum over q
        np.matmul(T, Zb[:, :, None], out=out[lo : lo + k].reshape(k, d, 1))  # over r
    out /= d
    return out


def spin3_grad_rows(t: SpinTensor, Z: np.ndarray) -> np.ndarray:
    """Ambient gradient rows: (1/d) sum_{qr} (a_pqr + a_rpq + a_qrp) z_q z_r."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if Z.shape[1] != t.d:
        raise DimensionMismatchError(f"points have d = {Z.shape[1]}, tensor d = {t.d}")
    n, d = Z.shape
    return _spin3_grad_into(t, Z, np.empty((n, d)), _spin3_scratch(d, n)[0])


@dataclass(frozen=True)
class PlantedTarget:
    """Finite signed mixture of units: f(x) = sum_k w_k phihat(x, z_k)."""

    unit: object
    weights: np.ndarray
    locations: np.ndarray

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

    def eval_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.unit.features(X, self.locations) @ self.weights

    def grad_rows(self, X: np.ndarray) -> np.ndarray:
        """Input-space gradient rows of the mixture."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros_like(X)
        for w, z in zip(self.weights, self.locations):
            out += w * self.unit.grad_input(X, z)
        return out


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


def evaluate_target(target, X: np.ndarray) -> np.ndarray:
    """Target values at the rows of X for a SpinTensor or a PlantedTarget;
    any other object raises TypeError."""
    if isinstance(target, SpinTensor):
        return spin3_eval_rows(target, X)
    if isinstance(target, PlantedTarget):
        return target.eval_rows(X)
    raise TypeError(f"cannot evaluate target of type {type(target).__name__}")


def _check_target_d(target, unit) -> None:
    """Raise DimensionMismatchError unless a SpinTensor or PlantedTarget
    target lives in the unit's input dimension."""
    if isinstance(target, SpinTensor) and target.d != unit.d:
        raise DimensionMismatchError(f"points have d = {unit.d}, tensor d = {target.d}")
    if isinstance(target, PlantedTarget) and target.unit.d != unit.d:
        raise DimensionMismatchError(f"points have d = {unit.d}, planted d = {target.unit.d}")


def target_grad_rows(target, Z: np.ndarray) -> np.ndarray:
    """Ambient input-space gradient rows of a SpinTensor or a PlantedTarget;
    any other object raises TypeError."""
    if isinstance(target, SpinTensor):
        return spin3_grad_rows(target, Z)
    if isinstance(target, PlantedTarget):
        return target.grad_rows(Z)
    raise TypeError(f"no gradient available for target of type {type(target).__name__}")
