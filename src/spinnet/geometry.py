"""Geometry of the sphere S^{d-1}(radius): sampling, retraction, tangent maps.

Data points and RBF particle positions live on the sphere of radius
sqrt(d).  Constrained dynamics is realized as tangent projection of the
drift followed by retraction of the updated point, so nothing here ever
computes a Lagrange multiplier explicitly.
"""
from __future__ import annotations

import numpy as np

from .rng import generator_for


class InvalidDimensionError(ValueError):
    pass


class DegenerateVectorError(ValueError):
    pass


# Relative half-width of the band around the target radius inside which a
# vector is returned unchanged.  One retraction lands within a few ulps of
# the radius, so a second retraction is a bit-for-bit no-op.
_RETRACT_GATE = 1e-14


# Gaussian rows shorter than this are redrawn before they are scaled onto
# the sphere.
_NORM_FLOOR = 1e-12

# Rows per chunk of every row rule that a streamed evaluation must follow:
# the sampler redraws short rows chunk by chunk, the network evaluation
# walks its blocks chunk by chunk and a residual is summed chunk by chunk,
# so a batch taken in chunks of this many rows has the bits of the whole.
_FINAL_EVAL_CHUNK = 4096


def _short_rows(nrm: np.ndarray) -> np.ndarray:
    """Mask of the row norms that _redraw_short_rows would redraw."""
    return nrm < _NORM_FLOOR


def _redraw_short_rows(d: int, gen: np.random.Generator, X: np.ndarray, nrm: np.ndarray,
                       tmp: np.ndarray) -> np.ndarray:
    """Redraw from gen the rows of X whose norm nrm is below _NORM_FLOOR
    until none is; nrm is updated, tmp is X-shaped scratch."""
    while _short_rows(nrm).any():
        bad = _short_rows(nrm)
        X[bad] = gen.standard_normal((int(bad.sum()), d))
        nrm = np.sqrt(_sq_norms_into(X, nrm, tmp), out=nrm)
    return nrm


def _scale_to_sphere(X: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """X * sqrt(d) / nrm in place: rows of X with nonzero norms nrm onto
    S^{d-1}(sqrt(d))."""
    np.multiply(X, np.sqrt(X.shape[1]), out=X)
    # divide directly (not reciprocal-multiply) so d=1 gives exactly +-1
    return np.divide(X, nrm[:, None], out=X)


def _gaussian_rows_into(d: int, gen: np.random.Generator, X: np.ndarray, nrm: np.ndarray,
                        tmp: np.ndarray) -> np.ndarray:
    """Fill the (size, d) array X with Gaussian rows from gen and nrm with
    their norms, chunk by chunk: the short rows of a chunk of
    _FINAL_EVAL_CHUNK rows are redrawn before the next chunk is drawn, so
    drawing X in pieces of whole chunks gives the rows of one call; tmp is
    X-shaped scratch."""
    for lo in range(0, X.shape[0], _FINAL_EVAL_CHUNK):
        rows = slice(lo, lo + _FINAL_EVAL_CHUNK)
        Xc, nc, tc = X[rows], nrm[rows], tmp[rows]
        gen.standard_normal(out=Xc)
        _redraw_short_rows(d, gen, Xc, np.sqrt(_sq_norms_into(Xc, nc, tc), out=nc), tc)
    return nrm


def _sphere_rows_into(d: int, gen: np.random.Generator, X: np.ndarray, nrm: np.ndarray,
                      tmp: np.ndarray) -> np.ndarray:
    """Fill the (size, d) array X with i.i.d. uniform points on
    S^{d-1}(sqrt(d)), drawn as _gaussian_rows_into draws them; nrm (size,)
    and tmp (size, d) are scratch."""
    return _scale_to_sphere(X, _gaussian_rows_into(d, gen, X, nrm, tmp))


def sample_sphere_rows(d: int, size: int, rng) -> np.ndarray:
    """(size, d) array of i.i.d. uniform points on S^{d-1}(sqrt(d)).

    Normalized Gaussian vectors scaled by sqrt(d); rows with underflowing
    norm are redrawn.
    """
    if d < 1:
        raise InvalidDimensionError(f"d must be >= 1, got {d}")
    gen = generator_for(rng)
    return _sphere_rows_into(d, gen, np.empty((size, d)), np.empty(size), np.empty((size, d)))


def _sq_norms_into(Z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = |z|^2 per row of Z, summed as np.linalg.norm sums before its
    square root; tmp is Z-shaped scratch."""
    np.multiply(Z, Z, out=tmp)
    return np.add.reduce(tmp, axis=-1, out=out)


def _retract_into(U: np.ndarray, nrm: np.ndarray, radius: float, out: np.ndarray,
                  scale: np.ndarray) -> np.ndarray:
    """out = rows of U rescaled onto the sphere, given their nonzero norms
    nrm; scale is nrm-shaped scratch.  out may be U."""
    np.subtract(nrm, radius, out=scale)
    np.abs(scale, out=scale)
    keep = scale <= _RETRACT_GATE * radius
    np.divide(radius, nrm, out=scale)
    np.copyto(scale, 1.0, where=keep)
    return np.multiply(U, scale[..., None], out=out)


def retract_rows(Z: np.ndarray, radius: float) -> np.ndarray:
    """Rescale each row of Z onto the sphere of the given radius.

    Rows already within _RETRACT_GATE (relative) of the radius pass through
    bit-for-bit, which makes the retraction exactly idempotent.
    """
    if not (radius > 0.0):
        raise DegenerateVectorError(f"radius must be positive, got {radius}")
    Z = np.asarray(Z, dtype=np.float64)
    nrm = np.sqrt(_sq_norms_into(Z, np.empty(Z.shape[:-1]), np.empty(Z.shape)))
    if np.any(nrm == 0.0):
        raise DegenerateVectorError("cannot retract a zero vector onto the sphere")
    return _retract_into(Z, nrm, radius, np.empty(Z.shape), np.empty(nrm.shape))


def _tangent_project_into(V: np.ndarray, Z: np.ndarray, zz: np.ndarray, out: np.ndarray,
                          coef: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = v - (v.z / zz) z per row, given the nonzero zz = |z|^2; coef is
    zz-shaped and tmp Z-shaped scratch.  out may be V."""
    np.multiply(V, Z, out=tmp)
    np.add.reduce(tmp, axis=-1, out=coef)
    coef /= zz
    np.multiply(coef[..., None], Z, out=tmp)
    return np.subtract(V, tmp, out=out)


def tangent_project_rows(V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Project each row of V onto the tangent space of the sphere at the
    matching row of Z: v - (v.z / |z|^2) z."""
    V = np.asarray(V, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    rows = np.broadcast_shapes(V.shape, Z.shape)
    zz = _sq_norms_into(Z, np.empty(Z.shape[:-1]), np.empty(Z.shape))
    if np.any(zz == 0.0):
        raise DegenerateVectorError("tangent projection at the origin is undefined")
    return _tangent_project_into(V, Z, zz, np.empty(rows), np.empty(rows[:-1]), np.empty(rows))
