"""Stationary covariance functions on (warped) coordinates and Gram assembly.

A Gram matrix of one point set against itself is built once, on and above
its diagonal (``upper_gram``); ``mirror`` copies it below where a full
matrix is wanted, and LAPACK and BLAS callers read the triangle directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQUARED_EXPONENTIAL = "se"
MATERN52 = "matern52"

_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)

# Rows per block of a same-set Gram: a block's distances fit in cache for m in the
# thousands.  Built in strided views of the Gram instead of a contiguous buffer,
# the same ufuncs took 1.5-2x as long.
_BLOCK = 64
_STRICT_LOWER = np.tri(_BLOCK, k=-1, dtype=bool)


def as_point_matrix(X) -> np.ndarray:
    """Coerce to an (n, d) float matrix; a 1-d array means n scalar points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected an (n, d) point matrix, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel: family, length scale, signal variance and jitter.

    ``jitter`` is the relative diagonal stabilizer used when a Gram matrix
    is built on a single point set.  Warped coordinates routinely contain
    exact duplicates (inputs falling on the same flat subordinator
    segment), so the stabilizer is always applied there.
    """

    family: str = SQUARED_EXPONENTIAL
    length_scale: float = 0.1
    signal_variance: float = 1.0
    jitter: float = 1e-8

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not 0 < self.length_scale < np.inf:
            raise ValueError(f"length_scale must be positive and finite, got {self.length_scale}")
        if not 0 < self.signal_variance < np.inf:
            raise ValueError(f"signal_variance must be positive and finite, got {self.signal_variance}")
        if not 0 <= self.jitter < np.inf:
            raise ValueError(f"jitter must be non-negative and finite, got {self.jitter}")


def _covariance(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Overwrite the float distances ``r`` with the covariances.

    Bit for bit the formulas in their written order, ``s = r / length_scale``:
    SE ``exp(-0.5 * s * s)`` (scaling ``s * s`` by -0.5 is exact) and
    Matern-5/2 ``(1 + t + 5/3 * s * s) * exp(-t)`` with ``t = sqrt(5) * s``.
    """
    r /= spec.length_scale
    if spec.family == SQUARED_EXPONENTIAL:
        r *= r
        r *= -0.5
        np.exp(r, out=r)
    else:
        poly = r * (5.0 / 3.0)
        poly *= r
        r *= np.sqrt(5.0)
        poly += r + 1.0
        np.negative(r, out=r)
        np.exp(r, out=r)
        r *= poly
    r *= spec.signal_variance
    return r


def kernel_value(spec: KernelSpec, r):
    """Covariance at distance ``r`` (scalar or array), ``r >= 0``."""
    r = np.array(r, dtype=float)  # a copy, which _covariance overwrites
    if r.size and r.min() < 0:
        raise ValueError("distances must be non-negative")
    return _covariance(spec, r)[()]


def _distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Euclidean distances between the rows of ``a`` and ``b`` into ``out``.

    They start at ``|a_i0 - b_j0|`` and fold in each further coordinate with
    ``hypot``: in one dimension that is ``cdist``'s ``sqrt((a_i - b_j)^2)``
    unless that square underflows, and in more it agrees with ``cdist`` to
    rounding.
    """
    np.subtract.outer(a[:, 0], b[:, 0], out=out)
    np.abs(out, out=out)
    for k in range(1, a.shape[1]):
        np.hypot(out, np.subtract.outer(a[:, k], b[:, k]), out=out)
    return out


def upper_gram(points: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Covariances of ``points`` against themselves, on and above the diagonal.

    C-ordered n x n, unspecified below the diagonal, no jitter; ``gram.T`` is
    that triangle in the Fortran order of LAPACK's ``lower=1``.  Rows are
    built ``_BLOCK`` at a time from the diagonal rightwards in one reused
    contiguous scratch buffer, each entry with ``build_gram``'s bits.
    """
    a = as_point_matrix(points)
    n = a.shape[0]
    gram = np.empty((n, n))
    scratch = np.empty(min(n, _BLOCK) * n)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        r = scratch[:(e - s) * (n - s)].reshape(e - s, n - s)
        gram[s:e, s:] = _covariance(spec, _distances(a[s:e], a[s:], r))
    return gram


def mirror(a: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of the square ``a`` onto its lower one, in place.

    Works ``_BLOCK`` rows at a time; returns ``a``, now exactly symmetric.
    """
    n = a.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        a[s:e, :s] = a[:s, s:e].T
        diag = a[s:e, s:e]
        np.copyto(diag, diag.T, where=_STRICT_LOWER[:e - s, :e - s])
    return a


def build_gram(points_a: np.ndarray, points_b: np.ndarray | None,
               spec: KernelSpec) -> np.ndarray:
    """Kernel Gram matrix over Euclidean distances of warped coordinates.

    With ``points_b=None`` the matrix is built on ``points_a`` against
    itself (``upper_gram``, then ``mirror``) and ``spec.jitter *
    signal_variance`` is added to the diagonal.  Cross Gram matrices get no
    stabilizer, even when both point sets are the same array.
    """
    a = as_point_matrix(points_a)
    if points_b is None:
        gram = mirror(upper_gram(a, spec))
        gram.ravel()[::a.shape[0] + 1] += spec.jitter * spec.signal_variance
        return gram
    b = as_point_matrix(points_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} and {b.shape[1]}")
    return _covariance(spec, _distances(a, b, np.empty((a.shape[0], b.shape[0]))))
