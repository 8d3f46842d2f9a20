"""Stationary covariance functions on (warped) coordinates and Gram assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQUARED_EXPONENTIAL = "se"
MATERN52 = "matern52"

_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)


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
        if not self.length_scale > 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if not self.signal_variance > 0:
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")


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


def build_gram(points_a: np.ndarray, points_b: np.ndarray | None,
               spec: KernelSpec) -> np.ndarray:
    """Kernel Gram matrix over Euclidean distances of warped coordinates.

    With ``points_b=None`` the matrix is built on ``points_a`` against
    itself and ``spec.jitter * signal_variance`` is added to the diagonal.
    Cross Gram matrices get no stabilizer, even when both point sets are
    the same array.  Distances start at ``|a_i0 - b_j0|`` and fold in each
    further coordinate with ``hypot``: in one dimension that is ``cdist``'s
    ``sqrt((a_i - b_j)^2)`` unless that square underflows, and in more it
    agrees with ``cdist`` to rounding.
    """
    a = as_point_matrix(points_a)
    b = a if points_b is None else as_point_matrix(points_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} and {b.shape[1]}")
    r = np.subtract.outer(a[:, 0], b[:, 0])
    np.abs(r, out=r)
    for k in range(1, a.shape[1]):
        np.hypot(r, np.subtract.outer(a[:, k], b[:, k]), out=r)
    gram = _covariance(spec, r)
    if points_b is None:
        gram.ravel()[::a.shape[0] + 1] += spec.jitter * spec.signal_variance
    return gram
