"""Stationary covariance functions on (warped) coordinates and Gram assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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


def kernel_value(spec: KernelSpec, r):
    """Covariance at distance ``r`` (scalar or array), ``r >= 0``."""
    r = np.asarray(r, dtype=float)
    if r.size and r.min() < 0:
        raise ValueError("distances must be non-negative")
    s = r / spec.length_scale
    if spec.family == SQUARED_EXPONENTIAL:
        k = np.exp(-0.5 * s * s)
    else:
        t = np.sqrt(5.0) * s
        k = (1.0 + t + (5.0 / 3.0) * s * s) * np.exp(-t)
    return spec.signal_variance * k


def build_gram(points_a: np.ndarray, points_b: np.ndarray | None,
               spec: KernelSpec) -> np.ndarray:
    """Kernel Gram matrix over Euclidean distances of warped coordinates.

    With ``points_b=None`` the matrix is built on ``points_a`` against
    itself and ``spec.jitter * signal_variance`` is added to the diagonal.
    Cross Gram matrices get no stabilizer, even when both point sets are
    the same array.
    """
    a = as_point_matrix(points_a)
    b = a if points_b is None else as_point_matrix(points_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty((a.shape[0], b.shape[0]))
    gram = kernel_value(spec, cdist(a, b))
    if points_b is None:
        gram[np.diag_indices_from(gram)] += spec.jitter * spec.signal_variance
    return gram
