"""Synthetic dataset generation from the warped-GP prior (or a plain GP prior)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import NumericalError
from .kernels import KernelSpec, build_gram
from .levy import LevyMeasureSpec, SubordinatorPath, finite_domain, simulate_path
from .gp import warp_inputs

EVEN_GRID = "even"
UNIFORM_GRID = "uniform"


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to regenerate a dataset: domain, sizes, kernel, warp, noise, seed.

    ``levy=None`` means the identity warp, i.e. plain GP prior sampling.
    """

    domains: tuple[tuple[float, float], ...]
    n_points: int
    n_observed: int
    kernel: KernelSpec
    levy: LevyMeasureSpec | None
    noise_std: float
    seed: int = 0
    grid: str = EVEN_GRID

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(finite_domain(lo, hi) for lo, hi in self.domains))
        if self.n_points < 1:
            raise ValueError(f"n_points must be at least 1, got {self.n_points}")
        if not 1 <= self.n_observed <= self.n_points:
            raise ValueError(
                f"n_observed ({self.n_observed}) must lie in [1, n_points={self.n_points}]"
            )
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be non-negative and finite, got {self.noise_std}")
        if self.grid not in (EVEN_GRID, UNIFORM_GRID):
            raise ValueError(f"unknown grid mode {self.grid!r}")


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated inputs, observations, observed mask and the generating path."""

    X: np.ndarray
    y: np.ndarray
    observed: np.ndarray
    true_path: SubordinatorPath | None


def _input_grid(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    d = len(spec.domains)
    if spec.grid == UNIFORM_GRID:
        cols = [rng.uniform(lo, hi, size=spec.n_points) for lo, hi in spec.domains]
        return np.column_stack(cols)
    per_dim = round(spec.n_points ** (1.0 / d))
    if per_dim ** d != spec.n_points:
        raise ValueError(
            f"even grid in {d} dimensions needs n_points to be a perfect {d}-th power; "
            f"got {spec.n_points} (use grid='uniform' instead)"
        )
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in spec.domains]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def generate(spec: GenSpec, rng: np.random.Generator) -> SyntheticDataset:
    """Draw a warp, sample the conditional GP on the warped grid, add noise.

    The observed subset is drawn uniformly without replacement; the
    remaining points are the held-out test set.  The generating path is
    returned so the likelihood under the truth can be evaluated later.
    """
    X = _input_grid(spec, rng)
    path = None if spec.levy is None else simulate_path(spec.levy, spec.domains, rng)
    Xw = warp_inputs(path, X)
    if not np.all(np.isfinite(Xw)):
        raise NumericalError(f"non-finite warped inputs (n={X.shape[0]})")
    K = build_gram(Xw, None, spec.kernel)
    # K is symmetric: K.T is the same matrix in the Fortran order dpotrf factors in place.
    L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
    if info:
        raise NumericalError(f"prior Gram factorization failed (n={X.shape[0]}): "
                             f"leading minor {info} is not positive definite")
    f = L @ rng.standard_normal(X.shape[0])
    y = f + spec.noise_std * rng.standard_normal(X.shape[0])
    observed = np.zeros(spec.n_points, dtype=bool)
    observed[rng.choice(spec.n_points, size=spec.n_observed, replace=False)] = True
    return SyntheticDataset(X=X, y=y, observed=observed, true_path=path)
