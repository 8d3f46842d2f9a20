"""Exact Gaussian process conditionals on warped inputs.

Given a fixed subordinator path the observations follow an ordinary GP on
the warped coordinates, so the posterior mean/covariance at test points
and the log conditional likelihood (the Metropolis-Hastings weight) have
closed forms.  Each function here goes through a single Cholesky
factorization of the noisy training Gram matrix; no explicit inverses.
These are the exact reference computations.  With a Matern-5/2 kernel on
1-D data the sampler scores its proposals and draws its stored-sweep
posteriors with ``statespace.StateSpaceLikelihood`` instead, a Kalman
filter and smoother of the same model; ``posterior`` remains the dense
reference and serves every other chain and the plain-GP baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .errors import NumericalError
from .kernels import KernelSpec, as_point_matrix, build_gram
from .levy import SubordinatorPath

_NEG_VARIANCE_SLACK = -1e-10


@dataclass(frozen=True)
class RegressionData:
    """Raw inputs, observations and homoscedastic noise variance."""

    X: np.ndarray
    y: np.ndarray
    noise_variance: float

    def __post_init__(self):
        X = as_point_matrix(self.X).copy()
        y = np.array(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0] or X.shape[0] < 1:
            raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("inputs and observations must be finite")
        if not self.noise_variance > 0:
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def ndim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ConditionalPosterior:
    """GP posterior moments at test points for one fixed warp, plus its weight."""

    mean: np.ndarray
    cov: np.ndarray
    log_cond_lik: float


def warp_inputs(path: SubordinatorPath | None, X: np.ndarray) -> np.ndarray:
    """Map each coordinate through its dimension's subordinator.

    ``path=None`` leaves the inputs untouched (plain GP on raw inputs).
    """
    X = as_point_matrix(X)
    if path is None:
        return X
    if path.ndim != X.shape[1]:
        raise ValueError(f"path has {path.ndim} dimensions, X has {X.shape[1]}")
    warped = np.empty_like(X)
    for k in range(X.shape[1]):
        warped[:, k] = path.values(X[:, k], dim=k)
    return warped


def _factorize(data: RegressionData, path: SubordinatorPath | None, kspec: KernelSpec):
    """Cholesky of the noisy training Gram on warped inputs.

    Returns (warped X, cho_factor output, K_y^-1 y, log conditional likelihood).
    """
    Xw = warp_inputs(path, data.X)
    K = build_gram(Xw, None, kspec)
    K[np.diag_indices_from(K)] += data.noise_variance
    try:
        factor = cho_factor(K, lower=True)
    except LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed for an n={data.n} training Gram "
            f"(noise_variance={data.noise_variance}, jitter={kspec.jitter}): {exc}"
        ) from exc
    alpha = cho_solve(factor, data.y)
    log_det = 2.0 * np.sum(np.log(np.diag(factor[0])))
    log_lik = -0.5 * float(data.y @ alpha) - 0.5 * log_det - 0.5 * data.n * np.log(2.0 * np.pi)
    if not np.isfinite(log_lik):
        raise NumericalError(f"non-finite log conditional likelihood ({log_lik})")
    return Xw, factor, alpha, log_lik


def log_conditional_likelihood(data: RegressionData, path: SubordinatorPath | None,
                               kspec: KernelSpec) -> float:
    """log N(y; 0, K_W + noise_variance * I) on the warped inputs."""
    return _factorize(data, path, kspec)[3]


def posterior(data: RegressionData, X_test: np.ndarray, path: SubordinatorPath | None,
              kspec: KernelSpec) -> ConditionalPosterior:
    """Posterior mean/covariance at test points for one fixed warp.

    Negative posterior-variance entries within the numerical slack are
    clamped to zero; anything worse raises ``NumericalError``.
    """
    Xw, factor, alpha, log_lik = _factorize(data, path, kspec)
    Xw_test = warp_inputs(path, X_test)
    K_cross = build_gram(Xw, Xw_test, kspec)
    # The test-test block is never factorized: built as a cross Gram, it gets no jitter.
    K_test = build_gram(Xw_test, Xw_test, kspec)
    mean = K_cross.T @ alpha
    V = solve_triangular(factor[0], K_cross, lower=True, check_finite=False)
    # gemm, then symmetrize: numpy sends V.T @ V to a threaded syrk, whose idle OpenBLAS
    # threads slow the chain's small-matrix work afterwards unless BLAS runs one thread.
    cov = K_test - V.T @ V.copy()
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov)
    if diag.size and diag.min() < _NEG_VARIANCE_SLACK:
        raise NumericalError(
            f"posterior variance {diag.min():.3e} below tolerance {_NEG_VARIANCE_SLACK:.0e}"
        )
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return ConditionalPosterior(mean=mean, cov=cov, log_cond_lik=log_lik)


def gp_log_marginal_likelihood(data: RegressionData, kspec: KernelSpec) -> float:
    """Marginal likelihood of the plain GP on raw (unwarped) inputs."""
    return log_conditional_likelihood(data, None, kspec)


def grid_search_length_scale(data: RegressionData, kspec: KernelSpec,
                             grid: np.ndarray | None = None) -> tuple[float, float]:
    """Pick the length scale maximizing the plain-GP marginal likelihood.

    The default grid is 60 log-spaced values in [1e-3, 2]; suited to
    inputs on roughly unit-scale domains.
    """
    if grid is None:
        grid = np.geomspace(1e-3, 2.0, 60)
    best_l, best_lml = None, -np.inf
    for l in grid:
        lml = gp_log_marginal_likelihood(data, replace(kspec, length_scale=float(l)))
        if lml > best_lml:
            best_l, best_lml = float(l), lml
    return best_l, best_lml
