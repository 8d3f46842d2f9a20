"""Exact Gaussian process conditionals on warped inputs.

Given a fixed subordinator path the observations follow an ordinary GP on
the warped coordinates, so the posterior mean/covariance at test points
and the log conditional likelihood (the Metropolis-Hastings weight) have
closed forms.  Each function here goes through a single Cholesky
factorization of the noisy training Gram matrix; no explicit inverses.
The factorization and the solves call LAPACK's ``dpotrf``, ``dpotrs`` and
``dtrtrs``, and the posterior covariance BLAS's ``dsyrk``, directly, which
skips the checks and copies of the ``scipy.linalg`` wrappers but runs the
same routines on the same inputs.  Each symmetric matrix is built and
updated on and above its diagonal only (``kernels.upper_gram``), which is
the lower triangle these routines read in the Fortran order of its
transpose; the posterior covariance is mirrored once before it is returned.
These are the exact reference computations.  With a Matern-5/2 kernel on
1-D data, ``sampler.chain_likelihood`` scores that model, its plain-GP
baselines included, with ``statespace.StateSpaceLikelihood`` instead, a
Kalman filter and smoother; every other kernel and dimension goes through
``posterior`` and ``log_conditional_likelihood`` here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import NumericalError
from .kernels import KernelSpec, as_point_matrix, build_gram, mirror, upper_gram
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

    Returns (warped X, lower Cholesky factor, K_y^-1 y, log conditional likelihood).
    The factor overwrites the Gram's upper triangle in place, as the lower
    triangle of its Fortran-ordered transpose; the factor's other triangle
    is unspecified.
    """
    Xw = warp_inputs(path, data.X)
    K = upper_gram(Xw, kspec)
    diag = K.ravel()[::data.n + 1]
    diag += kspec.jitter * kspec.signal_variance
    diag += data.noise_variance
    L, info = dpotrf(K.T, lower=1, clean=0, overwrite_a=1)
    if info:
        raise NumericalError(
            f"Cholesky factorization failed for an n={data.n} training Gram "
            f"(noise_variance={data.noise_variance}, jitter={kspec.jitter}): "
            f"leading minor {info} is not positive definite"
        )
    alpha = dpotrs(L, data.y, lower=1)[0]
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    log_lik = -0.5 * float(data.y @ alpha) - 0.5 * log_det - 0.5 * data.n * np.log(2.0 * np.pi)
    if not np.isfinite(log_lik):
        raise NumericalError(f"non-finite log conditional likelihood ({log_lik})")
    return Xw, L, alpha, log_lik


def log_conditional_likelihood(data: RegressionData, path: SubordinatorPath | None,
                               kspec: KernelSpec) -> float:
    """log N(y; 0, K_W + noise_variance * I) on the warped inputs (raw at ``None``)."""
    return _factorize(data, path, kspec)[3]


def posterior(data: RegressionData, X_test: np.ndarray, path: SubordinatorPath | None,
              kspec: KernelSpec) -> ConditionalPosterior:
    """Posterior mean/covariance at test points for one fixed warp.

    Negative posterior-variance entries within the numerical slack are
    clamped to zero; anything worse raises ``NumericalError``.  Beyond the
    factorization, one m x m array is allocated for m test points.
    """
    Xw, L, alpha, log_lik = _factorize(data, path, kspec)
    Xw_test = warp_inputs(path, X_test)
    K_cross = build_gram(Xw, Xw_test, kspec)
    mean = K_cross.T @ alpha
    V = dtrtrs(L, K_cross, lower=1)[0]
    # The test-test block is never factorized, so it gets no jitter.  scipy's dsyrk
    # forms K* - V.T V in place in that triangle at half a gemm's flops.  With BLAS
    # threads not pinned it also beat numpy's gemm (0.15 vs 3.7 ms at m = 200 on
    # 2 cores) and left the small factorizations after it no slower.
    cov = upper_gram(Xw_test, kspec)
    if cov.size:  # dsyrk rejects m = 0
        dsyrk(-1.0, V, beta=1.0, c=cov.T, trans=1, lower=1, overwrite_c=1)
    mirror(cov)
    diag = np.diag(cov)
    if diag.size and diag.min() < _NEG_VARIANCE_SLACK:
        raise NumericalError(
            f"posterior variance {diag.min():.3e} below tolerance {_NEG_VARIANCE_SLACK:.0e}"
        )
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return ConditionalPosterior(mean=mean, cov=cov, log_cond_lik=log_lik)
