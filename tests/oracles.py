"""Independent numerical oracles used by the test suite.

Everything here is computed by quadrature, dense linear algebra or brute
force, never through the library's own simulation / factorization paths.
"""

import math

import numpy as np
from scipy import integrate, special
from scipy.stats import gamma as gamma_dist


def ts_density(x, C, alpha, beta):
    return C * x ** (-1.0 - alpha) * np.exp(-beta * x)


def ts_moment(k, C, alpha, beta):
    """int x^k * density dx over (0, inf) by quadrature."""
    val, _ = integrate.quad(lambda x: x ** k * ts_density(x, C, alpha, beta), 0, np.inf)
    return val


def ts_tail_mass(eps, C, alpha, beta):
    val, _ = integrate.quad(lambda x: ts_density(x, C, alpha, beta), eps, np.inf)
    return val


def ts_tail_cdf_grid(eps, C, alpha, beta, upper, n_grid=20000):
    """CDF of the normalized jump density on [eps, upper], on a log grid."""
    grid = np.geomspace(eps, upper, n_grid)
    dens = ts_density(grid, C, alpha, beta)
    cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    cdf /= ts_tail_mass(eps, C, alpha, beta)
    return grid, np.clip(cdf, 0.0, 1.0)


def truncated_ts_moments(C, alpha, beta, n_terms, rate):
    """Mean and variance of the n-term thinned stable series.

    Conditions on the last Poisson epoch G_n ~ Gamma(n_terms, rate): given
    G_n = g the earlier epochs are i.i.d. uniform on (0, g), so the inner
    moments reduce to incomplete-gamma integrals of the candidate map
    h(u) = (alpha u / C)^(-1/alpha) with Bernoulli(e^{-beta x}) thinning.
    """
    n = n_terms

    def h(g):
        return (alpha * g / C) ** (-1.0 / alpha)

    def g1(x):
        return x * np.exp(-beta * x)

    def g2(x):
        return x * x * np.exp(-beta * x)

    def int_g1_above(c):
        # int_c^inf x e^{-beta x} C x^{-1-alpha} dx
        return (C * beta ** (alpha - 1) * special.gamma(1 - alpha)
                * special.gammaincc(1 - alpha, beta * c))

    def int_g2_above(c):
        return (C * beta ** (alpha - 2) * special.gamma(2 - alpha)
                * special.gammaincc(2 - alpha, beta * c))

    def cond_mean(g):
        c = h(g)
        return g1(c) + (n - 1) / g * int_g1_above(c)

    def cond_var(g):
        c = h(g)
        a1 = int_g1_above(c) / g
        a2 = int_g2_above(c) / g
        return (g2(c) - g1(c) ** 2) + (n - 1) * (a2 - a1 ** 2)

    gn = gamma_dist(a=n, scale=1.0 / rate)
    lo, hi = gn.ppf(1e-12), gn.ppf(1 - 1e-12)
    mean = integrate.quad(lambda g: cond_mean(g) * gn.pdf(g), lo, hi, limit=300)[0]
    e_var = integrate.quad(lambda g: cond_var(g) * gn.pdf(g), lo, hi, limit=300)[0]
    e_m2 = integrate.quad(lambda g: cond_mean(g) ** 2 * gn.pdf(g), lo, hi, limit=300)[0]
    return mean, e_var + e_m2 - mean ** 2


def horizon_ts_moments(C, alpha, beta, horizon, measure):
    """Mean and variance of the tempered-stable series cut at an epoch horizon.

    Epochs on ``(0, horizon]`` at rate ``measure`` map to stable candidates
    above ``c = h(horizon) = (alpha horizon / C)^(-1/alpha)``; thinning with
    ``e^{-beta x}`` leaves jumps with intensity ``measure * ts_density`` on
    ``(c, inf)``.  The sum is compound Poisson, so its mean and variance are
    ``measure`` times the first and second moments of that density above c.
    """
    c = (alpha * horizon / C) ** (-1.0 / alpha)

    def above_c(k):
        def f(x):
            return x ** k * ts_density(x, C, alpha, beta)

        split = max(c, 1.0)
        return (integrate.quad(f, c, split, limit=200)[0]
                + integrate.quad(f, split, np.inf, limit=200)[0])

    return measure * above_c(1), measure * above_c(2)


def gamma_fn_by_quadrature(z):
    """Gamma function via its integral definition, independent of scipy.special."""
    val, _ = integrate.quad(lambda t: t ** (z - 1.0) * np.exp(-t), 0, np.inf)
    return val


def dense_gp_posterior(Xw, y, Xw_test, kernel_fn, noise_variance, jitter_variance):
    """Naive O(n^3) GP posterior and log-likelihood via explicit inverse.

    ``kernel_fn`` maps a distance matrix to covariances; ``Xw``/``Xw_test``
    are warped coordinate matrices.
    """
    from scipy.spatial.distance import cdist

    n = Xw.shape[0]
    K = kernel_fn(cdist(Xw, Xw)) + jitter_variance * np.eye(n)
    Ky = K + noise_variance * np.eye(n)
    Ky_inv = np.linalg.inv(Ky)
    mean = kernel_fn(cdist(Xw, Xw_test)).T @ Ky_inv @ y
    K_cross = kernel_fn(cdist(Xw, Xw_test))
    cov = kernel_fn(cdist(Xw_test, Xw_test)) - K_cross.T @ Ky_inv @ K_cross
    sign, logdet = np.linalg.slogdet(Ky)
    assert sign > 0
    log_lik = -0.5 * y @ Ky_inv @ y - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
    return mean, cov, log_lik


def brute_force_mixture(means, covs):
    """Mixture mean/cov by direct elementwise arithmetic loops."""
    N = len(means)
    m = len(means[0])
    mean = [sum(means[k][i] for k in range(N)) / N for i in range(m)]
    cov = [[0.0] * m for _ in range(m)]
    for k in range(N):
        for i in range(m):
            for j in range(m):
                cov[i][j] += (covs[k][i][j]
                              + (means[k][i] - mean[i]) * (means[k][j] - mean[j])) / N
    return np.asarray(mean), np.asarray(cov)


def step_function_values(positions, magnitudes, x):
    """W(x) = sum of the magnitudes at positions <= x, for each x.

    Compares every point with every jump and sums with ``math.fsum``; no
    sorting, prefix sums or binary search.
    """
    positions = np.asarray(positions, dtype=float)
    magnitudes = np.asarray(magnitudes, dtype=float)
    return np.array([math.fsum(magnitudes[positions <= xi]) for xi in np.ravel(x)])


def backward_messages(A, Q, y, r):
    """Backward information messages of a 3-state model, one point at a time.

    ``A[i], Q[i]`` is the transition from sorted point ``i`` to ``i + 1``, the
    first state component is observed as ``y`` with noise variance ``r``.
    Returns ``(Lam, eta, c)`` with ``log p(y_{i+1:} | s_i = s) = c_i - s'Lam_i s / 2 + eta_i's``
    for every point, the last one's message empty.  Each step folds in point
    ``i + 1``'s observation and integrates over the transition,
    ``Lam <- A'(I + Lam Q)^-1 Lam A``, without inverting ``Q``.
    """
    n = len(y)
    lam_info, eta, c = np.zeros((n, 3, 3)), np.zeros((n, 3)), np.zeros(n)
    lam, e, const = np.zeros((3, 3)), np.zeros(3), 0.0
    for i in range(n - 2, -1, -1):
        lam = lam.copy()
        lam[0, 0] += 1.0 / r
        e = e + np.array([y[i + 1] / r, 0.0, 0.0])
        const -= 0.5 * (math.log(2 * math.pi) + math.log(r) + y[i + 1] ** 2 / r)
        M = np.eye(3) + lam @ Q[i]
        sol_lam, sol_eta = np.linalg.solve(M, lam), np.linalg.solve(M, e)
        sign, logdet = np.linalg.slogdet(M)
        assert sign > 0
        const += 0.5 * (Q[i] @ e) @ sol_eta - 0.5 * logdet
        lam = A[i].T @ sol_lam @ A[i]
        lam, e = 0.5 * (lam + lam.T), A[i].T @ sol_eta
        lam_info[i], eta[i], c[i] = lam, e, const
    return lam_info, eta, c


def rts_smooth(means, covs, A, Q):
    """Rauch-Tung-Striebel smoothed means and covariances, one point at a time.

    ``means``/``covs`` are the filtered states of the sorted points and
    ``A[k], Q[k]`` the transition from point ``k`` to ``k + 1``; a zero gap
    (``Q[k]`` all zero) links the two states with gain ``I``.
    """
    sm, sP = np.array(means, dtype=float), np.array(covs, dtype=float)
    for k in range(len(sm) - 2, -1, -1):
        pred = A[k] @ covs[k] @ A[k].T + Q[k]
        gain = np.eye(3) if not np.any(Q[k]) else np.linalg.solve(pred, A[k] @ covs[k]).T
        sm[k] = means[k] + gain @ (sm[k + 1] - A[k] @ means[k])
        sP[k] = covs[k] + gain @ (sP[k + 1] - pred) @ gain.T
    return sm, 0.5 * (sP + sP.transpose(0, 2, 1))
