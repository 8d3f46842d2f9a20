"""Independent numerical oracles used by the test suite.

Everything here is computed by quadrature, dense linear algebra or brute
force, never through the library's own simulation / factorization paths.
The CSV references at the end read and write field by field with the
``csv`` module.
"""

import csv
import math
from typing import Iterable, Sequence

import numpy as np
from scipy import integrate, special
from scipy.stats import gamma as gamma_dist

from ngpr.levy import JumpSet, SubordinatorPath


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


def kernel_formula(family, length_scale, signal_variance, r):
    """SE or Matern-5/2 covariance at distances ``r``, written out term by term."""
    s = np.asarray(r, dtype=float) / length_scale
    if family == "se":
        k = np.exp(-0.5 * s * s)
    else:
        t = np.sqrt(5.0) * s
        k = (1.0 + t + (5.0 / 3.0) * s * s) * np.exp(-t)
    return signal_variance * k


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


def kalman_filter(gaps, A, Q, y, r, m, P, ll=0.0):
    """Covariance-form Kalman filter of a 3-state model, one point at a time with numpy.

    Point ``i`` is reached over ``gaps[i]`` with transition ``A[i]`` and
    process noise ``Q[i]`` (no predict step at a zero gap) and observes the
    first state component as ``y[i]`` with noise variance ``r``.  The run
    starts from the state ``(m, P)`` with log-likelihood ``ll``.  Returns the
    filtered means, covariances and cumulative log-likelihoods.
    """
    k = len(gaps)
    ms, Ps, lls = np.empty((k, 3)), np.empty((k, 3, 3)), np.empty(k)
    m, P = np.asarray(m, dtype=float), np.asarray(P, dtype=float)
    for i in range(k):
        if gaps[i] > 0.0:
            m = A[i] @ m
            P = A[i] @ P @ A[i].T + Q[i]
        s = P[0, 0] + r
        assert s > 0
        v = y[i] - m[0]
        gain = P[:, 0] / s
        m = m + gain * v
        P = P - gain[:, None] * P[0]
        P = 0.5 * (P + P.T)
        ll -= 0.5 * (math.log(2 * math.pi) + math.log(s) + v * v / s)
        ms[i], Ps[i], lls[i] = m, P, ll
    return ms, Ps, lls


def close_message(lam_info, eta, c, m, P):
    """``log int exp(c - s'Lam s / 2 + eta's) N(s; m, P) ds`` by a LAPACK solve and log det.

    With ``M = I + Lam P`` it is
    ``c - m'(M^-1 Lam)m / 2 + (M^-1 eta)'m + (P eta)'(M^-1 eta) / 2 - log det(M) / 2``.
    """
    M = np.eye(3) + lam_info @ P
    sol = np.linalg.solve(M, np.concatenate((lam_info, eta[:, None]), axis=1))
    sol_lam, sol_eta = sol[:, :3], sol[:, 3]
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    return float(c - 0.5 * m @ sol_lam @ m + sol_eta @ m + 0.5 * (P @ eta) @ sol_eta
                 - 0.5 * logdet)


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


def product_form_cov_rows(L, p):
    """Symmetric ``cov[i, j] = e0' L_i ... L_{j-1} p_j`` for ``i <= j``, one row at a time.

    ``L`` holds the m - 1 3 x 3 link gains and ``p`` the m 3-vectors.  Row
    ``i`` from the right: ``H[:, j] <- L_i H[:, j]`` for every ``j > i``.
    """
    p = np.asarray(p, dtype=float)
    m = len(p)
    upper = np.zeros((m, m))
    H = p.T.copy()
    for i in range(m - 2, -1, -1):
        H[:, i + 1:] = L[i] @ H[:, i + 1:]
        upper[i, i + 1:] = H[0, i + 1:]
    return upper + upper.T + np.diag(p[:, 0])


# ---------------------------------------------------------------------------
# reference CSV I/O: the per-row ``csv`` module code that ``ngpr.serialize``
# and ``ngpr.cli`` replaced with one bulk parser and one writer
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def path_rows(path: SubordinatorPath) -> list[tuple[int, float, float]]:
    """Rows (dim, position, magnitude) by dimension, then in each jump set's position order."""
    return [(dim, pos, mag) for dim, js in enumerate(path.jump_sets)
            for pos, mag in zip(js.positions.tolist(), js.magnitudes.tolist())]


def write_jumps_csv(fp, path: SubordinatorPath) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["dim", "position", "magnitude"])
    for dim, pos, mag in path_rows(path):
        writer.writerow([dim, _fmt(pos), _fmt(mag)])


def _data_rows(reader, width: int):
    """The non-empty rows after the header, each checked to have ``width`` fields."""
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            raise ValueError(f"line {reader.line_num}: expected {width} fields, got {row}")
        yield row


def _jump(row: list[str], line_num: int, n_dims: int) -> tuple[int, float, float]:
    """(dim, position, magnitude) of a jump CSV row, dim checked."""
    dim = int(row[0])
    if not 0 <= dim < n_dims:
        raise ValueError(f"line {line_num}: jump row {row} references "
                         f"dimension {dim}, have {n_dims}")
    return dim, float(row[1]), float(row[2])


def _path_from_rows(rows: list[tuple[int, float, float]],
                    domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    """Path from (dim, position, magnitude) rows."""
    dims, pos, mag = np.reshape(rows, (-1, 3)).T
    return SubordinatorPath([JumpSet(pos[dims == k], mag[dims == k], dom)
                             for k, dom in enumerate(domains)])


def read_jumps_csv(fp, domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    reader = csv.reader(fp)
    header = next(reader)
    if header[:3] != ["dim", "position", "magnitude"]:
        raise ValueError(f"unexpected jump CSV header: {header}")
    return _path_from_rows([_jump(row, reader.line_num, len(domains))
                            for row in _data_rows(reader, 3)], domains)


def write_sampled_paths_csv(fp, paths: Iterable[SubordinatorPath],
                            sweeps: Iterable[int]) -> None:
    """Per-sample subordinator jumps with the sweep index that produced them.

    A path without jumps is written as the one marker row ``,,,sweep``.
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["dim", "position", "magnitude", "sweep"])
    for path, sweep in zip(paths, sweeps):
        rows = path_rows(path)
        for dim, pos, mag in rows:
            writer.writerow([dim, _fmt(pos), _fmt(mag), sweep])
        if not rows:
            writer.writerow(["", "", "", sweep])


def read_sampled_paths_csv(fp, domains: Sequence[tuple[float, float]]
                           ) -> list[tuple[int, SubordinatorPath]]:
    """Inverse of ``write_sampled_paths_csv``; returns (sweep, path) pairs."""
    reader = csv.reader(fp)
    header = next(reader)
    if header != ["dim", "position", "magnitude", "sweep"]:
        raise ValueError(f"unexpected sampled-path CSV header: {header}")
    grouped: dict[int, list[tuple[int, float, float]]] = {}
    for row in _data_rows(reader, 4):
        jumps = grouped.setdefault(int(row[3]), [])
        if row[:3] != ["", "", ""]:  # else the marker row of a path without jumps
            jumps.append(_jump(row, reader.line_num, len(domains)))
    return [(sweep, _path_from_rows(grouped[sweep], domains)) for sweep in sorted(grouped)]


def write_dataset_csv(fp, X: np.ndarray, y: np.ndarray, observed: np.ndarray) -> None:
    X = np.atleast_2d(X)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"x_{k}" for k in range(X.shape[1])] + ["y", "observed"])
    for i in range(X.shape[0]):
        writer.writerow([_fmt(v) for v in X[i]] + [_fmt(y[i]), int(observed[i])])


def read_dataset_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or header[:d] != [f"x_{k}" for k in range(d)] or header[d] != "y":
        raise ValueError(f"unexpected dataset CSV header: {header}")
    has_observed = "observed" in header
    xs, ys, obs = [], [], []
    for row in _data_rows(reader, d + 1 + has_observed):
        xs.append([float(v) for v in row[:d]])
        ys.append(float(row[d]))
        obs.append(bool(int(row[d + 1])) if has_observed else True)
    return np.asarray(xs, dtype=float), np.asarray(ys), np.asarray(obs, dtype=bool)


def read_inputs_csv(fp) -> np.ndarray:
    """Read the ``x_*`` columns of a CSV (extra columns like y are ignored)."""
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or header[:d] != [f"x_{k}" for k in range(d)]:
        raise ValueError(f"expected leading x_0..x_{{d-1}} columns, got header {header}")
    rows = [[float(v) for v in row[:d]] for row in reader if row]
    return np.asarray(rows, dtype=float).reshape(-1, d)


def write_posterior_csv(fp, X: np.ndarray, mean: np.ndarray, post_std: np.ndarray,
                        pred_std: np.ndarray) -> None:
    X = np.atleast_2d(X)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"x_{k}" for k in range(X.shape[1])]
                    + ["posterior_mean", "posterior_std", "predictive_std"])
    for i in range(X.shape[0]):
        writer.writerow([_fmt(v) for v in X[i]]
                        + [_fmt(mean[i]), _fmt(post_std[i]), _fmt(pred_std[i])])


def read_posterior_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    expected = [f"x_{k}" for k in range(d)] + ["posterior_mean", "posterior_std",
                                               "predictive_std"]
    if header != expected:
        raise ValueError(f"unexpected posterior CSV header: {header}")
    rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=float).reshape(-1, d + 3)
    return arr[:, :d], arr[:, d], arr[:, d + 1], arr[:, d + 2]


def write_trace_csv(fp, trace) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["sweep", "log_cond_lik", "accepted"])
    for step in trace:
        writer.writerow([step.sweep, _fmt(step.log_cond_lik), int(step.accepted)])


def write_path_values_csv(fp, path, domains, eval_points):
    """``ngpr simulate --eval-points``: rows (dim, x, W(x)) on an even grid per dimension."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["dim", "x", "w"])
    for dim, (lo, hi) in enumerate(domains):
        grid = np.linspace(lo, hi, eval_points)
        values = path.values(grid, dim)
        for xv, wv in zip(grid, values):
            writer.writerow([dim, repr(float(xv)), repr(float(wv))])


def normalize_csv(in_path, out_path):
    """``ngpr normalize``: leading x_* columns rescaled to [0, 1], other fields kept."""
    with open(in_path, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        rows = [row for row in reader if row]
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or header[:d] != [f"x_{k}" for k in range(d)]:
        raise ValueError(f"{in_path}: expected leading x_0..x_{{d-1}} columns, got {header}")
    cols = np.asarray([[float(v) for v in row[:d]] for row in rows], dtype=float)
    cols = cols.reshape(-1, d)
    for k in range(d):
        lo, hi = cols[:, k].min(), cols[:, k].max()
        if lo == hi:
            raise ValueError(f"column x_{k} is constant; cannot rescale to [0, 1]")
        cols[:, k] = (cols[:, k] - lo) / (hi - lo)
    with open(out_path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow([repr(float(v)) for v in cols[i]] + row[d:])
