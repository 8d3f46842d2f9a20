"""Exact Matern-5/2 likelihood and posterior on 1-D warped inputs by Kalman filter and smoother.

A Matern-5/2 GP in one coordinate is the first component of a 3-state
linear-Gaussian SDE (Hartikainen & Sarkka 2010, *Kalman filtering and
smoothing solutions to temporal Gaussian process regression models*).  On
sorted warped inputs its log-likelihood is a covariance-form Kalman filter
with the closed-form transition over a gap ``d``

    A(d) = exp(-lam d) (I + N d + N^2 d^2 / 2),  N = F + lam I,  lam = sqrt(5) / length_scale

(``N`` is nilpotent) and process noise ``Q(d) = Pinf - A Pinf A^T``.  A zero
gap, inputs on one flat stretch of W, is an update with no predict step.
The Gram's jitter enters as extra observation noise, so the model is
exactly the dense ``gp.log_conditional_likelihood`` one; only rounding
differs.  The squared-exponential kernel has no finite state form and is
never handled here.

The sampler redraws one interval at a time, left to right.  A proposal on
``[lo, hi)`` changes only the gaps between the sorted points inside the
interval and at its two edges: every point right of it shifts by one
constant.  ``StateSpaceLikelihood`` therefore keeps backward information
messages ``beta_i(s) = p(y_{i+1:} | s_i = s)``, computed once per sweep, and
the filtered states of the prefix left of the current interval.  Scoring a
proposal filters the interval's points and the first point after it, one
point at a time, then closes with ``log int beta_b(s) N(s; m_b, P_b) ds``.

The whole-path passes are associative scans (Sarkka & Garcia-Fernandez 2021,
*Temporal parallelization of Bayesian smoothers*; Corenflos, Zhao & Sarkka
2022, *Gaussian process regression in logarithmic time*).  Each sorted point
has a filtering element ``(A, b, C, eta, J, z)``: the Gaussian
``p(s_k | s_{k-1}, y_k) = N(A s_{k-1} + b, C)`` and, in information form,
``p(y_k | s_{k-1}) = exp(z - s'J s / 2 + eta's)``.  ``_combine`` joins two
consecutive runs of points into one such element, and ``_scan`` turns n
elements into all their prefix (or suffix) reductions with O(log n) batched
calls on 3 x 3 stacks, in place of a Python step per point.  The prefix
scan gives every filtered state and the cumulative log-likelihood (``total``
and the forward pass of ``posterior``); the suffix scan of points
``1 .. n-1`` gives the backward messages ``(J, eta, z)`` of ``_backward``.

``posterior`` gives a stored sweep's conditional posterior at the test
points without a Gram matrix.  A prefix scan and a Rauch-Tung-Striebel
backward pass (Sarkka 2013, *Bayesian Filtering and Smoothing*, ch. 8) give
the smoothed training states and the gains ``G_k = P_k A' P_{k+1|k}^-1``;
the backward pass is a suffix scan of the smoothing elements
``s_k | s_{k+1} ~ N(G_k s_{k+1} + m_k - G_k A m_k, P_k - G_k P_{k+1|k} G_k')``.
Each test point is predicted from its left training neighbour (the
stationary prior before the first) and smoothed one step against its right
one, in one batched pass.  On the chain of sorted test and training states
the smoothed process is backward Markov, so for sorted test points ``i < j``

    Cov(f_i, f_j) = e0' L_i L_{i+1} ... L_{j-1} P_j e0,

where ``L_i`` is the product of the gains on the links from point ``i`` to
point ``i + 1``.  Filled row by row from the right, each entry of the
upper triangle costs one 3-vector product; no m x m solve or product.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .gp import _NEG_VARIANCE_SLACK, ConditionalPosterior, RegressionData
from .kernels import MATERN52, KernelSpec, as_point_matrix
from .levy import SubordinatorPath

_LOG_2PI = math.log(2.0 * math.pi)
_I3 = np.eye(3)


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products ``A[k] @ v[k]``."""
    return np.einsum("kij,kj->ki", A, v)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric parts of stacked square matrices."""
    return 0.5 * (a + a.transpose(0, 2, 1))


# row 3 r + s holds the flat indices (p, q, u, v) with adj(M)[r, s] = M_p M_q - M_u M_v
_ADJUGATE = np.array([[4, 8, 5, 7], [2, 7, 1, 8], [1, 5, 2, 4], [5, 6, 3, 8], [0, 8, 2, 6],
                      [2, 3, 0, 5], [3, 7, 4, 6], [1, 6, 0, 7], [0, 4, 1, 3]])


def _combine(first: tuple, second: tuple) -> tuple:
    """Filtering element of two consecutive runs of points, ``first`` before ``second``.

    An element ``(A, b, C, eta, J, z)`` of the run ``i..j`` stands for
    ``p(s_j | s_{i-1}, y_{i:j}) = N(A s_{i-1} + b, C)`` and
    ``p(y_{i:j} | s_{i-1}) = exp(z - s'J s / 2 + eta's)``, batched over a
    leading axis with ``b`` and ``eta`` as (k, 3, 1) columns (Sarkka &
    Garcia-Fernandez 2021, lemma 8).  ``N = I + J2 C1`` is inverted by its
    adjugate; its determinant is at least 1 when ``J2`` and ``C1`` are
    positive semi-definite, and ``z`` gains the Gaussian integral that
    ``StateSpaceLikelihood._close`` takes.  A non-positive ``det N`` makes
    the result NaN, which the scan's caller reports.
    """
    A1, b1, C1, eta1, J1, z1 = first
    A2, b2, C2, eta2, J2, z2 = second
    N = J2 @ C1
    N += _I3
    g = N.reshape(-1, 9)[:, _ADJUGATE]
    adj = (g[:, :, 0] * g[:, :, 1] - g[:, :, 2] * g[:, :, 3]).reshape(-1, 3, 3)
    det = np.einsum("ki,ki->k", N[:, 0], adj[:, :, 0])
    if not np.all(det > 0.0):
        det = np.where(det > 0.0, det, np.nan)
    N_inv = adj / det[:, None, None]
    W = A2 @ N_inv.transpose(0, 2, 1)  # A2 (I + C1 J2)^-1
    NJ = N_inv @ J2  # symmetric
    t = N_inv @ eta2
    v = t - NJ @ b1
    Ceta = C1 @ eta2
    A1T = A1.transpose(0, 2, 1)
    return (W @ A1, W @ (b1 + Ceta) + b2, _sym(W @ C1 @ A2.transpose(0, 2, 1)) + C2,
            A1T @ v + eta1, _sym(A1T @ NJ @ A1) + J1,
            z1 + z2 + 0.5 * (np.sum(b1 * (t + v) + Ceta * t, axis=(1, 2)) - np.log(det)))


def _chain(first: tuple, second: tuple) -> tuple:
    """Smoothing element of ``first`` followed by ``second``.

    An element ``(G, g, L)`` stands for ``s_k | s_j ~ N(G s_j + g, L)``, with
    ``G = 0`` for an unconditional state.  Chaining ``s_k | s_j`` with
    ``s_j | s_l`` gives ``s_k | s_l``.
    """
    G1, g1, L1 = first
    G2, g2, L2 = second
    return G1 @ G2, _mv(G1, g2) + g1, _sym(G1 @ L2 @ G1.transpose(0, 2, 1)) + L1


def _fold(elems: tuple, op, left: slice, right: slice) -> None:
    """``e[right] = op(e[left], e[right])`` for every array ``e`` of ``elems``, pairing in order."""
    targets = tuple(e[right] for e in elems)
    k = len(targets[0])
    if k:
        for target, result in zip(targets, op(tuple(e[left][:k] for e in elems), targets)):
            target[...] = result


def _scan(elems: tuple, op, reverse: bool = False) -> tuple:
    """Replace batched elements ``e_0 .. e_{n-1}`` in place by their prefixes ``op(e_0, .., e_k)``.

    ``op`` must be associative.  An up-sweep combines blocks of 2, 4, 8, ...
    elements and a down-sweep fills in the prefixes between them (Brent &
    Kung), so a pass of n elements makes at most 2 log2(n) batched ``op``
    calls.  With ``reverse`` the elements become their suffixes
    ``op(e_k, ..., e_{n-1})``, each operand still before the one after it.
    Returns ``elems``.
    """
    if reverse:
        _scan(tuple(e[::-1] for e in elems), lambda a, b: op(b, a))
        return elems
    n, s = len(elems[0]), 1
    while 2 * s <= n:
        _fold(elems, op, slice(s - 1, None, 2 * s), slice(2 * s - 1, None, 2 * s))
        s *= 2
    while s > 1:
        s //= 2
        _fold(elems, op, slice(2 * s - 1, None, 2 * s), slice(3 * s - 1, None, 2 * s))
    return elems


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of square ``a`` onto its lower one, 64 rows at a time.

    Copying a whole transpose at once misses the cache on every read; by
    blocks it is several times faster at m = 2,000.
    """
    for r in range(0, a.shape[0], 64):
        rows = slice(r, r + 64)
        a[rows, :r] = a[:r, rows].T
        diag = a[rows, rows]
        np.copyto(diag, diag.T.copy(), where=np.tri(len(diag), k=-1, dtype=bool))


class StateSpaceLikelihood:
    """Matern-5/2 log-likelihood of 1-D data, scored interval by interval, and its posterior.

    Protocol, as ``sampler._gibbs_sweeps`` uses it: ``total(path)`` is the
    whole-path log-likelihood; ``start_sweep(path)`` computes the backward
    messages of the chain's current path; then, for each interval of a
    partition from left to right, ``score(candidate, dim, interval)`` returns
    the candidate's log-likelihood and ``decide(accepted)`` advances the
    filtered prefix through the interval on whichever path the chain keeps.
    A score costs the interval's points plus one, filtered one at a time;
    ``total`` and the backward messages cost O(n) work once per sweep, in
    O(log n) batched scan steps.  ``posterior(path, X_test)`` may come at any
    point of that protocol: it runs passes of its own and changes no state.
    """

    name = "state_space"

    def __init__(self, data: RegressionData, kspec: KernelSpec):
        if kspec.family != MATERN52 or data.ndim != 1:
            raise ValueError("the state-space likelihood needs a Matern-5/2 kernel and 1-D data")
        order = np.argsort(data.X[:, 0], kind="stable")
        self._x = data.X[order, 0]
        self._y = data.y[order]
        self._r = data.noise_variance + kspec.jitter * kspec.signal_variance
        self._noise_context = (f"noise_variance={data.noise_variance}, jitter={kspec.jitter}, "
                               f"length_scale={kspec.length_scale}")
        lam = math.sqrt(5.0) / kspec.length_scale
        self._lam = lam
        self._N = np.array([[lam, 1.0, 0.0], [0.0, lam, 1.0], [-lam ** 3, -3 * lam ** 2, -2 * lam]])
        self._N2 = self._N @ self._N
        s2 = kspec.signal_variance
        self._pinf = s2 * np.array([[1.0, 0.0, -lam ** 2 / 3], [0.0, lam ** 2 / 3, 0.0],
                                    [-lam ** 2 / 3, 0.0, lam ** 4]])
        n = self._x.size
        # filtered mean, covariance and cumulative log-likelihood per sorted point
        self._m = np.empty((n, 3))
        self._P = np.empty((n, 3, 3))
        self._ll = np.empty(n)
        self._valid = 0  # points whose filtered state belongs to the current path
        # backward messages: log beta_i(s) = c_i - s'Lam_i s / 2 + eta_i's
        self._lam_info = np.zeros((n, 3, 3))
        self._eta = np.zeros((n, 3))
        self._c = np.zeros(n)
        self._path: SubordinatorPath | None = None
        self._pending = None

    @property
    def n(self) -> int:
        return self._x.size

    def _transition(self, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transition matrices ``A`` and process noises ``Q`` for every gap, shapes (k, 3, 3)."""
        d = gaps[:, None, None]
        A = np.exp(-self._lam * d) * (_I3 + self._N * d + self._N2 * (0.5 * d * d))
        Q = self._pinf - A @ self._pinf @ A.transpose(0, 2, 1)
        return A, _sym(Q)

    def _filter(self, start: int, w: np.ndarray):
        """Filter sorted points ``start, start+1, ...`` at warped values ``w``.

        The run begins at the cached filtered state of point ``start - 1``,
        whose warped value is ``w[0]``, or at the stationary prior when
        ``start`` is 0 (then ``w`` holds only the filtered points).  Returns
        the filtered means, covariances and cumulative log-likelihoods.
        """
        if start == 0:
            m, P, ll = np.zeros(3), self._pinf, 0.0
            gaps = np.diff(w, prepend=w[:1])
        else:
            m, P, ll = self._m[start - 1], self._P[start - 1], self._ll[start - 1]
            gaps = np.diff(w)
        k = gaps.size
        ms, Ps, lls = np.empty((k, 3)), np.empty((k, 3, 3)), np.empty(k)
        A, Q = self._transition(gaps)
        y, r = self._y, self._r
        for i in range(k):
            if gaps[i] > 0.0:
                m = A[i] @ m
                P = A[i] @ P @ A[i].T + Q[i]
            s = P[0, 0] + r
            if not s > 0.0:
                raise NumericalError(
                    f"non-positive innovation variance {s:.3e} at sorted point {start + i} of "
                    f"n={self.n} (warped gap {gaps[i]:.3e}, predicted covariance "
                    f"{np.array2string(P, precision=3)}; {self._noise_context})")
            v = y[start + i] - m[0]
            gain = P[:, 0] / s
            m = m + gain * v
            P = P - gain[:, None] * P[0]
            P = 0.5 * (P + P.T)
            ll -= 0.5 * (_LOG_2PI + math.log(s) + v * v / s)
            ms[i], Ps[i], lls[i] = m, P, ll
        if not math.isfinite(ll):
            raise NumericalError(f"non-finite log conditional likelihood ({ll}) after sorted "
                                 f"point {start + k - 1} of n={self.n}; {self._noise_context}")
        return ms, Ps, lls

    def _close(self, b: int, m: np.ndarray, P: np.ndarray) -> float:
        """``log int beta_b(s) N(s; m, P) ds``: the log-likelihood of the points right of ``b``.

        With ``beta_b(s) = exp(c - s'Lam s / 2 + eta's)`` and ``M = I + Lam P`` it is
        ``c - m'(M^-1 Lam)m / 2 + (M^-1 eta)'m + (P eta)'(M^-1 eta) / 2 - log det(M) / 2``,
        which never inverts ``P``.
        """
        lam_info, eta = self._lam_info[b], self._eta[b]
        M = _I3 + lam_info @ P
        sol = np.linalg.solve(M, np.concatenate((lam_info, eta[:, None]), axis=1))
        sol_lam, sol_eta = sol[:, :3], sol[:, 3]
        sign, logdet = np.linalg.slogdet(M)
        out = (self._c[b] - 0.5 * m @ sol_lam @ m + sol_eta @ m + 0.5 * (P @ eta) @ sol_eta
               - 0.5 * logdet)
        if not (sign > 0 and math.isfinite(out)):
            raise NumericalError(
                f"backward message at sorted point {b} of n={self.n} gave log det sign {sign} "
                f"and value {out} for filtered covariance {np.array2string(P, precision=3)}; "
                f"{self._noise_context}")
        return float(out)

    def _elements(self, w: np.ndarray) -> tuple:
        """Filtering elements ``(A, b, C, eta, J, z)`` of every sorted point at warped values ``w``.

        Element ``k`` conditions on the state of point ``k - 1``: with the
        transition ``A_k, Q_k`` of its gap, innovation variance
        ``S = Q_k[0, 0] + r`` and gain ``K = Q_k e0 / S``, it is
        ``((I - K e0') A_k, K y_k, Q_k - S K K', A_k'e0 y_k / S, A_k'e0 e0'A_k / S)``
        with ``z = log N(y_k; 0, S)``.  Point 0's element comes from the
        stationary prior (``A = 0``, ``Q = Pinf``); a zero gap gives ``A = I``
        and ``C = 0``.  ``Q`` is never inverted.
        """
        n, y = self.n, self._y
        gaps = np.diff(w, prepend=w[:1])
        A, Q = self._transition(gaps)
        A[0], Q[0] = 0.0, self._pinf
        S = Q[:, 0, 0] + self._r
        if not np.all(S > 0.0):
            k = int(np.flatnonzero(~(S > 0.0))[0])
            raise NumericalError(
                f"non-positive innovation variance {S[k]:.3e} of the filtering element at "
                f"sorted point {k} of n={n} (warped gap {gaps[k]:.3e}, process noise "
                f"{np.array2string(Q[k], precision=3)}; {self._noise_context})")
        K = Q[:, :, 0] / S[:, None]
        HA = A[:, 0, :]
        z = -0.5 * (_LOG_2PI + np.log(S) + y * y / S)
        if not np.all(np.isfinite(z)):
            k = int(np.flatnonzero(~np.isfinite(z))[0])
            raise NumericalError(f"non-finite log conditional likelihood ({z[k]}) at sorted "
                                 f"point {k} of n={n}; {self._noise_context}")
        K, HA = K[:, :, None], HA[:, :, None]
        return (A - K * HA.transpose(0, 2, 1), K * y[:, None, None],
                Q - S[:, None, None] * K * K.transpose(0, 2, 1), HA * (y / S)[:, None, None],
                HA * (HA / S[:, None, None]).transpose(0, 2, 1), z)

    def _filtering_scan(self, w: np.ndarray, suffix: bool = False) -> tuple:
        """Prefix scan of every point's filtering element, or suffix scan of points 1..n-1.

        Prefix ``k`` holds the filtered mean ``b`` and covariance ``C`` of
        point ``k`` and ``z = log p(y_{0:k})``; suffix ``i`` holds the
        backward message ``p(y_{i+1:} | s_i)`` in ``(eta, J, z)``.
        """
        first = int(suffix)
        out = _scan(tuple(e[first:] for e in self._elements(w)), _combine, suffix)
        z = out[5]
        if not np.all(np.isfinite(z)):
            bad = np.flatnonzero(~np.isfinite(z))
            k = first + int(bad[-1] if suffix else bad[0])
            raise NumericalError(
                f"non-finite log conditional likelihood ({z[k - first]}) in the "
                f"{'suffix' if suffix else 'prefix'} scan at sorted point {k} of n={self.n} "
                f"(warped gap {w[k] - w[max(k - 1, 0)]:.3e}): det(I + J C) not positive or "
                f"an overflow; {self._noise_context}")
        return out

    def total(self, path: SubordinatorPath) -> float:
        """Whole-path log-likelihood: the last reduction of the prefix scan."""
        return float(self._filtering_scan(path.values(self._x))[5][-1])

    def _backward(self, path: SubordinatorPath) -> None:
        """Backward information messages of ``path`` from one suffix scan.

        ``log beta_i(s) = c_i - s'Lam_i s / 2 + eta_i's`` is the ``(J, eta, z)``
        part of the reduction of the filtering elements of points
        ``i + 1 .. n - 1``; the last point's message is empty.
        """
        _, _, _, eta, lam_info, c = self._filtering_scan(path.values(self._x), suffix=True)
        self._lam_info[:-1], self._eta[:-1], self._c[:-1] = lam_info, eta[:, :, 0], c
        self._lam_info[-1], self._eta[-1], self._c[-1] = 0.0, 0.0, 0.0

    def start_sweep(self, path: SubordinatorPath) -> None:
        """Take ``path`` as the chain's state and compute its backward messages."""
        self._path = path
        self._valid = 0
        self._pending = None
        self._backward(path)

    def _span(self, dim: int, interval: tuple[float, float]) -> tuple[int, int]:
        """Sorted-point range ``[a, b)`` inside ``interval``.

        A point on the domain's upper bound, which the last interval owns, falls
        outside the range; it is the point filtered after the interval, on the
        candidate's warp, and its backward message is empty.
        """
        if dim != 0:
            raise ValueError(f"1-D likelihood asked about dimension {dim}")
        lo, hi = interval
        a, b = (int(i) for i in np.searchsorted(self._x, (lo, hi), side="left"))
        if a != self._valid:
            raise ValueError(f"interval [{lo:g}, {hi:g}) starts at sorted point {a}, but the "
                             f"filtered prefix ends at {self._valid}: score intervals left to "
                             f"right, deciding each before the next")
        return a, b

    def score(self, candidate: SubordinatorPath, dim: int, interval: tuple[float, float]) -> float:
        """Log-likelihood of ``candidate``, which differs from the chain's path only in ``interval``."""
        a, b = self._span(dim, interval)
        stop = min(b + 1, self.n)
        if a == stop:  # no point at or right of the interval
            ll, states = float(self._ll[a - 1]), None
        else:
            states = self._filter(a, candidate.values(self._x[max(a - 1, 0):stop]))
            ms, Ps, lls = states
            ll = float(lls[-1]) if b == self.n else float(lls[-1]) + self._close(b, ms[-1], Ps[-1])
        self._pending = (a, b, candidate, states)
        return ll

    def decide(self, accepted: bool) -> None:
        """Advance the filtered prefix through the scored interval on the path the chain keeps."""
        a, b, candidate, states = self._pending
        self._pending = None
        if accepted:
            self._path = candidate
        if b > a:
            if not accepted:
                states = self._filter(a, self._path.values(self._x[max(a - 1, 0):b]))
            ms, Ps, lls = states
            self._m[a:b], self._P[a:b], self._ll[a:b] = ms[:b - a], Ps[:b - a], lls[:b - a]
        self._valid = b

    def _gains(self, P_next: np.ndarray, AP: np.ndarray, gaps: np.ndarray, where) -> np.ndarray:
        """Smoothing gains ``P A' P_next^-1``, solved as ``(P_next^-1 A P)'``; ``I`` at a zero gap.

        ``P_next`` holds each link's predicted covariance and must be positive
        definite; ``where(k)`` describes link ``k`` for the error message.
        """
        try:
            np.linalg.cholesky(P_next)
        except np.linalg.LinAlgError:
            for k, P in enumerate(P_next):
                try:
                    np.linalg.cholesky(P)
                except np.linalg.LinAlgError:
                    raise NumericalError(
                        f"predicted covariance {np.array2string(P, precision=3)} is not "
                        f"positive definite at {where(k)}; {self._noise_context}") from None
            raise
        G = np.linalg.solve(P_next, AP).transpose(0, 2, 1)
        G[gaps == 0.0] = _I3
        return G

    def _smooth(self, w: np.ndarray, ms: np.ndarray, Ps: np.ndarray):
        """RTS pass over the sorted training states filtered at warped values ``w``.

        The pass is a suffix scan of the smoothing elements.  Returns the
        smoothed means and covariances and the gains ``G_k`` linking point
        ``k`` to ``k + 1``.
        """
        n = self.n
        gaps = np.diff(w)
        A, Q = self._transition(gaps)
        AP = A @ Ps[:-1]
        Pp = AP @ A.transpose(0, 2, 1) + Q
        G = self._gains(Pp, AP, gaps, lambda k: (
            f"sorted point {k + 1} of n={n} (warped gap {gaps[k]:.3e})"))
        # smoothing elements s_k | s_{k+1} ~ N(G_k s_{k+1} + g_k, L_k); the last is unconditional
        g = np.concatenate((ms[:-1] - _mv(G, _mv(A, ms[:-1])), ms[-1:]))
        L = np.concatenate((_sym(Ps[:-1] - G @ Pp @ G.transpose(0, 2, 1)), Ps[-1:]))
        _, sm, sP = _scan((np.concatenate((G, np.zeros((1, 3, 3)))), g, L), _chain, reverse=True)
        return sm, sP, G

    def posterior(self, path: SubordinatorPath, X_test) -> ConditionalPosterior:
        """GP posterior at ``X_test`` on the warp ``path``, by Rauch-Tung-Striebel smoothing.

        The model, moments and log conditional likelihood of
        ``gp.posterior``, from one forward and one backward pass over the
        training points, batched work per test point and O(m^2) for the
        m x m covariance.  It runs its own forward pass, so the chain's
        filtered prefix and backward messages are left as they were.
        """
        x_test = as_point_matrix(X_test)
        if x_test.shape[1] != 1:
            raise ValueError(f"1-D likelihood asked for {x_test.shape[1]}-D test points")
        n, m = self.n, x_test.shape[0]
        w = path.values(self._x)
        _, ms, Ps, _, _, lls = self._filtering_scan(w)
        ms = ms[:, :, 0]
        sm, sP, G = self._smooth(w, ms, Ps)

        # test states in sorted order: predicted from the left neighbour's filtered
        # state (the stationary prior before the first point), then smoothed one
        # step against the right neighbour; past the last point prediction is final
        order = np.argsort(x_test[:, 0], kind="stable")
        u = path.values(x_test[order, 0])
        c = np.searchsorted(w, u, side="right")  # training values <= u
        n_first, n_inner = (int(i) for i in np.searchsorted(c, (1, n)))
        left = np.maximum(c - 1, 0)
        d1 = np.where(c > 0, u - w[left], 0.0)
        A1, Q1 = self._transition(d1)
        tm = _mv(A1, ms[left])
        fP = A1 @ Ps[left] @ A1.transpose(0, 2, 1) + Q1
        tm[:n_first], fP[:n_first] = 0.0, self._pinf
        right = c[:n_inner]
        d2 = w[right] - u[:n_inner]
        A2, Q2 = self._transition(d2)
        AP2 = A2 @ fP[:n_inner]
        Pp2 = AP2 @ A2.transpose(0, 2, 1) + Q2
        Gt = self._gains(Pp2, AP2, d2, lambda i: (
            f"sorted test point {i} of m={m}, before sorted point {right[i]} of n={n} "
            f"(warped gap {d2[i]:.3e})"))
        tm[:n_inner] += _mv(Gt, sm[right] - _mv(A2, tm[:n_inner]))
        tP = fP.copy()
        P = fP[:n_inner] + Gt @ (sP[right] - Pp2) @ Gt.transpose(0, 2, 1)
        tP[:n_inner] = _sym(P)
        var = tP[:, 0, 0]
        if m and var.min() < _NEG_VARIANCE_SLACK:
            i = int(np.argmin(var))
            raise NumericalError(
                f"posterior variance {var[i]:.3e} below tolerance {_NEG_VARIANCE_SLACK:.0e} "
                f"at sorted test point {i} of m={m}, right of {c[i]} of n={n} sorted points "
                f"(warped gap {d1[i]:.3e}); {self._noise_context}")

        # Cov(f_i, f_j) = e0' L_i ... L_{j-1} tP[j] e0 for sorted test points i < j.
        # L_i is the gain of the merged chain's last link into point i + 1, from
        # point i or, across training points, from the last of them, which
        # point i's own gain and the training gains in between reach
        same = c[1:] == c[:-1]
        delta = np.where(same, np.diff(u), d1[1:])
        source = np.where(same[:, None, None], fP[:-1], Ps[left[1:]])
        Ad, _ = self._transition(delta)
        L = self._gains(fP[1:], Ad @ source, delta, lambda i: (
            f"sorted test point {i + 1} of m={m}, right of {c[i + 1]} of n={n} sorted "
            f"points (warped gap {delta[i]:.3e})"))
        cross = np.flatnonzero(~same)
        if cross.size:
            start = c[cross]
            count = c[cross + 1] - 1 - start
            T = Gt[cross]
            for r in range(int(count.max())):
                live = count > r
                T[live] = T[live] @ G[start[live] + r]
            L[cross] = T @ L[cross]

        # rows from the right: H[:, j] = L_i ... L_{j-1} tP[j] e0 for j > i
        cov = np.empty((m, m))
        H = tP[:, :, 0].T.copy()
        for i in range(m - 2, -1, -1):
            h = L[i] @ H[:, i + 1:]
            H[:, i + 1:] = h
            cov[i, i + 1:] = h[0]
        _mirror_upper(cov)
        np.fill_diagonal(cov, np.maximum(var, 0.0))
        mean = tm[:, 0]
        if np.any(order[1:] < order[:-1]):
            rank = np.empty_like(order)
            rank[order] = np.arange(m)
            mean, cov = mean[rank], cov[np.ix_(rank, rank)]
        return ConditionalPosterior(mean=mean, cov=cov, log_cond_lik=float(lls[-1]))
