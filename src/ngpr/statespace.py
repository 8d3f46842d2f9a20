"""Exact Matern-5/2 likelihood on 1-D warped inputs by Kalman filtering.

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
proposal filters the interval's points and the first point after it, then
closes with ``log int beta_b(s) N(s; m_b, P_b) ds``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .gp import RegressionData
from .kernels import MATERN52, KernelSpec
from .levy import SubordinatorPath

_LOG_2PI = math.log(2.0 * math.pi)
_I3 = np.eye(3)


def _message_terms(lam_info: np.ndarray, eta: np.ndarray, cov: np.ndarray):
    """``(M, M^-1 Lam, M^-1 eta)`` with ``M = I + Lam cov``, for Gaussian integrals of a message.

    ``log int N(s; mu, cov) exp(-s'Lam s / 2 + eta's) ds`` is
    ``-mu'(M^-1 Lam)mu / 2 + (M^-1 eta)'mu + (cov eta)'(M^-1 eta) / 2 - log det(M) / 2``,
    which never inverts ``cov``.
    """
    M = _I3 + lam_info @ cov
    sol = np.linalg.solve(M, np.concatenate((lam_info, eta[:, None]), axis=1))
    return M, sol[:, :3], sol[:, 3]


class StateSpaceLikelihood:
    """Matern-5/2 log-likelihood of 1-D data, scored interval by interval.

    Protocol, as ``sampler._gibbs_sweeps`` uses it: ``total(path)`` is the
    whole-path log-likelihood; ``start_sweep(path)`` computes the backward
    messages of the chain's current path; then, for each interval of a
    partition from left to right, ``score(candidate, dim, interval)`` returns
    the candidate's log-likelihood and ``decide(accepted)`` advances the
    filtered prefix through the interval on whichever path the chain keeps.
    A score costs the interval's points plus one; the backward pass costs
    O(n) once per sweep.
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
        return A, 0.5 * (Q + Q.transpose(0, 2, 1))

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
        """``log int beta_b(s) N(s; m, P) ds``: the log-likelihood of the points right of ``b``."""
        M, sol_lam, sol_eta = _message_terms(self._lam_info[b], self._eta[b], P)
        sign, logdet = np.linalg.slogdet(M)
        out = (self._c[b] - 0.5 * m @ sol_lam @ m + sol_eta @ m
               + 0.5 * (P @ self._eta[b]) @ sol_eta - 0.5 * logdet)
        if not (sign > 0 and math.isfinite(out)):
            raise NumericalError(
                f"backward message at sorted point {b} of n={self.n} gave log det sign {sign} "
                f"and value {out} for filtered covariance {np.array2string(P, precision=3)}; "
                f"{self._noise_context}")
        return float(out)

    def total(self, path: SubordinatorPath) -> float:
        """Whole-path log-likelihood: one forward pass over every point."""
        return float(self._filter(0, path.values(self._x))[2][-1])

    def _backward(self, path: SubordinatorPath) -> None:
        """Backward information messages of ``path``, ``Lam <- A'(I + Lam Q)^-1 Lam A``.

        Each step folds in the observation of point ``i + 1`` and integrates
        over the transition from point ``i``; ``Q`` is never inverted, so
        zero gaps need no special case.  The constants ``c_i`` are summed
        afterwards in one vectorized pass.
        """
        n, r, y = self.n, self._r, self._y
        A, Q = self._transition(np.diff(path.values(self._x)))
        obs_info = np.zeros((3, 3))
        obs_info[0, 0] = 1.0 / r
        obs_eta = np.array([1.0 / r, 0.0, 0.0])
        lam_info, eta = np.zeros((3, 3)), np.zeros(3)
        Ms = np.empty((n - 1, 3, 3))
        quad = np.empty(n - 1)
        for i in range(n - 2, -1, -1):
            lam_info = lam_info + obs_info
            eta = eta + obs_eta * y[i + 1]
            Ms[i], sol_lam, sol_eta = _message_terms(lam_info, eta, Q[i])
            quad[i] = (Q[i] @ eta) @ sol_eta
            lam_info = A[i].T @ sol_lam @ A[i]
            lam_info = 0.5 * (lam_info + lam_info.T)
            eta = A[i].T @ sol_eta
            self._lam_info[i], self._eta[i] = lam_info, eta
        sign, logdet = np.linalg.slogdet(Ms)
        if np.any(sign <= 0):
            i = int(np.flatnonzero(sign <= 0)[0])
            raise NumericalError(f"backward message at sorted point {i} of n={self.n}: "
                                 f"det(I + Lam Q) has sign {sign[i]}; {self._noise_context}")
        step = -0.5 * (_LOG_2PI + math.log(r) + y[1:] ** 2 / r) + 0.5 * quad - 0.5 * logdet
        self._c[:-1] = np.cumsum(step[::-1])[::-1]
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
