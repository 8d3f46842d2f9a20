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
A step is about 150 flops, fewer than a numpy call costs, so both run in
plain float arithmetic: the predict is ``P <- Pinf + A (P - Pinf) A'``, a
congruence (``_congruence``) on the 6 entries of the symmetric ``P``, and
the close is the one Gaussian integral of a message against a Gaussian,
``_absorb``, which inverts ``M = I + Lam P`` by its adjugate.  A filtered state
``(m, P, ll)`` or message ``(eta, Lam, c)`` is one row of 10 floats
``(v0, v1, v2, s00, s01, s02, s11, s12, s22, c)``, ``s`` the upper entries.

The forward filter ``_filter`` from the stationary prior gives ``total``.
The backward information recursion ``_messages`` (Sarkka 2013, *Bayesian
Filtering and Smoothing*) gives the messages of ``start_sweep``: it absorbs
each point's observation into ``(eta, Lam, c)`` and integrates the
transition out by the same ``_absorb``, now with ``M = I + Lam Q``, then
takes ``Lam <- A'(M^-1 Lam) A`` by ``_congruence``; neither ``P`` nor ``Q`` is inverted.
``posterior`` smooths the filter's rows by Rauch-Tung-Striebel (same book)
in one float loop from the last point down, with the gains
``G_k = P_k A' P_{k+1|k}^-1``; its covariance step is the same congruence.
Each test point is predicted from its left training neighbour (the
stationary prior before the first) and smoothed one step against its right
one, in one batched pass.  On the chain of sorted test and training states
the smoothed process is backward Markov, so for sorted test points ``i < j``

    Cov(f_i, f_j) = e0' L_i L_{i+1} ... L_{j-1} P_j e0,

where ``L_i`` is the product of the gains on the links from point ``i`` to
point ``i + 1``.  ``_product_form_cov`` fills it by block rows of about
sqrt(m) points: one batched pass gives every block's own triangle, and two
recursions over the blocks carry 3-row gain products, so each block row
right and left of its block is one rank-3 matrix product written in place.
The gains come from adjugates, never from LAPACK; no m x m solve is made.
"""

from __future__ import annotations

import math
from operator import sub

import numpy as np

from .errors import NumericalError
from .gp import _NEG_VARIANCE_SLACK, ConditionalPosterior, RegressionData
from .kernels import _BLOCK, MATERN52, KernelSpec, as_point_matrix
from .levy import SubordinatorPath

_LOG_2PI = math.log(2.0 * math.pi)
_I3 = np.eye(3)
_UPPER = [0, 1, 2, 4, 5, 8]  # the upper entries of a flattened 3 x 3 matrix
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]  # the full symmetric matrix of its upper entries, row by row
_SYM = [3 + i for i in _FULL]  # _FULL over the entries 3 to 8 of a row


def _stack(rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C-ordered vectors (k, 3), symmetric matrices (k, 3, 3) and scalars (k,) of k rows.

    C order keeps the posterior's bits: ``np.array(rows)[:, _SYM]`` comes back
    column-major, and ``_mv``'s einsum rounds differently on that layout.
    """
    a = np.array(rows)
    return np.ascontiguousarray(a[:, :3]), a.take(_SYM, axis=1).reshape(-1, 3, 3), a[:, 9].copy()


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products ``A[k] @ v[k]``."""
    return np.einsum("kij,kj->ki", A, v)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric parts of stacked square matrices."""
    return 0.5 * (a + a.transpose(0, 2, 1))


def _adj3(n00, n01, n02, n10, n11, n12, n20, n21, n22) -> tuple[tuple, float]:
    """Adjugate and determinant of a 3 x 3 matrix, row by row: floats, or arrays of them."""
    c00, c01, c02 = n11 * n22 - n12 * n21, n02 * n21 - n01 * n22, n01 * n12 - n02 * n11
    c10, c11, c12 = n12 * n20 - n10 * n22, n00 * n22 - n02 * n20, n02 * n10 - n00 * n12
    c20, c21, c22 = n10 * n21 - n11 * n20, n01 * n20 - n00 * n21, n00 * n11 - n01 * n10
    return (c00, c01, c02, c10, c11, c12, c20, c21, c22), n00 * c00 + n01 * c10 + n02 * c20


def _congruence(base, M, D) -> tuple:
    """Upper entries of symmetric ``base + M D M'``: ``base``, ``D`` upper entries, ``M`` rows."""
    q00, q01, q02, q11, q12, q22 = base
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = M
    d00, d01, d02, d11, d12, d22 = D
    b00, b01, b02 = (a00 * d00 + a01 * d01 + a02 * d02, a00 * d01 + a01 * d11 + a02 * d12,
                     a00 * d02 + a01 * d12 + a02 * d22)
    b10, b11, b12 = (a10 * d00 + a11 * d01 + a12 * d02, a10 * d01 + a11 * d11 + a12 * d12,
                     a10 * d02 + a11 * d12 + a12 * d22)
    b20, b21, b22 = (a20 * d00 + a21 * d01 + a22 * d02, a20 * d01 + a21 * d11 + a22 * d12,
                     a20 * d02 + a21 * d12 + a22 * d22)
    return (q00 + b00 * a00 + b01 * a01 + b02 * a02, q01 + b00 * a10 + b01 * a11 + b02 * a12,
            q02 + b00 * a20 + b01 * a21 + b02 * a22, q11 + b10 * a10 + b11 * a11 + b12 * a12,
            q12 + b10 * a20 + b11 * a21 + b12 * a22, q22 + b20 * a20 + b21 * a21 + b22 * a22)


def _adjugate(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants of stacked 3 x 3 matrices."""
    adj, det = _adj3(*M.reshape(-1, 9).T)
    return np.stack(adj, axis=-1).reshape(-1, 3, 3), det


def _absorb(msg: tuple, p: tuple) -> tuple[tuple, tuple, float, float]:
    """``log int exp(c - s'Lam s / 2 + eta's) N(s; m, P) ds`` but for its terms in ``m``.

    ``msg`` is a row ``(eta, Lam, c)``, ``p`` the 6 upper entries of ``P``.
    With ``M = I + Lam P`` the log of the integral is
    ``k + m'f - m'S m / 2`` for ``f = M^-1 eta``, the symmetric ``S = M^-1 Lam``
    and ``k = c + (P eta)'f / 2 - log det(M) / 2``; no ``P`` is inverted.
    Returns ``f``, the upper entries of ``S``, ``k`` and ``det(M)``, with
    ``M^-1 = adj(M) / det(M)``; all but ``det(M)`` are NaN unless ``det(M) > 0``.
    """
    e0, e1, e2, l00, l01, l02, l11, l12, l22, c = msg
    p00, p01, p02, p11, p12, p22 = p
    (k00, k01, k02, k10, k11, k12, k20, k21, k22), det = _adj3(
        1.0 + l00 * p00 + l01 * p01 + l02 * p02, l00 * p01 + l01 * p11 + l02 * p12,
        l00 * p02 + l01 * p12 + l02 * p22, l01 * p00 + l11 * p01 + l12 * p02,
        1.0 + l01 * p01 + l11 * p11 + l12 * p12, l01 * p02 + l11 * p12 + l12 * p22,
        l02 * p00 + l12 * p01 + l22 * p02, l02 * p01 + l12 * p11 + l22 * p12,
        1.0 + l02 * p02 + l12 * p12 + l22 * p22)
    if not det > 0.0:
        return (math.nan,) * 3, (math.nan,) * 6, math.nan, det
    inv = 1.0 / det
    f0 = (k00 * e0 + k01 * e1 + k02 * e2) * inv
    f1 = (k10 * e0 + k11 * e1 + k12 * e2) * inv
    f2 = (k20 * e0 + k21 * e1 + k22 * e2) * inv
    s = ((k00 * l00 + k01 * l01 + k02 * l02) * inv, (k00 * l01 + k01 * l11 + k02 * l12) * inv,
         (k00 * l02 + k01 * l12 + k02 * l22) * inv, (k10 * l01 + k11 * l11 + k12 * l12) * inv,
         (k10 * l02 + k11 * l12 + k12 * l22) * inv, (k20 * l02 + k21 * l12 + k22 * l22) * inv)
    k = c + 0.5 * ((p00 * e0 + p01 * e1 + p02 * e2) * f0 + (p01 * e0 + p11 * e1 + p12 * e2) * f1
                   + (p02 * e0 + p12 * e1 + p22 * e2) * f2 - math.log(det))
    return (f0, f1, f2), s, k, det


def _product_form_cov(L: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Symmetric ``cov[i, j] = e0' L_i ... L_{j-1} p_j`` (``i <= j``) of m - 1 gains and m columns.

    The points are cut into blocks of ``B = ceil(sqrt(m))``.  One batched
    pass of B steps over all blocks gives each block's own triangle, each
    row's ``r_i = e0' L_i ... L_{e-1}`` to its block's end ``e``, each
    column's ``h_j = L_s ... L_{j-1} p_j`` from its block's start ``s`` and
    the block's transfer ``T = L_s ... L_{e-1}``.  A right-to-left recursion
    over the blocks carries the columns ``L_e ... L_{j-1} p_j`` right of a
    block and a left-to-right one the columns ``T'(e0' L_j ... L_{s-1})'``
    left of it, so each block row is two rank-3 products written in place.
    """
    m = len(p)
    cov = np.empty((m, m))
    if m == 0:
        return cov
    B = math.isqrt(m - 1) + 1
    nb = -(-m // B)
    links = np.broadcast_to(_I3, (nb * B, 3, 3)).copy()
    links[:m - 1] = L
    links = links.reshape(nb, B, 3, 3)
    # H[b, :, j] = L_{s+t} ... L_{s+j-1} p_{s+j} after step t; the last 3 columns end as T
    H = np.zeros((nb, 3, B + 3))
    cols = np.zeros((nb * B, 3))
    cols[:m] = p
    H[:, :, :B] = cols.reshape(nb, B, 3).transpose(0, 2, 1)
    H[:, :, B:] = _I3
    rows = np.zeros((nb, B, B + 3))  # row t: in-block entries right of t, then r
    for t in range(B - 1, -1, -1):
        H[:, :, t + 1:] = links[:, t] @ H[:, :, t + 1:]
        rows[:, t, t + 1:] = H[:, 0, t + 1:]
    right, left = np.empty((3, m)), np.empty((3, m))
    for b in range(nb - 1, -1, -1):
        s, e = b * B, min(b * B + B, m)
        np.matmul(rows[b, :e - s, B:], right[:, e:], out=cov[s:e, e:])
        right[:, e:] = H[b, :, B:] @ right[:, e:]
        right[:, s:e] = H[b, :, :e - s]
    for b in range(nb):
        s, e = b * B, min(b * B + B, m)
        np.matmul(H[b, :, :e - s].T, left[:, :s], out=cov[s:e, :s])
        left[:, :s] = H[b, :, B:].T @ left[:, :s]
        left[:, s:e] = rows[b, :e - s, B:].T
        tri = rows[b, :e - s, :e - s]
        np.add(tri, tri.T, out=cov[s:e, s:e])
    np.fill_diagonal(cov, p[:, 0])
    return cov


def _reorder(a: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """``a[np.ix_(rank, rank)].T`` of a square ``a``, written over ``a``; returns ``a``.

    Rows are gathered along the permutation's cycles with one row of
    scratch, ``a`` is transposed by swapping ``_BLOCK``-sized blocks, and the
    rows are gathered again, so no second m x m array is made.
    """
    m, rank = len(a), rank.tolist()
    row = np.empty(m)

    def gather_rows():  # a[j] <- a[rank[j]]
        done = [False] * m
        for i in range(m):
            if not done[i]:
                row[:], j = a[i], i
                while rank[j] != i:
                    a[j], done[j], j = a[rank[j]], True, rank[j]
                a[j], done[j] = row, True

    gather_rows()
    for s in range(0, m, _BLOCK):
        for t in range(s, m, _BLOCK):
            block = a[s:s + _BLOCK, t:t + _BLOCK].copy()
            a[s:s + _BLOCK, t:t + _BLOCK] = a[t:t + _BLOCK, s:s + _BLOCK].T
            a[t:t + _BLOCK, s:s + _BLOCK] = block.T
    gather_rows()
    return a


class StateSpaceLikelihood:
    """Matern-5/2 log-likelihood of 1-D data, scored interval by interval, and its posterior.

    Protocol, as ``sampler._gibbs_sweeps`` uses it: ``total(path)`` is the
    whole-path log-likelihood; ``start_sweep(path)`` computes the backward
    messages of the chain's current path; then, for each interval of a
    partition from left to right, ``score(candidate, dim, interval)`` returns
    the candidate's log-likelihood and ``decide(accepted)`` advances the
    filtered prefix through the interval on whichever path the chain keeps.
    A score costs the interval's points plus one, filtered one at a time;
    ``total`` is one forward pass and the backward messages one backward
    pass over all n points, kept as the rows ``_state`` and ``_msgs``.
    ``posterior(path, X_test)`` may come at any point of that protocol: it
    runs passes of its own and changes no state.
    In ``total`` and ``posterior``, ``path=None`` is the identity warp, as in ``gp``.
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
        self._lam = lam = math.sqrt(5.0) / kspec.length_scale
        N = np.array([[lam, 1.0, 0.0], [0.0, lam, 1.0], [-lam ** 3, -3 * lam ** 2, -2 * lam]])
        # (I, N, N^2) entry by entry: A(d) = exp(-lam d) (t + u d + v d^2 / 2) for each (t, u, v)
        self._taylor = np.stack((_I3, N, N @ N), axis=-1).reshape(9, 3).tolist()
        self._pinf = kspec.signal_variance * np.array(
            [[1.0, 0.0, -lam ** 2 / 3], [0.0, lam ** 2 / 3, 0.0], [-lam ** 2 / 3, 0.0, lam ** 4]])
        self._valid = 0  # points whose filtered state belongs to the current path
        self._state = None  # row (m, P, ll) of sorted point _valid - 1
        self._msgs = None  # rows (eta, Lam, c) of the chain path's backward messages
        self._path: SubordinatorPath | None = None
        self._pending = None

    @property
    def n(self) -> int:
        return self._x.size

    def _transition(self, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transition matrices ``A`` and process noises ``Q`` for every gap, shapes (k, 3, 3)."""
        d = gaps[:, None, None]
        t, u, v = np.array(self._taylor).T.reshape(3, 3, 3)
        A = np.exp(-self._lam * d) * (t + u * d + v * (0.5 * d * d))
        Q = self._pinf - A @ self._pinf @ A.transpose(0, 2, 1)
        return A, _sym(Q)

    def _filter(self, start: int, w: np.ndarray) -> list:
        """Filter sorted points ``start, start+1, ...`` at warped values ``w``.

        The run begins at the carried filtered state of point ``start - 1``,
        whose warped value is ``w[0]``, or at the stationary prior when
        ``start`` is 0 (then ``w`` holds only the filtered points).  Returns
        one row ``(m, P, ll)`` per point: the filtered mean and covariance and
        the cumulative log-likelihood.  A gap ``d > 0`` predicts first, in scalar steps.
        """
        pinf = q00, q01, q02, q11, q12, q22 = self._pinf.reshape(9)[_UPPER].tolist()
        m0, m1, m2, p00, p01, p02, p11, p12, p22, ll = self._state if start else (
            0.0, 0.0, 0.0, *pinf, 0.0)
        w = w.tolist() if start else w[:1].tolist() + w.tolist()  # the first point's gap is 0
        lam, r, taylor = self._lam, self._r, self._taylor
        out = []
        for i, yi in enumerate(self._y[start:start + len(w) - 1].tolist()):
            d = w[i + 1] - w[i]
            if d > 0.0:
                e, h = math.exp(-lam * d), 0.5 * d * d
                a = a00, a01, a02, a10, a11, a12, a20, a21, a22 = [
                    e * (t + u * d + v * h) for t, u, v in taylor]
                m0, m1, m2 = (a00 * m0 + a01 * m1 + a02 * m2, a10 * m0 + a11 * m1 + a12 * m2,
                              a20 * m0 + a21 * m1 + a22 * m2)
                p00, p01, p02, p11, p12, p22 = _congruence(pinf, a, (
                    p00 - q00, p01 - q01, p02 - q02, p11 - q11, p12 - q12, p22 - q22))
            s = p00 + r
            if not s > 0.0:
                P = np.array([[p00, p01, p02], [p01, p11, p12], [p02, p12, p22]])
                raise NumericalError(
                    f"non-positive innovation variance {s:.3e} at sorted point {start + i} of "
                    f"n={self.n} (warped gap {d:.3e}, predicted covariance "
                    f"{np.array2string(P, precision=3)}; {self._noise_context})")
            v = yi - m0
            g0, g1, g2 = p00 / s, p01 / s, p02 / s
            m0, m1, m2 = m0 + g0 * v, m1 + g1 * v, m2 + g2 * v
            p00, p01, p02, p11, p12, p22 = (p00 - g0 * p00, p01 - g0 * p01, p02 - g0 * p02,
                                            p11 - g1 * p01, p12 - g1 * p02, p22 - g2 * p02)
            ll -= 0.5 * (_LOG_2PI + math.log(s) + v * v / s)
            out.append((m0, m1, m2, p00, p01, p02, p11, p12, p22, ll))
        if not math.isfinite(ll):
            raise NumericalError(f"non-finite log conditional likelihood ({ll}) after sorted "
                                 f"point {start + i} of n={self.n}; {self._noise_context}")
        return out

    def _close(self, b: int, row: tuple) -> float:
        """``log int beta_b(s) N(s; m, P) ds``: the log-likelihood of the points right of ``b``.

        ``(m, P)`` is the filtered state ``row`` of point ``b`` and
        ``beta_b(s) = exp(c - s'Lam s / 2 + eta's)`` its backward message, so the
        value is ``_absorb``'s constant plus ``m'M^-1 eta - m'M^-1 Lam m / 2``
        for ``M = I + Lam P``.
        """
        (f0, f1, f2), (s00, s01, s02, s11, s12, s22), k, det = _absorb(self._msgs[b], row[3:9])
        m0, m1, m2 = row[:3]
        out = k + (m0 * (f0 - 0.5 * (s00 * m0 + s01 * m1 + s02 * m2))
                   + m1 * (f1 - 0.5 * (s01 * m0 + s11 * m1 + s12 * m2))
                   + m2 * (f2 - 0.5 * (s02 * m0 + s12 * m1 + s22 * m2)))
        if not math.isfinite(out):
            raise NumericalError(
                f"backward message at sorted point {b} of n={self.n} gave det(I + Lam P) "
                f"{det:.3e} and value {out} for filtered covariance "
                f"{np.array2string(_stack([row])[1][0], precision=3)}; {self._noise_context}")
        return out

    def _messages(self, w: np.ndarray) -> list:
        """Backward messages ``log p(y_{i+1:} | s_i = s) = c_i - s'Lam_i s / 2 + eta_i's`` at ``w``.

        Returns one row ``(eta, Lam, c)`` per point; the last point's message is empty.  From
        ``i = n - 2`` down to 0, in plain floats: absorb ``y_{i+1}`` (``Lam00 += 1/r``,
        ``eta0 += y/r``), then over a gap ``d > 0`` integrate the transition out: the
        message integrated against ``N(s; A s_i, Q(d))`` is ``_absorb`` of ``Q`` at
        ``m = A s_i``, so ``c`` becomes its constant, ``eta <- A'M^-1 eta`` and
        ``Lam <- A'(M^-1 Lam) A`` for ``M = I + Lam Q``.
        """
        n, r = self.n, self._r
        gaps = np.diff(w)
        A, Q = self._transition(gaps)
        At, Q = A.transpose(0, 2, 1).reshape(-1, 9).tolist(), Q.reshape(-1, 9)[:, _UPPER].tolist()
        log_2pi_r, inv_r = _LOG_2PI + math.log(r) if r > 0.0 else math.nan, 1.0 / r
        lam, e0, e1, e2, c = (0.0,) * 6, 0.0, 0.0, 0.0, 0.0
        out = [(0.0,) * 10]
        for i, y in zip(range(n - 2, -1, -1), self._y[:0:-1].tolist()):
            lam = (lam[0] + inv_r, *lam[1:])
            e0 += y * inv_r
            c -= 0.5 * (log_2pi_r + y * y * inv_r)
            d, det = gaps[i], 1.0
            if d > 0.0:
                (f0, f1, f2), s, c, det = _absorb((e0, e1, e2, *lam, c), Q[i])
                t00, t01, t02, t10, t11, t12, t20, t21, t22 = at = At[i]  # the rows of A'
                e0, e1, e2 = (t00 * f0 + t01 * f1 + t02 * f2, t10 * f0 + t11 * f1 + t12 * f2,
                              t20 * f0 + t21 * f1 + t22 * f2)
                lam = _congruence((0.0,) * 6, at, s)
            if not (det > 0.0 and math.isfinite(c)):
                raise NumericalError(
                    f"backward message at sorted point {i} of n={n} (warped gap {d:.3e}) gave "
                    f"det(I + Lam Q) {det:.3e} and log-likelihood constant {c}; "
                    f"{self._noise_context}")
            out.append((e0, e1, e2, *lam, c))
        return out[::-1]

    def total(self, path: SubordinatorPath | None) -> float:
        """Whole-path log-likelihood: the last cumulative value of the forward filter."""
        return self._filter(0, self._x if path is None else path.values(self._x))[-1][9]

    def _backward(self, path: SubordinatorPath) -> None:
        """Store the backward information messages of ``path`` for the sweep's closes."""
        self._msgs = self._messages(path.values(self._x))

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
        rows = [self._state] if a == stop else (  # a == n: no point at or right of the interval
            self._filter(a, candidate.values(self._x[max(a - 1, 0):stop])))
        ll = rows[-1][9] if b == self.n else rows[-1][9] + self._close(b, rows[-1])
        self._pending = (a, b, candidate, rows)
        return ll

    def decide(self, accepted: bool) -> None:
        """Advance the filtered prefix through the scored interval on the path the chain keeps."""
        a, b, candidate, rows = self._pending
        self._pending = None
        if accepted:
            self._path = candidate
        if b > a:
            if not accepted:
                rows = self._filter(a, self._path.values(self._x[max(a - 1, 0):b]))
            self._state = rows[b - a - 1]
        self._valid = b

    def _gains(self, P_next: np.ndarray, AP: np.ndarray, gaps: np.ndarray, where) -> np.ndarray:
        """Smoothing gains ``P A' P_next^-1 = (adj(P_next) A P)' / det``; ``I`` at a zero gap.

        ``P_next`` holds each link's predicted covariance and must be positive
        definite, which Sylvester's criterion checks on its leading minors
        ``P_next[0, 0]``, ``adj[2, 2]`` and ``det``; ``where(k)`` describes the
        first failing link ``k`` for the error message.  No LAPACK call: its
        per-matrix path on 3 x 3 stacks is several times slower than adjugates.
        """
        adj, det = _adjugate(P_next)
        ok = (P_next[:, 0, 0] > 0.0) & (adj[:, 2, 2] > 0.0) & (det > 0.0)
        if not np.all(ok):
            k = int(np.flatnonzero(~ok)[0])
            raise NumericalError(
                f"predicted covariance {np.array2string(P_next[k], precision=3)} is not "
                f"positive definite at {where(k)}; {self._noise_context}")
        G = (adj @ AP).transpose(0, 2, 1) / det[:, None, None]
        G[gaps == 0.0] = _I3
        return G

    def _smooth(self, w: np.ndarray, ms: np.ndarray, Ps: np.ndarray):
        """Rauch-Tung-Striebel smoothing of the sorted training states filtered at warped ``w``.

        The gains ``G_k`` and predictions ``A_k m_k``, ``P_{k+1|k}`` are batched; a loop in
        floats from the last point down takes ``sm_k = m_k + G_k (sm_{k+1} - A_k m_k)`` and
        ``sP_k = P_k + G_k (sP_{k+1} - P_{k+1|k}) G_k'``.  Returns ``sm``, ``sP`` and ``G``.
        """
        gaps = np.diff(w)
        A, Q = self._transition(gaps)
        AP = A @ Ps[:-1]
        P_pred = AP @ A.transpose(0, 2, 1) + Q
        G = self._gains(P_pred, AP, gaps, lambda k: (
            f"sorted point {k + 1} of n={self.n} (warped gap {gaps[k]:.3e})"))
        mf, pf = ms.tolist(), Ps.reshape(-1, 9)[:, _UPPER].tolist()
        Am, pp = _mv(A, ms[:-1]).tolist(), P_pred.reshape(-1, 9)[:, _UPPER].tolist()
        (s0, s1, s2), sp = mf[-1], pf[-1]
        for k, g in zip(range(len(Am) - 1, -1, -1), G.reshape(-1, 9)[::-1].tolist()):
            (m0, m1, m2), (b0, b1, b2) = mf[k], Am[k]
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = g
            t0, t1, t2 = s0 - b0, s1 - b1, s2 - b2
            mf[k] = s0, s1, s2 = (m0 + g00 * t0 + g01 * t1 + g02 * t2,
                                  m1 + g10 * t0 + g11 * t1 + g12 * t2,
                                  m2 + g20 * t0 + g21 * t1 + g22 * t2)
            pf[k] = sp = _congruence(pf[k], g, map(sub, sp, pp[k]))
        return np.array(mf), np.array(pf).take(_FULL, axis=1).reshape(-1, 3, 3), G

    def posterior(self, path: SubordinatorPath | None, X_test) -> ConditionalPosterior:
        """GP posterior at ``X_test`` on the warp ``path``, by Rauch-Tung-Striebel smoothing.

        The model, moments and log conditional likelihood of
        ``gp.posterior``, from one filter and one smoother pass over the
        training points, batched work per test point and O(m^2) for the
        m x m covariance.  It runs both passes itself, so the chain's
        filtered prefix and backward messages are left as they were.
        """
        x_test = as_point_matrix(X_test)
        if x_test.shape[1] != 1:
            raise ValueError(f"1-D likelihood asked for {x_test.shape[1]}-D test points")
        n, m = self.n, x_test.shape[0]
        w = self._x if path is None else path.values(self._x)
        ms, Ps, lls = _stack(self._filter(0, w))
        sm, sP, G = self._smooth(w, ms, Ps)

        # test states in sorted order: predicted from the left neighbour's filtered
        # state (the stationary prior before the first point), then smoothed one
        # step against the right neighbour; past the last point prediction is final
        order = np.argsort(x_test[:, 0], kind="stable")
        u = x_test[order, 0] if path is None else path.values(x_test[order, 0])
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
        tP[:n_inner] = _sym(fP[:n_inner] + Gt @ (sP[right] - Pp2) @ Gt.transpose(0, 2, 1))
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

        cov = _product_form_cov(L, tP[:, :, 0])
        np.fill_diagonal(cov, np.maximum(var, 0.0))
        mean = tm[:, 0]
        if np.any(order[1:] < order[:-1]):
            rank = np.empty_like(order)
            rank[order] = np.arange(m)
            mean, cov = mean[rank], _reorder(cov, rank)
        return ConditionalPosterior(mean=mean, cov=cov, log_cond_lik=float(lls[-1]))
