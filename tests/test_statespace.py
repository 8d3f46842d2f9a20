"""State-space Matern-5/2 likelihood and posterior: oracles, local scores, dispatch, failures."""

from dataclasses import replace

import numpy as np
import pytest

from ngpr import (KernelSpec, LevyMeasureSpec, NumericalError, RegressionData, SamplerConfig,
                  generate, GenSpec, grid_search_length_scale,
                  init_identity, kernel_value, log_conditional_likelihood, partition_edges,
                  posterior, propose, run_mh_gibbs, simulate_path, warp_inputs)
from ngpr import sampler, statespace
from ngpr.statespace import StateSpaceLikelihood, _stack

import oracles

LSPEC = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0, n_terms=30)
N_INTERVALS = 6
EDGES = partition_edges((0.0, 1.0), N_INTERVALS)


def _oracle_ll(data, path, kspec):
    Xw = warp_inputs(path, data.X)
    return oracles.dense_gp_posterior(Xw, data.y, Xw[:1], lambda d: kernel_value(kspec, d),
                                      data.noise_variance,
                                      kspec.jitter * kspec.signal_variance)[2]


def _instance(rng):
    """Criterion-3-style Matern data on unsorted inputs, with one partition interval left empty.

    The inputs include a repeated value, a point on an interior partition edge and one on
    the upper bound; the path has few jumps, so many warped inputs coincide.
    """
    kspec = KernelSpec("matern52", length_scale=float(10 ** rng.uniform(-1.2, 0)),
                       signal_variance=float(10 ** rng.uniform(-0.5, 0.5)), jitter=1e-8)
    empty = int(rng.choice([1, 3, 4]))  # interval 2 holds the point on its left edge
    X = rng.uniform(0.0, 1.0, int(rng.integers(2, 40)))
    X = X[(X < EDGES[empty]) | (X >= EDGES[empty + 1])]
    X = rng.permutation(np.concatenate((X, X[:1], [EDGES[2], 1.0])))
    data = RegressionData(X, rng.normal(size=X.size), float(10 ** rng.uniform(-3, 0)))
    return data, kspec, empty


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_total_and_local_scores_match_the_dense_oracle():
    rng = np.random.default_rng(2030)
    worst = 0.0
    seen = {"duplicates": 0, "accepted": 0, "rejected": 0, "empty": 0}
    for i in range(16):
        data, kspec, empty = _instance(rng)
        # identity paths put jumps exactly on the partition edges
        path = init_identity([(0.0, 1.0)], N_INTERVALS) if i % 4 == 0 else \
            simulate_path(LSPEC, [(0.0, 1.0)], rng)
        lik = StateSpaceLikelihood(data, kspec)
        worst = max(worst, _rel(lik.total(path), _oracle_ll(data, path, kspec)))
        for _sweep in range(2):
            lik.start_sweep(path)
            for j in range(N_INTERVALS):
                tau = (EDGES[j], EDGES[j + 1])
                candidate = propose(path, tau, 0, LSPEC, rng)
                worst = max(worst, _rel(lik.score(candidate, 0, tau),
                                        _oracle_ll(data, candidate, kspec)))
                accepted = bool(rng.random() < 0.5)
                lik.decide(accepted)
                if accepted:
                    path = candidate
                seen["accepted" if accepted else "rejected"] += 1
                seen["empty"] += j == empty
            seen["duplicates"] += data.n - np.unique(warp_inputs(path, data.X)).size
        worst = max(worst, _rel(lik.total(path), _oracle_ll(data, path, kspec)))
    assert worst <= 1e-8, worst
    assert min(seen.values()) > 0, seen


def test_scores_match_dense_likelihood_on_the_sampler_schedule():
    """The chain's accepted flags and likelihoods agree with the dense chain's."""
    kspec = KernelSpec("matern52", 0.1, 1.0)
    gspec = GenSpec(domains=((0.0, 1.0),), n_points=60, n_observed=40, kernel=kspec,
                    levy=LSPEC, noise_std=0.1, seed=3)
    ds = generate(gspec, np.random.default_rng(gspec.seed))
    data = RegressionData(ds.X[ds.observed], ds.y[ds.observed], 0.01)
    cfg = SamplerConfig(n_sweeps=6, n_intervals=15, burn_in_fraction=0.5)
    runs = [run_mh_gibbs(data, ds.X, kspec, LSPEC, cfg, np.random.default_rng(8),
                         domains=gspec.domains, log_lik_fn=hook)
            for hook in (None, log_conditional_likelihood)]
    assert [r.likelihood for r in runs] == ["state_space", "dense"]
    fast, dense = runs
    assert [s.accepted for s in fast.trace] == [s.accepted for s in dense.trace]
    assert 0 < fast.acceptance_rate < 1
    np.testing.assert_allclose([s.log_cond_lik for s in fast.trace],
                               [s.log_cond_lik for s in dense.trace], rtol=1e-9)
    # the smoother and the dense Cholesky give the same posteriors up to rounding
    for a, b in ((fast.aggregate_mean, dense.aggregate_mean),
                 (fast.aggregate_cov, dense.aggregate_cov)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
    np.testing.assert_allclose(fast.log_cond_liks, dense.log_cond_liks, rtol=1e-9)


def _oracle_posterior(data, path, kspec, X_test):
    return oracles.dense_gp_posterior(warp_inputs(path, data.X), data.y,
                                      warp_inputs(path, X_test),
                                      lambda d: kernel_value(kspec, d), data.noise_variance,
                                      kspec.jitter * kspec.signal_variance)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0))


def test_posterior_matches_the_dense_oracle():
    """Smoothed mean, full covariance and log-likelihood against the explicit-inverse GP."""
    rng = np.random.default_rng(2031)
    worst = 0.0
    seen = {"below first": 0, "above last": 0, "at a training value": 0, "duplicates": 0,
            "m=0": 0, "m=1": 0, "n=1": 0, "many blocks": 0}
    for i in range(19):
        data, kspec, _ = _instance(rng)
        if i % 3 == 1:  # no training point right of 0.7, so test points can warp past the last
            keep = data.X[:, 0] < 0.7
            data = RegressionData(data.X[keep], data.y[keep], data.noise_variance)
        elif i % 6 == 2:
            data = RegressionData(data.X[:1], data.y[:1], data.noise_variance)
        path = init_identity([(0.0, 1.0)], N_INTERVALS) if i % 4 == 0 else \
            simulate_path(LSPEC, [(0.0, 1.0)], rng)
        if i % 9 == 5:
            X_test = np.empty(0)
        elif i % 9 == 8:
            X_test = rng.uniform(0.0, 1.0, 1)
        else:  # the last instance fills its covariance over 15 blocks of 16 points
            k = 220 if i == 18 else int(rng.integers(1, 30))
            X_test = np.concatenate((rng.uniform(0.0, 1.0, k), data.X[:3, 0],
                                     [0.0, 1.0, EDGES[3]]))
            X_test = rng.permutation(np.concatenate((X_test, X_test[:4])))
        post = StateSpaceLikelihood(data, kspec).posterior(path, X_test)
        mean, cov, ll = _oracle_posterior(data, path, kspec, X_test)
        assert post.mean.shape == (X_test.size,) and post.cov.shape == (X_test.size,) * 2
        worst = max(worst, _max_rel(post.mean, mean), _max_rel(post.cov, cov),
                    _rel(post.log_cond_lik, ll))
        w, u = warp_inputs(path, data.X)[:, 0], warp_inputs(path, X_test)[:, 0]
        seen["below first"] += int(np.sum(u < w.min()))
        seen["above last"] += int(np.sum(u > w.max()))
        seen["at a training value"] += int(np.sum(np.isin(u, w)))
        seen["duplicates"] += X_test.size - np.unique(X_test).size
        seen["m=0"] += X_test.size == 0
        seen["m=1"] += X_test.size == 1
        seen["n=1"] += data.n == 1
        seen["many blocks"] += X_test.size >= 200
    assert worst <= 1e-8, worst
    assert min(seen.values()) > 0, seen


def _rotations(rng, k):
    """``k`` random 3 x 3 orthogonal matrices shrunk by at most 1%: long products stay O(1)."""
    q, r = np.linalg.qr(rng.normal(size=(k, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q * rng.uniform(0.99, 1.0, (k, 1, 1))


# m = 16 fills 4 whole blocks, 13 and 15 end in a short block, 17 takes blocks of 5;
# 22, 23, 24 and 47 are B - 1, B, B + 1 and 2B + 1 for m = 500's B = 23
@pytest.mark.parametrize("m", [0, 1, 2, 13, 15, 16, 17, 22, 23, 24, 47, 500])
def test_block_row_fill_matches_the_row_by_row_oracle(m):
    rng = np.random.default_rng(m)
    L, p = _rotations(rng, max(m - 1, 0)), rng.normal(size=(m, 3))
    got, want = statespace._product_form_cov(L, p), oracles.product_form_cov_rows(L, p)
    assert got.shape == (m, m)
    np.testing.assert_array_equal(np.diag(got), p[:, 0])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(initial=0.0))


def test_gains_test_positive_definiteness_like_cholesky():
    """Sylvester's criterion in ``_gains`` accepts exactly the matrices Cholesky factors."""
    rng = np.random.default_rng(2034)
    q = _rotations(rng, 10)

    def spectral(*signs):
        eigs = np.array(signs) * rng.uniform(0.2, 5.0, (10, 3))
        return q @ (eigs[:, :, None] * q.transpose(0, 2, 1))

    stacks = {
        "positive definite": spectral(1, 1, 1),
        "singular PSD": np.array([np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 2.0, 1.0]),
                                  np.diag([3.0, 1.0, 0.0]), np.zeros((3, 3)),
                                  [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
                                  [[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 1.0]]]),
        "two negative eigenvalues": spectral(-1, -1, 1),
        "one negative eigenvalue": spectral(1, -1, 1),
        "negative definite": spectral(-1, -1, -1),
    }
    lik = StateSpaceLikelihood(RegressionData([0.1, 0.5], [0.0, 1.0], 0.1),
                               KernelSpec("matern52", 0.2))
    AP = rng.normal(size=(1, 3, 3))
    accepted = {}
    for name, stack in stacks.items():
        for P in 0.5 * (stack + stack.transpose(0, 2, 1)):
            try:
                np.linalg.cholesky(P)
                factored = True
            except np.linalg.LinAlgError:
                factored = False
            try:
                G = lik._gains(P[None], AP, np.ones(1), lambda k: f"link {k}")
            except NumericalError as exc:
                assert "is not positive definite at link 0" in str(exc)
                G = None
            assert (G is not None) == factored, (name, P)
            if factored:
                want = np.linalg.solve(P, AP[0]).T
                np.testing.assert_allclose(G[0], want, rtol=0, atol=1e-12 * np.abs(want).max())
            accepted.setdefault(name, set()).add(factored)
    assert accepted == {name: {name == "positive definite"} for name in stacks}, accepted


def test_adjugates_match_numpy_on_random_and_near_singular_stacks():
    """``_adj3`` against ``np.linalg.det``: ``adj(M) M = det(M) I`` and the determinants
    agree to 1e-12 of ``max|M_ij|^3``, the size of the products summed, which stays
    meaningful for a determinant near 0.  A float call gives each entry of the array
    call bit for bit, and ``_adjugate`` is the array call stacked."""
    rng = np.random.default_rng(2038)
    M = rng.normal(size=(400, 3, 3)) * 10.0 ** rng.uniform(-3, 3, (400, 1, 1))
    scale = np.abs(M).max(axis=(1, 2))
    # near-singular half: the last row a combination of the first two, perturbed by 1e-9
    near = M[200:]
    near[:, 2] = (rng.normal(size=(200, 1)) * near[:, 0] + rng.normal(size=(200, 1)) * near[:, 1]
                  + 1e-9 * scale[200:, None] * rng.normal(size=(200, 3)))
    scale = np.abs(M).max(axis=(1, 2)) ** 3
    entries, det = statespace._adj3(*M.reshape(-1, 9).T)
    adj = np.stack(entries, axis=-1).reshape(-1, 3, 3)
    err_adj = np.abs(adj @ M - det[:, None, None] * np.eye(3)).max(axis=(1, 2)) / scale
    err_det = np.abs(det - np.linalg.det(M)) / scale
    assert err_adj.max() <= 1e-12 and err_det.max() <= 1e-12, (err_adj.max(), err_det.max())
    assert np.all(np.abs(det[200:]) / scale[200:] < 1e-7)  # the near-singular half is so
    for k in range(len(M)):
        one, d = statespace._adj3(*M[k].ravel().tolist())
        np.testing.assert_array_equal(np.array([*one, d]).view(np.uint64),
                                      np.append(adj[k].ravel(), det[k]).view(np.uint64))
    got_adj, got_det = statespace._adjugate(M)
    assert np.array_equal(got_adj, adj) and np.array_equal(got_det, det)


def test_congruence_matches_numpy_on_random_and_near_singular_inputs():
    """``_congruence`` against numpy's ``base + M @ D @ M.T`` on the upper entries, to
    1e-14 of ``|base| + |M| |D| |M|'``, the size of the products summed, for random
    symmetric ``base`` and ``D`` and ``M`` of all scales, half of them near-singular."""
    rng = np.random.default_rng(2039)
    M = rng.normal(size=(400, 3, 3)) * 10.0 ** rng.uniform(-3, 3, (400, 1, 1))
    near = M[200:]  # the last row a combination of the first two, perturbed by 1e-9
    near[:, 2] = (rng.normal(size=(200, 1)) * near[:, 0] + rng.normal(size=(200, 1)) * near[:, 1]
                  + 1e-9 * np.abs(near).max(axis=(1, 2))[:, None] * rng.normal(size=(200, 3)))
    base, D = (a + a.transpose(0, 2, 1) for a in rng.normal(size=(2, 400, 3, 3))
               * 10.0 ** rng.uniform(-3, 3, (2, 400, 1, 1)))
    want = base + M @ D @ M.transpose(0, 2, 1)
    scale = np.abs(base) + np.abs(M) @ np.abs(D) @ np.abs(M).transpose(0, 2, 1)
    upper = [0, 1, 2, 4, 5, 8]
    got = np.array([statespace._congruence(b.ravel()[upper], a.ravel().tolist(), d.ravel()[upper])
                    for b, a, d in zip(base, M, D)])
    err = np.abs(got - want.reshape(-1, 9)[:, upper]) / scale.reshape(-1, 9)[:, upper]
    assert err.max() <= 1e-14, err.max()
    assert np.all(np.abs(np.linalg.det(M[200:] @ M[200:].transpose(0, 2, 1)))
                  < 1e-12 * np.abs(M[200:]).max(axis=(1, 2)) ** 6)  # the near-singular half is so


def test_posterior_makes_no_linalg_call(monkeypatch):
    rng = np.random.default_rng(2035)
    data, kspec, _ = _instance(rng)
    path = simulate_path(LSPEC, [(0.0, 1.0)], rng)
    X_test = rng.uniform(0.0, 1.0, 60)
    lik = StateSpaceLikelihood(data, kspec)
    want = lik.posterior(path, X_test)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called in a whole-path pass")

    for name in ("solve", "cholesky", "inv", "slogdet"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    with monkeypatch.context() as m:  # the posterior smooths without backward messages
        m.setattr(StateSpaceLikelihood, "_messages", forbidden)
        got = lik.posterior(path, X_test)
    np.testing.assert_array_equal(got.cov, want.cov)
    lik.total(path)
    lik.start_sweep(path)


def _grid_cases(rng):
    """Length scales 0.02-1 by noise variances 1e-3-1, three cases each: ``(lik, path)``.

    The cases take n = 1, 2 and 120 in turn, a tenth of the inputs repeated.
    """
    for i, (ls, r) in enumerate((ls, r) for ls in (0.02, 0.1, 0.3, 1.0)
                                for r in (1e-3, 1e-2, 0.1, 1.0) for _ in range(3)):
        n = (1, 2, 120)[i % 3]
        X = rng.uniform(0.0, 1.0, n)
        X[:n // 10] = X[-1]  # duplicate inputs
        data = RegressionData(X, rng.normal(size=n), r)
        lik = StateSpaceLikelihood(data, KernelSpec("matern52", ls, float(rng.uniform(0.5, 2.0))))
        path = init_identity([(0.0, 1.0)], N_INTERVALS) if i % 4 == 0 else \
            simulate_path(LSPEC, [(0.0, 1.0)], rng)
        yield lik, path


def test_messages_and_rts_states_match_the_sequential_oracles():
    """The scalar backward messages and RTS smoothing against the numpy backward and RTS loops."""
    rng = np.random.default_rng(2032)
    cases = []
    for i in range(18):
        data, kspec, _ = _instance(rng)
        if i % 6 in (1, 4):
            keep = slice(0, 1 if i % 6 == 1 else 2)
            data = RegressionData(data.X[keep], data.y[keep], data.noise_variance)
        path = init_identity([(0.0, 1.0)], N_INTERVALS) if i % 4 == 0 else \
            simulate_path(LSPEC, [(0.0, 1.0)], rng)
        cases.append((StateSpaceLikelihood(data, kspec), path))
    cases += _grid_cases(rng)
    worst = {"messages": 0.0, "smoothed": 0.0}
    seen = {"zero gaps": 0, "n=1": 0, "n=2": 0, "n=100+": 0}
    for lik, path in cases:
        w = path.values(lik._x)
        A, Q = lik._transition(np.diff(w))
        lik._backward(path)
        eta, lam_info, c = _stack(lik._msgs)
        for got, want in zip((lam_info, eta, c), oracles.backward_messages(A, Q, lik._y, lik._r)):
            worst["messages"] = max(worst["messages"], _max_rel(got, want))
        ms, Ps, _ = _stack(lik._filter(0, w))
        sm, sP, _ = lik._smooth(w, ms, Ps)
        for got, want in zip((sm, sP), oracles.rts_smooth(ms, Ps, A, Q)):
            worst["smoothed"] = max(worst["smoothed"], _max_rel(got, want))
        seen["zero gaps"] += int(np.sum(np.diff(w) == 0.0))
        seen["n=1"] += lik.n == 1
        seen["n=2"] += lik.n == 2
        seen["n=100+"] += lik.n >= 100
    assert worst["messages"] <= 1e-10 and worst["smoothed"] <= 2e-11, worst
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 33])
def test_recursions_match_the_sequential_oracles_at_each_length(n):
    """Forward filter, backward messages and RTS states of n + 1 points, one length each."""
    rng = np.random.default_rng(n)
    data = RegressionData(rng.uniform(0.0, 1.0, n + 1), rng.normal(size=n + 1), 0.05)
    lik = StateSpaceLikelihood(data, KernelSpec("matern52", 0.3, 1.0))
    path = simulate_path(LSPEC, [(0.0, 1.0)], rng)
    w = path.values(lik._x)
    gaps = np.diff(w, prepend=w[:1])
    A, Q = lik._transition(gaps)
    got = _stack(lik._filter(0, w))
    want = oracles.kalman_filter(gaps, A, Q, lik._y, lik._r, np.zeros(3), lik._pinf)
    worst = max(_max_rel(g, wt) for g, wt in zip(got, want))
    worst = max(worst, _rel(lik.total(path), want[2][-1]))
    eta, lam_info, c = _stack(lik._messages(w))
    for g, wt in zip((lam_info, eta, c),
                     oracles.backward_messages(A[1:], Q[1:], lik._y, lik._r)):
        worst = max(worst, _max_rel(g, wt))
    sm, sP, _ = lik._smooth(w, *got[:2])
    for g, wt in zip((sm, sP), oracles.rts_smooth(*got[:2], A[1:], Q[1:])):
        worst = max(worst, _max_rel(g, wt))
    assert worst <= 1e-10, worst


def test_backward_pass_builds_its_transitions_in_one_call(monkeypatch):
    """The backward pass makes one batched numpy transition call and no LAPACK call, whatever n."""
    calls = []
    real = StateSpaceLikelihood._transition

    def counted(self, gaps):
        calls.append(gaps.size)
        return real(self, gaps)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called in the backward pass")

    monkeypatch.setattr(StateSpaceLikelihood, "_transition", counted)
    for name in ("solve", "cholesky", "inv", "slogdet"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for n in (1000, 2000):
        rng = np.random.default_rng(n)
        lik = StateSpaceLikelihood(RegressionData(rng.uniform(0.0, 1.0, n), rng.normal(size=n),
                                                  0.01), KernelSpec("matern52", 0.1, 1.0))
        calls.clear()
        lik._backward(simulate_path(LSPEC, [(0.0, 1.0)], rng))
        assert calls == [n - 1], calls
        assert len(lik._msgs) == n and np.all(np.isfinite(_stack(lik._msgs)[2]))


def test_posterior_between_sweeps_leaves_the_scores_alone():
    rng = np.random.default_rng(11)
    data, kspec, _ = _instance(rng)
    start = simulate_path(LSPEC, [(0.0, 1.0)], rng)
    runs = []
    for with_posterior in (False, True):
        lik, path, local = StateSpaceLikelihood(data, kspec), start, np.random.default_rng(12)
        scores = []
        for _sweep in range(3):
            lik.start_sweep(path)
            for j in range(N_INTERVALS):
                tau = (EDGES[j], EDGES[j + 1])
                candidate = propose(path, tau, 0, LSPEC, local)
                scores.append(lik.score(candidate, 0, tau))
                accepted = bool(local.random() < 0.5)
                lik.decide(accepted)
                if accepted:
                    path = candidate
            if with_posterior:
                lik.posterior(path, data.X)
        runs.append(scores)
    assert runs[0] == runs[1]


def _filter_errors(got, want, pinf):
    """Errors of filtered ``(means, covariances, log-likelihoods)`` against the oracle's.

    A mean entry is measured against the largest magnitude of the same state
    component along the run, a covariance entry against the stationary
    ``sqrt(Pinf_ii Pinf_jj)`` and a log-likelihood against itself.
    """
    (m, P, ll), (m_want, P_want, ll_want) = got, want
    scale = np.abs(m_want).max(axis=0)
    sd = np.sqrt(np.diag(pinf))
    return (float(np.max(np.abs(m - m_want) / np.where(scale > 0.0, scale, 1.0))),
            float(np.max(np.abs(P - P_want) / np.outer(sd, sd))),
            float(np.max(np.abs(ll - ll_want) / np.abs(ll_want))))


def test_scalar_filter_and_close_match_the_numpy_oracles():
    """``_filter`` and ``_close`` against the per-point numpy loop and the LAPACK close.

    Log-likelihoods, closes and covariances agree to 1e-12.  The means get
    1e-11: on these cases the numpy loop's own means are up to 1.2e-12 off
    an 80-bit run of the same recursion, as are the scalar filter's, so two
    double-precision filters differ by a few times that.
    """
    rng = np.random.default_rng(2036)
    names = ("means", "covariances", "log-likelihoods")
    worst = dict.fromkeys((*names, "closes"), 0.0)
    seen = {"zero gaps": 0, "n=1": 0, "n=2": 0, "run of 50+": 0}
    for lik, path in _grid_cases(rng):
        n = lik.n
        w = path.values(lik._x)
        gaps = np.diff(w, prepend=w[:1])
        A, Q = lik._transition(gaps)
        rows = lik._filter(0, w)
        got = _stack(rows)
        runs = [(got, oracles.kalman_filter(gaps, A, Q, lik._y, lik._r, np.zeros(3), lik._pinf))]
        if n > 50:  # a run of 50+ points from a carried state
            k = int(rng.integers(1, n - 50))
            lik._state = rows[k - 1]
            runs.append((_stack(lik._filter(k, w[k - 1:])),
                         oracles.kalman_filter(gaps[k:], A[k:], Q[k:], lik._y[k:], lik._r,
                                               *(e[k - 1] for e in got))))
            seen["run of 50+"] += 1
        for run in runs:
            for name, err in zip(names, _filter_errors(*run, lik._pinf)):
                worst[name] = max(worst[name], err)
        lik._backward(path)
        eta, lam_info, c = _stack(lik._msgs)
        ms, Ps, _ = got
        for b in range(n):
            want = oracles.close_message(lam_info[b], eta[b], c[b], ms[b], Ps[b])
            worst["closes"] = max(worst["closes"], abs(lik._close(b, rows[b]) - want)
                                  / (abs(want) or 1.0))  # the last point's close is 0
        seen["zero gaps"] += int(np.sum(gaps[1:] == 0.0))
        seen["n=1"] += n == 1
        seen["n=2"] += n == 2
    assert all(err <= (1e-11 if name == "means" else 1e-12) for name, err in worst.items()), worst
    assert min(seen.values()) > 0, seen


def test_a_sweep_of_scores_makes_no_numpy_step_per_point(monkeypatch):
    """After ``start_sweep``, scoring, deciding and ``total`` need no transition stack, no
    LAPACK call and no ``_stack`` of their float rows into arrays."""
    rng = np.random.default_rng(2037)
    data, kspec, _ = _instance(rng)
    start = simulate_path(LSPEC, [(0.0, 1.0)], rng)
    runs = []
    for patched in (False, True):
        lik, path, local = StateSpaceLikelihood(data, kspec), start, np.random.default_rng(3)
        lik.start_sweep(path)
        if patched:
            def forbidden(*args, **kwargs):
                raise AssertionError("per-point numpy call in a sweep")

            monkeypatch.setattr(StateSpaceLikelihood, "_transition", forbidden)
            monkeypatch.setattr(statespace, "_stack", forbidden)
            monkeypatch.setattr(np.linalg, "solve", forbidden)
            monkeypatch.setattr(np.linalg, "slogdet", forbidden)
        scores = []
        for j in range(N_INTERVALS):
            tau = (EDGES[j], EDGES[j + 1])
            candidate = propose(path, tau, 0, LSPEC, local)
            scores.append(lik.score(candidate, 0, tau))
            accepted = bool(local.random() < 0.5)
            lik.decide(accepted)
            if accepted:
                path = candidate
        scores.append(lik.total(path))
        runs.append(scores)
    assert runs[0] == runs[1]


def test_intervals_must_be_scored_left_to_right():
    rng = np.random.default_rng(5)
    data = RegressionData(rng.uniform(0, 1, 20), rng.normal(size=20), 0.1)
    path = init_identity([(0.0, 1.0)], 4)
    lik = StateSpaceLikelihood(data, KernelSpec("matern52", 0.2))
    lik.start_sweep(path)
    edges = partition_edges((0.0, 1.0), 4)
    lik.score(propose(path, (edges[0], edges[1]), 0, LSPEC, rng), 0, (edges[0], edges[1]))
    with pytest.raises(ValueError, match="left to right"):
        lik.score(propose(path, (edges[2], edges[3]), 0, LSPEC, rng), 0, (edges[2], edges[3]))


# ---------------------------------------------------------------------------
# identity warp: the plain-GP baselines
# ---------------------------------------------------------------------------

def _identity_instance():
    """n = 200 on [0.1, 0.9] with ten repeated inputs, unsorted."""
    rng = np.random.default_rng(2032)
    X = rng.uniform(0.1, 0.9, 190)
    X = rng.permutation(np.concatenate((X, X[:10])))
    data = RegressionData(X, np.sin(12 * X) + 0.1 * rng.normal(size=X.size), 0.01)
    return data, KernelSpec("matern52", length_scale=0.1, signal_variance=1.3), rng


def test_identity_warp_grid_matches_the_dense_marginal_likelihood():
    data, kspec, _ = _identity_instance()
    grid = np.geomspace(1e-3, 2.0, 60)  # grid_search_length_scale's grid
    fast, dense = np.transpose([
        (StateSpaceLikelihood(data, spec).total(None),
         log_conditional_likelihood(data, None, spec))
        for spec in (replace(kspec, length_scale=float(l)) for l in grid)])
    assert max(map(_rel, fast, dense)) <= 1e-8
    best = int(np.argmax(dense))
    assert int(np.argmax(fast)) == best
    assert grid_search_length_scale(data, kspec) == (float(grid[best]), fast[best])


def test_identity_warp_posterior_matches_the_dense_posterior():
    data, kspec, rng = _identity_instance()
    # unsorted, repeated, on training inputs and outside the training hull [0.1, 0.9]
    X_test = np.concatenate((rng.uniform(0.0, 1.0, 80), data.X[:5, 0], [0.0, 0.05, 0.95, 1.0]))
    X_test = rng.permutation(np.concatenate((X_test, X_test[:6])))
    post = StateSpaceLikelihood(data, kspec).posterior(None, X_test)
    ref = posterior(data, X_test, None, kspec)
    worst = max(_max_rel(post.mean, ref.mean), _max_rel(post.cov, ref.cov),
                _rel(post.log_cond_lik, ref.log_cond_lik))
    assert worst <= 1e-8, worst


# ---------------------------------------------------------------------------
# which likelihood the chain uses
# ---------------------------------------------------------------------------

def _counted_dense(monkeypatch):
    calls = []
    real = sampler.log_conditional_likelihood

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sampler, "log_conditional_likelihood", counted)
    return calls


def _counted_posterior(monkeypatch):
    calls = []
    real = sampler.posterior

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sampler, "posterior", counted)
    return calls


def _fit(data, family, **kwargs):
    cfg = SamplerConfig(n_sweeps=2, n_intervals=5, burn_in_fraction=0.0)
    domains = [(0.0, 1.0)] * data.ndim
    return run_mh_gibbs(data, data.X, KernelSpec(family, 0.2), LSPEC, cfg,
                        np.random.default_rng(1), domains=domains, **kwargs)


def test_matern_1d_takes_the_state_space_likelihood(monkeypatch):
    calls, posteriors = _counted_dense(monkeypatch), _counted_posterior(monkeypatch)
    rng = np.random.default_rng(2)
    mix = _fit(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1), "matern52")
    assert mix.likelihood == "state_space"
    assert calls == [] and posteriors == []


@pytest.mark.parametrize("family, ndim", [("se", 1), ("matern52", 2)])
def test_se_and_multi_dimensional_data_stay_dense(monkeypatch, family, ndim):
    calls, posteriors = _counted_dense(monkeypatch), _counted_posterior(monkeypatch)
    rng = np.random.default_rng(3)
    mix = _fit(RegressionData(rng.uniform(0, 1, (15, ndim)), rng.normal(size=15), 0.1), family)
    assert mix.likelihood == "dense"
    assert len(calls) == 1 + 2 * 5 * ndim
    assert len(posteriors) == len(mix.paths) == 2


def test_log_lik_fn_hook_wins_over_the_state_space_path(monkeypatch):
    calls, posteriors = _counted_dense(monkeypatch), _counted_posterior(monkeypatch)
    hooked = []

    def flat(data, path, kspec):
        hooked.append(path)
        return 0.0

    rng = np.random.default_rng(4)
    mix = _fit(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1), "matern52",
               log_lik_fn=flat)
    assert mix.likelihood == "dense"
    assert mix.acceptance_rate == 1.0
    assert len(hooked) == 1 + 2 * 5
    assert calls == []
    assert len(posteriors) == len(mix.paths) == 2


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------

def test_non_positive_innovation_variance_raises_with_context(monkeypatch):
    real = StateSpaceLikelihood.start_sweep

    def broken(self, path):
        real(self, path)
        self._r = -2.0  # an observation noise below minus the signal variance

    monkeypatch.setattr(StateSpaceLikelihood, "start_sweep", broken)
    rng = np.random.default_rng(6)
    data = RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1)
    with pytest.raises(NumericalError, match=r"sweep 0, dim 0, interval \[0, 0\.2\): "
                                             r"non-positive innovation variance .* of n=15 "
                                             r"\(warped gap .*predicted covariance"):
        _fit(data, "matern52")


def test_non_positive_innovation_in_total_raises_with_context():
    rng = np.random.default_rng(6)
    lik = StateSpaceLikelihood(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1),
                               KernelSpec("matern52", 0.2))
    lik._r = -2.0  # below minus the signal variance
    with pytest.raises(NumericalError, match=r"(?s)non-positive innovation variance -1\.000e\+00 "
                                             r"at sorted point 0 of n=15 \(warped gap "
                                             r"0\.000e\+00, predicted covariance .*; "
                                             r"noise_variance=0\.1"):
        lik.total(init_identity([(0.0, 1.0)], 4))


def _negative_process_noise(monkeypatch, lik):
    real = StateSpaceLikelihood._transition

    def negated(self, gaps):  # Lam >= e0 e0' / r meets -Q: det(I + Lam Q) < 0 at the first gap
        A, Q = real(self, gaps)
        return A, -Q

    monkeypatch.setattr(StateSpaceLikelihood, "_transition", negated)
    return r"-\d\.\d{3}e\+0\d and log-likelihood constant .*"


def _negative_noise_variance(monkeypatch, lik):
    lik._r = -2.0  # no log-density: the constant is NaN at the first absorbed point
    return r"1\.000e\+00 and log-likelihood constant nan"


@pytest.mark.parametrize("corrupt", [_negative_process_noise, _negative_noise_variance])
def test_backward_recursion_failure_raises_with_context(monkeypatch, corrupt):
    rng = np.random.default_rng(6)
    lik = StateSpaceLikelihood(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1),
                               KernelSpec("matern52", 0.2))
    path = init_identity([(0.0, 1.0)], 4)
    det_and_constant = corrupt(monkeypatch, lik)
    with pytest.raises(NumericalError, match=rf"backward message at sorted point \d+ of n=15 "
                                             rf"\(warped gap \d\.\d{{3}}e[+-]0\d\) gave "
                                             rf"det\(I \+ Lam Q\) {det_and_constant}; "
                                             rf"noise_variance=0\.1, jitter="):
        lik.start_sweep(path)


def test_non_positive_close_determinant_raises_with_context(monkeypatch):
    real = StateSpaceLikelihood.start_sweep

    def broken(self, path):
        real(self, path)
        # Lam = -1e6 e0 e0' gives det(I + Lam P) = 1 - 1e6 P[0, 0] < 0
        self._msgs = [(*row[:3], -1e6, 0.0, 0.0, 0.0, 0.0, 0.0, row[9]) for row in self._msgs]

    monkeypatch.setattr(StateSpaceLikelihood, "start_sweep", broken)
    rng = np.random.default_rng(6)
    data = RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1)
    with pytest.raises(NumericalError, match=r"(?s)sweep 0, dim 0, interval \[0, 0\.2\): "
                                             r"backward message at sorted point \d+ of n=15 "
                                             r"gave det\(I \+ Lam P\) -\d\.\d{3}e\+0\d and "
                                             r"value nan for filtered covariance \[\[.*\]\]; "
                                             r"noise_variance=0\.1, jitter="):
        _fit(data, "matern52")


def _corrupt_posterior(monkeypatch, corrupt):
    real = StateSpaceLikelihood.posterior

    def broken(self, path, X_test):
        corrupt(self)
        return real(self, path, X_test)

    monkeypatch.setattr(StateSpaceLikelihood, "posterior", broken)


def test_predicted_covariance_not_positive_definite_raises_with_context(monkeypatch):
    def rank_one_prior(lik):  # the stationary covariance of the first state component alone
        lik._pinf = np.diag([1.0, 0.0, 0.0])

    _corrupt_posterior(monkeypatch, rank_one_prior)
    rng = np.random.default_rng(6)
    data = RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1)
    with pytest.raises(NumericalError, match=r"(?s)posterior at sweep 0: predicted covariance .* "
                                             r"is not positive definite at sorted point \d+ of "
                                             r"n=15 \(warped gap .*\); noise_variance=0\.1"):
        _fit(data, "matern52")


def test_negative_posterior_variance_raises_with_context(monkeypatch):
    def negative_noise(lik):  # the filtered variance of the one point becomes -1
        lik._r = -0.5

    _corrupt_posterior(monkeypatch, negative_noise)
    data = RegressionData([0.4], [0.3], 0.1)
    with pytest.raises(NumericalError, match=r"posterior at sweep 0: posterior variance "
                                             r"-1\.000e\+00 below tolerance -1e-10 at sorted "
                                             r"test point 0 of m=1, right of 1 of n=1 sorted "
                                             r"points \(warped gap 0\.000e\+00\); "
                                             r"noise_variance=0\.1"):
        _fit(data, "matern52")


def test_non_finite_likelihood_raises():
    rng = np.random.default_rng(7)
    data = RegressionData(rng.uniform(0, 1, 10), np.full(10, 1e200), 0.1)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="non-finite log conditional likelihood"):
            StateSpaceLikelihood(data, KernelSpec("matern52", 0.2)).total(
                init_identity([(0.0, 1.0)], 4))
        with pytest.raises(NumericalError, match="chain initialization: non-finite"):
            _fit(data, "matern52")
