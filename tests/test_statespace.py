"""State-space Matern-5/2 likelihood and posterior: oracles, local scores, dispatch, failures."""

import math
from functools import reduce

import numpy as np
import pytest

from ngpr import (KernelSpec, LevyMeasureSpec, NumericalError, RegressionData, SamplerConfig,
                  generate, GenSpec, init_identity, kernel_value, log_conditional_likelihood,
                  partition_edges, propose, run_mh_gibbs, simulate_path, warp_inputs)
from ngpr import sampler, statespace
from ngpr.statespace import StateSpaceLikelihood

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
            "m=0": 0, "m=1": 0, "n=1": 0}
    for i in range(18):
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
        else:
            X_test = np.concatenate((rng.uniform(0.0, 1.0, int(rng.integers(1, 30))),
                                     data.X[:3, 0], [0.0, 1.0, EDGES[3]]))
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
    assert worst <= 1e-8, worst
    assert min(seen.values()) > 0, seen


def test_scanned_messages_and_smoothed_states_match_the_sequential_oracles():
    """The suffix scans against the one-point-at-a-time backward and RTS recursions."""
    rng = np.random.default_rng(2032)
    worst = {"messages": 0.0, "smoothed": 0.0}
    seen = {"zero gaps": 0, "n=1": 0, "n=2": 0}
    for i in range(18):
        data, kspec, _ = _instance(rng)
        if i % 6 in (1, 4):
            keep = slice(0, 1 if i % 6 == 1 else 2)
            data = RegressionData(data.X[keep], data.y[keep], data.noise_variance)
        path = init_identity([(0.0, 1.0)], N_INTERVALS) if i % 4 == 0 else \
            simulate_path(LSPEC, [(0.0, 1.0)], rng)
        lik = StateSpaceLikelihood(data, kspec)
        w = path.values(lik._x)
        A, Q = lik._transition(np.diff(w))
        lik._backward(path)
        for got, want in zip((lik._lam_info, lik._eta, lik._c),
                             oracles.backward_messages(A, Q, lik._y, lik._r)):
            worst["messages"] = max(worst["messages"], _max_rel(got, want))
        ms, Ps, _ = lik._filter(0, w)
        sm, sP, _ = lik._smooth(w, ms, Ps)
        for got, want in zip((sm, sP), oracles.rts_smooth(ms, Ps, A, Q)):
            worst["smoothed"] = max(worst["smoothed"], _max_rel(got, want))
        seen["zero gaps"] += int(np.sum(np.diff(w) == 0.0))
        seen["n=1"] += data.n == 1
        seen["n=2"] += data.n == 2
    assert max(worst.values()) <= 1e-10, worst
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 33])
def test_scans_match_left_and_right_folds(n):
    rng = np.random.default_rng(n)
    data = RegressionData(rng.uniform(0.0, 1.0, n + 1), rng.normal(size=n + 1), 0.05)
    lik = StateSpaceLikelihood(data, KernelSpec("matern52", 0.3, 1.0))
    w = simulate_path(LSPEC, [(0.0, 1.0)], rng).values(lik._x)
    elems = tuple(e[1:] for e in lik._elements(w))  # each conditions on the previous state
    single = [tuple(e[k:k + 1] for e in elems) for k in range(n)]
    prefix = statespace._scan(tuple(e.copy() for e in elems), statespace._combine)
    suffix = statespace._scan(tuple(e.copy() for e in elems), statespace._combine, reverse=True)
    worst = 0.0
    for k in range(n):
        left = reduce(statespace._combine, single[:k + 1])
        right = reduce(lambda later, e: statespace._combine(e, later), single[k:][::-1])
        for scanned, folded in ((prefix, left), (suffix, right)):
            worst = max(worst, *(_max_rel(got[k], want[0]) for got, want in zip(scanned, folded)))
    assert worst <= 1e-10, worst


def test_backward_pass_takes_logarithmically_many_combines(monkeypatch):
    calls = []
    real = statespace._combine

    def counted(first, second):
        calls.append(len(first[0]))
        return real(first, second)

    monkeypatch.setattr(statespace, "_combine", counted)
    counts = []
    for n in (1000, 2000):
        rng = np.random.default_rng(n)
        lik = StateSpaceLikelihood(RegressionData(rng.uniform(0.0, 1.0, n), rng.normal(size=n),
                                                  0.01), KernelSpec("matern52", 0.1, 1.0))
        calls.clear()
        lik._backward(simulate_path(LSPEC, [(0.0, 1.0)], rng))
        counts.append(len(calls))
    assert counts[0] <= 2 * math.ceil(math.log2(1000)), counts
    assert counts[1] - counts[0] <= 2, counts


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


def test_non_positive_element_innovation_raises_with_context():
    rng = np.random.default_rng(6)
    lik = StateSpaceLikelihood(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1),
                               KernelSpec("matern52", 0.2))
    lik._r = -2.0  # below minus the signal variance
    with pytest.raises(NumericalError, match=r"(?s)non-positive innovation variance -1\.000e\+00 "
                                             r"of the filtering element at sorted point 0 of n=15 "
                                             r"\(warped gap 0\.000e\+00, process noise .*; "
                                             r"noise_variance=0\.1"):
        lik.total(init_identity([(0.0, 1.0)], 4))


@pytest.mark.parametrize("suffix", [False, True])
def test_non_positive_determinant_in_a_scan_raises_with_context(monkeypatch, suffix):
    real = StateSpaceLikelihood._elements

    def negative_information(self, w):
        A, b, C, eta, J, z = real(self, w)
        return A, b, C, eta, -1e6 * J, z  # det(I + J C) < 0 once J meets a covariance

    monkeypatch.setattr(StateSpaceLikelihood, "_elements", negative_information)
    rng = np.random.default_rng(6)
    lik = StateSpaceLikelihood(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1),
                               KernelSpec("matern52", 0.2))
    path = init_identity([(0.0, 1.0)], 4)
    with pytest.raises(NumericalError, match=rf"non-finite log conditional likelihood \(nan\) in "
                                             rf"the {'suffix' if suffix else 'prefix'} scan at "
                                             rf"sorted point \d+ of n=15 \(warped gap .*\): "
                                             rf"det\(I \+ J C\) not positive or an overflow; "
                                             rf"noise_variance=0\.1"):
        lik.start_sweep(path) if suffix else lik.total(path)


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
