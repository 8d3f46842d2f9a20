"""State-space Matern-5/2 likelihood: dense oracle, local scores, dispatch and failures."""

import numpy as np
import pytest

from ngpr import (KernelSpec, LevyMeasureSpec, NumericalError, RegressionData, SamplerConfig,
                  generate, GenSpec, init_identity, kernel_value, log_conditional_likelihood,
                  partition_edges, propose, run_mh_gibbs, simulate_path, warp_inputs)
from ngpr import sampler
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
    np.testing.assert_array_equal(fast.aggregate_mean, dense.aggregate_mean)


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


def _fit(data, family, **kwargs):
    cfg = SamplerConfig(n_sweeps=2, n_intervals=5, burn_in_fraction=0.0)
    domains = [(0.0, 1.0)] * data.ndim
    return run_mh_gibbs(data, data.X, KernelSpec(family, 0.2), LSPEC, cfg,
                        np.random.default_rng(1), domains=domains, **kwargs)


def test_matern_1d_takes_the_state_space_likelihood(monkeypatch):
    calls = _counted_dense(monkeypatch)
    rng = np.random.default_rng(2)
    mix = _fit(RegressionData(rng.uniform(0, 1, 15), rng.normal(size=15), 0.1), "matern52")
    assert mix.likelihood == "state_space"
    assert calls == []


@pytest.mark.parametrize("family, ndim", [("se", 1), ("matern52", 2)])
def test_se_and_multi_dimensional_data_stay_dense(monkeypatch, family, ndim):
    calls = _counted_dense(monkeypatch)
    rng = np.random.default_rng(3)
    mix = _fit(RegressionData(rng.uniform(0, 1, (15, ndim)), rng.normal(size=15), 0.1), family)
    assert mix.likelihood == "dense"
    assert len(calls) == 1 + 2 * 5 * ndim


def test_log_lik_fn_hook_wins_over_the_state_space_path(monkeypatch):
    calls = _counted_dense(monkeypatch)
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


def test_non_finite_likelihood_raises():
    rng = np.random.default_rng(7)
    data = RegressionData(rng.uniform(0, 1, 10), np.full(10, 1e200), 0.1)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="non-finite log conditional likelihood"):
            StateSpaceLikelihood(data, KernelSpec("matern52", 0.2)).total(
                init_identity([(0.0, 1.0)], 4))
        with pytest.raises(NumericalError, match="chain initialization: non-finite"):
            _fit(data, "matern52")
