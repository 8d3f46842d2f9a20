"""Joint-distribution test of the whole sweep: proposals, MH ratio and the real GP likelihood.

Geweke's successive-conditional simulator (Geweke 2004, *Getting it right:
joint distribution tests of posterior simulators*, JASA) alternates two steps:
draw y ~ p(y | W) from the GP on W-warped inputs, then run one
``_gibbs_sweeps`` sweep on W given y.  A sweep that leaves p(W | y)
invariant keeps the pair (W, y) distributed as the joint prior, so W's
marginal stays the ``simulate_path`` prior and y'K_W^-1 y stays
chi-square with n degrees of freedom.  Each statistic's chain mean is
compared with its exact or independently simulated mean by a batch-means
z-score, which accounts for the chain's autocorrelation.

Alongside, every sweep's reported log-likelihood must equal the dense
likelihood of the path it ends on.  Stale backward messages barely move the
sampled distribution in this setting, yet they make the reported likelihood
wrong; that check is what catches them.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import chi2

from ngpr import (KernelSpec, LevyMeasureSpec, RegressionData, SamplerConfig, build_gram,
                  log_conditional_likelihood, normalize_scale, simulate_path, warp_inputs)
from ngpr import sampler
from ngpr.statespace import StateSpaceLikelihood

DOMAINS = ((0.0, 1.0),)
LSPEC = LevyMeasureSpec("tempered_stable", C=normalize_scale(0.8, 5.0, "tempered_stable"),
                        alpha=0.8, beta=5.0, n_terms=50)
X = np.random.default_rng(0).permutation(np.linspace(0.04, 0.96, 12))  # unsorted on purpose
NOISE = 0.01
LENGTH_SCALE = 0.3
SWEEP = SamplerConfig(n_sweeps=1, n_intervals=4)
N_ITER = 1200
N_BATCHES = 24
Z_LIMIT = 3.5
STATISTICS = ("W(x_ub)", "W(mid)", "jump count", "chi-square CDF of y'K^-1 y")


def _noisy_gram(path, kspec):
    K = build_gram(warp_inputs(path, X), None, kspec)
    K[np.diag_indices_from(K)] += NOISE
    return K


def _path_statistics(path):
    return [path.total(), path.values(0.5), path.n_jumps()]


def _successive_conditional(kspec, seed):
    """Statistics of each (W, y) the simulator visits, or the first likelihood mismatch."""
    rng = np.random.default_rng(seed)
    path = simulate_path(LSPEC, DOMAINS, rng)
    out = np.empty((N_ITER, len(STATISTICS)))
    for it in range(N_ITER):
        y = np.linalg.cholesky(_noisy_gram(path, kspec)) @ rng.standard_normal(X.size)
        data = RegressionData(X, y, NOISE)
        for _, path, steps in sampler._gibbs_sweeps(sampler.chain_likelihood(data, kspec), LSPEC,
                                                    SWEEP, rng, DOMAINS, path):
            pass
        exact = log_conditional_likelihood(data, path, kspec)
        if abs(steps[-1].log_cond_lik - exact) > 1e-8 * abs(exact):
            return None, (f"iteration {it}: the sweep reports log-likelihood "
                          f"{steps[-1].log_cond_lik} for its path, whose exact value is {exact}")
        q = y @ cho_solve(cho_factor(_noisy_gram(path, kspec)), y)
        out[it] = _path_statistics(path) + [chi2.cdf(q, X.size)]
    return out, None


@pytest.fixture(scope="module")
def prior_moments():
    """Means of the statistics under the joint prior and the variances of those means."""
    rng = np.random.default_rng(7)
    draws = np.array([_path_statistics(simulate_path(LSPEC, DOMAINS, rng)) for _ in range(4000)])
    # y'K^-1 y is exactly chi-square under the joint, so its CDF is uniform
    return (np.append(draws.mean(axis=0), 0.5),
            np.append(draws.var(axis=0, ddof=1) / draws.shape[0], 0.0))


def _failures(kspec, seed, prior_moments):
    """What the joint-distribution test reports for the sweep as it is now patched."""
    chain, mismatch = _successive_conditional(kspec, seed)
    if mismatch:
        return [mismatch]
    mean, var_of_mean = prior_moments
    batches = chain.reshape(N_BATCHES, -1, chain.shape[1]).mean(axis=1)
    z = (batches.mean(axis=0) - mean) / np.sqrt(batches.var(axis=0, ddof=1) / N_BATCHES
                                                + var_of_mean)
    return [f"{name}: z = {zi:.2f}" for name, zi in zip(STATISTICS, z) if abs(zi) > Z_LIMIT]


@pytest.mark.parametrize("family, likelihood", [("se", "dense"), ("matern52", "state_space")])
def test_sweep_keeps_the_joint_distribution(prior_moments, family, likelihood):
    kspec = KernelSpec(family, LENGTH_SCALE, 1.0)
    assert sampler.chain_likelihood(RegressionData(X, X, NOISE), kspec).name == likelihood
    assert _failures(kspec, 1, prior_moments) == []


def _doubled_log_ratio(monkeypatch):
    real = sampler.acceptance_probability
    monkeypatch.setattr(sampler, "acceptance_probability",
                        lambda new, old: real(new + (new - old), old))


def _jitter_on_the_candidate_side(monkeypatch):
    real = StateSpaceLikelihood.score

    def score(self, candidate, dim, interval):
        r = self._r
        self._r = r + 0.5  # jitter 0.5 * signal variance, candidate only
        try:
            return real(self, candidate, dim, interval)
        finally:
            self._r = r

    monkeypatch.setattr(StateSpaceLikelihood, "score", score)


def _messages_of_the_previous_sweep(monkeypatch):
    real = StateSpaceLikelihood._backward
    previous = []

    def lagging(self, path):
        real(self, path)
        fresh = self._msgs
        if previous:
            self._msgs = previous[0]
        previous[:] = [fresh]

    monkeypatch.setattr(StateSpaceLikelihood, "_backward", lagging)


@pytest.mark.parametrize("mutant, family", [(_doubled_log_ratio, "se"),
                                            (_jitter_on_the_candidate_side, "matern52"),
                                            (_messages_of_the_previous_sweep, "matern52")])
def test_broken_sweeps_fail(prior_moments, monkeypatch, mutant, family):
    mutant(monkeypatch)
    assert _failures(KernelSpec(family, LENGTH_SCALE, 1.0), 1, prior_moments) != []
