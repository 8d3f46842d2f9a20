"""MH-within-Gibbs sampler: proposals, acceptance, aggregation, determinism."""

import math

import numpy as np
import pytest

from ngpr import (KernelSpec, LevyMeasureSpec, NumericalError, RegressionData,
                  acceptance_probability, assign_positions, init_identity, mixture_moments,
                  partition_edges, pool_chains, posterior, predictive_moments, propose,
                  run_chains, run_mh_gibbs, simulate_jumps, simulate_path)
from ngpr.gp import ConditionalPosterior
from ngpr.sampler import MixtureSummary, combine

import oracles

KSPEC = KernelSpec("se", 0.1, 1.0, jitter=1e-8)
LSPEC = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0, n_terms=200)


def _toy_data(rng, n=15, domain=(0.0, 1.0)):
    X = np.sort(rng.uniform(*domain, size=n)).reshape(-1, 1)
    y = rng.normal(size=n)
    return RegressionData(X, y, 0.05)


# ---------------------------------------------------------------------------
# identity initialization
# ---------------------------------------------------------------------------

def test_identity_init_construction():
    path = init_identity([(0.0, 1.0)], 4)
    js = path.jump_sets[0]
    np.testing.assert_allclose(np.sort(js.magnitudes), [0.25] * 4)
    assert path.total() == 1.0
    assert path.values(1.0) == 1.0
    assert abs(path.values(0.9) - path.values(0.1) - 0.75) < 1e-12


def test_identity_init_uniform_error_bound():
    for n_jumps in (4, 10, 33):
        path = init_identity([(0.0, 1.0)], n_jumps)
        x = np.linspace(0, 1, 1001)
        assert np.max(np.abs(path.values(x) - x)) <= 1.0 / n_jumps + 1e-12


def test_identity_init_shifted_domain():
    path = init_identity([(2.0, 4.0)], 8)
    assert path.total() == 2.0
    assert path.values(4.0) == 2.0
    assert path.values(2.0) == 0.0


# ---------------------------------------------------------------------------
# propose
# ---------------------------------------------------------------------------

def test_propose_replaces_only_the_interval():
    rng = np.random.default_rng(0)
    current = init_identity([(0.0, 1.0)], 10)
    tau = (0.3, 0.5)
    prop = propose(current, tau, 0, LSPEC, rng)
    cur_js, new_js = current.jump_sets[0], prop.jump_sets[0]
    outside_old = (cur_js.positions < 0.3) | (cur_js.positions >= 0.5)
    outside_new = (new_js.positions < 0.3) | (new_js.positions >= 0.5)
    # jumps outside tau are carried over bitwise, in order
    assert np.array_equal(cur_js.positions[outside_old], new_js.positions[outside_new])
    assert np.array_equal(cur_js.magnitudes[outside_old], new_js.magnitudes[outside_new])
    inside = ~outside_new
    assert np.all(new_js.positions[inside] > 0.3) and np.all(new_js.positions[inside] < 0.5)


def test_propose_deletes_old_jumps_even_when_fresh_set_is_empty():
    # a huge-C, huge-beta spec rejects every candidate
    reject_all = LevyMeasureSpec("tempered_stable", C=1e8, alpha=0.5, beta=1e6, n_terms=5)
    current = init_identity([(0.0, 1.0)], 10)
    prop = propose(current, (0.25, 0.65), 0, reject_all, np.random.default_rng(1))
    js = prop.jump_sets[0]
    inside = (js.positions >= 0.25) & (js.positions < 0.65)
    assert not inside.any()
    assert len(js) < len(current.jump_sets[0])


def test_propose_matches_a_splice_of_assign_positions():
    """The jumps equal an identically seeded ``simulate_jumps`` + ``assign_positions`` splice."""
    rng = np.random.default_rng(4)
    current = simulate_path(LSPEC, [(0.0, 1.0)], rng)
    js = current.jump_sets[0]
    for seed, (lo, hi) in enumerate([(0.0, 0.25), (0.3, 0.7), (0.75, 1.0)]):
        prop = propose(current, (lo, hi), 0, LSPEC, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        fresh = assign_positions(simulate_jumps(LSPEC, hi - lo, ref_rng, 1.0), (lo, hi), ref_rng)
        left = js.positions < lo
        right = (js.positions >= hi) if hi < 1.0 else (js.positions > hi)  # 1.0 is the upper bound
        assert fresh.positions.size > 1 and left.sum() + right.sum() < len(js)
        np.testing.assert_array_equal(
            prop.jump_sets[0].positions,
            np.concatenate((js.positions[left], fresh.positions, js.positions[right])))
        np.testing.assert_array_equal(
            prop.jump_sets[0].magnitudes,
            np.concatenate((js.magnitudes[left], fresh.magnitudes, js.magnitudes[right])))


def test_propose_rejects_degenerate_interval():
    current = init_identity([(0.0, 1.0)], 4)
    with pytest.raises(ValueError):
        propose(current, (0.5, 0.5), 0, LSPEC, np.random.default_rng(0))


def test_propose_leaves_other_dimensions_untouched():
    rng = np.random.default_rng(2)
    current = init_identity([(0.0, 1.0), (0.0, 1.0)], 6)
    prop = propose(current, (0.0, 0.5), 1, LSPEC, rng)
    assert prop.jump_sets[0] is current.jump_sets[0]


@pytest.mark.parametrize("domain", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (1.0, 1.0)])
def test_partition_edges_need_a_finite_domain(domain):
    with pytest.raises(ValueError, match=r"needs finite bounds with lo < hi"):
        partition_edges(domain, 4)


def test_boundary_jump_belongs_to_the_last_interval():
    current = init_identity([(0.0, 1.0)], 4)  # has a jump exactly at 1.0
    edges = partition_edges((0.0, 1.0), 4)
    prop = propose(current, (edges[-2], edges[-1]), 0, LSPEC, np.random.default_rng(3))
    assert 1.0 not in prop.jump_sets[0].positions


def test_flat_likelihood_chain_keeps_jump_sets_sorted_and_exact():
    """Every proposal of a 2-D chain keeps the sorted invariant and the oracle's W."""
    from ngpr import SamplerConfig

    domains = [(0.0, 1.0), (-1.0, 2.0)]
    cfg = SamplerConfig(n_sweeps=14, n_intervals=7, burn_in_fraction=0.0)
    edges = [partition_edges(dom, cfg.n_intervals) for dom in domains]
    seen = []

    def checked_flat(data, path, kspec):
        if seen:  # the chain proposes sweep by sweep, dim by dim, left to right
            dim, j = divmod((len(seen) - 1) % (2 * cfg.n_intervals), cfg.n_intervals)
            lo, hi = edges[dim][j], edges[dim][j + 1]
            before, after = seen[-1].jump_sets[dim], path.jump_sets[dim]
            # the last interval also owns a jump on the upper bound
            above = before.positions > hi if j == cfg.n_intervals - 1 else before.positions >= hi
            out_before = (before.positions < lo) | above
            out_after = (after.positions < lo) | (after.positions >= hi)
            assert np.array_equal(before.positions[out_before], after.positions[out_after])
            assert np.array_equal(before.magnitudes[out_before], after.magnitudes[out_after])
            assert path.jump_sets[1 - dim] is seen[-1].jump_sets[1 - dim]
        for k, js in enumerate(path.jump_sets):
            assert np.all(np.diff(js.positions) >= 0)
            assert js.cumulative[-1] == path.total(k)
            assert path.total(k) == pytest.approx(math.fsum(js.magnitudes), rel=1e-12)
            x = np.concatenate((edges[k], np.linspace(*domains[k], 101)))
            np.testing.assert_allclose(
                path.values(x, k), oracles.step_function_values(js.positions, js.magnitudes, x),
                rtol=1e-12)
        seen.append(path)
        return 0.0

    rng = np.random.default_rng(40)
    data = RegressionData(rng.uniform(0.0, 1.0, (6, 2)), rng.normal(size=6), 0.05)
    mix = run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(41),
                       domains=domains, log_lik_fn=checked_flat)
    assert mix.acceptance_rate == 1.0
    assert len(seen) == 1 + cfg.n_sweeps * 2 * cfg.n_intervals
    assert seen[-1] is mix.paths[-1]


# ---------------------------------------------------------------------------
# acceptance probability
# ---------------------------------------------------------------------------

def test_acceptance_probability_cases():
    assert acceptance_probability(-5.0, -5.0) == 1.0
    assert acceptance_probability(-10.0, -12.0) == 1.0
    assert acceptance_probability(-1e300, 0.0) == 0.0
    assert abs(acceptance_probability(-1.0, 0.0) - np.exp(-1.0)) < 1e-15
    with pytest.raises(NumericalError):
        acceptance_probability(float("nan"), 0.0)


# ---------------------------------------------------------------------------
# mixture moments
# ---------------------------------------------------------------------------

def _sample(mean, cov, ll=0.0):
    return ConditionalPosterior(np.asarray(mean, float), np.asarray(cov, float), ll)


def test_mixture_single_sample_is_identity():
    s = _sample([1.0, 2.0], [[1.0, 0.1], [0.1, 2.0]])
    mean, cov = mixture_moments([s])
    np.testing.assert_array_equal(mean, s.mean)
    np.testing.assert_array_equal(cov, s.cov)


def test_mixture_two_symmetric_samples():
    K = np.array([[0.5, 0.0], [0.0, 0.5]])
    a = np.array([1.0, -2.0])
    mean, cov = mixture_moments([_sample(a, K), _sample(-a, K)])
    np.testing.assert_allclose(mean, [0.0, 0.0])
    np.testing.assert_allclose(cov, K + np.outer(a, a))


def _random_components(rng, n, m, offset=0.0, spread=1.0, cov_scale=1.0):
    means, covs = [], []
    for _ in range(n):
        means.append(offset + spread * rng.normal(size=m))
        A = rng.normal(size=(m, m))
        covs.append(cov_scale * (A @ A.T))
    return means, covs


def test_mixture_matches_brute_force_oracle():
    cases = [
        (_random_components(np.random.default_rng(5), 3, 4), 1e-12, 0.0),
        # means sharing a 1e4 offset, covariances ~1e-4: raw sums of m and
        # m m^T lose the covariance to cancellation, the pairwise update must not
        (_random_components(np.random.default_rng(6), 12, 5, offset=1e4, spread=1e-2,
                            cov_scale=1e-4), 0.0, 1e-9),
    ]
    for (means, covs), atol, rtol in cases:
        samples = [_sample(m, c) for m, c in zip(means, covs)]
        mean, cov = mixture_moments(samples)
        mean_o, cov_o = oracles.brute_force_mixture([m.tolist() for m in means],
                                                    [c.tolist() for c in covs])
        np.testing.assert_allclose(mean, mean_o, atol=atol, rtol=rtol)
        np.testing.assert_allclose(cov, cov_o, atol=atol + rtol * np.abs(cov_o).max())
        for s, m, c in zip(samples, means, covs):  # inputs are left as they were
            np.testing.assert_array_equal(s.mean, m)
            np.testing.assert_array_equal(s.cov, c)


def test_combine_folds_into_its_left_operand():
    rng = np.random.default_rng(8)
    (ma, mb), (ca, cb) = _random_components(rng, 2, 4)
    a, b = MixtureSummary(1, ma, ca.copy()), MixtureSummary(1, mb, cb.copy())
    out = combine(a, b)
    assert np.shares_memory(out.cov, a.cov)  # folded in place: the caller owned a
    np.testing.assert_array_equal(b.cov, cb)
    np.testing.assert_array_equal(b.mean, mb)
    mean, cov = oracles.brute_force_mixture([ma.tolist(), mb.tolist()], [ca.tolist(), cb.tolist()])
    np.testing.assert_allclose(out.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.cov, cov, rtol=0, atol=1e-12)
    assert combine(None, b) is b
    empty = combine(MixtureSummary(1, np.zeros(0), np.zeros((0, 0))),
                    MixtureSummary(1, np.zeros(0), np.zeros((0, 0))))
    assert empty.count == 2 and empty.cov.shape == (0, 0)


def test_combine_of_unequal_counts_matches_brute_force_oracle():
    # a 3-component and a 2-component summary: the (na/n, nb/n, na nb/n^2) weights
    means, covs = _random_components(np.random.default_rng(10), 5, 4)
    owned = covs[0].copy()
    left = combine(combine(MixtureSummary(1, means[0], owned), MixtureSummary(1, means[1], covs[1])),
                   MixtureSummary(1, means[2], covs[2]))
    right = combine(MixtureSummary(1, means[3], covs[3].copy()), MixtureSummary(1, means[4], covs[4]))
    right_cov = right.cov.copy()
    out = combine(left, right)
    assert out.count == 5 and np.shares_memory(out.cov, owned)
    assert right.cov.tobytes() == right_cov.tobytes()
    mean, cov = oracles.brute_force_mixture([m.tolist() for m in means], [c.tolist() for c in covs])
    np.testing.assert_allclose(out.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.cov, cov, rtol=0, atol=1e-12)


def test_mixture_moments_leave_the_samples_alone():
    means, covs = _random_components(np.random.default_rng(9), 4, 5)
    samples = [_sample(m, c) for m, c in zip(means, covs)]
    before = [(s.mean.copy(), s.cov.copy()) for s in samples]
    for k in (1, 4):
        mixture_moments(samples[:k])
        for s, (mean, cov) in zip(samples, before):
            assert s.mean.tobytes() == mean.tobytes() and s.cov.tobytes() == cov.tobytes()


def test_mixture_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mixture_moments([])
    with pytest.raises(ValueError):
        mixture_moments([_sample([1.0], [[1.0]]), _sample([1.0, 2.0], np.eye(2))])


# ---------------------------------------------------------------------------
# sampler runs
# ---------------------------------------------------------------------------

def _run(seed=0, **cfg_kwargs):
    from ngpr import SamplerConfig

    rng = np.random.default_rng(100)
    data = _toy_data(rng)
    cfg = SamplerConfig(**{"n_sweeps": 6, "n_intervals": 8, "seed": seed, **cfg_kwargs})
    mix = run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(seed),
                       domains=[(0.0, 1.0)])
    return data, mix


def test_run_is_deterministic_given_seed():
    _, mix1 = _run(seed=42)
    _, mix2 = _run(seed=42)
    assert mix1.acceptance_rate == mix2.acceptance_rate
    assert mix1.avg_log_cond_lik == mix2.avg_log_cond_lik
    np.testing.assert_array_equal(mix1.aggregate_mean, mix2.aggregate_mean)
    np.testing.assert_array_equal(mix1.aggregate_cov, mix2.aggregate_cov)
    for a, b in zip(mix1.trace, mix2.trace):
        assert a == b
    for p1, p2 in zip(mix1.paths, mix2.paths):
        for js1, js2 in zip(p1.jump_sets, p2.jump_sets):
            assert np.array_equal(js1.positions, js2.positions)
            assert np.array_equal(js1.magnitudes, js2.magnitudes)


def test_flat_likelihood_accepts_everything():
    from ngpr import SamplerConfig

    rng = np.random.default_rng(1)
    data = _toy_data(rng)
    cfg = SamplerConfig(n_sweeps=1, n_intervals=5, burn_in_fraction=0.0)
    mix = run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(2),
                       domains=[(0.0, 1.0)], log_lik_fn=lambda d, p, k: 0.0)
    assert mix.acceptance_rate == 1.0


@pytest.mark.parametrize("n_intervals", [4, 16])
def test_flat_likelihood_chain_targets_the_simulate_path_prior(n_intervals):
    """Whatever the partition, the chain's W(x_ub) and path size match ``simulate_path``.

    With a flat likelihood every proposal is accepted and each sweep redraws
    the whole domain, so the stored paths are independent prior draws.  At
    alpha=0.8 much of W's mass sits in jumps near the truncation threshold,
    so an interval cut deeper than the whole-domain series shows in both.
    """
    from scipy.stats import ks_2samp

    from ngpr import SamplerConfig, normalize_scale, simulate_path

    lspec = LevyMeasureSpec("tempered_stable", C=normalize_scale(0.8, 5.0, "tempered_stable"),
                            alpha=0.8, beta=5.0, n_terms=50)
    data = RegressionData(np.array([[0.5]]), np.array([0.0]), 0.01)
    cfg = SamplerConfig(n_sweeps=1000, n_intervals=n_intervals, burn_in_fraction=0.2)
    mix = run_mh_gibbs(data, data.X, KSPEC, lspec, cfg, np.random.default_rng(50 + n_intervals),
                       domains=[(0.0, 1.0)], log_lik_fn=lambda d, p, k: 0.0)
    assert mix.acceptance_rate == 1.0
    rng = np.random.default_rng(60 + n_intervals)
    direct = [simulate_path(lspec, [(0.0, 1.0)], rng) for _ in range(2000)]
    res = ks_2samp([p.total() for p in mix.paths], [p.total() for p in direct])
    assert res.pvalue > 0.01
    chain_n = np.array([p.n_jumps() for p in mix.paths], dtype=float)
    direct_n = np.array([p.n_jumps() for p in direct], dtype=float)
    se = np.hypot(chain_n.std(ddof=1) / np.sqrt(chain_n.size),
                  direct_n.std(ddof=1) / np.sqrt(direct_n.size))
    assert abs(chain_n.mean() - direct_n.mean()) < 3 * se


def test_rejected_proposals_leave_state_untouched():
    from ngpr import SamplerConfig

    rng = np.random.default_rng(3)
    data = _toy_data(rng)
    init = init_identity([(0.0, 1.0)], 4)

    def hostile(d, p, k):
        # only the initial identity configuration is tolerated
        same = np.array_equal(p.jump_sets[0].positions, init.jump_sets[0].positions)
        return 0.0 if same else -1e9

    cfg = SamplerConfig(n_sweeps=2, n_intervals=4, burn_in_fraction=0.0)
    mix = run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(4),
                       domains=[(0.0, 1.0)], log_lik_fn=hostile)
    assert mix.acceptance_rate == 0.0
    assert np.array_equal(mix.paths[-1].jump_sets[0].positions,
                          init.jump_sets[0].positions)
    assert all(step.log_cond_lik == 0.0 for step in mix.trace)


def _recomputed_moments(data, paths):
    """Two-pass mixture moments of the components recomputed from stored paths."""
    posts = [posterior(data, data.X, p, KSPEC) for p in paths]
    mean = np.mean([q.mean for q in posts], axis=0)
    cov = np.mean([q.cov + np.outer(q.mean - mean, q.mean - mean) for q in posts], axis=0)
    return mean, cov, [q.log_cond_lik for q in posts]


def test_stored_aggregates_recomputable_from_samples():
    data, mix = _run(seed=7)
    mean, cov, lls = _recomputed_moments(data, mix.paths)
    np.testing.assert_allclose(mean, mix.aggregate_mean, atol=1e-12)
    np.testing.assert_allclose(cov, mix.aggregate_cov, atol=1e-12)
    assert lls == list(mix.log_cond_liks)
    assert abs(np.mean(lls) - mix.avg_log_cond_lik) < 1e-12
    assert abs(np.std(lls, ddof=1) - mix.std_log_cond_lik) < 1e-12
    assert 0.0 <= mix.acceptance_rate <= 1.0
    assert np.isfinite(mix.avg_log_cond_lik)


def test_one_sample_stored_per_post_burn_in_sweep():
    _, mix = _run(seed=9, n_sweeps=10, burn_in_fraction=0.2)
    assert mix.sweeps == tuple(range(2, 10))
    assert mix.moments.count == len(mix.paths) == len(mix.log_cond_liks) == 8


# ---------------------------------------------------------------------------
# predictive moments
# ---------------------------------------------------------------------------

def test_predictive_moments_shift_diagonal_only():
    _, mix = _run(seed=11)
    mean0, cov0 = predictive_moments(mix, 0.0)
    np.testing.assert_array_equal(mean0, mix.aggregate_mean)
    np.testing.assert_array_equal(cov0, mix.aggregate_cov)
    mean, cov = predictive_moments(mix, 0.3)
    np.testing.assert_array_equal(mean, mix.aggregate_mean)
    np.testing.assert_allclose(np.diag(cov), np.diag(mix.aggregate_cov) + 0.3, atol=1e-12)
    off = ~np.eye(cov.shape[0], dtype=bool)
    np.testing.assert_allclose(cov[off], mix.aggregate_cov[off], atol=1e-12)


def test_predictive_single_sample():
    from types import SimpleNamespace

    mix = SimpleNamespace(aggregate_mean=np.array([0.5]), aggregate_cov=np.array([[2.0]]))
    mean, cov = predictive_moments(mix, 0.25)
    np.testing.assert_allclose(mean, [0.5])
    np.testing.assert_allclose(cov, [[2.25]])


# ---------------------------------------------------------------------------
# sweep schedule
# ---------------------------------------------------------------------------

def test_single_interval_redraws_whole_domain():
    current = init_identity([(0.0, 1.0)], 5)
    prop = propose(current, tuple(partition_edges((0.0, 1.0), 1)), 0, LSPEC,
                   np.random.default_rng(6))
    js = prop.jump_sets[0]
    # nothing survives from the identity configuration
    assert not np.intersect1d(js.positions, current.jump_sets[0].positions).size


def test_burn_in_sweeps_compute_no_posterior(monkeypatch):
    from ngpr import SamplerConfig, sampler

    calls = []
    real_posterior = sampler.posterior

    def counted(*args, **kwargs):
        calls.append(args)
        return real_posterior(*args, **kwargs)

    monkeypatch.setattr(sampler, "posterior", counted)
    data = _toy_data(np.random.default_rng(24))
    cfg = SamplerConfig(n_sweeps=5, n_intervals=12, burn_in_fraction=0.4)
    mix = run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(25),
                       domains=[(0.0, 1.0)])
    assert mix.sweeps == (2, 3, 4)
    assert len(calls) == len(mix.paths) == 3


# ---------------------------------------------------------------------------
# chain pooling
# ---------------------------------------------------------------------------

def test_pool_chains_combines_samples():
    data, mix1 = _run(seed=21)
    _, mix2 = _run(seed=22)
    pooled = pool_chains([mix1, mix2])
    assert pooled.sweeps == mix1.sweeps + mix2.sweeps
    assert pooled.log_cond_liks == mix1.log_cond_liks + mix2.log_cond_liks
    assert pooled.moments.count == len(pooled.paths) == len(mix1.paths) + len(mix2.paths)
    assert pooled.paths[-1] is mix2.paths[-1]
    mean, cov, _ = _recomputed_moments(data, pooled.paths)
    np.testing.assert_allclose(pooled.aggregate_mean, mean, atol=1e-12)
    np.testing.assert_allclose(pooled.aggregate_cov, cov, atol=1e-12)
    posts = [posterior(data, data.X, p, KSPEC) for p in pooled.paths]
    mean_o, cov_o = oracles.brute_force_mixture([q.mean.tolist() for q in posts],
                                                [q.cov.tolist() for q in posts])
    np.testing.assert_allclose(pooled.moments.mean, mean_o, atol=1e-12)
    np.testing.assert_allclose(pooled.moments.cov, cov_o, atol=1e-12)


def test_pooling_leaves_the_chains_alone():
    mixes = [_run(seed=seed)[1] for seed in (31, 32, 33)]
    before = [(m.moments.mean.copy(), m.moments.cov.copy()) for m in mixes]
    for k in (1, 3):
        pooled = pool_chains(mixes[:k])
        for mix, (mean, cov) in zip(mixes, before):
            assert mix.moments.mean.tobytes() == mean.tobytes()
            assert mix.moments.cov.tobytes() == cov.tobytes()
        assert not np.shares_memory(pooled.moments.cov, mixes[0].moments.cov)


def test_aggregate_cov_is_the_read_only_mixture_covariance():
    mixes = [_run(seed=seed)[1] for seed in (35, 36)]
    for mix in (*mixes, pool_chains(mixes)):
        assert np.shares_memory(mix.aggregate_cov, mix.moments.cov)
        with pytest.raises(ValueError):
            mix.aggregate_cov[0, 0] = 1.0
        with pytest.raises(ValueError):  # a chain cannot be the left operand of a fold
            combine(mix.moments, mixes[0].moments)


def test_run_chains_returns_the_chains_as_run_alone():
    from ngpr import SamplerConfig

    data = _toy_data(np.random.default_rng(100))
    cfg = SamplerConfig(n_sweeps=4, n_intervals=5, seed=34)
    pooled, mixes = run_chains(data, data.X, KSPEC, LSPEC, cfg, n_chains=3, domains=[(0.0, 1.0)])
    alone = [run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(s),
                          domains=[(0.0, 1.0)])
             for s in np.random.SeedSequence(cfg.seed).spawn(3)]
    for mix, ref in zip(mixes, alone):
        assert mix.moments.count == ref.moments.count
        assert mix.moments.mean.tobytes() == ref.moments.mean.tobytes()
        assert mix.moments.cov.tobytes() == ref.moments.cov.tobytes()
        posts = [posterior(data, data.X, p, KSPEC) for p in ref.paths]
        _, cov_o = oracles.brute_force_mixture([q.mean.tolist() for q in posts],
                                               [q.cov.tolist() for q in posts])
        np.testing.assert_allclose(mix.moments.cov, cov_o, atol=1e-12)
    assert pooled.moments.count == sum(m.moments.count for m in mixes)


def test_numerical_failures_carry_sweep_context():
    from ngpr import SamplerConfig

    rng = np.random.default_rng(23)
    data = _toy_data(rng)
    calls = []

    def exploding(d, p, k):
        if calls:
            raise NumericalError("synthetic failure")
        calls.append(1)
        return 0.0

    cfg = SamplerConfig(n_sweeps=1, n_intervals=3)
    with pytest.raises(NumericalError, match=r"sweep 0, dim 0"):
        run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(1),
                     domains=[(0.0, 1.0)], log_lik_fn=exploding)

    def always_exploding(d, p, k):
        raise NumericalError("boom")

    with pytest.raises(NumericalError, match="chain initialization"):
        run_mh_gibbs(data, data.X, KSPEC, LSPEC, cfg, np.random.default_rng(1),
                     domains=[(0.0, 1.0)], log_lik_fn=always_exploding)


def test_failed_cholesky_carries_chain_and_sweep_context():
    from ngpr import SamplerConfig
    from ngpr.sampler import chain_likelihood, fold_posteriors

    kspec = KernelSpec("se", 0.1, 1.0, jitter=0.0)
    # Few prior jumps: a redraw of [0.25, 0.5) soon leaves 0.2 and 0.3 on one flat step.
    lspec = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0, n_terms=2)
    cfg = SamplerConfig(n_sweeps=5, n_intervals=4)
    chain_args = (kspec, lspec, cfg)
    tied = RegressionData([0.3, 0.3], [1.0, -1.0], 1e-20)
    with pytest.raises(NumericalError, match=r"chain initialization: Cholesky .* n=2 "):
        run_mh_gibbs(tied, tied.X, *chain_args, np.random.default_rng(1), domains=[(0.0, 1.0)])
    apart = RegressionData([0.2, 0.3], [1.0, -1.0], 1e-20)
    with pytest.raises(NumericalError,
                       match=r"sweep \d+, dim 0, interval \[\S+, \S+\): Cholesky .* n=2 "):
        run_mh_gibbs(apart, apart.X, *chain_args, np.random.default_rng(1), domains=[(0.0, 1.0)])
    with pytest.raises(NumericalError, match=r"posterior at sweep 7: Cholesky .* n=2 "):
        fold_posteriors(chain_likelihood(tied, kspec), [(7, None)], tied.X)


# ---------------------------------------------------------------------------
# memory: one m x m covariance per mixture
# ---------------------------------------------------------------------------

def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of its traced allocations above those live at the call."""
    import tracemalloc

    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.mark.parametrize("family", ["se", "matern52"])
def test_fold_holds_one_mixture_covariance_beside_one_posterior(family):
    # n << m, so the m x m arrays dominate: the running mixture covariance plus the
    # posterior in flight (dense: its cov, built and updated in place; state space: the
    # product-form cov of sorted test points, reordered in place for shuffled ones).
    # Holding the previous posterior adds one more m x m.
    from ngpr import SamplerConfig

    m = 800
    data = _toy_data(np.random.default_rng(3), n=12)
    grid = np.linspace(0.0, 1.0, m)
    cfg = SamplerConfig(n_sweeps=4, n_intervals=4, burn_in_fraction=0.0, seed=1)
    for X_test in (grid, np.random.default_rng(4).permutation(grid)):
        mix, peak = _traced_peak(run_mh_gibbs, data, X_test, KernelSpec(family, 0.2, 1.0),
                                 LSPEC, cfg, np.random.default_rng(2), [(0.0, 1.0)])
        assert mix.moments.count == 4
        assert mix.likelihood == ("dense" if family == "se" else "state_space")
        assert peak < 2.5 * m * m * 8
        assert np.shares_memory(mix.aggregate_cov, mix.moments.cov)
    (_, cov), peak = _traced_peak(predictive_moments, mix, 0.1)
    assert not np.shares_memory(cov, mix.moments.cov)
    assert m * m * 8 <= peak < 1.5 * m * m * 8  # exactly one m x m: the returned copy


def test_shuffled_state_space_posterior_reorders_in_place():
    # the sorted-order covariance is permuted over itself: no second m x m array, and the
    # result is the sorted one's np.ix_ reorder, transposed, bit for bit
    from ngpr.statespace import StateSpaceLikelihood

    m = 800
    data = _toy_data(np.random.default_rng(3), n=12)
    lik = StateSpaceLikelihood(data, KernelSpec("matern52", 0.2, 1.0))
    path = simulate_path(LSPEC, [(0.0, 1.0)], np.random.default_rng(5))
    grid = np.linspace(0.0, 1.0, m)
    perm = np.random.default_rng(6).permutation(m)
    ref = lik.posterior(path, grid)
    post, peak = _traced_peak(lik.posterior, path, grid[perm])
    assert peak < 1.5 * m * m * 8
    np.testing.assert_array_equal(post.mean, ref.mean[perm])
    np.testing.assert_array_equal(post.cov, ref.cov[np.ix_(perm, perm)].T)


def test_dense_posterior_allocates_one_m_by_m():
    # n << m: the test Gram is built in place of the covariance, whose update needs no
    # second m x m array (a product V.T V or a symmetrized copy would be one).
    m = 800
    data = _toy_data(np.random.default_rng(4), n=12)
    X_test = np.linspace(0.0, 1.0, m)
    post, peak = _traced_peak(posterior, data, X_test, None, KernelSpec("se", 0.2, 1.0))
    assert post.cov.shape == (m, m)
    assert m * m * 8 <= peak < 1.5 * m * m * 8
