"""Conditional GP: posterior moments, conditional likelihood, oracle equivalence."""

import numpy as np
import pytest

from ngpr import (JumpSet, KernelSpec, LevyMeasureSpec, NumericalError, RegressionData,
                  SubordinatorPath, gp, kernel_value, kernels, log_conditional_likelihood,
                  posterior, simulate_path, warp_inputs)
from ngpr.sampler import init_identity

import oracles


def _random_instance(rng, n, m, family="se", warped=True):
    kspec = KernelSpec(family, length_scale=0.2, signal_variance=1.5, jitter=1e-8)
    X = np.sort(rng.uniform(0, 1, size=n)).reshape(-1, 1)
    path = None
    if warped:
        lspec = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0, n_terms=300)
        path = simulate_path(lspec, [(0.0, 1.0)], rng)
    y = rng.normal(size=n)
    noise = 10 ** rng.uniform(-3, 0)
    data = RegressionData(X, y, noise)
    X_test = rng.uniform(0, 1, size=m).reshape(-1, 1)
    return data, X_test, path, kspec


def _oracle(data, X_test, path, kspec):
    Xw = warp_inputs(path, data.X)
    Xw_test = warp_inputs(path, X_test)
    return oracles.dense_gp_posterior(
        Xw, data.y, Xw_test, lambda d: kernel_value(kspec, d),
        data.noise_variance, kspec.jitter * kspec.signal_variance)


# ---------------------------------------------------------------------------
# warp_inputs
# ---------------------------------------------------------------------------

def test_identity_init_warp_approximates_inputs():
    path = init_identity([(0.0, 1.0)], 50)
    X = np.linspace(0, 1, 37).reshape(-1, 1)
    assert np.max(np.abs(warp_inputs(path, X) - X)) <= 1.0 / 50 + 1e-12


def test_empty_path_warps_to_zero():
    path = SubordinatorPath([JumpSet(np.empty(0), np.empty(0), (0.0, 1.0))])
    X = np.linspace(0, 1, 9).reshape(-1, 1)
    assert np.all(warp_inputs(path, X) == 0.0)


def test_warp_preserves_input_order():
    rng = np.random.default_rng(0)
    lspec = LevyMeasureSpec("gamma", C=2.0, beta=2.0, n_terms=200)
    path = simulate_path(lspec, [(0.0, 1.0)], rng)
    X = np.sort(rng.uniform(0, 1, 100)).reshape(-1, 1)
    warped = warp_inputs(path, X).ravel()
    assert np.all(np.diff(warped) >= 0)


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def test_single_point_closed_form():
    kspec = KernelSpec("se", 0.1, signal_variance=1.0, jitter=0.0)
    data = RegressionData(np.array([[0.5]]), np.array([5.0]), noise_variance=0.25)
    post = posterior(data, np.array([[0.5]]), None, kspec)
    assert abs(post.mean[0] - 5.0 / 1.25) < 1e-10
    # huge noise pulls the mean back to the zero prior
    vague = RegressionData(np.array([[0.5]]), np.array([5.0]), noise_variance=1e8)
    post = posterior(vague, np.array([[0.5]]), None, kspec)
    assert abs(post.mean[0]) < 1e-3


def test_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(7)
    data, X_test, path, kspec = _random_instance(rng, n=30, m=12)
    post = posterior(data, X_test, path, kspec)
    mean_o, cov_o, ll_o = _oracle(data, X_test, path, kspec)
    np.testing.assert_allclose(post.mean, mean_o, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(post.cov, cov_o, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(post.log_cond_lik, ll_o, rtol=1e-8)


def test_posterior_across_gram_blocks_matches_oracle_and_is_symmetric():
    rng = np.random.default_rng(8)
    for family in ("se", "matern52"):
        data, X_test, path, kspec = _random_instance(rng, n=30, m=2 * kernels._BLOCK + 3,
                                                     family=family)
        post = posterior(data, X_test, path, kspec)
        mean_o, cov_o, ll_o = _oracle(data, X_test, path, kspec)
        np.testing.assert_allclose(post.mean, mean_o, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(post.cov, cov_o, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(post.log_cond_lik, ll_o, rtol=1e-8)
        assert np.array_equal(post.cov, post.cov.T)


def test_only_the_upper_triangle_of_each_gram_is_read(monkeypatch):
    # NaN below every same-set Gram's diagonal must not reach dpotrf, dsyrk or mirror
    rng = np.random.default_rng(10)
    n = m = 2 * kernels._BLOCK + 3
    data, X_test, path, kspec = _random_instance(rng, n=n, m=m)
    clean = posterior(data, X_test, path, kspec)

    def nan_below(points, spec):
        gram = kernels.upper_gram(points, spec)
        gram[np.tril_indices_from(gram, -1)] = np.nan
        return gram

    monkeypatch.setattr(gp, "upper_gram", nan_below)
    post = posterior(data, X_test, path, kspec)
    assert post.mean.tobytes() == clean.mean.tobytes()
    assert post.cov.tobytes() == clean.cov.tobytes()
    assert post.log_cond_lik == clean.log_cond_lik
    assert log_conditional_likelihood(data, path, kspec) == clean.log_cond_lik


def test_interpolation_limit():
    rng = np.random.default_rng(9)
    X = np.linspace(0, 1, 12).reshape(-1, 1)
    y = rng.normal(size=12)
    data = RegressionData(X, y, noise_variance=1e-12)
    post = posterior(data, X, None, KernelSpec("se", 0.1, jitter=1e-8))
    assert np.max(np.abs(post.mean - y)) < 1e-4


def test_posterior_variance_bounded_by_prior():
    rng = np.random.default_rng(11)
    data, X_test, path, kspec = _random_instance(rng, n=25, m=40)
    post = posterior(data, X_test, path, kspec)
    assert np.all(np.diag(post.cov) <= kspec.signal_variance + 1e-10)
    assert np.all(np.diag(post.cov) >= 0.0)


def test_extra_observation_never_increases_variance():
    rng = np.random.default_rng(13)
    kspec = KernelSpec("matern52", 0.3, jitter=1e-8)
    X = rng.uniform(0, 1, size=(20, 1))
    y = rng.normal(size=20)
    X_test = rng.uniform(0, 1, size=(15, 1))
    small = RegressionData(X[:-1], y[:-1], 0.05)
    full = RegressionData(X, y, 0.05)
    var_small = np.diag(posterior(small, X_test, None, kspec).cov)
    var_full = np.diag(posterior(full, X_test, None, kspec).cov)
    assert np.all(var_full <= var_small + 1e-10)


# ---------------------------------------------------------------------------
# log conditional likelihood
# ---------------------------------------------------------------------------

def test_scalar_gaussian_value():
    kspec = KernelSpec("se", 0.1, signal_variance=1.0, jitter=0.0)
    data = RegressionData(np.array([[0.3]]), np.array([0.0]), noise_variance=1.0)
    ll = log_conditional_likelihood(data, None, kspec)
    assert abs(ll - (-0.5 * np.log(4 * np.pi))) < 1e-12


def test_likelihood_matches_dense_oracle():
    rng = np.random.default_rng(23)
    data, _, path, kspec = _random_instance(rng, n=25, m=1, family="matern52")
    ll = log_conditional_likelihood(data, path, kspec)
    _, _, ll_o = _oracle(data, data.X[:1], path, kspec)
    np.testing.assert_allclose(ll, ll_o, rtol=1e-8)


def test_likelihood_invariant_under_permutation():
    rng = np.random.default_rng(29)
    data, _, path, kspec = _random_instance(rng, n=20, m=1)
    ll = log_conditional_likelihood(data, path, kspec)
    perm = rng.permutation(20)
    permuted = RegressionData(data.X[perm], data.y[perm], data.noise_variance)
    assert abs(ll - log_conditional_likelihood(permuted, path, kspec)) < 1e-10


def test_huge_jump_splits_likelihood_into_independent_segments():
    rng = np.random.default_rng(31)
    kspec = KernelSpec("se", 0.1, jitter=0.0)
    n = 16
    X = np.linspace(0.05, 0.95, n).reshape(-1, 1)
    y = rng.normal(size=n)
    noise = 0.04
    # one enormous jump at 0.5 decorrelates the halves completely
    base = init_identity([(0.0, 1.0)], 20).jump_sets[0]
    jumps = JumpSet(np.concatenate((base.positions, [0.5])),
                    np.concatenate((base.magnitudes, [50.0])), (0.0, 1.0))
    path = SubordinatorPath([jumps])
    left, right = X[:, 0] <= 0.5, X[:, 0] > 0.5
    ll_full = log_conditional_likelihood(RegressionData(X, y, noise), path, kspec)
    ll_parts = sum(
        log_conditional_likelihood(RegressionData(X[s], y[s], noise), path, kspec)
        for s in (left, right))
    assert abs(ll_full - ll_parts) < 1e-8


def test_oracle_equivalence_on_many_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 50))
        data, X_test, path, kspec = _random_instance(rng, n=n, m=8)
        post = posterior(data, X_test, path, kspec)
        mean_o, cov_o, ll_o = _oracle(data, X_test, path, kspec)
        np.testing.assert_allclose(post.mean, mean_o, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(post.cov, cov_o, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(post.log_cond_lik, ll_o, rtol=1e-8)


def test_failed_cholesky_reports_its_matrix():
    # two equal inputs, no jitter and noise below rounding: the Gram is singular
    data = RegressionData([0.3, 0.3], [1.0, -1.0], 1e-20)
    kspec = KernelSpec("se", length_scale=0.1, jitter=0.0)
    for call in (lambda: log_conditional_likelihood(data, None, kspec),
                 lambda: posterior(data, np.array([0.5]), None, kspec)):
        with pytest.raises(NumericalError,
                           match=r"n=2 training Gram \(noise_variance=1e-20, jitter=0.0\)"):
            call()


def test_regression_data_validation():
    with pytest.raises(ValueError):
        RegressionData(np.array([[0.1]]), np.array([1.0]), noise_variance=0.0)
    with pytest.raises(ValueError):
        RegressionData(np.array([[np.inf]]), np.array([1.0]), noise_variance=0.1)
    with pytest.raises(ValueError):
        RegressionData(np.array([[0.1], [0.2]]), np.array([1.0]), noise_variance=0.1)
