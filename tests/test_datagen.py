"""Synthetic data generation from the warped and plain GP priors."""

import numpy as np
import pytest
import scipy.linalg

from ngpr import (GenSpec, KernelSpec, LevyMeasureSpec, NumericalError, build_gram, datagen,
                  generate, kernel_value, normalize_scale, simulate_path, warp_inputs)

KSPEC = KernelSpec("se", 0.1, 1.0, jitter=1e-8)


def test_zero_noise_identity_warp_near_duplicate_inputs_agree():
    # an even 2-point grid over a 1e-9-wide domain is two effectively
    # identical inputs; with zero noise the degenerate Gaussian (plus
    # jitter) must give equal responses
    spec = GenSpec(domains=((0.4, 0.4 + 1e-9),), n_points=2, n_observed=2,
                   kernel=KSPEC, levy=None, noise_std=0.0, seed=0)
    ds = generate(spec, np.random.default_rng(0))
    assert abs(ds.y[0] - ds.y[1]) < 1e-3


def test_identity_warp_covariance_matches_kernel():
    # Monte Carlo covariance of the generated responses at two fixed points
    # (the even 2-point grid over the domain is exactly its endpoints)
    x_pair = (0.2, 0.8)
    spec = GenSpec(domains=(x_pair,), n_points=2, n_observed=2, kernel=KSPEC,
                   levy=None, noise_std=0.0, seed=0)
    rng = np.random.default_rng(123)
    draws = np.empty((10_000, 2))
    for i in range(draws.shape[0]):
        draws[i] = generate(spec, rng).y
    cov_hat = np.cov(draws.T)
    expected = kernel_value(KSPEC, x_pair[1] - x_pair[0])
    K11 = KSPEC.signal_variance * (1 + KSPEC.jitter)
    se = np.sqrt((K11 * K11 + expected ** 2) / (draws.shape[0] - 1))
    assert abs(cov_hat[0, 1] - expected) < 3 * se
    var_se = K11 * np.sqrt(2.0 / (draws.shape[0] - 1))
    assert abs(cov_hat[0, 0] - K11) < 3 * var_se


def test_generation_is_deterministic_per_seed():
    lspec = LevyMeasureSpec("tempered_stable",
                            C=normalize_scale(0.8, 5.0, "tempered_stable"),
                            alpha=0.8, beta=5.0, n_terms=1000)
    spec = GenSpec(domains=((0.0, 0.5),), n_points=50, n_observed=30, kernel=KSPEC,
                   levy=lspec, noise_std=0.1, seed=77)
    a = generate(spec, np.random.default_rng(77))
    b = generate(spec, np.random.default_rng(77))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.true_path.jump_sets[0].positions,
                          b.true_path.jump_sets[0].positions)


def test_observed_subset_without_replacement():
    spec = GenSpec(domains=((0.0, 1.0),), n_points=40, n_observed=25, kernel=KSPEC,
                   levy=None, noise_std=0.1, seed=5)
    ds = generate(spec, np.random.default_rng(5))
    assert ds.observed.sum() == 25
    assert (~ds.observed).sum() == 15
    assert np.all(np.isfinite(ds.y))


def test_even_grid_spans_domain():
    spec = GenSpec(domains=((0.25, 0.75),), n_points=11, n_observed=11, kernel=KSPEC,
                   levy=None, noise_std=0.0, seed=1)
    ds = generate(spec, np.random.default_rng(1))
    np.testing.assert_allclose(ds.X.ravel(), np.linspace(0.25, 0.75, 11))


def test_two_dimensional_lattice_and_uniform_grids():
    spec = GenSpec(domains=((0.0, 1.0), (0.0, 1.0)), n_points=25, n_observed=10,
                   kernel=KSPEC,
                   levy=LevyMeasureSpec("gamma", C=2.0, beta=2.0, n_terms=200),
                   noise_std=0.1, seed=3)
    ds = generate(spec, np.random.default_rng(3))
    assert ds.X.shape == (25, 2)
    assert ds.true_path.ndim == 2
    ragged = GenSpec(domains=((0.0, 1.0), (0.0, 1.0)), n_points=24, n_observed=10,
                     kernel=KSPEC, levy=None, noise_std=0.1, seed=3)
    with pytest.raises(ValueError):
        generate(ragged, np.random.default_rng(3))
    uniform = GenSpec(domains=((0.0, 1.0), (0.0, 1.0)), n_points=24, n_observed=10,
                      kernel=KSPEC, levy=None, noise_std=0.1, seed=3, grid="uniform")
    assert generate(uniform, np.random.default_rng(3)).X.shape == (24, 2)


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(domains=((0.0, 1.0),), n_points=5, n_observed=6, kernel=KSPEC,
                levy=None, noise_std=0.1)
    with pytest.raises(ValueError):
        GenSpec(domains=((0.0, 1.0),), n_points=5, n_observed=5, kernel=KSPEC,
                levy=None, noise_std=-0.1)
    with pytest.raises(ValueError):
        GenSpec(domains=((1.0, 1.0),), n_points=5, n_observed=5, kernel=KSPEC,
                levy=None, noise_std=0.1)
    for domain in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match=r"needs finite bounds with lo < hi"):
            GenSpec(domains=((0.0, 1.0), domain), n_points=4, n_observed=4, kernel=KSPEC,
                    levy=None, noise_std=0.1, grid="uniform")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_std must be non-negative and finite"):
            GenSpec(domains=((0.0, 1.0),), n_points=5, n_observed=5, kernel=KSPEC,
                    levy=None, noise_std=bad)


def test_prior_draw_is_the_lower_cholesky_factor_times_normals():
    """``f = L z`` with ``L`` equal to ``scipy.linalg.cholesky``'s lower factor, bit for bit."""
    kspec = KernelSpec("matern52", 0.1, 1.0)
    lspec = LevyMeasureSpec("tempered_stable", C=normalize_scale(0.8, 5.0, "tempered_stable"),
                            alpha=0.8, beta=5.0, n_terms=300)
    spec = GenSpec(domains=((0.0, 1.0),), n_points=300, n_observed=100, kernel=kspec,
                   levy=lspec, noise_std=0.0, seed=3)
    ds = generate(spec, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    path = simulate_path(lspec, spec.domains, rng)
    L = scipy.linalg.cholesky(build_gram(warp_inputs(path, ds.X), None, kspec), lower=True)
    assert np.array_equal(ds.y, L @ rng.standard_normal(300))


def test_prior_factorization_failures_raise_numerical_error(monkeypatch):
    spec = GenSpec(domains=((0.0, 1.0),), n_points=6, n_observed=6, kernel=KSPEC,
                   levy=None, noise_std=0.1, seed=0)
    with monkeypatch.context() as m:
        m.setattr(datagen, "build_gram", lambda X, _, kspec: -np.eye(X.shape[0]))
        with pytest.raises(NumericalError, match=r"prior Gram factorization failed \(n=6\)"):
            generate(spec, np.random.default_rng(0))
    with monkeypatch.context() as m:
        m.setattr(datagen, "warp_inputs", lambda path, X: np.where(X > 0.5, np.nan, X))
        with pytest.raises(NumericalError, match=r"non-finite warped inputs \(n=6\)"):
            generate(spec, np.random.default_rng(0))
