"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The experiment-scale
criteria use frozen dataset/chain seeds; every tolerance is fixed here.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist, ks_2samp, kstest

from ngpr import (GenSpec, KernelSpec, LevyMeasureSpec, RegressionData, cli,
                  generate, kernel_value,
                  log_conditional_likelihood, mixture_moments, normalize_scale,
                  posterior, predictive_moments, run_mh_gibbs, simulate_jumps,
                  simulate_path, warp_inputs)
from ngpr.gp import ConditionalPosterior
from ngpr.sampler import SamplerConfig

import oracles


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _ts_spec(n_terms=1000):
    return LevyMeasureSpec("tempered_stable",
                           C=normalize_scale(0.8, 5.0, "tempered_stable"),
                           alpha=0.8, beta=5.0, n_terms=n_terms)


def test_criterion_1_ts_moments():
    """TS W(1) mean/variance vs the truncation-aware integration oracle."""
    t0 = time.time()
    spec = _ts_spec()
    mean_o, var_o = oracles.truncated_ts_moments(spec.C, spec.alpha, spec.beta,
                                                 spec.n_terms, rate=1.0)
    rng = np.random.default_rng(42)
    w = np.array([simulate_jumps(spec, 1.0, rng).sum() for _ in range(10_000)])
    se_mean = w.std(ddof=1) / np.sqrt(w.size)
    v = w.var(ddof=1)
    m4 = np.mean((w - w.mean()) ** 4)
    se_var = np.sqrt((m4 - v ** 2) / w.size)
    elapsed = time.time() - t0
    dev_m = abs(w.mean() - mean_o) / se_mean
    dev_v = abs(v - var_o) / se_var
    ok = dev_m < 3 and dev_v < 3 and elapsed < 120.0
    _report(1, ok, f"mean {w.mean():.5f} vs {mean_o:.5f} ({dev_m:.2f} SE), "
                   f"var {v:.5f} vs {var_o:.5f} ({dev_v:.2f} SE), {elapsed:.1f}s")


def test_criterion_2_gamma_marginal_ks():
    """Gamma subordinator W(1) vs the Gamma(C, beta) marginal."""
    spec = LevyMeasureSpec("gamma", C=2.0, beta=4.0, n_terms=1000)
    rng = np.random.default_rng(7)
    w = np.array([simulate_jumps(spec, 1.0, rng).sum() for _ in range(10_000)])
    res = kstest(w, gamma_dist(a=spec.C, scale=1.0 / spec.beta).cdf)
    ok = res.pvalue > 0.01
    _report(2, ok, f"KS D={res.statistic:.4f}, p={res.pvalue:.4f} (need > 0.01)")


def test_criterion_3_linear_algebra_oracle():
    """Posterior and likelihood vs a dense naive-inverse oracle, 50 instances."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 12))
        family = "se" if i % 2 == 0 else "matern52"
        kspec = KernelSpec(family, length_scale=float(10 ** rng.uniform(-1.2, 0)),
                           signal_variance=float(10 ** rng.uniform(-0.5, 0.5)),
                           jitter=1e-8)
        X = rng.uniform(0, 1, size=(n, 1))
        y = rng.normal(size=n)
        noise = float(10 ** rng.uniform(-3, 0))
        data = RegressionData(X, y, noise)
        X_test = rng.uniform(0, 1, size=(m, 1))
        path = None
        if i % 3 != 0:
            lspec = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0,
                                    n_terms=200)
            path = simulate_path(lspec, [(0.0, 1.0)], rng)
        post = posterior(data, X_test, path, kspec)
        mean_o, cov_o, ll_o = oracles.dense_gp_posterior(
            warp_inputs(path, X), y, warp_inputs(path, X_test),
            lambda d: kernel_value(kspec, d), noise,
            kspec.jitter * kspec.signal_variance)
        err = max(np.abs(post.mean - mean_o).max() / max(1.0, np.abs(mean_o).max()),
                  np.abs(post.cov - cov_o).max() / max(1.0, np.abs(cov_o).max()),
                  abs(post.log_cond_lik - ll_o) / max(1.0, abs(ll_o)))
        worst = max(worst, err)
    ok = worst <= 1e-8
    _report(3, ok, f"worst relative deviation {worst:.2e} over 50 instances (need <= 1e-8)")


def test_criterion_4_mixture_moment_oracle():
    """Mixture aggregation vs brute-force arithmetic on 3-sample fixtures."""
    fixtures = [
        ([[1.0, 2.0], [0.0, -1.0], [2.0, 5.0]],
         [np.diag([1.0, 2.0]), np.diag([0.5, 0.5]), [[2.0, 0.3], [0.3, 1.0]]]),
        ([[0.0], [3.0], [-3.0]], [[[1.0]], [[2.0]], [[4.0]]]),
        ([[1.5, -0.5, 2.0], [0.5, 0.5, 0.5], [-1.0, 1.0, -1.0]],
         [np.eye(3), 2 * np.eye(3), [[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]]]),
    ]
    worst = 0.0
    for means, covs in fixtures:
        samples = [ConditionalPosterior(np.asarray(m, float), np.asarray(c, float), 0.0)
                   for m, c in zip(means, covs)]
        mean, cov = mixture_moments(samples)
        mean_o, cov_o = oracles.brute_force_mixture(
            [list(map(float, m)) for m in means],
            [np.asarray(c, float).tolist() for c in covs])
        worst = max(worst, np.abs(mean - mean_o).max(), np.abs(cov - cov_o).max())
    ok = worst <= 1e-12
    _report(4, ok, f"max deviation {worst:.2e} on 3-sample fixtures (need <= 1e-12)")


def test_criterion_5_prior_recovery():
    """Flat-likelihood chain marginal of W(x_ub) vs direct prior simulation."""
    lspec = LevyMeasureSpec("tempered_stable",
                            C=normalize_scale(0.5, 1.0, "tempered_stable"),
                            alpha=0.5, beta=1.0, n_terms=250)
    kspec = KernelSpec("se", 0.1, 1.0)
    data = RegressionData(np.array([[0.5]]), np.array([0.0]), 0.01)
    cfg = SamplerConfig(n_sweeps=2500, n_intervals=4, burn_in_fraction=0.2, seed=9)
    mix = run_mh_gibbs(data, np.array([[0.5]]), kspec, lspec, cfg,
                       np.random.default_rng(9), domains=[(0.0, 1.0)],
                       log_lik_fn=lambda d, p, k: 0.0)
    assert len(mix.paths) == 2000
    chain_w = np.array([p.total() for p in mix.paths])
    rng = np.random.default_rng(1234)
    direct_w = np.array([simulate_jumps(lspec, 1.0, rng).sum() for _ in range(2000)])
    res = ks_2samp(chain_w, direct_w)
    ok = res.pvalue > 0.01 and mix.acceptance_rate == 1.0
    _report(5, ok, f"KS D={res.statistic:.4f}, p={res.pvalue:.4f} (need > 0.01), "
                   f"acceptance {mix.acceptance_rate}")


def test_criterion_6_se_reproduction():
    """Regenerated squared-exponential experiment: likelihood and acceptance bands."""
    t0 = time.time()
    kspec = KernelSpec("se", 0.1, 1.0)
    lspec = _ts_spec()
    gspec = GenSpec(domains=((0.0, 0.5),), n_points=100, n_observed=100,
                    kernel=kspec, levy=lspec, noise_std=0.1, seed=1)
    ds = generate(gspec, np.random.default_rng(gspec.seed))
    data = RegressionData(ds.X, ds.y, 0.01)
    cfg = SamplerConfig(n_sweeps=50, n_intervals=100, seed=123)
    mix = run_mh_gibbs(data, ds.X, kspec, lspec, cfg, np.random.default_rng(cfg.seed),
                       domains=gspec.domains)
    gp_lml = log_conditional_likelihood(data, None, kspec)
    ll_true = log_conditional_likelihood(data, ds.true_path, kspec)
    elapsed = time.time() - t0
    beats_gp = mix.avg_log_cond_lik > gp_lml
    no_overfit = mix.avg_log_cond_lik <= ll_true + 3 * mix.std_log_cond_lik
    acc_band = 0.3 < mix.acceptance_rate < 0.95
    ok = beats_gp and no_overfit and acc_band and elapsed < 900.0
    _report(6, ok,
            f"avg ll {mix.avg_log_cond_lik:.2f} (+-{mix.std_log_cond_lik:.2f}) vs "
            f"GP {gp_lml:.2f} [{'>' if beats_gp else '<='}], truth {ll_true:.2f} "
            f"[overfit ok: {no_overfit}], acceptance {mix.acceptance_rate:.3f} "
            f"[in (0.3,0.95): {acc_band}], {elapsed:.0f}s")


def test_criterion_7_matern_coverage():
    """Matern-5/2 held-out points inside the 3-standard-deviation band."""
    kspec = KernelSpec("matern52", 0.1, 1.0)
    lspec = _ts_spec()
    gspec = GenSpec(domains=((0.0, 1.0),), n_points=500, n_observed=100,
                    kernel=kspec, levy=lspec, noise_std=0.1, seed=0)
    ds = generate(gspec, np.random.default_rng(gspec.seed))
    data = RegressionData(ds.X[ds.observed], ds.y[ds.observed], 0.01)
    cfg = SamplerConfig(n_sweeps=50, n_intervals=100, seed=7)
    mix = run_mh_gibbs(data, ds.X, kspec, lspec, cfg, np.random.default_rng(cfg.seed),
                       domains=gspec.domains)
    _, pred_cov = predictive_moments(mix, data.noise_variance)
    pred_std = np.sqrt(np.diag(pred_cov))
    held = ~ds.observed
    inside = np.abs(ds.y[held] - mix.aggregate_mean[held]) <= 3 * pred_std[held]
    coverage = inside.mean()
    ok = coverage >= 0.90
    _report(7, ok, f"held-out 3-sigma coverage {coverage:.3f} over {held.sum()} points "
                   f"(need >= 0.90)")


def test_criterion_8_gaussian_data_sanity():
    """On identity-warp data the warped model must stay close to the plain GP."""
    kspec = KernelSpec("se", 0.1, 1.0)
    gspec = GenSpec(domains=((0.0, 1.0),), n_points=200, n_observed=100,
                    kernel=kspec, levy=None, noise_std=0.1, seed=0)
    ds = generate(gspec, np.random.default_rng(gspec.seed))
    data = RegressionData(ds.X[ds.observed], ds.y[ds.observed], 0.01)
    cfg = SamplerConfig(n_sweeps=50, n_intervals=100, seed=5)
    mix = run_mh_gibbs(data, ds.X, kspec, _ts_spec(), cfg,
                       np.random.default_rng(cfg.seed), domains=gspec.domains)
    held = ~ds.observed
    rmse_ngp = float(np.sqrt(np.mean((mix.aggregate_mean[held] - ds.y[held]) ** 2)))
    gp_post = posterior(data, ds.X[held], None, kspec)
    rmse_gp = float(np.sqrt(np.mean((gp_post.mean - ds.y[held]) ** 2)))
    ok = rmse_ngp <= 1.25 * rmse_gp
    _report(8, ok, f"RMSE warped {rmse_ngp:.4f} vs plain GP {rmse_gp:.4f} "
                   f"(ratio {rmse_ngp / rmse_gp:.3f}, need <= 1.25)")


def test_criterion_9_fit_determinism(tmp_path):
    """Identical seed/config/data give byte-identical summaries."""
    cfg_file = tmp_path / "config.txt"
    cfg_file.write_text(
        "gen.domain = 0,0.5\ngen.n_points = 40\ngen.n_observed = 32\n"
        "gen.noise_std = 0.1\ngen.seed = 4\nlevy.n_terms = 150\n"
        "sampler.n_sweeps = 8\nsampler.n_intervals = 12\nsampler.seed = 10\n")
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    assert cli.main(["gen", "-c", str(cfg_file), "--out", str(data_dir)]) == 0
    outs = []
    for name in ("fit1", "fit2"):
        out = tmp_path / name
        out.mkdir()
        rc = cli.main(["fit", "-c", str(cfg_file),
                       "--data", str(data_dir / "dataset.csv"), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("summary.json", "posterior.csv", "trace.csv", "paths.csv"))
    summary = json.loads((outs[0] / "summary.json").read_text())
    _report(9, same, f"repeated fit byte-identical: {same} "
                     f"(acceptance_rate {summary['acceptance_rate']:.3f})")
