"""End-to-end warped-GP regression on a synthetic non-Gaussian dataset.

Generates observations from a tempered stable warp, infers the latent
warp by MH-within-Gibbs, and compares the mixture predictive density
against plain GP baselines (true length scale and grid-searched length
scale).  Bands are plotted at 3 standard deviations.  This is a reduced
version of the full experiment so it finishes in a few seconds; scale
n_points / n_intervals / n_sweeps up to reproduce the full setting.

Run:  python demos/03_synthetic_regression.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from ngpr import (GenSpec, KernelSpec, LevyMeasureSpec, RegressionData, SamplerConfig,
                  generate, grid_search_length_scale,
                  log_conditional_likelihood, normalize_scale, posterior,
                  predictive_moments, run_mh_gibbs)

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")

kspec = KernelSpec("se", length_scale=0.1, signal_variance=1.0)
lspec = LevyMeasureSpec("tempered_stable",
                        C=normalize_scale(0.8, 5.0, "tempered_stable"),
                        alpha=0.8, beta=5.0, n_terms=400)
gspec = GenSpec(domains=((0.0, 0.5),), n_points=60, n_observed=60, kernel=kspec,
                levy=lspec, noise_std=0.1, seed=1)
ds = generate(gspec, np.random.default_rng(gspec.seed))
print(f"generated {gspec.n_points} points; true warp has a largest jump of "
      f"{ds.true_path.jump_sets[0].magnitudes.max():.3f}")

data = RegressionData(ds.X, ds.y, noise_variance=0.01)
cfg = SamplerConfig(n_sweeps=30, n_intervals=40, seed=123)
mix = run_mh_gibbs(data, ds.X, kspec, lspec, cfg, np.random.default_rng(cfg.seed),
                   domains=gspec.domains)

print(f"acceptance rate          {mix.acceptance_rate:.3f}")
print(f"avg log cond. likelihood {mix.avg_log_cond_lik:.2f} "
      f"(std {mix.std_log_cond_lik:.2f})")
print(f"likelihood under truth   "
      f"{log_conditional_likelihood(data, ds.true_path, kspec):.2f}")
print(f"plain GP, true l=0.1     {log_conditional_likelihood(data, None, kspec):.2f}")
l_opt, lml_opt = grid_search_length_scale(data, kspec)
print(f"plain GP, best l={l_opt:.4f} {lml_opt:.2f}")

# Tidy CSV with the mixture predictive density and both baselines.
_, pred_cov = predictive_moments(mix, data.noise_variance)
pred_std = np.sqrt(np.diag(pred_cov))
gp_post = posterior(data, ds.X, None, kspec)
gp_std = np.sqrt(np.diag(gp_post.cov) + data.noise_variance)
np.savetxt(out_dir / "demo_regression.csv",
           np.column_stack((ds.X.ravel(), ds.y, mix.aggregate_mean, pred_std,
                            gp_post.mean, gp_std)),
           delimiter=",", header="x,y,warped_mean,warped_pred_std,gp_mean,gp_pred_std",
           comments="")
print(f"wrote {out_dir / 'demo_regression.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 7), sharex=True)
    x = ds.X.ravel()
    for ax, (mean, std, title) in zip(axes, [
            (mix.aggregate_mean, pred_std, "warped-GP mixture posterior"),
            (gp_post.mean, gp_std, "plain GP, true length scale")]):
        ax.fill_between(x, mean - 3 * std, mean + 3 * std, alpha=0.25,
                        label="3 standard deviations")
        ax.plot(x, mean, lw=1.5, label="predictive mean")
        ax.plot(x, ds.y, "k.", ms=4, label="observations")
        ax.set_title(title)
        ax.legend(loc="best", fontsize=8)
    axes[1].set_xlabel("x")
    fig.tight_layout()
    fig.savefig(out_dir / "demo_regression.png", dpi=120)
    print(f"wrote {out_dir / 'demo_regression.png'}")
except ImportError:
    print("matplotlib not available; skipped the plot")

# A few posterior warp samples, exported in the standard path schema.
from ngpr.serialize import write_sampled_paths_csv

with open(out_dir / "demo_warp_samples.csv", "w", newline="") as fp:
    write_sampled_paths_csv(fp, mix.paths[-5:], mix.sweeps[-5:])
print(f"wrote {out_dir / 'demo_warp_samples.csv'}")
