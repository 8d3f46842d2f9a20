"""Simulate subordinator paths by shot-noise series and inspect their moments.

Walks through the three supported families (tempered stable, gamma, raw
stable), shows the mean normalization used before inference, and writes
each sampled path to the standard ``dim,position,magnitude`` CSV.

Run:  python demos/01_subordinator_paths.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from ngpr import LevyMeasureSpec, normalize_scale, simulate_jumps, simulate_path
from ngpr.serialize import write_jumps_csv

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
rng = np.random.default_rng(0)

# --- tempered stable, scaled so E[W] = |domain| ----------------------------
alpha, beta = 0.8, 5.0
C = normalize_scale(alpha, beta, "tempered_stable")
ts = LevyMeasureSpec("tempered_stable", C=C, alpha=alpha, beta=beta, n_terms=1000)
print(f"tempered stable: alpha={alpha}, beta={beta}, normalized C={C:.4f}")

path = simulate_path(ts, [(0.0, 1.0)], rng)
print(f"  sampled path: {path.n_jumps()} jumps, W(1) = {path.total():.4f}")
grid = np.linspace(0, 1, 11)
print("  W on a coarse grid:", np.round(path.values(grid), 3))

# Monte Carlo check of the unit-mean normalization.  With alpha this close
# to 1, truncating the series at an expected 1000 terms over the domain
# keeps a visible share of the tiny jumps out, so the realized mean sits
# about a fifth below 1.
w = np.array([simulate_jumps(ts, 1.0, rng).sum() for _ in range(2000)])
print(f"  mean of W(1) over 2000 replicates: {w.mean():.4f} (untruncated target 1.0)")

with open(out_dir / "demo_ts_path.csv", "w", newline="") as fp:
    write_jumps_csv(fp, path)

# --- gamma subordinator ------------------------------------------------------
gamma_spec = LevyMeasureSpec("gamma", C=2.0, beta=4.0, n_terms=1000)
wg = np.array([simulate_jumps(gamma_spec, 1.0, rng).sum() for _ in range(2000)])
print(f"gamma: C=2, beta=4 -> W(1) has a Gamma(2, rate 4) marginal; "
      f"sample mean {wg.mean():.4f} (exact {gamma_spec.C / gamma_spec.beta})")

# --- raw stable (no tempering): heavy tails, infinite mean -------------------
stable = LevyMeasureSpec("stable", C=1.0, alpha=0.5, n_terms=1000)
ws = [simulate_path(stable, [(0.0, 1.0)], rng).total() for _ in range(5)]
print("stable: five W(1) draws spanning orders of magnitude:",
      ["%.3g" % v for v in ws])

# --- optional plot ------------------------------------------------------------
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    x = np.linspace(0, 1, 2000)
    for i in range(5):
        p = simulate_path(ts, [(0.0, 1.0)], rng)
        ax.step(x, p.values(x), where="post", lw=1)
    ax.plot([0, 1], [0, 1], "k--", lw=1, label="identity map")
    ax.set_xlabel("x")
    ax.set_ylabel("W(x)")
    ax.set_title("Tempered stable subordinator paths (prior draws)")
    ax.legend()
    fig.tight_layout()
    fig.savefig(out_dir / "demo_ts_paths.png", dpi=120)
    print(f"wrote {out_dir / 'demo_ts_paths.png'}")
except ImportError:
    print("matplotlib not available; skipped the plot")
