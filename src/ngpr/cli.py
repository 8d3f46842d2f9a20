"""Command-line front end: gen, fit, predict, simulate, normalize.

Configuration is a flat dotted-key text file; ``--set key=value`` and the
dedicated flags override file values, and a key outside ``DEFAULTS`` is a
usage error.  Every run echoes its effective configuration into the output
bundle.  Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError

from . import serialize
from .datagen import GenSpec, generate
from .errors import NumericalError
from .gp import (RegressionData, gp_log_marginal_likelihood, grid_search_length_scale,
                 log_conditional_likelihood, posterior)
from .kernels import KernelSpec
from .levy import LevyMeasureSpec, normalize_scale, simulate_path
from .sampler import MixtureSummary, SamplerConfig, chain_likelihood, combine, run_chains

SEED_ENV_VAR = "NGPR_SEED"

DEFAULTS = {
    "kernel.family": "se",
    "kernel.length_scale": "0.1",
    "kernel.signal_variance": "1.0",
    "kernel.jitter": "1e-08",
    "levy.family": "tempered_stable",
    "levy.c": "auto",
    "levy.alpha": "0.8",
    "levy.beta": "5.0",
    "levy.n_terms": "1000",
    "noise.variance": "auto",
    "sampler.n_sweeps": "50",
    "sampler.n_intervals": "100",
    "sampler.burn_in_fraction": "0.2",
    "sampler.seed": "0",
    "sampler.n_chains": "1",
    "gen.domain": "0,0.5",
    "gen.n_points": "100",
    "gen.n_observed": "100",
    "gen.noise_std": "0.1",
    "gen.grid": "even",
    "gen.seed": "0",
    "fit.domain": "auto",
}


class UsageError(ValueError):
    """Configuration or I/O problem attributable to the invocation."""


def _update(cfg: dict[str, str], entries: dict[str, str], source: str) -> None:
    """``cfg.update(entries)`` for keys of ``DEFAULTS`` and ``io.dataset``, which fit records."""
    unknown = sorted(entries.keys() - DEFAULTS.keys() - {"io.dataset"})
    if unknown:
        raise UsageError(f"{source}: unknown config key {', '.join(map(repr, unknown))}")
    cfg.update(entries)


def _apply_set(cfg: dict[str, str], pairs) -> None:
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        _update(cfg, {key.strip(): value.strip()}, "--set")


def load_config(args) -> dict[str, str]:
    """Defaults, then the env-var seed, the config file, --set pairs, and flags."""
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        cfg["sampler.seed"] = env_seed
        cfg["gen.seed"] = env_seed
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            file_cfg = serialize.parse_kv_text(path.read_text())
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from exc
        _update(cfg, file_cfg, str(path))
    _apply_set(cfg, getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        cfg["sampler.seed"] = str(args.seed)
        cfg["gen.seed"] = str(args.seed)
    if getattr(args, "levy", None):
        cfg["levy.family"] = args.levy
    if getattr(args, "chains", None) is not None:
        cfg["sampler.n_chains"] = str(args.chains)
    return cfg


def _get(cfg: dict[str, str], key: str, convert):
    try:
        return convert(cfg[key])
    except KeyError:
        raise UsageError(f"missing config key {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def kernel_from_config(cfg: dict[str, str]) -> KernelSpec:
    return KernelSpec(
        family=cfg["kernel.family"],
        length_scale=_get(cfg, "kernel.length_scale", float),
        signal_variance=_get(cfg, "kernel.signal_variance", float),
        jitter=_get(cfg, "kernel.jitter", float),
    )


def levy_from_config(cfg: dict[str, str]) -> LevyMeasureSpec | None:
    family = cfg["levy.family"]
    if family == "identity":
        return None
    alpha = _get(cfg, "levy.alpha", float)
    beta = _get(cfg, "levy.beta", float)
    raw_c = cfg.get("levy.c", "auto")
    C = normalize_scale(alpha, beta, family) if raw_c == "auto" else float(raw_c)
    return LevyMeasureSpec(family=family, C=C, alpha=alpha, beta=beta,
                           n_terms=_get(cfg, "levy.n_terms", int))


def sampler_from_config(cfg: dict[str, str]) -> SamplerConfig:
    return SamplerConfig(
        n_sweeps=_get(cfg, "sampler.n_sweeps", int),
        n_intervals=_get(cfg, "sampler.n_intervals", int),
        burn_in_fraction=_get(cfg, "sampler.burn_in_fraction", float),
        seed=_get(cfg, "sampler.seed", int),
    )


def genspec_from_config(cfg: dict[str, str]) -> GenSpec:
    return GenSpec(
        domains=serialize.parse_domains(cfg["gen.domain"]),
        n_points=_get(cfg, "gen.n_points", int),
        n_observed=_get(cfg, "gen.n_observed", int),
        kernel=kernel_from_config(cfg),
        levy=levy_from_config(cfg),
        noise_std=_get(cfg, "gen.noise_std", float),
        seed=_get(cfg, "gen.seed", int),
        grid=cfg["gen.grid"],
    )


def _require_dir(path: Path) -> Path:
    if not path.is_dir():
        raise UsageError(f"output directory does not exist: {path}")
    return path


def _require_parent(path: Path) -> Path:
    if not path.parent.is_dir():
        raise UsageError(f"output directory does not exist: {path.parent}")
    return path


def _echo_config(out_dir: Path, cfg: dict[str, str]) -> None:
    (out_dir / "config.txt").write_text(serialize.format_kv_text(cfg))


def _write_posterior(path: Path, X, moments: MixtureSummary, noise_variance: float) -> None:
    """Mixture mean, posterior std and predictive std (noise added) at each input."""
    var = np.diag(moments.scatter) / moments.count
    with open(path, "w", newline="") as fp:
        serialize.write_posterior_csv(fp, X, moments.mean, np.sqrt(var),
                                      np.sqrt(var + noise_variance))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = load_config(args)
    out_dir = _require_dir(Path(args.out))
    spec = genspec_from_config(cfg)
    data = generate(spec, np.random.default_rng(spec.seed))
    with open(out_dir / "dataset.csv", "w", newline="") as fp:
        serialize.write_dataset_csv(fp, data.X, data.y, data.observed)
    (out_dir / "dataset.meta").write_text(
        serialize.format_kv_text(serialize.genspec_to_kv(spec)))
    with open(out_dir / "true_path.csv", "w", newline="") as fp:
        if data.true_path is None:
            fp.write("dim,position,magnitude\n")
        else:
            serialize.write_jumps_csv(fp, data.true_path)
    _echo_config(out_dir, cfg)
    print(f"wrote dataset.csv ({data.X.shape[0]} rows), dataset.meta, true_path.csv "
          f"to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _load_dataset(path: Path):
    if not path.is_file():
        raise UsageError(f"dataset not found: {path}")
    with open(path, newline="") as fp:
        X, y, observed = serialize.read_dataset_csv(fp)
    meta_path = path.with_suffix(".meta")
    meta = serialize.parse_kv_text(meta_path.read_text()) if meta_path.is_file() else {}
    return X, y, observed, meta


def _resolve_fit_inputs(cfg: dict[str, str], X, meta: dict[str, str]):
    if cfg["noise.variance"] == "auto":
        if "gen.noise_std" not in meta:
            raise UsageError(
                "noise.variance is 'auto' but the dataset has no metadata sidecar; "
                "set noise.variance explicitly")
        noise_std = float(meta["gen.noise_std"])
        if noise_std <= 0:
            raise UsageError("cannot derive noise.variance from a noise-free dataset; "
                             "set noise.variance explicitly")
        cfg["noise.variance"] = repr(noise_std ** 2)
    if cfg["fit.domain"] == "auto":
        if "gen.domain" in meta:
            cfg["fit.domain"] = meta["gen.domain"]
        else:
            hull = [(X[:, k].min(), X[:, k].max()) for k in range(X.shape[1])]
            cfg["fit.domain"] = serialize.format_domains(hull)
    return float(cfg["noise.variance"]), serialize.parse_domains(cfg["fit.domain"])


def cmd_fit(args) -> int:
    cfg = load_config(args)
    out_dir = _require_dir(Path(args.out))
    data_path = Path(args.data)
    X, y, observed, meta = _load_dataset(data_path)
    noise_variance, domains = _resolve_fit_inputs(cfg, X, meta)
    if len(domains) != X.shape[1]:
        raise UsageError(f"fit.domain has {len(domains)} dimensions, dataset has {X.shape[1]}")
    cfg["io.dataset"] = str(data_path.resolve())

    kspec = kernel_from_config(cfg)
    lspec = levy_from_config(cfg)
    if lspec is None:
        raise UsageError("fit requires a subordinator family; levy.family=identity "
                         "is only meaningful for gen")
    scfg = sampler_from_config(cfg)
    n_chains = _get(cfg, "sampler.n_chains", int)
    cfg["levy.c"] = repr(float(lspec.C))

    data = RegressionData(X[observed], y[observed], noise_variance)
    mix, chains = run_chains(data, X, kspec, lspec, scfg, n_chains=n_chains, domains=domains)

    _write_posterior(out_dir / "posterior.csv", X, mix.moments, noise_variance)

    for idx, chain in enumerate(chains):
        suffix = "" if n_chains == 1 else f"_chain{idx}"
        with open(out_dir / f"trace{suffix}.csv", "w", newline="") as fp:
            serialize.write_trace_csv(fp, chain.trace)
        with open(out_dir / f"paths{suffix}.csv", "w", newline="") as fp:
            serialize.write_sampled_paths_csv(fp, chain.paths, chain.sweeps)

    lml_fixed = gp_log_marginal_likelihood(data, kspec)
    l_opt, lml_opt = grid_search_length_scale(data, kspec)
    jump_counts = [path.n_jumps() for path in mix.paths]
    summary = {
        "acceptance_rate": mix.acceptance_rate,
        "avg_log_cond_lik": mix.avg_log_cond_lik,
        "std_log_cond_lik": mix.std_log_cond_lik,
        "gp_log_marginal": lml_fixed,
        "gp_log_marginal_opt": lml_opt,
        "gp_length_scale_opt": l_opt,
        "n_samples": len(mix.sweeps),
        "jumps_per_path": {"min": min(jump_counts), "mean": float(np.mean(jump_counts)),
                           "max": max(jump_counts)},
        "likelihood": mix.likelihood,
        "n_chains": n_chains,
        "seed": scfg.seed,
        "noise_variance": noise_variance,
    }

    if args.true_path:
        true_path_file = Path(args.true_path)
        if not true_path_file.is_file():
            raise UsageError(f"true-path file not found: {true_path_file}")
        with open(true_path_file, newline="") as fp:
            true_path = serialize.read_jumps_csv(fp, domains)
        summary["true_path_log_cond_lik"] = log_conditional_likelihood(data, true_path, kspec)

    held = ~observed
    if held.any():
        held_y = y[held]
        summary["rmse_ngp"] = float(np.sqrt(np.mean((mix.aggregate_mean[held] - held_y) ** 2)))
        gp_post = posterior(data, X[held], None, kspec)
        summary["rmse_gp"] = float(np.sqrt(np.mean((gp_post.mean - held_y) ** 2)))

    _echo_config(out_dir, cfg)
    # summary.json is written last: a bundle without it is partial
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"acceptance_rate={mix.acceptance_rate:.3f} "
          f"avg_log_cond_lik={mix.avg_log_cond_lik:.2f} "
          f"gp_log_marginal={lml_fixed:.2f}")
    print(f"wrote posterior.csv, trace.csv, paths.csv, summary.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    bundle = Path(args.bundle)
    config_path = bundle / "config.txt"
    if not config_path.is_file():
        raise UsageError(f"not a fit bundle (missing config.txt): {bundle}")
    cfg = serialize.parse_kv_text(config_path.read_text())
    _apply_set(cfg, args.set)
    out_path = _require_parent(Path(args.out))

    data_path = Path(args.data) if args.data else Path(cfg["io.dataset"])
    X, y, observed, _meta = _load_dataset(data_path)
    noise_variance = _get(cfg, "noise.variance", float)
    domains = serialize.parse_domains(cfg["fit.domain"])
    kspec = kernel_from_config(cfg)
    data = RegressionData(X[observed], y[observed], noise_variance)

    inputs_path = Path(args.inputs)
    if not inputs_path.is_file():
        raise UsageError(f"inputs CSV not found: {inputs_path}")
    with open(inputs_path, newline="") as fp:
        X_new = serialize.read_inputs_csv(fp)
    if X_new.shape[1] != len(domains):
        raise UsageError(f"inputs have {X_new.shape[1]} dimensions, model has {len(domains)}")
    lo, hi = np.transpose(domains)
    bad_rows = np.flatnonzero(~((lo <= X_new) & (X_new <= hi)).all(axis=1))
    if bad_rows.size:
        raise UsageError(
            f"{bad_rows.size} input rows outside the trained domain "
            f"{cfg['fit.domain']}: rows {bad_rows[:10].tolist()}")

    lik = chain_likelihood(data, kspec)
    summary = None
    for path_file in sorted(glob.glob(str(bundle / "paths*.csv"))):
        with open(path_file, newline="") as fp:
            for _sweep, sample_path in serialize.read_sampled_paths_csv(fp, domains):
                post = lik.posterior(sample_path, X_new)
                summary = combine(summary, MixtureSummary(1, post.mean, post.cov))
    if summary is None:
        raise UsageError(f"no stored subordinator samples (paths*.csv) in {bundle}")
    _write_posterior(out_path, X_new, summary, noise_variance)
    print(f"wrote predictions for {X_new.shape[0]} points to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args)
    out_path = _require_parent(Path(args.out))
    lspec = levy_from_config(cfg)
    if lspec is None:
        raise UsageError("simulate requires a subordinator family, not identity")
    domains = serialize.parse_domains(cfg["gen.domain"])
    rng = np.random.default_rng(_get(cfg, "gen.seed", int))
    path = simulate_path(lspec, domains, rng)
    with open(out_path, "w", newline="") as fp:
        serialize.write_jumps_csv(fp, path)
    if args.eval_points:
        eval_path = _require_parent(Path(args.eval_out)) if args.eval_out \
            else out_path.with_name(out_path.stem + "_values.csv")
        with open(eval_path, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(["dim", "x", "w"])
            for dim, (lo, hi) in enumerate(domains):
                grid = np.linspace(lo, hi, args.eval_points)
                values = path.values(grid, dim)
                for xv, wv in zip(grid, values):
                    writer.writerow([dim, repr(float(xv)), repr(float(wv))])
        print(f"wrote path values to {eval_path}")
    print(f"wrote {path.n_jumps()} jumps to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def cmd_normalize(args) -> int:
    in_path = Path(args.data)
    if not in_path.is_file():
        raise UsageError(f"input CSV not found: {in_path}")
    out_path = _require_parent(Path(args.out))
    with open(in_path, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        rows = [row for row in reader if row]
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1:
        raise UsageError(f"no x_* columns in {in_path}")
    cols = np.asarray([[float(v) for v in row[:d]] for row in rows], dtype=float)
    cols = cols.reshape(-1, d)
    for k in range(d):
        lo, hi = cols[:, k].min(), cols[:, k].max()
        if lo == hi:
            raise UsageError(f"column x_{k} is constant; cannot rescale to [0, 1]")
        cols[:, k] = (cols[:, k] - lo) / (hi - lo)
    with open(out_path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow([repr(float(v)) for v in cols[i]] + row[d:])
    print(f"rescaled {d} input columns over {len(rows)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser, with_seed=True):
    parser.add_argument("-c", "--config", help="dotted-key config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
    if with_seed:
        parser.add_argument("--seed", type=int, help="random seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngpr",
        description="Regression with subordinator-warped Gaussian processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--levy", help="subordinator family (or 'identity')")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="run the warped-GP sampler and the GP baseline")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--true-path", help="generating-path CSV for the likelihood-under-truth")
    p.add_argument("--chains", type=int, help="number of independent chains")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict at new inputs from a fit bundle")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--bundle", required=True, help="fit output directory")
    p.add_argument("--inputs", required=True, help="CSV of new inputs (x_* columns)")
    p.add_argument("--data", help="override the dataset path recorded in the bundle")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="simulate raw subordinator paths")
    _add_common(p)
    p.add_argument("--levy", help="subordinator family")
    p.add_argument("--out", required=True, help="output jumps CSV")
    p.add_argument("--eval-points", type=int, default=0,
                   help="also evaluate the path on a grid of this many points")
    p.add_argument("--eval-out", help="output CSV for the evaluated path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("normalize", help="rescale input columns of a CSV to [0, 1]")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
