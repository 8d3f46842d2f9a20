"""Command-line front end: gen, fit, predict, simulate, normalize.

A config value has three sources, each overriding the one before: the
built-in ``DEFAULTS``, the flat dotted-key file given with ``-c``, and
``--set key=value`` pairs.  A key outside ``DEFAULTS`` is a usage error.
Each run echoes its effective configuration, with ``levy.c`` resolved to a
number: ``gen`` into ``dataset.meta``, ``fit`` into the bundle's
``config.txt``.  ``fit`` reads only ``gen.noise_std``, ``gen.domain`` and
``levy.family`` from the ``.meta`` sidecar of its dataset CSV: on
``levy.family = identity`` data, ``--true-path`` scores the identity warp.
It takes its plain-GP baselines from ``sampler.chain_likelihood``.
``predict`` folds each chain's paths file (``_chain_files`` names them) and
pools them as ``fit`` does, writing ``posterior.csv`` at the dataset inputs.
Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .datagen import GenSpec, generate
from .errors import NumericalError
from .gp import RegressionData
from .kernels import KernelSpec
from .levy import LevyMeasureSpec, normalize_scale, simulate_path
from .sampler import (SamplerConfig, chain_likelihood, fold_posteriors,
                      grid_search_length_scale, pool_summaries, run_chains)

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


def _read(path: Path, parse, *args):
    """``parse(fp, *args)`` of the open file ``path``; a missing file or parse error names it."""
    if not path.is_file():
        raise UsageError(f"{path}: no such file")
    with open(path, newline="") as fp:
        try:
            return parse(fp, *args)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from exc


def _read_kv(path: Path) -> dict[str, str]:
    return _read(path, lambda fp: serialize.parse_kv_text(fp.read()))


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
    """``DEFAULTS``, then the ``-c`` config file, then the ``--set`` pairs."""
    cfg = dict(DEFAULTS)
    if args.config:
        path = Path(args.config)
        _update(cfg, _read_kv(path), str(path))
    _apply_set(cfg, args.set)
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
        family=_get(cfg, "kernel.family", str),
        length_scale=_get(cfg, "kernel.length_scale", float),
        signal_variance=_get(cfg, "kernel.signal_variance", float),
        jitter=_get(cfg, "kernel.jitter", float),
    )


def levy_from_config(cfg: dict[str, str]) -> LevyMeasureSpec | None:
    family = _get(cfg, "levy.family", str)
    if family == "identity":
        return None
    alpha = _get(cfg, "levy.alpha", float)
    beta = _get(cfg, "levy.beta", float)
    C = (normalize_scale(alpha, beta, family) if _get(cfg, "levy.c", str) == "auto"
         else _get(cfg, "levy.c", float))
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
        domains=_get(cfg, "gen.domain", serialize.parse_domains),
        n_points=_get(cfg, "gen.n_points", int),
        n_observed=_get(cfg, "gen.n_observed", int),
        kernel=kernel_from_config(cfg),
        levy=levy_from_config(cfg),
        noise_std=_get(cfg, "gen.noise_std", float),
        seed=_get(cfg, "gen.seed", int),
        grid=_get(cfg, "gen.grid", str),
    )


def _require_dir(path: Path) -> Path:
    if not path.is_dir():
        raise UsageError(f"output directory does not exist: {path}")
    return path


def _require_parent(path: Path) -> Path:
    if not path.parent.is_dir():
        raise UsageError(f"output directory does not exist: {path.parent}")
    return path


def _write_posterior(path: Path, X, moments, noise_variance: float) -> None:
    """Mean, posterior std and predictive std (noise added) of a ``MixtureSummary`` per input."""
    var = np.diag(moments.cov)
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
    if spec.levy is not None:
        cfg["levy.c"] = repr(float(spec.levy.C))
    data = generate(spec, np.random.default_rng(spec.seed))
    with open(out_dir / "dataset.csv", "w", newline="") as fp:
        serialize.write_dataset_csv(fp, data.X, data.y, data.observed)
    (out_dir / "dataset.meta").write_text(serialize.format_kv_text(cfg))
    with open(out_dir / "true_path.csv", "w", newline="") as fp:
        if data.true_path is None:  # the identity warp: a jumps CSV without rows
            serialize.write_csv(fp, ["dim", "position", "magnitude"], ())
        else:
            serialize.write_jumps_csv(fp, data.true_path)
    print(f"wrote dataset.csv ({data.X.shape[0]} rows), dataset.meta, true_path.csv "
          f"to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _load_dataset(path: Path):
    """``X, y, observed`` of the dataset CSV ``path``, then its ``.meta`` sidecar path and keys."""
    X, y, observed = _read(path, serialize.read_dataset_csv)
    if not observed.any():
        raise UsageError(f"dataset has no {'observed ' if observed.size else ''}rows: {path}")
    meta_path = path.with_suffix(".meta")
    meta = _read_kv(meta_path) if meta_path.is_file() else {}
    return X, y, observed, meta_path, meta


def _chain_files(n_chains: int) -> list[tuple[str, str]]:
    """Each chain's trace and paths CSV names in a fit bundle."""
    suffixes = [""] if n_chains == 1 else [f"_chain{i}" for i in range(n_chains)]
    return [(f"trace{s}.csv", f"paths{s}.csv") for s in suffixes]


def _resolve_fit_inputs(cfg: dict[str, str], X, meta_path: Path, meta: dict[str, str]):
    def from_meta(key, convert):  # a bad sidecar value names the sidecar
        try:
            return _get(meta, key, convert)
        except UsageError as exc:
            raise UsageError(f"{meta_path}: {exc}") from None

    if cfg["noise.variance"] == "auto":
        if "gen.noise_std" not in meta:
            raise UsageError(
                "noise.variance is 'auto' but the dataset has no metadata sidecar; "
                "set noise.variance explicitly")
        noise_std = from_meta("gen.noise_std", float)
        if noise_std <= 0:
            raise UsageError("cannot derive noise.variance from a noise-free dataset; "
                             "set noise.variance explicitly")
        cfg["noise.variance"] = repr(noise_std ** 2)
    if cfg["fit.domain"] == "auto":
        if "gen.domain" in meta:
            from_meta("gen.domain", serialize.parse_domains)
            cfg["fit.domain"] = meta["gen.domain"]
        else:
            hull = [(X[:, k].min(), X[:, k].max()) for k in range(X.shape[1])]
            cfg["fit.domain"] = serialize.format_domains(hull)
    return _get(cfg, "noise.variance", float), _get(cfg, "fit.domain", serialize.parse_domains)


def cmd_fit(args) -> int:
    cfg = load_config(args)
    out_dir = _require_dir(Path(args.out))
    data_path = Path(args.data)
    X, y, observed, meta_path, meta = _load_dataset(data_path)
    noise_variance, domains = _resolve_fit_inputs(cfg, X, meta_path, meta)
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

    true_path = None
    if args.true_path:
        true_path = _read(Path(args.true_path), serialize.read_jumps_csv, domains)
        if meta.get("levy.family") == "identity":  # gen's empty file: the identity warp, not W = 0
            if true_path.n_jumps():
                raise UsageError(f"{args.true_path}: a path with jumps, but {meta_path} records "
                                 f"levy.family = identity")
            true_path = None

    data = RegressionData(X[observed], y[observed], noise_variance)
    mix, chains = run_chains(data, X, kspec, lspec, scfg, n_chains=n_chains, domains=domains)

    # a bundle without summary.json is partial: drop an earlier fit's before the first write
    (out_dir / "summary.json").unlink(missing_ok=True)
    _write_posterior(out_dir / "posterior.csv", X, mix.moments, noise_variance)

    files = _chain_files(n_chains)
    for chain, (trace_name, paths_name) in zip(chains, files):
        with open(out_dir / trace_name, "w", newline="") as fp:
            serialize.write_trace_csv(fp, chain.trace)
        with open(out_dir / paths_name, "w", newline="") as fp:
            serialize.write_sampled_paths_csv(fp, chain.paths, chain.sweeps)

    lik = chain_likelihood(data, kspec)
    lml_fixed = lik.total(None)
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
        summary["true_path_log_cond_lik"] = lik.total(true_path)

    held = ~observed
    if held.any():
        held_y = y[held]
        summary["rmse_ngp"] = float(np.sqrt(np.mean((mix.aggregate_mean[held] - held_y) ** 2)))
        gp_mean = lik.posterior(None, X[held]).mean
        summary["rmse_gp"] = float(np.sqrt(np.mean((gp_mean - held_y) ** 2)))

    (out_dir / "config.txt").write_text(serialize.format_kv_text(cfg))
    # summary.json is written last: a bundle without it is partial
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"acceptance_rate={mix.acceptance_rate:.3f} "
          f"avg_log_cond_lik={mix.avg_log_cond_lik:.2f} "
          f"gp_log_marginal={lml_fixed:.2f}")
    print(f"wrote posterior.csv, {', '.join(name for pair in files for name in pair)}, "
          f"summary.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    bundle = Path(args.bundle)
    config_path = bundle / "config.txt"
    if not config_path.is_file():
        raise UsageError(f"not a fit bundle (missing config.txt): {bundle}")
    cfg = _read_kv(config_path)
    _apply_set(cfg, args.set)
    out_path = _require_parent(Path(args.out))

    X, y, observed, *_ = _load_dataset(_get(cfg, "io.dataset", Path))
    noise_variance = _get(cfg, "noise.variance", float)
    domains = _get(cfg, "fit.domain", serialize.parse_domains)
    kspec = kernel_from_config(cfg)
    data = RegressionData(X[observed], y[observed], noise_variance)

    X_new = _read(Path(args.inputs), serialize.read_inputs_csv)
    if X_new.shape[1] != len(domains):
        raise UsageError(f"inputs have {X_new.shape[1]} dimensions, model has {len(domains)}")
    lo, hi = np.transpose(domains)
    bad_rows = np.flatnonzero(~((lo <= X_new) & (X_new <= hi)).all(axis=1))
    if bad_rows.size:
        raise UsageError(
            f"{bad_rows.size} input rows outside the trained domain "
            f"{cfg['fit.domain']}: rows {bad_rows[:10].tolist()}")

    n_chains = _get(cfg, "sampler.n_chains", int)
    lik = chain_likelihood(data, kspec)
    summaries = []
    for _, paths_name in _chain_files(n_chains):
        paths_file = bundle / paths_name
        stored = _read(paths_file, serialize.read_sampled_paths_csv, domains)
        summary, _ = fold_posteriors(lik, stored, X_new)
        if summary is None:
            raise UsageError(f"no stored subordinator samples in {paths_file}")
        summaries.append(summary)
    _write_posterior(out_path, X_new, pool_summaries(summaries), noise_variance)
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
    domains = _get(cfg, "gen.domain", serialize.parse_domains)
    rng = np.random.default_rng(_get(cfg, "gen.seed", int))
    path = simulate_path(lspec, domains, rng)
    with open(out_path, "w", newline="") as fp:
        serialize.write_jumps_csv(fp, path)
    if args.eval_points:
        eval_path = _require_parent(Path(args.eval_out)) if args.eval_out \
            else out_path.with_name(out_path.stem + "_values.csv")
        grids = [np.linspace(lo, hi, args.eval_points) for lo, hi in domains]
        dims = np.repeat(np.arange(len(domains)), args.eval_points)
        values = [path.values(grid, dim) for dim, grid in enumerate(grids)]
        with open(eval_path, "w", newline="") as fp:
            serialize.write_csv(fp, ["dim", "x", "w"], zip(
                map(str, dims.tolist()), serialize.floats(np.concatenate(grids)),
                serialize.floats(np.concatenate(values))))
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
    header, lines = serialize.split_csv(in_path.read_text())
    try:
        d = serialize.input_width(header)
    except ValueError as exc:
        raise UsageError(f"{in_path}: {exc}") from None
    cols = serialize.parse_rows(lines, d)
    for k in range(d):
        lo, hi = cols[:, k].min(), cols[:, k].max()
        if lo == hi:
            raise UsageError(f"column x_{k} is constant; cannot rescale to [0, 1]")
        cols[:, k] = (cols[:, k] - lo) / (hi - lo)
    rest = [line.split(",", d)[d:] for line in lines if line]  # the other fields, verbatim
    with open(out_path, "w", newline="") as fp:
        serialize.write_csv(fp, header, [[*xs, *tail] for xs, tail in zip(
            zip(*map(serialize.floats, cols.T)), rest)])
    print(f"rescaled {d} input columns over {cols.shape[0]} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("-c", "--config", help="dotted-key config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngpr",
        description="Regression with subordinator-warped Gaussian processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="run the warped-GP sampler and the GP baseline")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--true-path", help="generating-path CSV for the likelihood-under-truth")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict at new inputs from a fit bundle")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--bundle", required=True, help="fit output directory")
    p.add_argument("--inputs", required=True, help="CSV of new inputs (x_* columns)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="simulate raw subordinator paths")
    _add_common(p)
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
