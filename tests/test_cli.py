"""Command-line pipeline: gen, fit, predict, simulate, normalize."""

import io
import json
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from ngpr import (GenSpec, KernelSpec, LevyMeasureSpec, NumericalError, RegressionData, cli,
                  gp, log_conditional_likelihood,
                  normalize_scale, sampler, serialize)
from ngpr.statespace import StateSpaceLikelihood

FAST_CONFIG = """
gen.domain = 0,0.5
gen.n_points = 40
gen.n_observed = 32
gen.noise_std = 0.1
gen.seed = 4
levy.family = tempered_stable
levy.alpha = 0.8
levy.beta = 5.0
levy.n_terms = 150
kernel.family = se
kernel.length_scale = 0.1
sampler.n_sweeps = 8
sampler.n_intervals = 12
sampler.seed = 10
"""


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(FAST_CONFIG)
    return tmp_path


def _gen(workdir, out="data", extra=()):
    out_dir = workdir / out
    out_dir.mkdir(exist_ok=True)
    rc = cli.main(["gen", "-c", str(workdir / "config.txt"), "--out", str(out_dir),
                   *extra])
    assert rc == 0
    return out_dir


def _fit(workdir, data_dir, out="fit", extra=()):
    out_dir = workdir / out
    out_dir.mkdir(exist_ok=True)
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"),
                   "--data", str(data_dir / "dataset.csv"), "--out", str(out_dir),
                   *extra])
    assert rc == 0
    return out_dir


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_outputs_and_determinism(workdir):
    d1 = _gen(workdir, "data1")
    d2 = _gen(workdir, "data2")
    for name in ("dataset.csv", "dataset.meta", "true_path.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    with open(d1 / "dataset.csv") as fp:
        X, y, observed = serialize.read_dataset_csv(fp)
    assert X.shape == (40, 1) and observed.sum() == 32


def test_gen_identity_levy_flag(workdir):
    out = _gen(workdir, "data_id", extra=("--set", "levy.family=identity"))
    assert out.joinpath("true_path.csv").read_text() == "dim,position,magnitude\n"
    meta = serialize.parse_kv_text((out / "dataset.meta").read_text())
    assert meta["levy.family"] == "identity"


@pytest.mark.parametrize("family", ["tempered_stable", "identity"])
def test_dataset_meta_regenerates_the_dataset(workdir, family):
    """``dataset.meta`` is gen's one echo; given back with ``-c`` it reproduces every file."""
    data_dir = _gen(workdir, extra=("--set", f"levy.family={family}"))
    names = ["dataset.csv", "dataset.meta", "true_path.csv"]
    assert sorted(f.name for f in data_dir.iterdir()) == names
    out = workdir / "regen"
    out.mkdir()
    assert cli.main(["gen", "-c", str(data_dir / "dataset.meta"), "--out", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == (data_dir / name).read_bytes(), name


@pytest.mark.parametrize("family", ["tempered_stable", "identity"])
def test_dataset_meta_resolves_to_the_genspec(workdir, family):
    data_dir = _gen(workdir, extra=("--set", f"levy.family={family}",
                                    "--set", "kernel.family=matern52"))
    meta = serialize.parse_kv_text((data_dir / "dataset.meta").read_text())
    levy = None if family == "identity" else LevyMeasureSpec(
        family, C=normalize_scale(0.8, 5.0, family), alpha=0.8, beta=5.0, n_terms=150)
    spec = GenSpec(domains=((0.0, 0.5),), n_points=40, n_observed=32,
                   kernel=KernelSpec("matern52", 0.1, 1.0, 1e-8), levy=levy,
                   noise_std=0.1, seed=4)
    assert cli.genspec_from_config(meta) == spec
    assert meta["levy.c"] == ("auto" if levy is None else repr(float(levy.C)))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_rejects_a_non_finite_noise_std(workdir, value, capsys):
    out = workdir / "data_bad"
    out.mkdir()
    rc = cli.main(["gen", "-c", str(workdir / "config.txt"), "--out", str(out),
                   "--set", f"gen.noise_std={value}"])
    assert rc == 2
    assert "noise_std must be non-negative and finite" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, key", [("gen", "gen.domain"), ("fit", "fit.domain")])
def test_an_infinite_domain_names_its_key(workdir, command, key, capsys, recwarn):
    args = ["fit", "--data", str(_gen(workdir) / "dataset.csv")] if command == "fit" else ["gen"]
    out = workdir / "out_bad"
    out.mkdir()
    rc = cli.main([*args, "-c", str(workdir / "config.txt"), "--out", str(out),
                   "--set", f"{key}=0,inf"])
    assert rc == 2
    assert (f"error: config key {key!r}: domain (0.0, inf) needs finite bounds with lo < hi"
            in capsys.readouterr().err)
    assert not any(out.iterdir())
    assert not recwarn.list


def test_gen_missing_output_dir_exits_2(workdir, capsys):
    missing = workdir / "nope"
    rc = cli.main(["gen", "-c", str(workdir / "config.txt"), "--out", str(missing)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_summary_schema_and_outputs(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir,
                   extra=("--true-path", str(data_dir / "true_path.csv")))
    summary = json.loads((fit_dir / "summary.json").read_text())
    for field in ("acceptance_rate", "avg_log_cond_lik", "std_log_cond_lik",
                  "gp_log_marginal", "gp_log_marginal_opt", "gp_length_scale_opt",
                  "true_path_log_cond_lik", "rmse_ngp", "rmse_gp", "noise_variance",
                  "jumps_per_path"):
        assert field in summary, field
    assert 0.0 <= summary["acceptance_rate"] <= 1.0
    # noise.variance resolved from the metadata sidecar (0.1 ** 2)
    assert summary["noise_variance"] == pytest.approx(0.01)
    for name in ("posterior.csv", "trace.csv", "paths.csv", "config.txt"):
        assert (fit_dir / name).is_file()
    echoed = serialize.parse_kv_text((fit_dir / "config.txt").read_text())
    assert echoed["fit.domain"] != "auto"
    assert "io.dataset" in echoed


@pytest.mark.parametrize("family, likelihood", [("se", "dense"), ("matern52", "state_space")])
def test_fit_summary_reports_the_likelihood(workdir, family, likelihood):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", f"kernel.family={family}",
                                             "--set", "sampler.n_sweeps=2"))
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["likelihood"] == likelihood


def test_fit_config_echo_is_a_valid_gen_config(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    echoed = serialize.parse_kv_text((fit_dir / "config.txt").read_text())
    assert float(echoed["levy.c"]) > 0
    out = workdir / "regen"
    out.mkdir()
    assert cli.main(["gen", "-c", str(fit_dir / "config.txt"), "--out", str(out)]) == 0
    assert (out / "dataset.csv").read_bytes() == (data_dir / "dataset.csv").read_bytes()


def test_fit_is_byte_deterministic(workdir):
    data_dir = _gen(workdir)
    f1 = _fit(workdir, data_dir, "fit1")
    f2 = _fit(workdir, data_dir, "fit2")
    for name in ("summary.json", "posterior.csv", "trace.csv", "paths.csv"):
        assert (f1 / name).read_bytes() == (f2 / name).read_bytes()


def test_fit_multi_chain_outputs(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, "fitmc", extra=("--set", "sampler.n_chains=2"))
    assert (fit_dir / "trace_chain0.csv").is_file()
    assert (fit_dir / "paths_chain1.csv").is_file()
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["n_chains"] == 2
    # jump counts over the pooled stored paths (sweeps 8 - per_chain .. 7 of
    # sampler.n_sweeps = 8); a path with no jumps has no rows
    per_chain = summary["n_samples"] // 2
    counts = []
    for chain in range(2):
        with open(fit_dir / f"paths_chain{chain}.csv") as fp:
            rows = Counter(line.split(",")[3] for line in fp.read().splitlines()[1:])
        counts += [rows[str(sweep)] for sweep in range(8 - per_chain, 8)]
    assert summary["jumps_per_path"] == {"min": min(counts), "mean": np.mean(counts),
                                         "max": max(counts)}


@pytest.mark.parametrize("n_chains, names", [
    (1, "trace.csv, paths.csv"),
    (2, "trace_chain0.csv, paths_chain0.csv, trace_chain1.csv, paths_chain1.csv")],
    ids=["1-chain", "2-chains"])
def test_fit_names_the_files_it_wrote(workdir, capsys, n_chains, names):
    data_dir = _gen(workdir)
    capsys.readouterr()
    fit_dir = _fit(workdir, data_dir, extra=("--set", f"sampler.n_chains={n_chains}",
                                             "--set", "sampler.n_sweeps=2"))
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"wrote posterior.csv, {names}, summary.json to {fit_dir}"
    written = last[len("wrote "):-len(f" to {fit_dir}")].split(", ")
    assert sorted(f.name for f in fit_dir.iterdir()) == sorted(written + ["config.txt"])


def test_fit_reads_a_genspec_only_dataset_meta(workdir):
    """A sidecar of the generating spec alone, as earlier versions wrote, resolves the auto keys."""
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    assert serialize.parse_kv_text((fit_dir / "config.txt").read_text())["fit.domain"] == "0,0.5"
    levy_c = serialize.parse_kv_text((data_dir / "dataset.meta").read_text())["levy.c"]
    old = workdir / "old"
    old.mkdir()
    (old / "dataset.csv").write_bytes((data_dir / "dataset.csv").read_bytes())
    (old / "dataset.meta").write_text(
        "gen.domain = 0.0,0.5\ngen.grid = even\ngen.n_observed = 32\ngen.n_points = 40\n"
        "gen.noise_std = 0.1\ngen.seed = 4\nkernel.family = se\nkernel.jitter = 1e-08\n"
        "kernel.length_scale = 0.1\nkernel.signal_variance = 1.0\nlevy.alpha = 0.8\n"
        f"levy.beta = 5.0\nlevy.c = {levy_c}\nlevy.family = tempered_stable\n"
        "levy.n_terms = 150\n")
    old_fit = _fit(workdir, old, "fit_old")
    echoed = serialize.parse_kv_text((old_fit / "config.txt").read_text())
    assert echoed["fit.domain"] == "0.0,0.5"
    assert echoed["noise.variance"] == repr(0.1 ** 2)
    for name in ("summary.json", "posterior.csv", "trace.csv", "paths.csv"):
        assert (old_fit / name).read_bytes() == (fit_dir / name).read_bytes(), name


def test_identity_warp_data_score_the_truth_as_the_identity(workdir, capsys):
    """gen's empty ``true_path.csv`` of ``levy.family = identity`` data is W(x) = x, not W = 0."""
    data_dir = _gen(workdir, extra=("--set", "levy.family=identity"))
    true_path = ("--true-path", str(data_dir / "true_path.csv"))
    fit_dir = _fit(workdir, data_dir, extra=(*true_path, "--set", "sampler.n_sweeps=2"))
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["true_path_log_cond_lik"] == summary["gp_log_marginal"]

    # a jumps file is no identity warp: a usage error, before anything is written
    (data_dir / "true_path.csv").write_text("dim,position,magnitude\n0,0.1,0.2\n")
    out = workdir / "fit_jumps"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data",
                   str(data_dir / "dataset.csv"), "--out", str(out), *true_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"error: {data_dir / 'true_path.csv'}: a path with jumps, but "
            f"{data_dir / 'dataset.meta'} records levy.family = identity") in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("entry, bad, detail", [
    ("gen.noise_std = 0.1", "abc", "could not convert string to float: 'abc'"),
    ("gen.domain = 0,0.5", "0,inf", "domain (0.0, inf) needs finite bounds with lo < hi")],
    ids=["gen.noise_std", "gen.domain"])
def test_a_malformed_sidecar_value_names_the_sidecar_and_key(workdir, capsys, entry, bad, detail):
    data_dir = _gen(workdir)
    meta = data_dir / "dataset.meta"
    key = entry.split(" = ")[0]
    meta.write_text(meta.read_text().replace(entry, f"{key} = {bad}"))
    out = workdir / "fit_bad"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data",
                   str(data_dir / "dataset.csv"), "--out", str(out)])
    assert rc == 2
    assert f"error: {meta}: config key {key!r}: {detail}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_fit_without_metadata_requires_noise(workdir, tmp_path):
    data_dir = _gen(workdir)
    bare = tmp_path / "bare.csv"
    bare.write_bytes((data_dir / "dataset.csv").read_bytes())
    out = tmp_path / "fitbare"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data", str(bare),
                   "--out", str(out)])
    assert rc == 2
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data", str(bare),
                   "--out", str(out), "--set", "noise.variance=0.01"])
    assert rc == 0


def test_fit_rejects_short_dataset_row(workdir, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("x_0,y,observed\n0.1,0.5,1\n0.2\n")
    out = tmp_path / "fitshort"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data", str(short),
                   "--out", str(out), "--set", "noise.variance=0.01"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, detail", [
    ("dataset.csv", "x_0,z\n0.1,0.5\n", "unexpected dataset CSV header: ['x_0', 'z']"),
    ("dataset.csv", "x_0,y,observed\n0.1,0.5,1\n0.2,x,1\n", "line 3: could not convert"),
    ("dataset.meta", "gen.noise_std = 0.1\ngen.domain\n", "line 2: expected 'key = value'"),
    ("true_path.csv", "dim,position,magnitude\n0,0.1,abc\n", "line 2: could not convert"),
])
def test_fit_parse_errors_name_the_file(workdir, capsys, name, text, detail):
    data_dir = _gen(workdir)
    (data_dir / name).write_text(text)
    out = workdir / "fit_bad"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data", str(data_dir / "dataset.csv"),
                   "--out", str(out), "--true-path", str(data_dir / "true_path.csv")])
    assert rc == 2
    assert f"error: {data_dir / name}: {detail}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("name, text, detail", [
    ("inputs.csv", "y,x_0\n0.1,0.2\n", "expected leading x_0..x_{d-1} columns"),
    ("inputs.csv", "x_0\n0.1\n0.2x\n", "line 3: could not convert"),
    ("fit/paths.csv", "dim,position,weight,sweep\n", "unexpected sampled-path CSV header"),
    ("fit/config.txt", "kernel.family = se\nkernel.jitter\n", "line 2: expected 'key = value'"),
    ("missing.csv", None, "no such file"),
])
def test_predict_parse_errors_name_the_file(workdir, capsys, name, text, detail):
    data_dir = _gen(workdir)
    _fit(workdir, data_dir)
    (workdir / "inputs.csv").write_text("x_0\n0.1\n")
    if text is not None:
        (workdir / name).write_text(text)
    inputs = workdir / ("missing.csv" if text is None else "inputs.csv")
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(workdir / "fit"), "--inputs", str(inputs),
                   "--out", str(out_csv)])
    assert rc == 2
    assert f"error: {workdir / name}: {detail}" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("family", ["se", "matern52"])
def test_fit_baselines_match_the_dense_gp(workdir, monkeypatch, family):
    """SE baselines are the dense ones bit for bit; Matern-5/2 ones need no dense factorization."""
    kernel = ("--set", f"kernel.family={family}")
    data_dir = _gen(workdir, extra=kernel)
    factorizations = []
    real = gp._factorize
    monkeypatch.setattr(gp, "_factorize", lambda *args: factorizations.append(1) or real(*args))
    fit_dir = _fit(workdir, data_dir, extra=(*kernel, "--set", "sampler.n_sweeps=2",
                                             "--true-path", str(data_dir / "true_path.csv")))
    monkeypatch.undo()
    summary = json.loads((fit_dir / "summary.json").read_text())
    echoed = serialize.parse_kv_text((fit_dir / "config.txt").read_text())
    kspec = cli.kernel_from_config(echoed)
    with open(data_dir / "dataset.csv") as fp:
        X, y, observed = serialize.read_dataset_csv(fp)
    with open(data_dir / "true_path.csv") as fp:
        true_path = serialize.read_jumps_csv(fp, serialize.parse_domains(echoed["fit.domain"]))
    data = RegressionData(X[observed], y[observed], summary["noise_variance"])
    grid = np.geomspace(1e-3, 2.0, 60)
    lmls = [log_conditional_likelihood(data, None, replace(kspec, length_scale=float(l)))
            for l in grid]
    best = int(np.argmax(lmls))
    held = ~observed
    gp_mean = gp.posterior(data, X[held], None, kspec).mean
    dense = {"gp_log_marginal": log_conditional_likelihood(data, None, kspec),
             "gp_log_marginal_opt": lmls[best],
             "true_path_log_cond_lik": log_conditional_likelihood(data, true_path, kspec),
             "rmse_gp": float(np.sqrt(np.mean((gp_mean - y[held]) ** 2)))}
    assert held.any()
    assert summary["gp_length_scale_opt"] == float(grid[best])
    if family == "se":
        assert factorizations
        assert {key: summary[key] for key in dense} == dense
    else:
        assert factorizations == []
        for key, value in dense.items():
            assert summary[key] == pytest.approx(value, rel=1e-8, abs=0), key


def test_failed_refit_leaves_no_stale_summary(workdir, monkeypatch, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    before = {f.name: f.read_bytes() for f in fit_dir.iterdir()}
    argv = ["fit", "-c", str(workdir / "config.txt"), "--data", str(data_dir / "dataset.csv"),
            "--out", str(fit_dir), "--set", "sampler.seed=99"]
    # a missing --true-path is reported before the chain overwrites anything
    assert cli.main([*argv, "--true-path", str(workdir / "absent.csv")]) == 2
    assert "absent.csv" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in fit_dir.iterdir()} == before

    # a failure after the first write leaves a partial bundle, without summary.json
    def failing(*args):
        raise NumericalError("synthetic baseline failure")

    monkeypatch.setattr(cli, "grid_search_length_scale", failing)
    assert cli.main(argv) == 1
    assert "synthetic baseline failure" in capsys.readouterr().err
    assert (fit_dir / "posterior.csv").read_bytes() != before["posterior.csv"]
    assert not (fit_dir / "summary.json").exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_at_training_inputs_matches_fit(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    out_csv = workdir / "pred.csv"
    t0 = time.time()
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    elapsed = time.time() - t0
    assert rc == 0
    print(f"[INFO] predict over the training grid took {elapsed:.2f}s")
    assert elapsed < 60.0
    assert out_csv.read_bytes() == (fit_dir / "posterior.csv").read_bytes()


def test_matern_predict_at_dataset_inputs_reproduces_the_fit(workdir, monkeypatch):
    """Fit and predict both take the state-space posterior of a Matern-5/2 bundle."""
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", "kernel.family=matern52"))
    summary = json.loads((fit_dir / "summary.json").read_text())
    assert summary["likelihood"] == "state_space"
    smoothed = []
    real = StateSpaceLikelihood.posterior
    monkeypatch.setattr(StateSpaceLikelihood, "posterior",
                        lambda self, *args: smoothed.append(1) or real(self, *args))
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    assert rc == 0
    assert len(smoothed) == summary["n_samples"]
    assert out_csv.read_bytes() == (fit_dir / "posterior.csv").read_bytes()


def _predict_matches_fit(fit_dir, data_dir, out_csv):
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.read_bytes() == (fit_dir / "posterior.csv").read_bytes()


@pytest.mark.parametrize("n_chains", [1, 2, 3])
@pytest.mark.parametrize("family", ["se", "matern52"])
def test_predict_at_dataset_inputs_writes_the_posterior_bytes(workdir, family, n_chains):
    """Predict folds each chain's paths and pools the chains as fit does: the same bits."""
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", f"kernel.family={family}",
                                             "--set", f"sampler.n_chains={n_chains}"))
    _predict_matches_fit(fit_dir, data_dir, workdir / "pred.csv")


def test_predict_ignores_paths_files_of_an_earlier_fit(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", "sampler.n_chains=3"))
    _fit(workdir, data_dir, extra=("--set", "sampler.n_chains=1"))
    assert (fit_dir / "paths_chain2.csv").is_file() and (fit_dir / "paths.csv").is_file()
    _predict_matches_fit(fit_dir, data_dir, workdir / "pred.csv")


def test_predict_reads_the_chains_in_order(workdir, monkeypatch):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", "sampler.n_chains=11",
                                             "--set", "sampler.n_sweeps=2",
                                             "--set", "sampler.n_intervals=3"))
    read = []
    real = serialize.read_sampled_paths_csv
    monkeypatch.setattr(serialize, "read_sampled_paths_csv",
                        lambda fp, domains: read.append(fp.name) or real(fp, domains))
    _predict_matches_fit(fit_dir, data_dir, workdir / "pred.csv")
    assert read == [str(fit_dir / f"paths_chain{i}.csv") for i in range(11)]


@pytest.mark.parametrize("damage", ["missing", "no samples"])
def test_predict_names_a_missing_or_empty_paths_file(workdir, capsys, damage):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir, extra=("--set", "sampler.n_chains=2"))
    if damage == "missing":
        (fit_dir / "paths_chain1.csv").unlink()
    else:
        (fit_dir / "paths_chain1.csv").write_text("dim,position,magnitude,sweep\n")
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    assert rc == 2
    assert "paths_chain1.csv" in capsys.readouterr().err
    assert not out_csv.exists()


def test_predict_has_no_data_flag(workdir, capsys):
    """The dataset is the bundle's ``io.dataset``, which ``--set`` overrides."""
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    out_csv = workdir / "pred.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--bundle", str(fit_dir), "--inputs", str(data_dir / "dataset.csv"),
                  "--out", str(out_csv), "--data", str(data_dir / "dataset.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --data" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("body, what", [("", "rows"),
                                        ("0.1,0.5,0\n0.2,0.7,0\n", "observed rows")])
def test_fit_and_predict_reject_a_dataset_without_observed_rows(workdir, capsys, body, what):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    empty = workdir / "empty.csv"
    empty.write_text("x_0,y,observed\n" + body)
    out = workdir / "fit_empty"
    out.mkdir()
    rc = cli.main(["fit", "-c", str(workdir / "config.txt"), "--data", str(empty),
                   "--out", str(out), "--set", "noise.variance=0.01"])
    assert rc == 2
    assert f"dataset has no {what}: {empty}" in capsys.readouterr().err
    assert not any(out.iterdir())
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs",
                   str(data_dir / "dataset.csv"), "--out", str(out_csv),
                   "--set", f"io.dataset={empty}"])
    assert rc == 2
    assert f"dataset has no {what}: {empty}" in capsys.readouterr().err
    assert not out_csv.exists()


def test_predict_reports_the_sweep_of_a_failed_posterior(workdir, monkeypatch, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    with open(fit_dir / "paths.csv") as fp:
        first = min(int(line.rsplit(",", 1)[1]) for line in fp.read().splitlines()[1:])

    def failing(*args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(sampler, "posterior", failing)
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(workdir / "p.csv")])
    assert rc == 1
    assert f"posterior at sweep {first}: synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["kernel.family", "fit.domain", "io.dataset"])
def test_predict_names_a_key_missing_from_the_bundle(workdir, key, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    config = fit_dir / "config.txt"
    cfg = serialize.parse_kv_text(config.read_text())
    del cfg[key]
    config.write_text(serialize.format_kv_text(cfg))
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir),
                   "--inputs", str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    assert rc == 2
    assert f"missing config key {key!r}" in capsys.readouterr().err
    assert not out_csv.exists()


def test_predict_empty_inputs_gives_header_only(workdir):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    empty = workdir / "empty.csv"
    empty.write_text("x_0\n")
    out_csv = workdir / "pred_empty.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs", str(empty),
                   "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.read_text() == "x_0,posterior_mean,posterior_std,predictive_std\n"


def test_predict_rejects_out_of_domain_points(workdir, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    bad = workdir / "bad.csv"
    bad.write_text("x_0\n0.25\n7.5\n")
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs", str(bad),
                   "--out", str(workdir / "nope.csv")])
    assert rc == 2
    assert "rows [1]" in capsys.readouterr().err


def test_predict_rejects_malformed_set(workdir, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs",
                   str(data_dir / "dataset.csv"), "--out", str(out_csv), "--set", "bogus"])
    assert rc == 2
    assert "--set expects key=value" in capsys.readouterr().err
    assert not out_csv.exists()


def test_predict_rejects_paths_row_with_unknown_dim(workdir, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    with open(fit_dir / "paths.csv", "a") as fp:
        fp.write("3,0.1,0.2,5\n")
    out_csv = workdir / "pred.csv"
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs",
                   str(data_dir / "dataset.csv"), "--out", str(out_csv)])
    assert rc == 2
    assert "dimension 3" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("row", ["0,0.1\n", "0,0.1,abc,5\n", "0.5,0.1,0.2,5\n",
                                 "0,0.1,0.2,5.5\n"])
def test_predict_rejects_malformed_paths_row(workdir, capsys, row):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    with open(fit_dir / "paths.csv", "a") as fp:
        fp.write(row)
    lineno = len((fit_dir / "paths.csv").read_text().splitlines())
    rc = cli.main(["predict", "--bundle", str(fit_dir), "--inputs",
                   str(data_dir / "dataset.csv"), "--out", str(workdir / "pred.csv")])
    assert rc == 2
    assert f"line {lineno}:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_jumps_and_values(workdir):
    out_csv = workdir / "jumps.csv"
    rc = cli.main(["simulate", "-c", str(workdir / "config.txt"), "--set", "gen.seed=3",
                   "--out", str(out_csv), "--eval-points", "50"])
    assert rc == 0
    with open(out_csv) as fp:
        path = serialize.read_jumps_csv(fp, [(0.0, 0.5)])
    assert len(path.jump_sets[0]) > 0
    values_csv = workdir / "jumps_values.csv"
    lines = values_csv.read_text().strip().splitlines()
    assert lines[0] == "dim,x,w"
    w = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(w, w[1:]))


def test_simulate_values_match_the_reference_bytes(workdir):
    out_csv = workdir / "jumps2.csv"
    rc = cli.main(["simulate", "-c", str(workdir / "config.txt"), "--set", "gen.seed=3",
                   "--set", "gen.domain=0,0.5;-1,2", "--out", str(out_csv),
                   "--eval-points", "37"])
    assert rc == 0
    domains = [(0.0, 0.5), (-1.0, 2.0)]
    with open(out_csv) as fp:
        path = serialize.read_jumps_csv(fp, domains)
    buf = io.StringIO()
    oracles.write_path_values_csv(buf, path, domains, 37)
    assert (workdir / "jumps2_values.csv").read_text() == buf.getvalue()


def test_simulate_is_seed_deterministic(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        rc = cli.main(["simulate", "-c", str(workdir / "config.txt"), "--set", "gen.seed=5",
                       "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_rescales_inputs(workdir):
    src = workdir / "raw.csv"
    src.write_text("x_0,x_1,y\n2.0,10.0,1.0\n4.0,30.0,2.0\n3.0,20.0,3.0\n")
    out = workdir / "scaled.csv"
    rc = cli.main(["normalize", "--data", str(src), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x_0,x_1,y"
    rows = [line.split(",") for line in lines[1:]]
    col0 = [float(r[0]) for r in rows]
    col1 = [float(r[1]) for r in rows]
    assert min(col0) == 0.0 and max(col0) == 1.0
    assert min(col1) == 0.0 and max(col1) == 1.0
    assert [r[2] for r in rows] == ["1.0", "2.0", "3.0"]


def test_normalize_matches_the_reference_bytes(workdir, capsys):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2)) * 10.0 ** rng.integers(-20, 20, size=(30, 2))
    X[:3] = [[1e-5, 1e16], [-0.0, 5e-324], [1e15, -1e-4]]
    lines = [f"{a!r},{b!r},{c!r},tag{i}"
             for i, (a, b, c) in enumerate(zip(*X.T.tolist(), rng.random(30).tolist()))]
    src = workdir / "messy.csv"
    src.write_bytes(("x_0,x_1,y,tag\r\n" + "\r\n".join(lines[:10] + [""] + lines[10:])
                     + "\r\n\r\n").encode())
    out, ref = workdir / "scaled.csv", workdir / "scaled_ref.csv"
    assert cli.main(["normalize", "--data", str(src), "--out", str(out)]) == 0
    oracles.normalize_csv(src, ref)
    assert out.read_bytes() == ref.read_bytes()
    src.write_text("x_0,x_1,y\n2.0,1.0,1\n3.0\n")
    assert cli.main(["normalize", "--data", str(src), "--out", str(out)]) == 2
    assert "line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["y,x_0", "x_1,y", "x_0,y,x_1", "y"])
def test_normalize_requires_leading_input_columns(workdir, header, capsys):
    """Only files that lead with x_0..x_{d-1} and name no other x_* column are rescaled."""
    width = header.count(",") + 1
    src = workdir / "raw.csv"
    src.write_text(header + "\n" + "".join(
        ",".join(f"{i * (j + 1)}.0" for j in range(width)) + "\n" for i in range(3)))
    out = workdir / "scaled.csv"
    assert cli.main(["normalize", "--data", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(src) in err and str(header.split(",")) in err
    assert not out.exists()
    with pytest.raises(ValueError, match="expected leading x_0"):
        oracles.normalize_csv(src, out)


def test_normalize_rejects_constant_column(workdir, capsys):
    src = workdir / "const.csv"
    src.write_text("x_0,y\n2.0,1.0\n2.0,2.0\n")
    rc = cli.main(["normalize", "--data", str(src), "--out", str(workdir / "o.csv")])
    assert rc == 2
    assert "x_0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_set_overrides_config_file(workdir):
    out = workdir / "data_over"
    out.mkdir()
    rc = cli.main(["gen", "-c", str(workdir / "config.txt"), "--out", str(out),
                   "--set", "gen.n_points=12", "--set", "gen.n_observed=12"])
    assert rc == 0
    with open(out / "dataset.csv") as fp:
        X, _, _ = serialize.read_dataset_csv(fp)
    assert X.shape[0] == 12


def test_seed_environment_variable_changes_nothing(workdir, monkeypatch):
    # seeds left to their defaults, which an environment variable once replaced
    (workdir / "config.txt").write_text("\n".join(
        line for line in FAST_CONFIG.splitlines()
        if not line.startswith(("gen.seed", "sampler.seed"))))
    data = _gen(workdir, "data")
    fit = _fit(workdir, data, "fit")
    monkeypatch.setenv("NGPR_SEED", "321")
    data_env = _gen(workdir, "data_env")
    fit_env = _fit(workdir, data, "fit_env")
    for name in ("dataset.csv", "dataset.meta", "true_path.csv"):
        assert (data_env / name).read_bytes() == (data / name).read_bytes(), name
    for name in ("summary.json", "posterior.csv", "trace.csv", "paths.csv", "config.txt"):
        assert (fit_env / name).read_bytes() == (fit / name).read_bytes(), name


@pytest.mark.parametrize("command, flag", [("gen", "--seed"), ("gen", "--levy"),
                                           ("fit", "--seed"), ("fit", "--chains"),
                                           ("simulate", "--seed"), ("simulate", "--levy")])
def test_removed_flags_exit_2(workdir, command, flag, capsys):
    """Seeds, the subordinator family and the chain count are set with ``--set``."""
    out = workdir / "out"
    out.mkdir()
    target = out / "path.csv" if command == "simulate" else out
    argv = [command, "-c", str(workdir / "config.txt"), "--out", str(target)]
    if command == "fit":
        argv += ["--data", str(_gen(workdir) / "dataset.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_unknown_config_file_exits_2(workdir, capsys):
    rc = cli.main(["gen", "-c", str(workdir / "absent.txt"),
                   "--out", str(workdir)])
    assert rc == 2
    assert "absent.txt" in capsys.readouterr().err


def test_unknown_set_key_exits_2(workdir, capsys):
    out = workdir / "data_typo"
    out.mkdir()
    rc = cli.main(["gen", "-c", str(workdir / "config.txt"), "--out", str(out),
                   "--set", "gen.n_point=12"])
    assert rc == 2
    assert "'gen.n_point'" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("key", ["levy.c", "gen.n_points", "gen.domain", "noise.variance",
                                 "fit.domain"])
def test_unparsable_value_names_its_key(workdir, key, capsys):
    args = ["fit", "--data", str(_gen(workdir) / "dataset.csv")] if key in (
        "noise.variance", "fit.domain") else ["gen"]  # the two keys only fit reads
    out = workdir / "data_bad"
    out.mkdir()
    rc = cli.main([*args, "-c", str(workdir / "config.txt"), "--out", str(out),
                   "--set", f"{key}=abc"])
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_unknown_config_file_key_exits_2(workdir, capsys):
    old = workdir / "old.txt"
    old.write_text(FAST_CONFIG + "sampler.init = coarse\n")
    out = workdir / "out"
    out.mkdir()
    for argv in (["gen", "--out", str(out)],
                 ["simulate", "--out", str(out / "path.csv")],
                 ["fit", "--data", str(workdir / "absent.csv"), "--out", str(out)]):
        rc = cli.main([argv[0], "-c", str(old), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert "old.txt" in err and "'sampler.init'" in err
    assert not any(out.iterdir())


def test_predict_checks_set_keys_but_not_the_bundle_config(workdir, capsys):
    data_dir = _gen(workdir)
    fit_dir = _fit(workdir, data_dir)
    # a bundle written with a key this version does not know still predicts
    with open(fit_dir / "config.txt", "a") as fp:
        fp.write("sampler.init = identity\n")
    argv = ["predict", "--bundle", str(fit_dir), "--inputs", str(data_dir / "dataset.csv"),
            "--out", str(workdir / "pred.csv")]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--set", "sampler.init=coarse"]) == 2
    assert "'sampler.init'" in capsys.readouterr().err
    # the dataset path that fit records is a known key
    assert cli.main([*argv, "--set", f"io.dataset={data_dir / 'dataset.csv'}"]) == 0


def test_sampler_config_keys_are_the_sampler_config_fields():
    from dataclasses import fields

    from ngpr import SamplerConfig

    keys = {key.partition(".")[2] for key in cli.DEFAULTS if key.startswith("sampler.")}
    assert keys - {"n_chains"} == {f.name for f in fields(SamplerConfig)}


def test_defaults_equal_the_dataclass_defaults():
    """A ``DEFAULTS`` key named after a field that has a default holds that default."""
    from dataclasses import MISSING, fields

    from ngpr import SamplerConfig

    checked = set()
    for prefix, cls in (("kernel", KernelSpec), ("sampler", SamplerConfig),
                        ("levy", LevyMeasureSpec), ("gen", GenSpec)):
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            if key in cli.DEFAULTS and f.default is not MISSING:
                assert type(f.default)(cli.DEFAULTS[key]) == f.default, key
                checked.add(key)
    assert checked == {"kernel.family", "kernel.length_scale", "kernel.signal_variance",
                       "kernel.jitter", "sampler.n_sweeps", "sampler.n_intervals",
                       "sampler.burn_in_fraction", "sampler.seed", "levy.alpha", "levy.beta",
                       "levy.n_terms", "gen.seed", "gen.grid"}
