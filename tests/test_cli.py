"""Command-line pipeline: gen, fit, predict, simulate, normalize."""

import json
import time
from collections import Counter

import numpy as np
import pytest

from ngpr import cli, serialize
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
    out = _gen(workdir, "data_id", extra=("--levy", "identity"))
    assert out.joinpath("true_path.csv").read_text() == "dim,position,magnitude\n"
    meta = serialize.parse_kv_text((out / "dataset.meta").read_text())
    assert meta["levy.family"] == "identity"


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
    fit_dir = _fit(workdir, data_dir, "fitmc", extra=("--chains", "2"))
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
    with open(out_csv) as fp:
        Xp, mean_p, post_p, pred_p = serialize.read_posterior_csv(fp)
    with open(fit_dir / "posterior.csv") as fp:
        Xf, mean_f, post_f, pred_f = serialize.read_posterior_csv(fp)
    np.testing.assert_array_equal(Xp, Xf)
    np.testing.assert_allclose(mean_p, mean_f, atol=1e-10)
    np.testing.assert_allclose(post_p, post_f, atol=1e-10)
    np.testing.assert_allclose(pred_p, pred_f, atol=1e-10)


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
    with open(out_csv) as fp:
        predicted = serialize.read_posterior_csv(fp)
    with open(fit_dir / "posterior.csv") as fp:
        fitted = serialize.read_posterior_csv(fp)
    np.testing.assert_array_equal(predicted[0], fitted[0])
    for p, f in zip(predicted[1:], fitted[1:]):
        np.testing.assert_allclose(p, f, rtol=1e-12, atol=0)


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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_jumps_and_values(workdir):
    out_csv = workdir / "jumps.csv"
    rc = cli.main(["simulate", "-c", str(workdir / "config.txt"), "--seed", "3",
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


def test_simulate_is_seed_deterministic(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        rc = cli.main(["simulate", "-c", str(workdir / "config.txt"), "--seed", "5",
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


def test_env_var_provides_default_seed(workdir, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "321")
    out = workdir / "data_env"
    out.mkdir()
    # strip the seed from the config so the env default applies
    text = "\n".join(line for line in FAST_CONFIG.splitlines()
                     if not line.startswith(("gen.seed", "sampler.seed")))
    (workdir / "noseed.txt").write_text(text)
    rc = cli.main(["gen", "-c", str(workdir / "noseed.txt"), "--out", str(out)])
    assert rc == 0
    meta = serialize.parse_kv_text((out / "dataset.meta").read_text())
    assert meta["gen.seed"] == "321"


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
