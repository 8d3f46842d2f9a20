"""The benchmark's workloads: inputs from a seed, one fit, one predict, output checks.

Every workload drives ``ngpr`` through attributes looked up at call time
(``ngpr.run_mh_gibbs``, ``cli.main``), so the tracer's wrappers apply when
installed.  ``prepare`` builds the inputs from the workload seed only;
``fit`` and ``predict`` are the timed operations; ``check`` returns the
list of output problems (empty when the fit is correct); ``fingerprint``
digests everything a fit produced so a traced and an untraced fit can be
compared bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ngpr
from ngpr import cli, serialize

from tracing import trace_column

TS_ALPHA = 0.8
TS_BETA = 5.0
NOISE_STD = 0.1
LENGTH_SCALE = 0.1
PREDICT_REL_TOL = 1e-9


def ts_spec(n_terms: int) -> ngpr.LevyMeasureSpec:
    """The paper's tempered-stable subordinator, scaled to unit mean on a unit domain."""
    C = ngpr.normalize_scale(TS_ALPHA, TS_BETA, ngpr.TEMPERED_STABLE)
    return ngpr.LevyMeasureSpec(ngpr.TEMPERED_STABLE, C=C, alpha=TS_ALPHA, beta=TS_BETA,
                                n_terms=n_terms)


def _flag_problems(accepted, proposals: int, label: str) -> list[str]:
    flags = list(accepted)
    n_acc = sum(1 for a in flags if a == 1)
    n_rej = sum(1 for a in flags if a == 0)
    if n_acc + n_rej != proposals:
        return [f"{label}: {n_acc} accepted + {n_rej} rejected != {proposals} proposals"]
    return []


def _variance_problems(var: np.ndarray, label: str) -> list[str]:
    if not np.all(np.isfinite(var)):
        return [f"{label}: non-finite variances"]
    if var.min(initial=0.0) < 0:
        return [f"{label}: negative variance {var.min():.3e}"]
    return []


@dataclass
class InProcessInputs:
    data: ngpr.RegressionData
    X_test: np.ndarray
    kspec: ngpr.KernelSpec
    lspec: ngpr.LevyMeasureSpec
    domains: tuple[tuple[float, float], ...]
    seed: int
    held_out: np.ndarray  # indices into X_test of generated points left out of the fit
    held_out_y: np.ndarray


@dataclass(frozen=True)
class InProcessWorkload:
    """One chain of ``run_mh_gibbs`` on data drawn from the warped-GP prior.

    The sampler predicts at ``predict_grid`` evenly spaced points over the
    domain, or at every generated point (observed and held out) when it is
    0; ``predict`` is the mixture's predictive moments with the noise added.
    With ``min_coverage`` set, the share of held-out observations inside
    the 3-sigma predictive band must reach it (criterion 7).
    """

    name: str
    kernel: str
    domain: tuple[float, float]
    n_points: int
    n_observed: int
    n_intervals: int
    n_sweeps: int
    n_terms: int = 1000
    predict_grid: int = 0
    min_coverage: float = 0.0

    @property
    def proposals(self) -> int:
        return self.n_sweeps * self.n_intervals

    def prepare(self, seed: int, workdir: Path) -> InProcessInputs:
        kspec = ngpr.KernelSpec(self.kernel, LENGTH_SCALE, 1.0)
        lspec = ts_spec(self.n_terms)
        gspec = ngpr.GenSpec(domains=(self.domain,), n_points=self.n_points,
                             n_observed=self.n_observed, kernel=kspec, levy=lspec,
                             noise_std=NOISE_STD, seed=seed)
        ds = ngpr.generate(gspec, np.random.default_rng(gspec.seed))
        data = ngpr.RegressionData(ds.X[ds.observed], ds.y[ds.observed], NOISE_STD ** 2)
        if self.predict_grid:
            X_test, held = np.linspace(*self.domain, self.predict_grid), np.empty(0, int)
        else:
            X_test, held = ds.X, np.flatnonzero(~ds.observed)
        return InProcessInputs(data, X_test, kspec, lspec, gspec.domains, seed, held, ds.y[held])

    def fit(self, inputs: InProcessInputs, index: int):
        cfg = ngpr.SamplerConfig(n_sweeps=self.n_sweeps, n_intervals=self.n_intervals,
                                 seed=index)
        rng = np.random.default_rng([inputs.seed, index])
        return ngpr.run_mh_gibbs(inputs.data, inputs.X_test, inputs.kspec, inputs.lspec, cfg,
                                 rng, domains=inputs.domains)

    def predict(self, inputs: InProcessInputs, mix):
        return ngpr.predictive_moments(mix, inputs.data.noise_variance)

    def check(self, inputs: InProcessInputs, mix, pred) -> list[str]:
        problems = []
        if not np.all(np.isfinite(mix.aggregate_mean)):
            problems.append("posterior mean: non-finite entries")
        problems += _variance_problems(np.diag(mix.aggregate_cov), "posterior")
        pred_mean, pred_cov = pred
        if not np.all(np.isfinite(pred_mean)):
            problems.append("predictive mean: non-finite entries")
        problems += _variance_problems(np.diag(pred_cov), "predictive")
        if self.min_coverage and inputs.held_out.size:
            sd = np.sqrt(np.diag(pred_cov)[inputs.held_out])
            inside = np.abs(inputs.held_out_y - pred_mean[inputs.held_out]) <= 3 * sd
            if inside.mean() < self.min_coverage:
                problems.append(f"held-out 3-sigma coverage {inside.mean():.3f} "
                                f"< {self.min_coverage}")
        problems += _flag_problems(trace_column(mix.trace, "accepted"), self.proposals,
                                   "chain trace")
        return problems

    def fingerprint(self, inputs: InProcessInputs, mix, pred) -> str:
        h = hashlib.sha256()
        for arr in (mix.aggregate_mean, mix.aggregate_cov, pred[0], pred[1]):
            h.update(np.ascontiguousarray(arr).tobytes())
        for name in ("sweep", "log_cond_lik", "accepted"):
            h.update(np.asarray(trace_column(mix.trace, name), dtype=float).tobytes())
        return h.hexdigest()

    def discard(self, fit) -> None:
        pass


@dataclass
class CliInputs:
    root: Path
    config: Path
    dataset: Path
    true_path: Path
    seed: int


@dataclass
class CliResult:
    """Exit code of one ``cli.main`` call and the bundle or file it wrote."""

    rc: int
    out: Path


@dataclass(frozen=True)
class CliPipelineWorkload:
    """``ngpr gen``, ``fit --true-path`` and ``predict`` at the dataset inputs via ``cli.main``.

    The sizes are those of ``demos/04_cli_pipeline.sh`` with two chains,
    except that the chain runs 10 sweeps instead of 20 so that a 40 s run
    holds about fifteen fits; the paths CSVs still dominate the fit.
    """

    name: str = "cli_pipeline"
    n_points: int = 60
    n_observed: int = 48
    n_terms: int = 400
    n_sweeps: int = 10
    n_intervals: int = 40
    n_chains: int = 2

    @property
    def proposals(self) -> int:
        return self.n_sweeps * self.n_intervals * self.n_chains

    def config_text(self, seed: int) -> str:
        return (f"gen.domain = 0,0.5\ngen.n_points = {self.n_points}\n"
                f"gen.n_observed = {self.n_observed}\ngen.noise_std = {NOISE_STD}\n"
                f"gen.seed = {seed}\nkernel.family = se\nkernel.length_scale = {LENGTH_SCALE}\n"
                f"levy.family = tempered_stable\nlevy.alpha = {TS_ALPHA}\n"
                f"levy.beta = {TS_BETA}\nlevy.n_terms = {self.n_terms}\n"
                f"sampler.n_sweeps = {self.n_sweeps}\nsampler.n_intervals = {self.n_intervals}\n"
                f"sampler.n_chains = {self.n_chains}\n")

    @staticmethod
    def _main(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def prepare(self, seed: int, workdir: Path) -> CliInputs:
        root = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        config = root / "config.txt"
        config.write_text(self.config_text(seed))
        data_dir = root / "data"
        data_dir.mkdir()
        rc = self._main(["gen", "-c", str(config), "--out", str(data_dir)])
        if rc != 0:
            raise RuntimeError(f"ngpr gen exited with {rc}")
        return CliInputs(root, config, data_dir / "dataset.csv", data_dir / "true_path.csv", seed)

    def fit(self, inputs: CliInputs, index: int) -> CliResult:
        out = Path(tempfile.mkdtemp(prefix="fit-", dir=inputs.root))
        rc = self._main(["fit", "-c", str(inputs.config), "--data", str(inputs.dataset),
                         "--true-path", str(inputs.true_path), "--out", str(out),
                         "--set", f"sampler.seed={inputs.seed * 1000 + index}"])
        return CliResult(rc, out)

    def predict(self, inputs: CliInputs, fit: CliResult) -> CliResult:
        out = fit.out / "predictions.csv"
        rc = self._main(["predict", "--bundle", str(fit.out), "--inputs", str(inputs.dataset),
                         "--out", str(out)])
        return CliResult(rc, out)

    def _trace_files(self, fit: CliResult) -> list[Path]:
        if self.n_chains == 1:
            return [fit.out / "trace.csv"]
        return [fit.out / f"trace_chain{i}.csv" for i in range(self.n_chains)]

    def check(self, inputs: CliInputs, fit: CliResult, pred: CliResult) -> list[str]:
        if fit.rc != 0:
            return [f"ngpr fit exited with {fit.rc}"]
        if pred.rc != 0:
            return [f"ngpr predict exited with {pred.rc}"]
        with open(fit.out / "posterior.csv", newline="") as fp:
            _, mean, post_std, pred_std = serialize.read_posterior_csv(fp)
        with open(pred.out, newline="") as fp:
            _, pmean, _, _ = serialize.read_posterior_csv(fp)
        problems = []
        if not np.all(np.isfinite(mean)):
            problems.append("posterior.csv: non-finite means")
        problems += _variance_problems(post_std ** 2, "posterior.csv posterior_std")
        problems += _variance_problems(pred_std ** 2, "posterior.csv predictive_std")
        flags = []
        for path in self._trace_files(fit):
            with open(path, newline="") as fp:
                flags += [int(row["accepted"]) for row in csv.DictReader(fp)]
        problems += _flag_problems(flags, self.proposals, "trace CSVs")
        scale = PREDICT_REL_TOL * max(float(np.abs(mean).max(initial=0.0)), 1e-300)
        if pmean.shape != mean.shape or not np.all(np.abs(pmean - mean) <= scale):
            problems.append("predict mean at the dataset inputs differs from posterior.csv")
        return problems

    def fingerprint(self, inputs: CliInputs, fit: CliResult, pred: CliResult) -> str:
        h = hashlib.sha256()
        for path in sorted(fit.out.glob("*.csv")) + [fit.out / "summary.json"]:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def discard(self, fit: CliResult) -> None:
        for path in fit.out.iterdir():
            path.unlink()
        fit.out.rmdir()


# se_paper: the criterion-6 shape (SE, n=100 on (0, 0.5), 100 intervals, one
# chain).  Re-sorting the ~90k-jump path on every proposal dominates; the
# GP algebra is small.  It predicts on a 1,000-point grid: at the 100 data
# points one predict takes about 0.1 ms, too short to time steadily here.
# matern_large: Matern-5/2 with 1,000 observed and 1,000 held-out points.  The
# dense O(n^3) likelihood per proposal and the 2,000 x 2,000 covariance per
# stored sample dominate; the path rebuild is a minor share.
WORKLOADS = {
    w.name: w for w in (
        InProcessWorkload("se_paper", "se", (0.0, 0.5), n_points=100, n_observed=100,
                          n_intervals=100, n_sweeps=3, predict_grid=1000),
        InProcessWorkload("matern_large", "matern52", (0.0, 1.0), n_points=2000,
                          n_observed=1000, n_intervals=20, n_sweeps=3, min_coverage=0.9),
        CliPipelineWorkload(),
    )
}


def loglik_sweep(seed: int, sizes=(100, 1000, 2000), families=("se", "matern52")
                 ) -> dict[str, float]:
    """Median milliseconds of one ``log_conditional_likelihood`` call per family and n."""
    rng = np.random.default_rng([seed, 2])
    path = ngpr.simulate_path(ts_spec(1000), [(0.0, 1.0)], rng)
    out = {}
    for n in sizes:
        X = np.sort(rng.uniform(0.0, 1.0, n))
        data = ngpr.RegressionData(X, rng.standard_normal(n), NOISE_STD ** 2)
        reps = max(5, 3000 // n)
        for family in families:
            kspec = ngpr.KernelSpec(family, LENGTH_SCALE, 1.0)
            ngpr.log_conditional_likelihood(data, path, kspec)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                ll = ngpr.log_conditional_likelihood(data, path, kspec)
                times.append(time.perf_counter() - t0)
            if not np.isfinite(ll):
                raise RuntimeError(f"non-finite likelihood in the sweep ({family}, n={n})")
            out[f"gp.loglik_ms.{family}.n{n}"] = 1e3 * float(np.median(times))
    return out
