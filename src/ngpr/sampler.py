"""Metropolis-Hastings-within-Gibbs inference over subordinator paths.

One chain schedule: from ``init_identity``, each sweep visits the
dimensions in index order and, within one, the intervals of an equal-width
partition left to right, redrawing the jumps inside the interval from the
subordinator prior restricted to it.  Because proposals come from the prior
conditional, the move is accepted with the likelihood ratio alone,
``min(1, exp(loglik_new - loglik_old))``.  The likelihood object is told the
path at each sweep's start, scores each candidate for its (dimension,
interval) and is told whether it was accepted.  ``chain_likelihood`` picks
it, for the chain and the plain-GP baselines (``total(None)``): for a
Matern-5/2 kernel on 1-D data ``statespace.StateSpaceLikelihood``, costing a
proposal only the points in and next to its interval, and otherwise (the SE
kernel has no finite state form, and multi-dimensional inputs no order) the
dense ``log_conditional_likelihood`` of the whole candidate.
``fold_posteriors`` folds the conditional GP posterior at the test points
(state space: Rauch-Tung-Striebel smoothing; dense: ``gp.posterior``) of
each post burn-in sweep's path into the mean and covariance of an equally
weighted Gaussian mixture, the regression output; ``pool_summaries`` pools
chains.  A mixture holds one m x m array, its covariance: each posterior is
folded into it in place and dropped before the next is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg.blas import daxpy, dger

from .errors import NumericalError
from .gp import ConditionalPosterior, RegressionData, log_conditional_likelihood, posterior
from .kernels import MATERN52, KernelSpec, as_point_matrix
from .levy import JumpSet, LevyMeasureSpec, SubordinatorPath, finite_domain, simulate_jumps


@dataclass(frozen=True)
class SamplerConfig:
    """Sweeps, intervals per dimension, burn-in fraction and seed of the one chain schedule."""

    n_sweeps: int = 50
    n_intervals: int = 100
    burn_in_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_sweeps < 1:
            raise ValueError(f"n_sweeps must be at least 1, got {self.n_sweeps}")
        if self.n_intervals < 1:
            raise ValueError(f"n_intervals must be at least 1, got {self.n_intervals}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError(f"burn_in_fraction must lie in [0, 1), got {self.burn_in_fraction}")


@dataclass(frozen=True)
class TraceStep:
    """One proposal: sweep index, chain log-likelihood after the step, accepted flag."""

    sweep: int
    log_cond_lik: float
    accepted: bool


@dataclass(frozen=True)
class MixtureSummary:
    """An equally weighted Gaussian mixture of ``count`` components, by its moments.

    ``cov`` is the mean of the component covariances plus the covariance of
    the component means.  One component is ``MixtureSummary(1, post.mean,
    post.cov)``.  ``combine`` folds into its left operand's ``cov`` in place,
    so a summary passed on the left must own that array (C-ordered).
    """

    count: int
    mean: np.ndarray
    cov: np.ndarray


def combine(a: MixtureSummary | None, b: MixtureSummary) -> MixtureSummary:
    """Summary of the union of two mixtures, folded into ``a``; ``a=None`` is the empty mixture.

    Pairwise update of Chan, Golub & LeVeque (1979) on the covariance itself,
    ``cov = (na/n) a.cov + (nb/n) b.cov + (na nb/n^2) d d'`` with ``d = b.mean - a.mean``,
    done in ``a.cov`` by a scaling, a BLAS daxpy and a rank-1 dger: no m x m temporary.
    Adding one component and pooling two chains are the same step.  The result shares
    ``a.cov`` and ``combine(None, b)`` is ``b``, so callers pass an ``a`` they own; ``b`` is kept.
    """
    if a is None:
        return b
    n = a.count + b.count
    delta = b.mean - a.mean
    cov = a.cov
    if delta.size:  # daxpy on the flat view, dger on the column-major cov.T
        cov *= a.count / n
        cov = daxpy(b.cov.reshape(-1), cov.reshape(-1), a=b.count / n).reshape(cov.shape)
        cov = dger(a.count * b.count / n ** 2, delta, delta, a=cov.T, overwrite_a=True).T
    return MixtureSummary(n, a.mean + delta * (b.count / n), cov)


@dataclass(frozen=True)
class MixturePosterior:
    """Mixture of the conditional posteriors drawn post burn-in, one per sweep.

    Only the mixture's moments are kept: component ``k`` is the conditional
    posterior ``posterior(data, X_test, paths[k], kspec)``, drawn at sweep
    ``sweeps[k]`` with log conditional likelihood ``log_cond_liks[k]``.
    ``acceptance_rate`` counts proposals from post burn-in sweeps only.
    ``likelihood`` names the chain's likelihood object: ``"state_space"`` or
    ``"dense"``.
    """

    moments: MixtureSummary
    paths: tuple[SubordinatorPath, ...]
    sweeps: tuple[int, ...]
    log_cond_liks: tuple[float, ...]
    acceptance_rate: float
    trace: tuple[TraceStep, ...]
    likelihood: str

    def __post_init__(self):
        self.moments.cov.flags.writeable = False  # aggregate_cov: pooling reads it

    @property
    def aggregate_mean(self) -> np.ndarray:
        return self.moments.mean

    @property
    def aggregate_cov(self) -> np.ndarray:
        return self.moments.cov

    @property
    def avg_log_cond_lik(self) -> float:
        return float(np.mean(self.log_cond_liks))

    @property
    def std_log_cond_lik(self) -> float:
        n = len(self.log_cond_liks)
        return float(np.std(self.log_cond_liks, ddof=1)) if n > 1 else 0.0


def partition_edges(domain: tuple[float, float], n_intervals: int) -> np.ndarray:
    """Equal-width interval edges covering the domain."""
    return np.linspace(*finite_domain(*domain), n_intervals + 1)


def init_identity(domains: Sequence[tuple[float, float]], n_jumps: int) -> SubordinatorPath:
    """Deterministic step approximation of the identity map.

    Per dimension: ``n_jumps`` jumps of magnitude ``|domain| / n_jumps`` at
    positions ``lo + i on |domain| / n_jumps`` for ``i = 1..n_jumps``; the
    last jump sits on the upper bound so that W(upper) equals the domain
    length exactly and ``|W(x) - (x - lo)| <= |domain| / n_jumps``.
    """
    if n_jumps < 1:
        raise ValueError(f"n_jumps must be at least 1, got {n_jumps}")
    jump_sets = []
    for lo, hi in domains:
        step = (hi - lo) / n_jumps
        positions = lo + step * np.arange(1, n_jumps + 1)
        magnitudes = np.full(n_jumps, step)
        jump_sets.append(JumpSet(positions, magnitudes, (lo, hi)))
    return SubordinatorPath(jump_sets)


def propose(current: SubordinatorPath, interval: tuple[float, float], dim: int,
            lspec: LevyMeasureSpec, rng: np.random.Generator) -> SubordinatorPath:
    """Redraw the jumps of one dimension inside one interval from the prior.

    Jumps with position in ``[lo, hi)`` are removed (``[lo, hi]`` when the
    interval ends at the domain boundary, so every jump belongs to exactly
    one interval of a partition) and replaced by fresh jumps with uniform
    positions, simulated on measure ``hi - lo`` at the truncation threshold
    of the whole domain.  That is the prior ``simulate_path`` draws from,
    restricted to the interval, whatever the partition.  The jump set is
    sorted, so the removed jumps are one slice, found by binary search; the
    result joins the jumps left of it, the fresh jumps and the jumps right
    of it.  The fresh positions, drawn as ``assign_positions`` draws them,
    lie in ``[lo, hi)``; ``JumpSet.splice`` sorts and checks only them, so
    one ``JumpSet`` is built per proposal.  Every other dimension keeps its
    ``JumpSet`` object.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    js = current.jump_sets[dim]
    start = np.searchsorted(js.positions, lo, side="left")
    stop = np.searchsorted(js.positions, hi, side="right" if hi >= js.domain[1] else "left")
    magnitudes = simulate_jumps(lspec, hi - lo, rng, js.domain[1] - js.domain[0])
    positions = rng.uniform(lo, hi, size=magnitudes.size)
    spliced = js.splice(start, stop, positions, magnitudes)
    return SubordinatorPath(current.jump_sets[:dim] + (spliced,) + current.jump_sets[dim + 1:])


def acceptance_probability(log_lik_new: float, log_lik_old: float) -> float:
    """min(1, exp(log_lik_new - log_lik_old)), evaluated without overflow."""
    if math.isnan(log_lik_new) or math.isnan(log_lik_old):
        raise NumericalError("NaN log-likelihood in acceptance ratio")
    diff = log_lik_new - log_lik_old
    if diff >= 0:
        return 1.0
    return math.exp(diff)


def mixture_moments(samples: Sequence[ConditionalPosterior]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the equally weighted Gaussian mixture.

    mean = (1/N) sum_k m_k;  cov = (1/N) sum_k [C_k + (m_k - mean)(m_k - mean)^T].
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    m = samples[0].mean.shape[0]
    for s in samples:
        if s.mean.shape != (m,) or s.cov.shape != (m, m):
            raise ValueError("inconsistent sample dimensions")
    summary = pool_summaries([MixtureSummary(1, s.mean, s.cov) for s in samples])
    return summary.mean.copy(), summary.cov


def predictive_moments(mix: MixturePosterior,
                       noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture moments with the observation noise added to each component."""
    if noise_variance < 0:
        raise ValueError(f"noise_variance must be non-negative, got {noise_variance}")
    cov = mix.aggregate_cov.copy()
    cov[np.diag_indices_from(cov)] += noise_variance
    return mix.aggregate_mean, cov


LogLikFn = Callable[[RegressionData, SubordinatorPath, KernelSpec], float]


class DenseLikelihood:
    """``log_lik_fn(data, path, kspec)`` of every whole candidate path; keeps no state.

    Serves any kernel and dimension, and the ``log_lik_fn`` hook of
    ``run_mh_gibbs``.  The sweep calls it as it calls
    ``StateSpaceLikelihood``: ``start_sweep`` and ``decide`` do nothing,
    and ``posterior`` is this module's ``posterior``, looked up per call.
    """

    name = "dense"

    def __init__(self, data: RegressionData, kspec: KernelSpec, log_lik_fn: LogLikFn):
        self.data, self.kspec, self.log_lik_fn = data, kspec, log_lik_fn

    def total(self, path: SubordinatorPath | None) -> float:
        return self.log_lik_fn(self.data, path, self.kspec)

    def start_sweep(self, path: SubordinatorPath) -> None:
        pass

    def score(self, candidate: SubordinatorPath, dim: int, interval) -> float:
        return self.total(candidate)

    def decide(self, accepted: bool) -> None:
        pass

    def posterior(self, path: SubordinatorPath | None, X_test: np.ndarray) -> ConditionalPosterior:
        return posterior(self.data, X_test, path, self.kspec)


def chain_likelihood(data: RegressionData, kspec: KernelSpec,
                     log_lik_fn: LogLikFn | None = None):
    """The chain's likelihood object, chosen from the data and kernel alone.

    A ``log_lik_fn`` hook wins; otherwise a Matern-5/2 kernel on 1-D data
    takes the state-space filter and everything else the dense Cholesky.
    """
    if log_lik_fn is None and kspec.family == MATERN52 and data.ndim == 1:
        from .statespace import StateSpaceLikelihood  # loaded on first use: SE fits never need it

        return StateSpaceLikelihood(data, kspec)
    return DenseLikelihood(data, kspec, log_lik_fn or log_conditional_likelihood)


def grid_search_length_scale(data: RegressionData, kspec: KernelSpec) -> tuple[float, float]:
    """Pick the length scale maximizing the plain-GP marginal likelihood, ``total(None)``.

    The grid is 60 log-spaced values in [1e-3, 2]; suited to inputs on
    roughly unit-scale domains.
    """
    best_l, best_lml = None, -np.inf
    for l in np.geomspace(1e-3, 2.0, 60):
        lml = chain_likelihood(data, replace(kspec, length_scale=float(l))).total(None)
        if lml > best_lml:
            best_l, best_lml = float(l), lml
    return best_l, best_lml


def fold_posteriors(lik, stored: Iterable[tuple[int, SubordinatorPath]], X_test: np.ndarray
                    ) -> tuple[MixtureSummary | None, list[float]]:
    """Fold ``lik.posterior(path, X_test)`` of each ``(sweep, path)``: summary, log-likelihoods."""
    summary, lls = None, []
    for sweep, path in stored:
        try:
            post = lik.posterior(path, X_test)
        except NumericalError as exc:
            raise NumericalError(f"posterior at sweep {sweep}: {exc}") from exc
        summary = combine(summary, MixtureSummary(1, post.mean, post.cov))
        lls.append(post.log_cond_lik)
        del post  # the next posterior's m x m arrays are built without this one's
    return summary, lls


def _gibbs_sweeps(lik, lspec: LevyMeasureSpec, cfg: SamplerConfig, rng: np.random.Generator,
                  domains: tuple, path: SubordinatorPath):
    """Run ``cfg.n_sweeps`` Gibbs sweeps from ``path``; yield (sweep, path, steps) after each.

    ``lik`` is a ``DenseLikelihood`` or ``StateSpaceLikelihood``: its
    ``total`` scores the starting path, ``start_sweep`` is told the path at
    the start of every sweep, ``score`` rates each candidate for its
    (dimension, interval), and ``decide`` is told whether it was accepted.
    """
    try:
        current_ll = lik.total(path)
    except NumericalError as exc:
        raise NumericalError(f"chain initialization: {exc}") from exc
    edges = [partition_edges(dom, cfg.n_intervals) for dom in domains]
    for sweep in range(cfg.n_sweeps):
        steps = []
        try:
            lik.start_sweep(path)
        except NumericalError as exc:
            raise NumericalError(f"sweep {sweep}, start: {exc}") from exc
        for dim in range(len(domains)):
            for j in range(cfg.n_intervals):
                tau = (edges[dim][j], edges[dim][j + 1])
                try:
                    candidate = propose(path, tau, dim, lspec, rng)
                    new_ll = lik.score(candidate, dim, tau)
                    prob = acceptance_probability(new_ll, current_ll)
                    took = rng.random() < prob
                    lik.decide(took)
                except NumericalError as exc:
                    raise NumericalError(
                        f"sweep {sweep}, dim {dim}, interval [{tau[0]:g}, {tau[1]:g}): {exc}"
                    ) from exc
                if took:
                    path, current_ll = candidate, new_ll
                steps.append(TraceStep(sweep, current_ll, bool(took)))
        yield sweep, path, steps


def run_mh_gibbs(data: RegressionData, X_test: np.ndarray, kspec: KernelSpec,
                 lspec: LevyMeasureSpec, cfg: SamplerConfig, rng: np.random.Generator,
                 domains: Sequence[tuple[float, float]] | None = None,
                 log_lik_fn: LogLikFn | None = None) -> MixturePosterior:
    """Run one MH-within-Gibbs chain and aggregate per-sweep posteriors.

    The chain starts from ``init_identity(domains, cfg.n_intervals)`` and sweeps dimensions
    in order and intervals left to right; every sweep after burn-in adds its conditional
    posterior at ``X_test`` to the mixture.  ``domains`` defaults to the per-dimension hull
    of the training and test inputs.  ``log_lik_fn`` replaces the GP log conditional
    likelihood (used by prior-recovery checks); without it, ``chain_likelihood`` picks the
    state-space filter or the dense Cholesky.
    """
    X_test = as_point_matrix(X_test)
    if X_test.shape[1] != data.ndim:
        raise ValueError(f"X_test has {X_test.shape[1]} columns, data has {data.ndim}")
    if domains is None:
        stacked = np.vstack([data.X, X_test])
        domains = zip(stacked.min(axis=0), stacked.max(axis=0))
    domains = tuple((float(lo), float(hi)) for lo, hi in domains)
    if len(domains) != data.ndim:
        raise ValueError(f"{len(domains)} domains for {data.ndim} dimensions")
    burn_in_sweeps = int(cfg.burn_in_fraction * cfg.n_sweeps)

    trace: list[TraceStep] = []
    stored: list[tuple[int, SubordinatorPath]] = []
    lik = chain_likelihood(data, kspec, log_lik_fn)
    for sweep, path, steps in _gibbs_sweeps(lik, lspec, cfg, rng, domains,
                                            init_identity(domains, cfg.n_intervals)):
        trace.extend(steps)
        if sweep >= burn_in_sweeps:
            stored.append((sweep, path))
    summary, lls = fold_posteriors(lik, stored, X_test)
    sweeps, paths = zip(*stored)  # burn_in_fraction < 1 always keeps the last sweep

    kept = [step.accepted for step in trace if step.sweep >= burn_in_sweeps]
    return MixturePosterior(
        moments=summary,
        paths=paths,
        sweeps=sweeps,
        log_cond_liks=tuple(lls),
        acceptance_rate=sum(kept) / len(kept) if kept else 1.0,
        trace=tuple(trace),
        likelihood=lik.name,
    )


def pool_summaries(summaries: Sequence[MixtureSummary]) -> MixtureSummary:
    """A copy of the first summary ``combine``d with the rest in order; none is modified.

    The one pooling fold, of ``pool_chains``, ``ngpr predict`` and ``mixture_moments``.
    """
    if len(summaries) < 1:
        raise ValueError("need at least one chain")
    first, *rest = summaries
    return reduce(combine, rest, replace(first, cov=first.cov.copy()))


def pool_chains(mixes: Sequence[MixturePosterior]) -> MixturePosterior:
    """Pool post burn-in samples of independent chains into one mixture."""
    return MixturePosterior(
        moments=pool_summaries([mix.moments for mix in mixes]),
        paths=tuple(p for mix in mixes for p in mix.paths),
        sweeps=tuple(s for mix in mixes for s in mix.sweeps),
        log_cond_liks=tuple(ll for mix in mixes for ll in mix.log_cond_liks),
        acceptance_rate=float(np.mean([m.acceptance_rate for m in mixes])),
        trace=tuple(step for mix in mixes for step in mix.trace),
        likelihood=mixes[0].likelihood,
    )


def run_chains(data: RegressionData, X_test: np.ndarray, kspec: KernelSpec,
               lspec: LevyMeasureSpec, cfg: SamplerConfig, n_chains: int = 1,
               domains: Sequence[tuple[float, float]] | None = None
               ) -> tuple[MixturePosterior, list[MixturePosterior]]:
    """Run independent chains with seeds derived from ``cfg.seed`` and pool them."""
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chains)
    mixes = [run_mh_gibbs(data, X_test, kspec, lspec, cfg, np.random.default_rng(s),
                          domains=domains) for s in seeds]
    return pool_chains(mixes), mixes
