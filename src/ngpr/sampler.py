"""Metropolis-Hastings-within-Gibbs inference over subordinator paths.

The chain has one schedule: it starts from ``init_identity`` and each sweep
visits the dimensions in index order and, within a dimension, the intervals
of an equal-width partition left to right.  There the jumps inside the
interval are deleted and redrawn from the subordinator prior restricted to
the interval, and the move is accepted with probability
``min(1, exp(loglik_new - loglik_old))``.  Because proposals come from the
prior conditional, the likelihood ratio alone is the correct MH weight.
The likelihood is an object the sweep talks to: it is told the path at the
start of each sweep, scores each candidate for its (dimension, interval)
and is told whether the candidate was accepted.  With a Matern-5/2 kernel
on 1-D data it is ``statespace.StateSpaceLikelihood``, which costs each
proposal only the points in and next to its interval; every other case
(the squared-exponential kernel has no finite state form, and
multi-dimensional inputs have no order) evaluates the dense
``log_conditional_likelihood`` of the whole candidate.
Post burn-in, each full sweep draws one conditional GP posterior at the
test points, which the likelihood object also gives: the state-space one
by Rauch-Tung-Striebel smoothing, the dense one through ``gp.posterior``.
These form an equally weighted Gaussian mixture whose moments are the
regression output.  Each posterior is folded into the running mixture
moments as it is drawn; only its path is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .gp import ConditionalPosterior, RegressionData, log_conditional_likelihood, posterior
from .kernels import MATERN52, KernelSpec, as_point_matrix
from .levy import JumpSet, LevyMeasureSpec, SubordinatorPath, simulate_jumps


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

    ``scatter`` is ``count`` times the mixture covariance: the summed
    component covariances plus the scatter of the component means about
    ``mean``.  One component is ``MixtureSummary(1, post.mean, post.cov)``.
    """

    count: int
    mean: np.ndarray
    scatter: np.ndarray


def combine(a: MixtureSummary | None, b: MixtureSummary) -> MixtureSummary:
    """Summary of the union of two mixtures; ``a=None`` is the empty mixture.

    Pairwise update of Chan, Golub & LeVeque (1979): adding one component and
    pooling two chains are the same step.  Neither input is modified.
    """
    if a is None:
        return b
    n = a.count + b.count
    delta = b.mean - a.mean
    scatter = np.multiply.outer(delta, delta * (a.count * b.count / n))
    scatter += a.scatter
    scatter += b.scatter
    return MixtureSummary(n, a.mean + delta * (b.count / n), scatter)


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

    @property
    def final_path(self) -> SubordinatorPath:
        """The chain's last state: ``burn_in_fraction < 1`` always keeps the last sweep."""
        return self.paths[-1]

    @property
    def aggregate_mean(self) -> np.ndarray:
        return self.moments.mean

    @cached_property
    def aggregate_cov(self) -> np.ndarray:
        return self.moments.scatter / self.moments.count

    @property
    def avg_log_cond_lik(self) -> float:
        return float(np.mean(self.log_cond_liks))

    @property
    def std_log_cond_lik(self) -> float:
        n = len(self.log_cond_liks)
        return float(np.std(self.log_cond_liks, ddof=1)) if n > 1 else 0.0


def partition_edges(domain: tuple[float, float], n_intervals: int) -> np.ndarray:
    """Equal-width interval edges covering the domain."""
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"degenerate domain ({lo}, {hi})")
    return np.linspace(lo, hi, n_intervals + 1)


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
    lie in ``[lo, hi)`` and are spliced unsorted: the new set's stable sort
    places them, so one ``JumpSet`` is built per proposal.  Every other
    dimension keeps its ``JumpSet`` object.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"degenerate interval ({lo}, {hi})")
    js = current.jump_sets[dim]
    start = np.searchsorted(js.positions, lo, side="left")
    stop = np.searchsorted(js.positions, hi, side="right" if hi >= js.domain[1] else "left")
    magnitudes = simulate_jumps(lspec, hi - lo, rng, js.domain[1] - js.domain[0])
    positions = rng.uniform(lo, hi, size=magnitudes.size)
    spliced = JumpSet(np.concatenate((js.positions[:start], positions, js.positions[stop:])),
                      np.concatenate((js.magnitudes[:start], magnitudes, js.magnitudes[stop:])),
                      js.domain)
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
    summary = reduce(combine, (MixtureSummary(1, s.mean, s.cov) for s in samples))
    return summary.mean.copy(), summary.scatter / summary.count


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

    def total(self, path: SubordinatorPath) -> float:
        return self.log_lik_fn(self.data, path, self.kspec)

    def start_sweep(self, path: SubordinatorPath) -> None:
        pass

    def score(self, candidate: SubordinatorPath, dim: int, interval) -> float:
        return self.total(candidate)

    def decide(self, accepted: bool) -> None:
        pass

    def posterior(self, path: SubordinatorPath, X_test: np.ndarray) -> ConditionalPosterior:
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

    summary: MixtureSummary | None = None
    paths: list[SubordinatorPath] = []
    sweeps: list[int] = []
    lls: list[float] = []
    trace: list[TraceStep] = []

    lik = chain_likelihood(data, kspec, log_lik_fn)
    for sweep, path, steps in _gibbs_sweeps(lik, lspec, cfg, rng, domains,
                                            init_identity(domains, cfg.n_intervals)):
        trace.extend(steps)
        if sweep < burn_in_sweeps:
            continue
        try:
            post = lik.posterior(path, X_test)
        except NumericalError as exc:
            raise NumericalError(f"posterior at sweep {sweep}: {exc}") from exc
        summary = combine(summary, MixtureSummary(1, post.mean, post.cov))
        paths.append(path)
        sweeps.append(sweep)
        lls.append(post.log_cond_lik)

    kept = [step.accepted for step in trace if step.sweep >= burn_in_sweeps]
    return MixturePosterior(
        moments=summary,
        paths=tuple(paths),
        sweeps=tuple(sweeps),
        log_cond_liks=tuple(lls),
        acceptance_rate=sum(kept) / len(kept) if kept else 1.0,
        trace=tuple(trace),
        likelihood=lik.name,
    )


def pool_chains(mixes: Sequence[MixturePosterior]) -> MixturePosterior:
    """Pool post burn-in samples of independent chains into one mixture."""
    if len(mixes) < 1:
        raise ValueError("need at least one chain")
    return MixturePosterior(
        moments=reduce(combine, (mix.moments for mix in mixes)),
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
