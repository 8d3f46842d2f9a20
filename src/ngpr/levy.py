"""Shot-noise series simulation of Levy subordinators.

A subordinator is a non-negative, non-decreasing pure-jump Levy process.
On a bounded interval it is represented by a finite collection of
(position, magnitude) pairs: ordered jump magnitudes are produced by
passing the epochs of a Poisson process through the inverse tail mass of
the Levy density (or through a dominating process that is subsequently
thinned), and positions are drawn uniformly over the interval.  The series
is truncated at a fixed epoch horizon per domain, i.e. at one jump-size
threshold, so by the restriction property of the Poisson point process
(Rosinski 2001) the series simulated on a sub-interval is exactly the
whole-domain series restricted to that sub-interval.  The resulting step
function

    W(x) = sum_i M_i * 1{V_i <= x}

is evaluated with the closed-on-the-right convention.

Supported families: tempered stable (density ``C x^{-1-alpha} e^{-beta x}``),
gamma (``C x^{-1} e^{-beta x}``) and the raw stable process
(``C x^{-1-alpha}``, i.e. tempered stable without the tempering step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gamma as gamma_fn

TEMPERED_STABLE = "tempered_stable"
GAMMA = "gamma"
STABLE = "stable"

_FAMILIES = (TEMPERED_STABLE, GAMMA, STABLE)


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Parameters of a subordinator family plus the series truncation budget.

    ``C`` scales the expected number of jumps per unit measure, ``alpha``
    is the stable tail index (unused for gamma), ``beta`` the exponential
    tempering rate (ignored for stable), and ``n_terms`` the expected
    number of candidate terms per dimension over its whole domain, which
    fixes the truncation threshold (see ``simulate_jumps``).
    """

    family: str
    C: float
    alpha: float = 0.8
    beta: float = 5.0
    n_terms: int = 1000

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown subordinator family {self.family!r}")
        if not 0 < self.C < np.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.family in (TEMPERED_STABLE, STABLE) and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.family == GAMMA and not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite for gamma, got {self.beta}")
        if self.family == TEMPERED_STABLE and not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be at least 1, got {self.n_terms}")


def finite_domain(lo, hi) -> tuple[float, float]:
    """The bounds ``(lo, hi)`` as floats; ``ValueError`` unless both are finite and ``lo < hi``."""
    lo, hi = float(lo), float(hi)
    if not -np.inf < lo < hi < np.inf:  # NaN fails every comparison
        raise ValueError(f"domain ({lo}, {hi}) needs finite bounds with lo < hi")
    return lo, hi


def _sorted_jumps(positions, magnitudes, lo: float, hi: float):
    """Jumps stable-sorted by position; magnitudes positive and finite, positions in [lo, hi]."""
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    magnitudes = np.atleast_1d(np.asarray(magnitudes, dtype=float))
    if positions.shape != magnitudes.shape or positions.ndim != 1:
        raise ValueError("positions and magnitudes must be 1-d arrays of equal length")
    order = np.argsort(positions, kind="stable")
    positions, magnitudes = positions[order], magnitudes[order]
    if magnitudes.size:
        if not 0 < magnitudes.min() <= magnitudes.max() < np.inf:  # NaN is the min and fails
            raise ValueError("all jump magnitudes must be positive and finite")
        if not lo <= positions[0] <= positions[-1] <= hi:  # NaN sorts last and fails
            raise ValueError(f"jump positions must lie within [{lo}, {hi}]")
    return positions, magnitudes


@dataclass(frozen=True, eq=False)
class JumpSet:
    """Finite point set (positions, magnitudes) of a subordinator on an interval.

    Magnitudes are strictly positive and finite, and positions lie inside
    the closed domain, whose bounds are a ``finite_domain``.  Construction stable-sorts the jumps by position
    (ties keep their input order), so ``positions`` is non-decreasing with
    ``magnitudes`` aligned.  The read-only ``cumulative`` holds the prefix sums of the
    sorted magnitudes, starting at 0, so W(x) is ``cumulative[i]`` for
    ``i = searchsorted(positions, x, side="right")``.  Equality is identity;
    compare the arrays to compare two sets' jumps.
    """

    positions: np.ndarray
    magnitudes: np.ndarray
    domain: tuple[float, float]
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi = finite_domain(*self.domain)
        positions, magnitudes = _sorted_jumps(self.positions, self.magnitudes, lo, hi)
        self._freeze(positions, magnitudes, np.concatenate(([0.0], np.cumsum(magnitudes))),
                     (lo, hi))

    def _freeze(self, positions, magnitudes, cumulative, domain):
        for name, arr in (("positions", positions), ("magnitudes", magnitudes),
                          ("cumulative", cumulative)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "domain", domain)

    def splice(self, start: int, stop: int, positions, magnitudes) -> JumpSet:
        """This set with its jumps ``[start, stop)`` replaced by fresh ones.

        Equals ``JumpSet`` of the joined jumps bit for bit, but sorts and checks only
        the fresh jumps: they must lie between the kept neighbours (the domain bounds
        at the ends), ties included.  The prefix sums go on from ``cumulative[start]``.
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"bad slice [{start}, {stop}) of {len(self)} jumps")
        positions, magnitudes = _sorted_jumps(
            positions, magnitudes, self.positions[start - 1] if start else self.domain[0],
            self.positions[stop] if stop < len(self) else self.domain[1])
        magnitudes = np.concatenate((self.magnitudes[:start], magnitudes, self.magnitudes[stop:]))
        cumulative = np.concatenate((self.cumulative[:start + 1], magnitudes[start:]))
        np.cumsum(cumulative[start:], out=cumulative[start:])
        spliced = object.__new__(JumpSet)
        spliced._freeze(np.concatenate((self.positions[:start], positions, self.positions[stop:])),
                        magnitudes, cumulative, self.domain)
        return spliced

    def __len__(self):
        return self.positions.size


class SubordinatorPath:
    """Evaluatable multi-dimensional subordinator built from per-dimension jump sets.

    Each input dimension carries an independent jump set; evaluation of
    dimension ``k`` at ``x`` sums the magnitudes of jumps with position
    ``<= x``.  Every ``JumpSet`` is sorted with its prefix sums, so
    evaluation is a binary search and construction copies nothing.
    Instances are immutable.
    """

    def __init__(self, jump_sets: Sequence[JumpSet]):
        if len(jump_sets) < 1:
            raise ValueError("a path needs at least one dimension")
        self.jump_sets = tuple(jump_sets)

    @property
    def ndim(self) -> int:
        return len(self.jump_sets)

    @property
    def domains(self) -> tuple[tuple[float, float], ...]:
        return tuple(js.domain for js in self.jump_sets)

    def values(self, x, dim: int = 0) -> np.ndarray:
        """Evaluate W(x) for dimension ``dim`` at the points ``x``, a scalar or an array.

        Points outside the closed domain raise ``ValueError``.
        """
        x = np.asarray(x, dtype=float)
        js = self.jump_sets[dim]
        lo, hi = js.domain
        if x.size and (x.min() < lo or x.max() > hi):
            bad = x[(x < lo) | (x > hi)]
            raise ValueError(
                f"points outside domain [{lo}, {hi}] in dimension {dim}: {bad[:5].tolist()}"
            )
        return js.cumulative[np.searchsorted(js.positions, x, side="right")]

    def total(self, dim: int = 0) -> float:
        """Sum of all jump magnitudes in one dimension, i.e. W at the upper bound."""
        return float(self.jump_sets[dim].cumulative[-1])

    def n_jumps(self) -> int:
        return int(sum(len(js) for js in self.jump_sets))


def simulate_jumps(spec: LevyMeasureSpec, region_measure: float, rng: np.random.Generator,
                   domain_measure: float | None = None) -> np.ndarray:
    """Jump magnitudes on a region of a domain, in decreasing candidate order.

    The series is truncated at the epoch horizon ``E = n_terms /
    domain_measure`` (``domain_measure`` defaults to ``region_measure``, a
    whole domain): ``K ~ Poisson(region_measure * E)`` epochs, i.i.d.
    uniform on ``(0, E]`` and sorted, map to candidates, each kept with its
    family's probability.  Tempered stable: stable candidates
    ``(alpha * epoch / C)^(-1/alpha)`` kept with ``exp(-beta x)``; stable:
    the same candidates, all kept; gamma: ``1 / (beta (exp(epoch / C) - 1))``
    kept with ``(1 + beta x) exp(-beta x)``.  Every region of one domain
    shares the threshold ``h(E)``, so a region's jumps are distributed as
    the whole-domain jumps that fall in it.  Every family draws ``K``
    uniforms, so ``beta = 0`` tempering reproduces the stable output bit for
    bit.  Candidates that underflow to zero in float64 are dropped.
    """
    if domain_measure is None:
        domain_measure = region_measure
    if not (0 < region_measure < np.inf and 0 < domain_measure < np.inf):
        raise ValueError(f"region and domain measures must be positive and finite, "
                         f"got {region_measure} and {domain_measure}")
    horizon = spec.n_terms / domain_measure
    k = rng.poisson(region_measure * horizon)
    epochs = np.sort(horizon * (1.0 - rng.random(k)))
    with np.errstate(over="ignore", under="ignore"):
        if spec.family == GAMMA:
            x = 1.0 / (spec.beta * np.expm1(epochs / spec.C))
            keep_prob = (1.0 + spec.beta * x) * np.exp(-spec.beta * x)
        else:
            x = (spec.alpha * epochs / spec.C) ** (-1.0 / spec.alpha)
            keep_prob = np.exp(-spec.beta * x) if spec.family == TEMPERED_STABLE else 1.0
    x = x[rng.random(k) < keep_prob]
    return x[x > 0]


def assign_positions(magnitudes: np.ndarray, domain: tuple[float, float],
                     rng: np.random.Generator) -> JumpSet:
    """Pair each magnitude with an independent uniform position on the open domain."""
    magnitudes = np.asarray(magnitudes, dtype=float)
    lo, hi = finite_domain(*domain)  # before the draw, which overflows on an infinite domain
    return JumpSet(rng.uniform(lo, hi, size=magnitudes.size), magnitudes, (lo, hi))


def simulate_path(spec: LevyMeasureSpec, domains: Sequence[tuple[float, float]],
                  rng: np.random.Generator) -> SubordinatorPath:
    """Independent subordinator per dimension, each simulated over its whole domain."""
    return SubordinatorPath([assign_positions(simulate_jumps(spec, hi - lo, rng), (lo, hi), rng)
                             for lo, hi in domains])


def normalize_scale(alpha: float, beta: float, family: str) -> float:
    """Scale C that gives the subordinator unit mean over a unit-length domain.

    Tempered stable: mean per unit measure is ``C Gamma(1-alpha) beta^(alpha-1)``,
    so ``C = beta^(1-alpha) / Gamma(1-alpha)``.  Gamma: mean is ``C / beta``,
    so ``C = beta``.  The raw stable process has no finite mean.
    """
    if family == TEMPERED_STABLE:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if not beta > 0:
            raise ValueError("tempered stable mean normalization requires beta > 0")
        return beta ** (1.0 - alpha) / gamma_fn(1.0 - alpha)
    if family == GAMMA:
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        return float(beta)
    raise ValueError(f"no finite-mean normalization for family {family!r}")
