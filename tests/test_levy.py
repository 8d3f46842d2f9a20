"""Subordinator simulation: formulas, moments, distributions, path evaluation."""

import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist, kstest

from ngpr import (GAMMA, STABLE, TEMPERED_STABLE, JumpSet, LevyMeasureSpec,
                  SubordinatorPath, assign_positions, normalize_scale, simulate_jumps,
                  simulate_path)
from ngpr.levy import finite_domain

import oracles


class StubRng:
    """Feeds fixed variates to the samplers in place of a real generator.

    ``poisson`` returns the next count and records its mean; ``random``
    returns the next block of uniforms, whose size must match the call.
    """

    def __init__(self, counts=(), uniforms=()):
        self._counts = list(counts)
        self._uni = [np.asarray(u, dtype=float) for u in uniforms]
        self.poisson_means = []

    def poisson(self, lam):
        self.poisson_means.append(lam)
        return self._counts.pop(0)

    def random(self, size=None):
        block = self._uni.pop(0)
        assert size == block.size
        return block


# ---------------------------------------------------------------------------
# tempered stable sampler
# ---------------------------------------------------------------------------

def test_ts_candidate_formula():
    # horizon 4 / 2 = 2 on a domain of measure 2; the uniform 0 maps to the
    # epoch 2 * (1 - 0) = 2.0, whose candidate with C=1, alpha=0.5 is
    # (0.5*2/1)^(-2) = 1.0; a thinning uniform of 0 keeps it
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=1.0, alpha=0.5, beta=1.0, n_terms=4)
    rng = StubRng(counts=[1], uniforms=[[0.0], [0.0]])
    jumps = simulate_jumps(spec, 0.5, rng, domain_measure=2.0)
    np.testing.assert_allclose(jumps, [1.0])
    assert rng.poisson_means == [pytest.approx(0.5 * 4 / 2.0)]


def test_zero_tempering_accepts_every_candidate():
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=1.0, alpha=0.5, beta=0.0, n_terms=500)
    jumps = simulate_jumps(spec, 1.0, np.random.default_rng(3))
    assert jumps.size == np.random.default_rng(3).poisson(500)


def test_simulate_jumps_rejects_nonpositive_measures():
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=1.0, alpha=0.5, beta=1.0, n_terms=10)
    rng = np.random.default_rng(0)
    for region, domain in ((0.0, None), (-1.0, None), (0.5, 0.0), (0.5, -2.0)):
        with pytest.raises(ValueError):
            simulate_jumps(spec, region, rng, domain_measure=domain)
    for region, domain in ((np.inf, None), (0.5, np.inf), (np.nan, None), (0.5, np.nan)):
        with pytest.raises(ValueError, match="measures must be positive and finite"):
            simulate_jumps(spec, region, rng, domain_measure=domain)


@pytest.mark.parametrize("domain", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_jump_sets_need_a_finite_domain(domain):
    for make in (lambda: finite_domain(*domain), lambda: JumpSet([], [], domain),
                 lambda: assign_positions(np.ones(3), domain, np.random.default_rng(0))):
        with pytest.raises(ValueError, match=r"needs finite bounds with lo < hi"):
            make()
    assert finite_domain(np.float32(-1), "2.5") == (-1.0, 2.5)


def test_zero_tempering_matches_stable_sampler_bitwise():
    ts = LevyMeasureSpec(TEMPERED_STABLE, C=1.2, alpha=0.6, beta=0.0, n_terms=400)
    st = LevyMeasureSpec(STABLE, C=1.2, alpha=0.6, n_terms=400)
    a = simulate_jumps(ts, 2.0, np.random.default_rng(99))
    b = simulate_jumps(st, 2.0, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_stable_candidates_strictly_decrease():
    spec = LevyMeasureSpec(STABLE, C=1.0, alpha=0.5, n_terms=1000)
    jumps = simulate_jumps(spec, 1.0, np.random.default_rng(8))
    assert np.all(np.diff(jumps) < 0)


def _assert_moments(w, mean_o, var_o):
    """Sample mean and variance of ``w`` within 3 standard errors of the oracle."""
    se_mean = w.std(ddof=1) / np.sqrt(w.size)
    v = w.var(ddof=1)
    m4 = np.mean((w - w.mean()) ** 4)
    se_var = np.sqrt((m4 - v ** 2) / w.size)
    assert abs(w.mean() - mean_o) < 3 * se_mean
    assert abs(v - var_o) < 3 * se_var
    return se_mean


def test_ts_truncated_series_moments_match_integration_oracle():
    # The paper-style configuration on a whole domain of measure 1: the
    # oracle accounts for the cut at the epoch horizon n_terms.
    alpha, beta = 0.8, 5.0
    C = normalize_scale(alpha, beta, TEMPERED_STABLE)
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=C, alpha=alpha, beta=beta, n_terms=1000)
    mean_o, var_o = oracles.horizon_ts_moments(C, alpha, beta, horizon=1000, measure=1.0)
    rng = np.random.default_rng(42)
    w = np.array([simulate_jumps(spec, 1.0, rng).sum() for _ in range(4000)])
    se = _assert_moments(w, mean_o, var_o)
    # With these parameters the 1000-term cut removes a fifth of the mass, so
    # the truncation-blind oracle must sit far outside the same band.
    assert abs(w.mean() - oracles.ts_moment(1, C, alpha, beta)) > 10 * se


def test_ts_sub_interval_series_is_whole_domain_series_restricted():
    # A quarter of a domain of measure 2 keeps the whole domain's threshold
    # h(n_terms / 2); cut as if the quarter were a whole domain, at
    # h(n_terms / 0.5), the series would reach far smaller jumps.
    alpha, beta, n_terms = 0.8, 5.0, 200
    C = normalize_scale(alpha, beta, TEMPERED_STABLE)
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=C, alpha=alpha, beta=beta, n_terms=n_terms)
    mean_o, var_o = oracles.horizon_ts_moments(C, alpha, beta, horizon=n_terms / 2.0,
                                               measure=0.5)
    rng = np.random.default_rng(43)
    w = np.array([simulate_jumps(spec, 0.5, rng, domain_measure=2.0).sum()
                  for _ in range(4000)])
    se = _assert_moments(w, mean_o, var_o)
    own_cut, _ = oracles.horizon_ts_moments(C, alpha, beta, horizon=n_terms / 0.5,
                                            measure=0.5)
    assert abs(w.mean() - own_cut) > 10 * se


def test_ts_moments_match_full_integration_oracle_when_truncation_negligible():
    C, alpha, beta, t = 1.3, 0.3, 2.0, 2.0
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=C, alpha=alpha, beta=beta, n_terms=1000)
    mean_o = t * oracles.ts_moment(1, C, alpha, beta)
    var_o = t * oracles.ts_moment(2, C, alpha, beta)
    rng = np.random.default_rng(17)
    w = np.array([simulate_jumps(spec, t, rng).sum() for _ in range(4000)])
    _assert_moments(w, mean_o, var_o)


def test_ts_jump_sizes_above_threshold_follow_normalized_density():
    C, alpha, beta, eps = 1.0, 0.5, 1.0, 0.01
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=C, alpha=alpha, beta=beta, n_terms=2000)
    rng = np.random.default_rng(5)
    jumps = []
    while sum(j.size for j in jumps) < 10_000:
        j = simulate_jumps(spec, 1.0, rng)
        jumps.append(j[j >= eps])
    sample = np.concatenate(jumps)
    grid, cdf = oracles.ts_tail_cdf_grid(eps, C, alpha, beta, upper=sample.max() * 2)
    res = kstest(sample, lambda x: np.interp(x, grid, cdf))
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# gamma sampler
# ---------------------------------------------------------------------------

def test_gamma_candidate_and_thinning_limits():
    C, beta = 2.0, 4.0
    epoch = np.array([1e3])
    candidate = 1.0 / (beta * np.expm1(epoch / C))
    assert candidate[0] < 1e-100
    accept = (1.0 + beta * candidate) * np.exp(-beta * candidate)
    assert accept[0] > 1.0 - 1e-12


def test_gamma_mean_matches_marginal():
    spec = LevyMeasureSpec(GAMMA, C=2.0, beta=4.0, n_terms=1000)
    rng = np.random.default_rng(11)
    w = np.array([simulate_jumps(spec, 1.0, rng).sum() for _ in range(10_000)])
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 0.5) < 3 * se


def test_gamma_marginal_distribution_ks():
    spec = LevyMeasureSpec(GAMMA, C=2.0, beta=4.0, n_terms=1000)
    rng = np.random.default_rng(12)
    w = np.array([simulate_jumps(spec, 1.0, rng).sum() for _ in range(10_000)])
    res = kstest(w, gamma_dist(a=2.0, scale=0.25).cdf)
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# positions and spec validation
# ---------------------------------------------------------------------------

def test_assign_positions_empty_and_support():
    rng = np.random.default_rng(0)
    empty = assign_positions(np.empty(0), (0.0, 2.0), rng)
    assert len(empty) == 0
    js = assign_positions(np.ones(100_000), (0.0, 2.0), rng)
    assert np.all(js.positions > 0.0) and np.all(js.positions < 2.0)
    se = js.positions.std(ddof=1) / np.sqrt(js.positions.size)
    assert abs(js.positions.mean() - 1.0) < 3 * se


def test_assign_positions_rejects_degenerate_domain():
    with pytest.raises(ValueError):
        assign_positions(np.ones(3), (1.0, 1.0), np.random.default_rng(0))


@pytest.mark.parametrize("kwargs", [
    dict(family="weird", C=1.0),
    dict(family=TEMPERED_STABLE, C=-1.0),
    dict(family=TEMPERED_STABLE, C=1.0, alpha=0.0),
    dict(family=TEMPERED_STABLE, C=1.0, alpha=1.0),
    dict(family=TEMPERED_STABLE, C=1.0, alpha=0.5, beta=-1.0),
    dict(family=GAMMA, C=1.0, beta=0.0),
    dict(family=TEMPERED_STABLE, C=1.0, n_terms=0),
    # non-finite values, which would otherwise draw no jumps at all
    dict(family=TEMPERED_STABLE, C=np.inf),
    dict(family=GAMMA, C=np.nan),
    dict(family=TEMPERED_STABLE, C=1.0, beta=np.nan),
    dict(family=TEMPERED_STABLE, C=1.0, beta=np.inf),
    dict(family=GAMMA, C=1.0, beta=np.nan),
    dict(family=GAMMA, C=1.0, beta=np.inf),
])
def test_measure_spec_validation(kwargs):
    with pytest.raises(ValueError):
        LevyMeasureSpec(**kwargs)


def test_jump_set_validation():
    with pytest.raises(ValueError):
        JumpSet(np.array([0.5]), np.array([0.0]), (0.0, 1.0))
    with pytest.raises(ValueError):
        JumpSet(np.array([1.5]), np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ValueError):
        JumpSet(np.array([0.2, np.nan]), np.array([1.0, 5.0]), (0.0, 1.0))
    for bad in (np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError):
            JumpSet(np.array([0.2, 0.4]), np.array([1.0, bad]), (0.0, 1.0))


def test_jump_set_equality_is_identity():
    a = JumpSet([0.1, 0.2], [1.0, 2.0], (0, 1))
    b = JumpSet([0.1, 0.2], [1.0, 2.0], (0, 1))
    assert a == a and not a == b and a != b


def _joined(js, start, stop, positions, magnitudes):
    """The public constructor on the concatenated jumps: the splice's reference."""
    return JumpSet(np.concatenate((js.positions[:start], positions, js.positions[stop:])),
                   np.concatenate((js.magnitudes[:start], magnitudes, js.magnitudes[stop:])),
                   js.domain)


def _assert_same_bits(a, b):
    for name in ("positions", "magnitudes", "cumulative"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert not getattr(a, name).flags.writeable
    assert a.domain == b.domain


def test_splice_matches_the_public_constructor_bitwise():
    rng = np.random.default_rng(41)
    lspec = LevyMeasureSpec(TEMPERED_STABLE, C=0.7, alpha=0.5, beta=2.0, n_terms=300)
    domain = (0.0, 2.0)
    cases = set()
    for _ in range(300):
        js = assign_positions(simulate_jumps(lspec, 2.0, rng), domain, rng)
        k = int(rng.integers(1, 400))
        edges = np.linspace(*domain, k + 1)
        j = int(rng.integers(k))
        lo, hi = edges[j], edges[j + 1]
        start = np.searchsorted(js.positions, lo, side="left")
        stop = np.searchsorted(js.positions, hi, side="right" if j == k - 1 else "left")
        magnitudes = simulate_jumps(lspec, hi - lo, rng, 2.0)
        positions = rng.uniform(lo, hi, size=magnitudes.size)
        if j == k - 1 and positions.size:
            positions[0] = hi  # a fresh jump on the closed upper bound
        before = js.positions.tobytes(), js.cumulative.tobytes()
        _assert_same_bits(js.splice(start, stop, positions, magnitudes),
                          _joined(js, start, stop, positions, magnitudes))
        assert (js.positions.tobytes(), js.cumulative.tobytes()) == before
        cases.update({"first" if j == 0 else "inner" if j < k - 1 else "last",
                      "no fresh" if positions.size == 0 else "fresh",
                      "none removed" if start == stop else "removed"})
    assert cases == {"first", "inner", "last", "no fresh", "fresh", "none removed", "removed"}


def test_splice_keeps_the_stable_order_of_tied_positions():
    js = JumpSet([0.1, 0.2, 0.2, 0.5, 0.5, 0.9], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (0.0, 1.0))
    fresh = (np.array([0.5, 0.2, 0.3, 0.2, 0.5]), np.array([0.7, 0.8, 0.9, 1.1, 1.2]))
    bounds = np.concatenate(([0.0], js.positions, [1.0]))
    for start, stop in ((2, 3), (2, 2), (0, 0), (0, 6), (6, 6)):
        # ties with each other and with the kept neighbours on both sides
        positions = np.clip(fresh[0], bounds[start], bounds[stop + 1])
        magnitudes = fresh[1]
        _assert_same_bits(js.splice(start, stop, positions, magnitudes),
                          _joined(js, start, stop, positions, magnitudes))
    _assert_same_bits(js.splice(1, 5, [], []), _joined(js, 1, 5, [], []))
    empty = JumpSet([], [], (0.0, 1.0))
    _assert_same_bits(empty.splice(0, 0, [1.0, 0.0], [2.0, 3.0]),
                      JumpSet([1.0, 0.0], [2.0, 3.0], (0.0, 1.0)))


def test_splice_rejects_what_the_constructor_rejects():
    js = JumpSet([0.1, 0.4, 0.6, 0.9], [1.0, 2.0, 3.0, 4.0], (0.0, 1.0))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            js.splice(1, 3, [0.5, 0.45], [1.0, bad])
    for start, stop, bad in ((1, 3, 0.05), (1, 3, 0.95), (1, 3, np.nan),
                             (0, 1, -0.01), (3, 4, 1.01), (0, 4, np.inf)):
        with pytest.raises(ValueError):
            js.splice(start, stop, [0.5, bad], [1.0, 1.0])
    for start, stop in ((2, 1), (-1, 2), (0, 5)):
        with pytest.raises(ValueError):
            js.splice(start, stop, [], [])
    with pytest.raises(ValueError):
        js.splice(1, 3, [0.5, 0.45], [1.0])


# ---------------------------------------------------------------------------
# path evaluation
# ---------------------------------------------------------------------------

def _path(positions, magnitudes, domain=(0.0, 1.0)):
    return SubordinatorPath([JumpSet(np.asarray(positions), np.asarray(magnitudes), domain)])


def test_jump_set_sorts_and_evaluates_like_brute_force_oracle():
    rng = np.random.default_rng(31)
    positions = np.concatenate((rng.uniform(0.0, 2.0, 300), np.full(6, 0.75), [2.0, 2.0]))
    magnitudes = rng.exponential(size=positions.size)
    order = rng.permutation(positions.size)
    js = JumpSet(positions[order], magnitudes[order], (0.0, 2.0))
    assert np.all(np.diff(js.positions) >= 0)
    assert sorted(zip(js.positions, js.magnitudes)) == sorted(zip(positions, magnitudes))
    # tied jumps keep their input order
    assert np.array_equal(js.magnitudes[js.positions == 0.75],
                          magnitudes[order][positions[order] == 0.75])
    assert js.cumulative[0] == 0.0 and js.cumulative.size == positions.size + 1
    assert not (js.positions.flags.writeable or js.magnitudes.flags.writeable
                or js.cumulative.flags.writeable)
    path = SubordinatorPath([js])
    x = np.concatenate((np.linspace(0.0, 2.0, 401), positions))
    np.testing.assert_allclose(path.values(x),
                               oracles.step_function_values(positions, magnitudes, x),
                               rtol=1e-12)
    assert path.total() == pytest.approx(math.fsum(magnitudes), rel=1e-12)


def test_evaluate_path_closed_right_convention():
    path = _path([0.3, 0.7], [1.0, 2.0])
    assert path.values(0.5) == 1.0
    assert path.values(0.7) == 3.0
    assert path.values(0.9) == 3.0
    assert path.values(0.3) == 1.0


def test_evaluate_empty_path_is_zero():
    path = SubordinatorPath([JumpSet(np.empty(0), np.empty(0), (0.0, 1.0))])
    assert np.all(path.values(np.linspace(0, 1, 11)) == 0.0)


def test_evaluate_path_rejects_points_outside_domain():
    path = _path([0.3], [1.0])
    with pytest.raises(ValueError):
        path.values(1.5)
    with pytest.raises(ValueError):
        path.values(-0.1)


def test_sampled_paths_are_nondecreasing_step_functions():
    spec = LevyMeasureSpec(TEMPERED_STABLE, C=0.8, alpha=0.5, beta=2.0, n_terms=200)
    path = simulate_path(spec, [(0.0, 1.0)], np.random.default_rng(21))
    grid = np.linspace(0.0, 1.0, 2001)
    values = path.values(grid)
    assert np.all(np.diff(values) >= 0)
    # piecewise constant: exactly one level per jump plus the zero level
    js = path.jump_sets[0]
    pos = np.sort(js.positions)
    midpoints = np.concatenate(([pos[0] / 2], (pos[:-1] + pos[1:]) / 2, [(pos[-1] + 1.0) / 2]))
    levels = path.values(midpoints)
    assert np.unique(levels).size == len(js) + 1
    assert np.all(np.diff(levels) > 0)


def test_multidimensional_path_per_dimension_jumps():
    spec = LevyMeasureSpec(GAMMA, C=3.0, beta=3.0, n_terms=200)
    path = simulate_path(spec, [(0.0, 1.0), (0.0, 2.0)], np.random.default_rng(4))
    assert path.ndim == 2
    assert path.values(1.0, dim=0) == path.total(0)
    assert path.values(2.0, dim=1) == path.total(1)


# ---------------------------------------------------------------------------
# normalize_scale
# ---------------------------------------------------------------------------

def test_normalize_scale_ts_against_quadrature_gamma_function():
    C = normalize_scale(0.8, 5.0, TEMPERED_STABLE)
    expected = 5.0 ** 0.2 / oracles.gamma_fn_by_quadrature(0.2)
    assert abs(C - expected) < 1e-9
    assert abs(C - 0.3005) < 5e-4


def test_normalize_scale_gamma():
    assert normalize_scale(0.5, 4.0, GAMMA) == 4.0


@pytest.mark.parametrize("family,alpha,beta", [
    (TEMPERED_STABLE, 0.3, 0.7), (TEMPERED_STABLE, 0.8, 5.0), (GAMMA, 0.5, 2.5),
])
def test_normalized_scale_gives_unit_mean(family, alpha, beta):
    C = normalize_scale(alpha, beta, family)
    if family == TEMPERED_STABLE:
        mean = oracles.ts_moment(1, C, alpha, beta)
    else:
        mean = C / beta
    assert abs(mean - 1.0) < 1e-9


def test_normalize_scale_rejects_stable():
    with pytest.raises(ValueError):
        normalize_scale(0.5, 1.0, STABLE)
