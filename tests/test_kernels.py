"""Kernel values and Gram-matrix assembly."""

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.spatial.distance import cdist

from ngpr import (MATERN52, SQUARED_EXPONENTIAL, JumpSet, KernelSpec, SubordinatorPath,
                  build_gram, kernel_value, kernels, warp_inputs)

import oracles


def test_value_at_zero_lag_is_signal_variance():
    for family in (SQUARED_EXPONENTIAL, MATERN52):
        spec = KernelSpec(family, length_scale=0.3, signal_variance=2.5)
        assert kernel_value(spec, 0.0) == 2.5


def test_se_value_at_one_length_scale():
    spec = KernelSpec(SQUARED_EXPONENTIAL, length_scale=0.1)
    assert abs(kernel_value(spec, 0.1) - np.exp(-0.5)) < 1e-12


def test_matern_decays_slower_than_se_in_the_tail():
    l = 0.1
    se = KernelSpec(SQUARED_EXPONENTIAL, length_scale=l)
    m52 = KernelSpec(MATERN52, length_scale=l)
    for r in (2.0 * l, 3.0 * l, 5.0 * l):
        assert kernel_value(m52, r) > kernel_value(se, r)


def test_kernel_value_rejects_negative_distance():
    spec = KernelSpec(SQUARED_EXPONENTIAL, length_scale=0.1)
    with pytest.raises(ValueError):
        kernel_value(spec, -0.1)


def test_values_non_increasing_in_distance():
    r = np.linspace(0.0, 3.0, 400)
    for family in (SQUARED_EXPONENTIAL, MATERN52):
        values = kernel_value(KernelSpec(family, length_scale=0.25), r)
        assert np.all(np.diff(values) <= 0)


def test_single_point_gram():
    spec = KernelSpec(SQUARED_EXPONENTIAL, length_scale=0.1, signal_variance=1.0,
                      jitter=1e-8)
    gram = build_gram(np.array([[0.4]]), None, spec)
    np.testing.assert_allclose(gram, [[1.0 * (1 + 1e-8)]])


def test_gram_symmetry_exact():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(15, 2))
    gram = build_gram(pts, None, KernelSpec(MATERN52, length_scale=0.4))
    assert np.array_equal(gram, gram.T)


def test_gram_with_jitter_admits_cholesky():
    rng = np.random.default_rng(2)
    # duplicated warped coordinates are legal inputs and must stay factorizable
    pts = np.repeat(rng.uniform(0, 1, size=(10, 1)), 2, axis=0)
    gram = build_gram(pts, None, KernelSpec(SQUARED_EXPONENTIAL, 0.2, jitter=1e-8))
    cholesky(gram, lower=True)


def test_empty_gram():
    spec = KernelSpec(SQUARED_EXPONENTIAL, 0.1)
    assert build_gram(np.empty((0, 1)), None, spec).shape == (0, 0)
    assert build_gram(np.empty((0, 1)), np.ones((3, 1)), spec).shape == (0, 3)


def test_cross_gram_gets_no_jitter():
    spec = KernelSpec(SQUARED_EXPONENTIAL, 0.1, jitter=1e-2)
    pts = np.array([[0.5]])
    assert build_gram(pts, pts, spec)[0, 0] == 1.0


def test_gram_invariant_under_shared_coordinate_shift():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(12, 1))
    spec = KernelSpec(MATERN52, length_scale=0.3)
    np.testing.assert_allclose(build_gram(pts, None, spec),
                               build_gram(pts + 7.25, None, spec), atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("cubic", 0.1)
    with pytest.raises(ValueError):
        KernelSpec(SQUARED_EXPONENTIAL, -0.1)
    with pytest.raises(ValueError):
        KernelSpec(SQUARED_EXPONENTIAL, 0.1, signal_variance=0.0)
    with pytest.raises(ValueError):
        KernelSpec(SQUARED_EXPONENTIAL, 0.1, jitter=-1e-9)
    for bad in (np.nan, np.inf):  # a non-finite value is rejected, not fitted
        for kwargs in (dict(length_scale=bad), dict(signal_variance=bad), dict(jitter=bad)):
            with pytest.raises(ValueError, match="finite"):
                KernelSpec(MATERN52, **kwargs)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
def test_kernel_value_matches_the_written_out_formula_bitwise(family):
    rng = np.random.default_rng(4)
    r = np.concatenate(([0.0, 5e-324, 1e-200, 1e-154, 1e-20, 1e-8],
                        rng.uniform(0.0, 3.0, 500), 10 ** rng.uniform(-12, 3, 500)))
    for length_scale, signal_variance in ((0.1, 1.0), (0.37, 2.5), (1e-3, 0.3)):
        spec = KernelSpec(family, length_scale, signal_variance)
        expected = oracles.kernel_formula(family, length_scale, signal_variance, r)
        assert _bits(kernel_value(spec, r)) == _bits(expected)


def test_kernel_value_takes_scalars_and_leaves_its_input_alone():
    for family in (SQUARED_EXPONENTIAL, MATERN52):
        spec = KernelSpec(family, length_scale=0.3, signal_variance=1.5)
        value = kernel_value(spec, 0.25)
        assert np.ndim(value) == 0
        assert value == oracles.kernel_formula(family, 0.3, 1.5, 0.25)
        r = np.array([0.0, 0.1, 0.7])
        kernel_value(spec, r)
        assert r.tolist() == [0.0, 0.1, 0.7]
        with pytest.raises(ValueError):
            kernel_value(spec, np.array([0.1, -1e-300]))


BLOCK = kernels._BLOCK


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
def test_one_dimensional_gram_matches_the_cdist_reference_bitwise(family):
    rng = np.random.default_rng(6)
    spec = KernelSpec(family, length_scale=0.15, signal_variance=1.7, jitter=1e-6)
    # warped inputs on flat path segments repeat exactly
    path = SubordinatorPath([JumpSet([0.2, 0.45, 0.8], [0.3, 0.05, 0.6], (0.0, 1.0))])
    b = warp_inputs(path, rng.uniform(0, 1, size=25))
    empty = np.empty((0, 1))
    for n in (40, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        a = warp_inputs(path, rng.uniform(0, 1, size=n))
        assert np.unique(a).size < a.shape[0]
        self_ref = kernel_value(spec, cdist(a, a))
        upper = np.triu_indices(n)
        assert _bits(kernels.upper_gram(a, spec)[upper]) == _bits(self_ref[upper])
        self_ref[np.diag_indices_from(self_ref)] += spec.jitter * spec.signal_variance
        assert _bits(build_gram(a, None, spec)) == _bits(self_ref)
        assert _bits(build_gram(a, a, spec)) == _bits(kernel_value(spec, cdist(a, a)))
        assert _bits(build_gram(a, b, spec)) == _bits(kernel_value(spec, cdist(a, b)))
        assert _bits(build_gram(b[:, 0], a[:, 0], spec)) == _bits(kernel_value(spec, cdist(b, a)))
        for x, y, shape in ((empty, None, (0, 0)), (empty, a, (0, n)), (a, empty, (n, 0))):
            assert build_gram(x, y, spec).shape == shape
    assert kernels.upper_gram(empty, spec).shape == (0, 0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_multidimensional_distances_match_cdist(d, monkeypatch):
    rng = np.random.default_rng(d)
    n = 2 * BLOCK + 3
    a, b = rng.uniform(-1.0, 2.0, (n, d)), rng.uniform(-1.0, 2.0, (25, d))
    a[7] = a[3]
    a[n - 2] = a[5]  # a duplicate across blocks
    spec = KernelSpec(MATERN52, length_scale=0.3, jitter=1e-6)
    gram = build_gram(a, None, spec)
    assert _bits(gram) == _bits(gram.T)
    with pytest.raises(ValueError, match="dimension"):
        build_gram(a, b[:, 1:], spec)
    # with the covariance step skipped, a Gram is its distance matrix (plus the jitter)
    monkeypatch.setattr(kernels, "_covariance", lambda spec, r: r)
    for x, y in ((a, b), (a, a), (b, a)):
        np.testing.assert_allclose(build_gram(x, y, spec), cdist(x, y), rtol=1e-15, atol=0)
    np.testing.assert_allclose(build_gram(a, None, spec), cdist(a, a) + 1e-6 * np.eye(n),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_mirror_copies_the_upper_triangle_down(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    expected = np.triu(a) + np.triu(a, 1).T
    assert kernels.mirror(a) is a
    assert _bits(a) == _bits(expected)
