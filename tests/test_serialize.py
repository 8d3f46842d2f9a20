"""Round-trip guarantees for the CSV and dotted-key text formats."""

import io

import numpy as np
import pytest

from ngpr import LevyMeasureSpec, serialize, simulate_path
from ngpr.sampler import TraceStep, init_identity


def _roundtrip_path(path):
    buf = io.StringIO()
    serialize.write_jumps_csv(buf, path)
    buf.seek(0)
    return serialize.read_jumps_csv(buf, path.domains)


def test_jumps_csv_roundtrip_exact():
    lspec = LevyMeasureSpec("tempered_stable", C=0.7, alpha=0.5, beta=2.0, n_terms=300)
    path = simulate_path(lspec, [(0.0, 1.0), (0.0, 2.0)], np.random.default_rng(0))
    back = _roundtrip_path(path)
    for js_a, js_b in zip(path.jump_sets, back.jump_sets):
        order = np.lexsort((js_a.magnitudes, js_a.positions))
        assert np.array_equal(js_a.positions[order], js_b.positions)
        assert np.array_equal(js_a.magnitudes[order], js_b.magnitudes)
    grid = np.linspace(0, 1, 101)
    assert np.array_equal(path.values(grid, 0), back.values(grid, 0))


def test_jumps_csv_deterministic_row_order():
    path = init_identity([(0.0, 1.0)], 5)
    buf1, buf2 = io.StringIO(), io.StringIO()
    serialize.write_jumps_csv(buf1, path)
    serialize.write_jumps_csv(buf2, path)
    assert buf1.getvalue() == buf2.getvalue()
    rows = buf1.getvalue().strip().splitlines()[1:]
    positions = [float(r.split(",")[1]) for r in rows]
    assert positions == sorted(positions)


def test_empty_jump_set_roundtrip():
    from ngpr import JumpSet, SubordinatorPath

    path = SubordinatorPath([JumpSet(np.empty(0), np.empty(0), (0.0, 1.0))])
    back = _roundtrip_path(path)
    assert len(back.jump_sets[0]) == 0


def test_sampled_paths_csv_roundtrip():
    lspec = LevyMeasureSpec("gamma", C=2.0, beta=3.0, n_terms=100)
    rng = np.random.default_rng(1)
    paths = [simulate_path(lspec, [(0.0, 1.0)], rng) for _ in range(3)]
    buf = io.StringIO()
    serialize.write_sampled_paths_csv(buf, paths, [4, 5, 6])
    buf.seek(0)
    back = serialize.read_sampled_paths_csv(buf, [(0.0, 1.0)])
    assert [sweep for sweep, _ in back] == [4, 5, 6]
    for (_, b), p in zip(back, paths):
        assert b.total() == p.total()


def test_sampled_paths_csv_keeps_a_path_without_jumps():
    from ngpr import JumpSet, SubordinatorPath

    domains = [(0.0, 1.0), (0.0, 2.0)]
    full = SubordinatorPath([JumpSet([0.25, 0.5], [1.0, 2.0], domains[0]),
                             JumpSet([1.5], [0.5], domains[1])])
    half = SubordinatorPath([JumpSet([], [], domains[0]), JumpSet([0.75], [3.0], domains[1])])
    empty = SubordinatorPath([JumpSet([], [], dom) for dom in domains])
    buf = io.StringIO()
    serialize.write_sampled_paths_csv(buf, [full, empty, half], [3, 4, 5])
    assert buf.getvalue().splitlines()[4:] == [",,,4", "1,0.75,3.0,5"]
    buf.seek(0)
    back = serialize.read_sampled_paths_csv(buf, domains)
    assert [sweep for sweep, _ in back] == [3, 4, 5]
    for (_, b), p in zip(back, [full, empty, half]):
        assert [len(js) for js in b.jump_sets] == [len(js) for js in p.jump_sets]
        assert b.total(0) == p.total(0) and b.total(1) == p.total(1)


def test_dataset_csv_roundtrip():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(17, 2))
    y = rng.normal(size=17)
    observed = rng.random(17) < 0.5
    buf = io.StringIO()
    serialize.write_dataset_csv(buf, X, y, observed)
    buf.seek(0)
    X2, y2, obs2 = serialize.read_dataset_csv(buf)
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)
    assert np.array_equal(observed, obs2)


def test_posterior_csv_roundtrip():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(9, 1))
    mean, post_std, pred_std = rng.normal(size=9), rng.random(9), rng.random(9)
    buf = io.StringIO()
    serialize.write_posterior_csv(buf, X, mean, post_std, pred_std)
    buf.seek(0)
    X2, mean2, post2, pred2 = serialize.read_posterior_csv(buf)
    assert np.array_equal(X, X2)
    assert np.array_equal(mean, mean2)
    assert np.array_equal(post_std, post2)
    assert np.array_equal(pred_std, pred2)


def test_trace_csv_format():
    buf = io.StringIO()
    serialize.write_trace_csv(buf, [TraceStep(0, -1.5, True), TraceStep(1, -2.5, False)])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "sweep,log_cond_lik,accepted"
    assert lines[1] == "0,-1.5,1"
    assert lines[2] == "1,-2.5,0"


def test_kv_text_roundtrip():
    entries = {"kernel.family": "se", "levy.beta": "5.0", "sampler.seed": "3"}
    text = serialize.format_kv_text(entries)
    assert serialize.parse_kv_text(text) == entries
    assert serialize.parse_kv_text("# comment\n\nkernel.family = se\n") == {
        "kernel.family": "se"}
    with pytest.raises(ValueError):
        serialize.parse_kv_text("not a pair\n")


def test_domain_string_roundtrip():
    domains = ((0.0, 0.5), (-1.25, 3.0))
    assert serialize.parse_domains(serialize.format_domains(domains)) == domains
    with pytest.raises(ValueError):
        serialize.parse_domains("0.0")


def test_inputs_csv_reader_ignores_extra_columns():
    text = "x_0,y,observed\n0.25,1.0,1\n0.5,2.0,0\n"
    X = serialize.read_inputs_csv(io.StringIO(text))
    np.testing.assert_array_equal(X, [[0.25], [0.5]])
    empty = serialize.read_inputs_csv(io.StringIO("x_0\n"))
    assert empty.shape == (0, 1)
