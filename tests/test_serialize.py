"""Round-trip guarantees for the CSV and dotted-key text formats."""

import io

import numpy as np
import pytest

import oracles
from ngpr import JumpSet, LevyMeasureSpec, SubordinatorPath, serialize, simulate_path
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
    for text in ("0,inf", "-inf,0", "nan,1", "0,1;0,inf", "1,1"):
        with pytest.raises(ValueError, match=r"needs finite bounds with lo < hi"):
            serialize.parse_domains(text)


def test_inputs_csv_reader_ignores_extra_columns():
    text = "x_0,y,observed\n0.25,1.0,1\n0.5,2.0,0\n"
    X = serialize.read_inputs_csv(io.StringIO(text))
    np.testing.assert_array_equal(X, [[0.25], [0.5]])
    empty = serialize.read_inputs_csv(io.StringIO("x_0\n"))
    assert empty.shape == (0, 1)


# ---------------------------------------------------------------------------
# the bulk reader and writer against the per-row reference in ``oracles``
# ---------------------------------------------------------------------------

BIG = float(np.finfo(float).max)


def _text(write, *args):
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _edge_values():
    """Values at ``repr``'s switch to exponent form and next to it, subnormals, signed zeros."""
    switch = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 0.1, 123456789012345.67])
    near = np.concatenate([switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)])
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308])
    return np.concatenate([near, -near, tiny, -tiny, [0.0, -0.0]])


def _bit_pattern_doubles(rng, n):
    """Doubles of uniformly random 64-bit patterns: every exponent, NaNs and infinities."""
    return rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(np.float64)


def _values(rng, n):
    return np.concatenate([_bit_pattern_doubles(rng, n), _edge_values(), [np.nan, np.inf, -np.inf]])


def _random_path(rng, sizes):
    """One jump set per size: empty for 0, else the edge values and ``size`` bit patterns.

    Positions are the finite ones; magnitudes the positive ones small enough to sum finitely.
    """
    jump_sets = []
    for n in sizes:
        pos = np.concatenate([_edge_values(), _bit_pattern_doubles(rng, 2 * n)])
        mag = np.abs(np.concatenate([_edge_values(), _bit_pattern_doubles(rng, 8 * n)]))
        pos = pos[np.isfinite(pos)][:n + _edge_values().size if n else 0]
        mag = mag[(mag > 0) & (mag < 1e300)][:pos.size]
        jump_sets.append(JumpSet(pos, mag, (-BIG, BIG)))
    return SubordinatorPath(jump_sets)


def _assert_same_paths(got, want):
    assert [sweep for sweep, _ in got] == [sweep for sweep, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert len(a.jump_sets) == len(b.jump_sets)
        for js_a, js_b in zip(a.jump_sets, b.jump_sets):
            assert _same(js_a.positions, js_b.positions)
            assert _same(js_a.magnitudes, js_b.magnitudes)


def _paths(ndim):
    rng = np.random.default_rng(ndim)
    sizes = [[40, 0, 25][:ndim], [3, 7, 0][:ndim], [60, 1, 9][:ndim]]
    empty = SubordinatorPath([JumpSet([], [], (-BIG, BIG))] * ndim)
    return [_random_path(rng, sizes[0]), empty, _random_path(rng, sizes[1]), empty,
            _random_path(rng, sizes[2])], [7, 2, 9, 4, 5]


@pytest.mark.parametrize("ndim", [1, 3])
def test_jump_writers_match_the_reference_bytes(ndim):
    paths, sweeps = _paths(ndim)
    for path in paths:
        assert _text(serialize.write_jumps_csv, path) == _text(oracles.write_jumps_csv, path)
    text = _text(serialize.write_sampled_paths_csv, paths, sweeps)
    assert text == _text(oracles.write_sampled_paths_csv, paths, sweeps)
    assert ",,,2\n" in text and ",,,4\n" in text


@pytest.mark.parametrize("ndim", [1, 3])
def test_jump_readers_match_the_reference(ndim):
    paths, sweeps = _paths(ndim)
    domains = [(-BIG, BIG)] * ndim
    for path in paths:
        text = _text(oracles.write_jumps_csv, path)
        _assert_same_paths([(0, serialize.read_jumps_csv(io.StringIO(text), domains))],
                           [(0, oracles.read_jumps_csv(io.StringIO(text), domains))])
    text = _text(oracles.write_sampled_paths_csv, paths, sweeps)
    header, *rows = text.splitlines(keepends=True)
    # rows of one sweep interleaved with the other sweeps' rows and marker rows
    shuffled = header + "".join(np.random.default_rng(0).permutation(rows))
    for variant in (text, shuffled):
        got = serialize.read_sampled_paths_csv(io.StringIO(variant), domains)
        _assert_same_paths(got, oracles.read_sampled_paths_csv(io.StringIO(variant), domains))
    assert [sweep for sweep, _ in got] == sorted(sweeps)


def _columns(rng, count):
    """``count`` equal-length columns of shuffled ``_values``."""
    return np.stack([rng.permutation(_values(rng, 40)) for _ in range(count)], axis=1)


def _tuple(result):
    return result if isinstance(result, tuple) else (result,)


def test_table_writers_match_the_reference_bytes():
    rng = np.random.default_rng(5)
    for d in (1, 3):
        X, (y, post, pred) = _columns(rng, d), _columns(rng, 3).T
        observed = rng.random(y.size) < 0.5
        assert (_text(serialize.write_dataset_csv, X, y, observed)
                == _text(oracles.write_dataset_csv, X, y, observed))
        assert (_text(serialize.write_posterior_csv, X, y, post, pred)
                == _text(oracles.write_posterior_csv, X, y, post, pred))
    trace = [TraceStep(i, v, bool(i % 3)) for i, v in enumerate(_values(rng, 50))]
    assert _text(serialize.write_trace_csv, trace) == _text(oracles.write_trace_csv, trace)


def test_table_readers_match_the_reference():
    rng = np.random.default_rng(6)
    for d in (1, 3):
        X, (y, post, pred) = _columns(rng, d), _columns(rng, 3).T
        text = _text(oracles.write_dataset_csv, X, y, rng.random(y.size) < 0.5)
        for got, want in zip(serialize.read_dataset_csv(io.StringIO(text)),
                             oracles.read_dataset_csv(io.StringIO(text))):
            assert _same(got, want)
        assert _same(serialize.read_inputs_csv(io.StringIO(text)),
                     oracles.read_inputs_csv(io.StringIO(text)))
        text = _text(oracles.write_posterior_csv, X, y, post, pred)
        for got, want in zip(serialize.read_posterior_csv(io.StringIO(text)),
                             oracles.read_posterior_csv(io.StringIO(text))):
            assert _same(got, want)


@pytest.mark.parametrize("read, header, width", [
    (serialize.read_inputs_csv, "x_0,x_1,y", 2),
    (serialize.read_posterior_csv, "x_0,posterior_mean,posterior_std,predictive_std", 1),
])
def test_header_only_tables_match_the_reference(read, header, width):
    oracle = getattr(oracles, read.__name__)
    for got, want in zip(_tuple(read(io.StringIO(header + "\n"))),
                         _tuple(oracle(io.StringIO(header + "\n")))):
        assert _same(got, want)


def test_header_only_paths_and_dataset():
    assert serialize.read_sampled_paths_csv(io.StringIO("dim,position,magnitude,sweep\n"),
                                            [(0.0, 1.0)]) == []
    path = serialize.read_jumps_csv(io.StringIO("dim,position,magnitude\n"), [(0.0, 1.0)] * 2)
    assert [len(js) for js in path.jump_sets] == [0, 0]
    # the per-row reader gave X the shape (0,) here; the table keeps its d columns
    X, y, observed = serialize.read_dataset_csv(io.StringIO("x_0,x_1,y,observed\n"))
    assert X.shape == (0, 2) and y.shape == (0,) and observed.dtype == bool


def _crlf_and_blank_lines(text):
    lines = text.splitlines()
    return "\r\n".join(lines[:2] + [""] + lines[2:-1] + ["", ""] + lines[-1:]) + "\r\n\r\n"


def test_crlf_and_blank_lines_read_like_the_clean_file():
    paths, sweeps = _paths(3)
    domains = [(-BIG, BIG)] * 3
    text = _text(serialize.write_sampled_paths_csv, paths, sweeps)
    _assert_same_paths(serialize.read_sampled_paths_csv(io.StringIO(_crlf_and_blank_lines(text)),
                                                        domains),
                       serialize.read_sampled_paths_csv(io.StringIO(text), domains))
    text = _text(serialize.write_jumps_csv, paths[0])
    _assert_same_paths([(0, serialize.read_jumps_csv(io.StringIO(_crlf_and_blank_lines(text)),
                                                     domains))],
                       [(0, serialize.read_jumps_csv(io.StringIO(text), domains))])
    rng = np.random.default_rng(7)
    X, y = rng.normal(size=(9, 2)), rng.normal(size=9)
    for write, read, args in [
            (serialize.write_dataset_csv, serialize.read_dataset_csv, (y < 0,)),
            (serialize.write_dataset_csv, serialize.read_inputs_csv, (y < 0,)),
            (serialize.write_posterior_csv, serialize.read_posterior_csv, (y, y))]:
        text = _text(write, X, y, *args)
        for got, want in zip(_tuple(read(io.StringIO(_crlf_and_blank_lines(text)))),
                             _tuple(read(io.StringIO(text)))):
            assert _same(got, want)


# a good row and a blank line, so that the bad row is file line 4
PATHS = "dim,position,magnitude,sweep\n0,0.25,1.5,3\n\n"


@pytest.mark.parametrize("read, text, message", [
    (serialize.read_sampled_paths_csv, PATHS + "0,0.5\n", r"line 4: expected 4 fields"),
    (serialize.read_sampled_paths_csv, PATHS + "0,abc,1.0,3\n", r"line 4: .*'abc'"),
    (serialize.read_sampled_paths_csv, PATHS + "2,0.5,1.0,3\n", r"line 4: .*dimension 2"),
    (serialize.read_sampled_paths_csv, PATHS + "-1,0.5,1.0,3\n",
     r"line 4: .*dimension -1"),
    (serialize.read_sampled_paths_csv, PATHS + "0.5,0.5,1.0,3\n",
     r"line 4: .*dimension 0.5"),
    (serialize.read_sampled_paths_csv, PATHS + "nan,0.5,1.0,3\n",
     r"line 4: .*dimension nan"),
    (serialize.read_sampled_paths_csv, PATHS + "0,0.5,1.0,3.5\n", r"line 4: .*sweep 3.5"),
    (serialize.read_sampled_paths_csv, PATHS + ",,,x\n", r"line 4: .*'x'"),
    (serialize.read_jumps_csv, "dim,position,magnitude\n0,0.5,1.0\n\n1e3,0.5,1.0\n",
     r"line 4: .*dimension 1e3"),
    (serialize.read_jumps_csv, "dim,position,magnitude\n,,\n", r"line 2: .*''"),
    (serialize.read_dataset_csv, "x_0,y,observed\n0.1,0.5,1\n0.2\n", r"line 3: expected 3"),
    (serialize.read_dataset_csv, "x_0,y,observed\n0.1,0.5,1\n0.2,z,1\n", r"line 3: .*'z'"),
    (serialize.read_dataset_csv, "x_0,y,observed\n0.1,0.5,2\n", r"line 2: .*observed flag 2"),
    (serialize.read_inputs_csv, "x_0,x_1\n0.1,0.5\n\n \n", r"line 4: expected 2 fields"),
    (serialize.read_posterior_csv,
     "x_0,posterior_mean,posterior_std,predictive_std\n0.1,0.5,1,1\n0.2,0.5,1\n",
     r"line 3: expected 4 fields"),
])
def test_malformed_rows_name_their_line(read, text, message):
    paths = read in (serialize.read_jumps_csv, serialize.read_sampled_paths_csv)
    domains = (((0.0, 1.0), (0.0, 1.0)),) if paths else ()
    with pytest.raises(ValueError, match=message):
        read(io.StringIO(text), *domains)


def test_sampled_paths_marker_rows_read_as_paths_without_jumps():
    text = "dim,position,magnitude,sweep\n,,,4\n0,0.5,1.0,3\nnan,nan,nan,3\n"
    back = serialize.read_sampled_paths_csv(io.StringIO(text), [(0.0, 1.0)])
    assert [(sweep, path.n_jumps()) for sweep, path in back] == [(3, 1), (4, 0)]
