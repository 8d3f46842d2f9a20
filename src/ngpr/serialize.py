"""CSV and dotted-key text formats used by the command-line pipeline.

Every CSV goes through one reader and one writer.  ``parse_rows`` parses a
file's body in one ``np.loadtxt`` call, whose C parser rounds like ``float``;
it skips blank lines, takes CRLF line ends and names the file line of a
short row or a bad field.  The sampled-path CSV's marker row ``,,,sweep`` (a
path without jumps) is read through a NaN sentinel.  ``write_csv`` writes
rows of ``repr`` strings, one pass per column (``floats``), so files
round-trip bit for bit.  The dotted-key format is one ``key = value`` pair
per line, ``#`` comments, values kept verbatim as strings.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .levy import JumpSet, SubordinatorPath, finite_domain


# ---------------------------------------------------------------------------
# dotted-key config text
# ---------------------------------------------------------------------------

def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines and ``#`` comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def format_kv_text(entries: dict[str, str]) -> str:
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the CSV reader and writer
# ---------------------------------------------------------------------------

def floats(values) -> Iterator[str]:
    """``repr`` of each value as a float: the shortest text that reads back bit for bit."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_csv(fp, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write the header, then each row of field strings, as ``\\n``-terminated lines."""
    fp.write("\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def split_csv(text: str) -> tuple[list[str], list[str]]:
    """Header fields and body lines of a CSV text, line ends (``\\n`` or ``\\r\\n``) dropped."""
    header, *lines = text.splitlines() or [""]
    return header.split(","), lines


def parse_rows(lines: list[str], width: int) -> np.ndarray:
    """The first ``width`` fields of the non-blank lines (file lines 2, 3, ...) as floats."""
    if not any(lines):
        return np.empty((0, width))
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, usecols=range(width), ndmin=2)
    except ValueError:
        for lineno, fields in ((n, line.split(",")) for n, line in enumerate(lines, 2) if line):
            if len(fields) < width:
                raise ValueError(f"line {lineno}: expected {width} fields, got {fields}") from None
            try:
                [float(field) for field in fields[:width]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        raise


def _integers(table: np.ndarray, col: int, lines: list[str], lo: int, hi: int,
              name: str) -> np.ndarray:
    """Column ``col`` of a ``parse_rows`` table as int64, each entry an integer in [lo, hi)."""
    values = table[:, col]
    bad = np.flatnonzero(~((lo <= values) & (values < hi) & (np.floor(values) == values)))
    if bad.size:
        lineno = [n for n, line in enumerate(lines, start=2) if line][bad[0]]
        row = lines[lineno - 2].split(",")
        raise ValueError(f"line {lineno}: row {row} references {name} {row[col]}, "
                         f"not an integer in [{lo}, {hi})")
    return values.astype(np.int64)


# ---------------------------------------------------------------------------
# jump / path CSV:  dim,position,magnitude[,sweep]
# ---------------------------------------------------------------------------

def _jump_rows(path: SubordinatorPath, *tail: str) -> Iterator[tuple[str, ...]]:
    """Rows (dim, position, magnitude, *tail) by dimension, then in each jump set's order."""
    return chain.from_iterable(
        zip(repeat(str(dim)), floats(js.positions), floats(js.magnitudes), *map(repeat, tail))
        for dim, js in enumerate(path.jump_sets))


def _path(dims: np.ndarray, table: np.ndarray,
          domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    """Path from table rows (dim, position, magnitude, ...) with their checked ``dims``."""
    return SubordinatorPath([JumpSet(table[dims == k, 1], table[dims == k, 2], dom)
                             for k, dom in enumerate(domains)])


def write_jumps_csv(fp, path: SubordinatorPath) -> None:
    write_csv(fp, ["dim", "position", "magnitude"], _jump_rows(path))


def read_jumps_csv(fp, domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    header, lines = split_csv(fp.read())
    if header[:3] != ["dim", "position", "magnitude"]:
        raise ValueError(f"unexpected jump CSV header: {header}")
    table = parse_rows(lines, 3)
    return _path(_integers(table, 0, lines, 0, len(domains), "dimension"), table, domains)


def write_sampled_paths_csv(fp, paths: Iterable[SubordinatorPath],
                            sweeps: Iterable[int]) -> None:
    """Per-sample subordinator jumps with the sweep index that produced them.

    A path without jumps is written as the one marker row ``,,,sweep``.
    """
    write_csv(fp, ["dim", "position", "magnitude", "sweep"], chain.from_iterable(
        _jump_rows(path, str(sweep)) if path.n_jumps() else [("", "", "", str(sweep))]
        for path, sweep in zip(paths, sweeps)))


def read_sampled_paths_csv(fp, domains: Sequence[tuple[float, float]]
                           ) -> list[tuple[int, SubordinatorPath]]:
    """Inverse of ``write_sampled_paths_csv``; returns (sweep, path) pairs by sweep.

    Rows of one sweep need not be contiguous; they keep their file order.
    """
    # The marker row ",,,sweep" parses as "nan,nan,nan,sweep": a row of three
    # NaNs reads as a marker too, and any other NaN dim fails the dim check.
    header, lines = split_csv(fp.read().replace("\n,,,", "\nnan,nan,nan,"))
    if header != ["dim", "position", "magnitude", "sweep"]:
        raise ValueError(f"unexpected sampled-path CSV header: {header}")
    table = parse_rows(lines, 4)
    jump = ~np.isnan(table[:, :3]).all(axis=1)
    table[~jump, 0] = 0  # a marker passes the dim check as 0, then holds no jump as -1
    dims = np.where(jump, _integers(table, 0, lines, 0, len(domains), "dimension"), -1)
    sweeps = _integers(table, 3, lines, 0, 2 ** 53, "sweep")
    order = np.argsort(sweeps, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(sweeps[order])) + 1)
    return [(int(sweeps[rows[0]]), _path(dims[rows], table[rows], domains))
            for rows in groups if rows.size]


# ---------------------------------------------------------------------------
# dataset CSV:  x_0..x_{d-1},y,observed  + dotted-key metadata sidecar
# ---------------------------------------------------------------------------

def write_dataset_csv(fp, X: np.ndarray, y: np.ndarray, observed: np.ndarray) -> None:
    X = np.atleast_2d(X)
    write_csv(fp, [f"x_{k}" for k in range(X.shape[1])] + ["y", "observed"],
              zip(*map(floats, X.T), floats(y),
                  map(str, np.asarray(observed, dtype=int).tolist())))


def input_width(header: Sequence[str]) -> int:
    """The ``d`` of a header that leads with ``x_0..x_{d-1}`` and has no other ``x_*`` name."""
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or list(header[:d]) != [f"x_{k}" for k in range(d)]:
        raise ValueError(f"expected leading x_0..x_{{d-1}} columns, got header {header}")
    return d


def read_dataset_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    header, lines = split_csv(fp.read())
    d = input_width(header)
    if header[d:d + 1] != ["y"]:
        raise ValueError(f"unexpected dataset CSV header: {header}")
    has_observed = "observed" in header
    table = parse_rows(lines, d + 1 + has_observed)
    observed = (_integers(table, d + 1, lines, 0, 2, "observed flag") == 1 if has_observed
                else np.ones(table.shape[0], dtype=bool))
    return np.ascontiguousarray(table[:, :d]), table[:, d].copy(), observed


def read_inputs_csv(fp) -> np.ndarray:
    """Read the ``x_*`` columns of a CSV (extra columns like y are ignored)."""
    header, lines = split_csv(fp.read())
    return parse_rows(lines, input_width(header))


def parse_domains(text: str) -> tuple[tuple[float, float], ...]:
    """Parse ``lo,hi`` pairs separated by ``;`` into per-dimension ``levy.finite_domain`` bounds."""
    domains = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"expected 'lo,hi' in domain spec, got {part!r}")
        domains.append(finite_domain(*pieces))
    return tuple(domains)


def format_domains(domains: Sequence[tuple[float, float]]) -> str:
    return ";".join(",".join(floats(bounds)) for bounds in domains)


# ---------------------------------------------------------------------------
# posterior / prediction CSV:  x...,posterior_mean,posterior_std,predictive_std
# ---------------------------------------------------------------------------

def write_posterior_csv(fp, X: np.ndarray, mean: np.ndarray, post_std: np.ndarray,
                        pred_std: np.ndarray) -> None:
    X = np.atleast_2d(X)
    write_csv(fp, [f"x_{k}" for k in range(X.shape[1])]
              + ["posterior_mean", "posterior_std", "predictive_std"],
              zip(*map(floats, X.T), floats(mean), floats(post_std), floats(pred_std)))


def read_posterior_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    header, lines = split_csv(fp.read())
    d = input_width(header)
    if header[d:] != ["posterior_mean", "posterior_std", "predictive_std"]:
        raise ValueError(f"unexpected posterior CSV header: {header}")
    table = parse_rows(lines, d + 3)
    return table[:, :d], table[:, d], table[:, d + 1], table[:, d + 2]


# ---------------------------------------------------------------------------
# trace CSV:  sweep,log_cond_lik,accepted
# ---------------------------------------------------------------------------

def write_trace_csv(fp, trace) -> None:
    write_csv(fp, ["sweep", "log_cond_lik", "accepted"],
              ((str(step.sweep), repr(float(step.log_cond_lik)), str(int(step.accepted)))
               for step in trace))
