"""CSV and dotted-key text formats used by the command-line pipeline.

All floats are written with ``repr`` so files round-trip bit for bit, and
row orders are deterministic.  The dotted-key format is one ``key = value``
pair per line, ``#`` comments, values kept verbatim as strings.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .levy import JumpSet, SubordinatorPath


def _fmt(value: float) -> str:
    return repr(float(value))


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
# jump / path CSV:  dim,position,magnitude[,sweep]
# ---------------------------------------------------------------------------

def path_rows(path: SubordinatorPath) -> list[tuple[int, float, float]]:
    """Rows (dim, position, magnitude) by dimension, then in each jump set's position order."""
    return [(dim, pos, mag) for dim, js in enumerate(path.jump_sets)
            for pos, mag in zip(js.positions.tolist(), js.magnitudes.tolist())]


def write_jumps_csv(fp, path: SubordinatorPath) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["dim", "position", "magnitude"])
    for dim, pos, mag in path_rows(path):
        writer.writerow([dim, _fmt(pos), _fmt(mag)])


def _data_rows(reader, width: int):
    """The non-empty rows after the header, each checked to have ``width`` fields."""
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            raise ValueError(f"line {reader.line_num}: expected {width} fields, got {row}")
        yield row


def _jump(row: list[str], line_num: int, n_dims: int) -> tuple[int, float, float]:
    """(dim, position, magnitude) of a jump CSV row, dim checked."""
    dim = int(row[0])
    if not 0 <= dim < n_dims:
        raise ValueError(f"line {line_num}: jump row {row} references "
                         f"dimension {dim}, have {n_dims}")
    return dim, float(row[1]), float(row[2])


def _path_from_rows(rows: list[tuple[int, float, float]],
                    domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    """Path from (dim, position, magnitude) rows."""
    dims, pos, mag = np.reshape(rows, (-1, 3)).T
    return SubordinatorPath([JumpSet(pos[dims == k], mag[dims == k], dom)
                             for k, dom in enumerate(domains)])


def read_jumps_csv(fp, domains: Sequence[tuple[float, float]]) -> SubordinatorPath:
    reader = csv.reader(fp)
    header = next(reader)
    if header[:3] != ["dim", "position", "magnitude"]:
        raise ValueError(f"unexpected jump CSV header: {header}")
    return _path_from_rows([_jump(row, reader.line_num, len(domains))
                            for row in _data_rows(reader, 3)], domains)


def write_sampled_paths_csv(fp, paths: Iterable[SubordinatorPath],
                            sweeps: Iterable[int]) -> None:
    """Per-sample subordinator jumps with the sweep index that produced them.

    A path without jumps is written as the one marker row ``,,,sweep``.
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["dim", "position", "magnitude", "sweep"])
    for path, sweep in zip(paths, sweeps):
        rows = path_rows(path)
        for dim, pos, mag in rows:
            writer.writerow([dim, _fmt(pos), _fmt(mag), sweep])
        if not rows:
            writer.writerow(["", "", "", sweep])


def read_sampled_paths_csv(fp, domains: Sequence[tuple[float, float]]
                           ) -> list[tuple[int, SubordinatorPath]]:
    """Inverse of ``write_sampled_paths_csv``; returns (sweep, path) pairs."""
    reader = csv.reader(fp)
    header = next(reader)
    if header != ["dim", "position", "magnitude", "sweep"]:
        raise ValueError(f"unexpected sampled-path CSV header: {header}")
    grouped: dict[int, list[tuple[int, float, float]]] = {}
    for row in _data_rows(reader, 4):
        jumps = grouped.setdefault(int(row[3]), [])
        if row[:3] != ["", "", ""]:  # else the marker row of a path without jumps
            jumps.append(_jump(row, reader.line_num, len(domains)))
    return [(sweep, _path_from_rows(grouped[sweep], domains)) for sweep in sorted(grouped)]


# ---------------------------------------------------------------------------
# dataset CSV:  x_0..x_{d-1},y,observed  + dotted-key metadata sidecar
# ---------------------------------------------------------------------------

def write_dataset_csv(fp, X: np.ndarray, y: np.ndarray, observed: np.ndarray) -> None:
    X = np.atleast_2d(X)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"x_{k}" for k in range(X.shape[1])] + ["y", "observed"])
    for i in range(X.shape[0]):
        writer.writerow([_fmt(v) for v in X[i]] + [_fmt(y[i]), int(observed[i])])


def read_dataset_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or header[:d] != [f"x_{k}" for k in range(d)] or header[d] != "y":
        raise ValueError(f"unexpected dataset CSV header: {header}")
    has_observed = "observed" in header
    xs, ys, obs = [], [], []
    for row in _data_rows(reader, d + 1 + has_observed):
        xs.append([float(v) for v in row[:d]])
        ys.append(float(row[d]))
        obs.append(bool(int(row[d + 1])) if has_observed else True)
    return np.asarray(xs, dtype=float), np.asarray(ys), np.asarray(obs, dtype=bool)


def read_inputs_csv(fp) -> np.ndarray:
    """Read the ``x_*`` columns of a CSV (extra columns like y are ignored)."""
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    if d < 1 or header[:d] != [f"x_{k}" for k in range(d)]:
        raise ValueError(f"expected leading x_0..x_{{d-1}} columns, got header {header}")
    rows = [[float(v) for v in row[:d]] for row in reader if row]
    return np.asarray(rows, dtype=float).reshape(-1, d)


def parse_domains(text: str) -> tuple[tuple[float, float], ...]:
    """Parse ``lo,hi`` pairs separated by ``;`` into per-dimension intervals."""
    domains = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"expected 'lo,hi' in domain spec, got {part!r}")
        domains.append((float(pieces[0]), float(pieces[1])))
    return tuple(domains)


def format_domains(domains: Sequence[tuple[float, float]]) -> str:
    return ";".join(f"{_fmt(lo)},{_fmt(hi)}" for lo, hi in domains)


# ---------------------------------------------------------------------------
# posterior / prediction CSV:  x...,posterior_mean,posterior_std,predictive_std
# ---------------------------------------------------------------------------

def write_posterior_csv(fp, X: np.ndarray, mean: np.ndarray, post_std: np.ndarray,
                        pred_std: np.ndarray) -> None:
    X = np.atleast_2d(X)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"x_{k}" for k in range(X.shape[1])]
                    + ["posterior_mean", "posterior_std", "predictive_std"])
    for i in range(X.shape[0]):
        writer.writerow([_fmt(v) for v in X[i]]
                        + [_fmt(mean[i]), _fmt(post_std[i]), _fmt(pred_std[i])])


def read_posterior_csv(fp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    reader = csv.reader(fp)
    header = next(reader)
    d = sum(1 for name in header if name.startswith("x_"))
    expected = [f"x_{k}" for k in range(d)] + ["posterior_mean", "posterior_std",
                                               "predictive_std"]
    if header != expected:
        raise ValueError(f"unexpected posterior CSV header: {header}")
    rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=float).reshape(-1, d + 3)
    return arr[:, :d], arr[:, d], arr[:, d + 1], arr[:, d + 2]


# ---------------------------------------------------------------------------
# trace CSV:  sweep,log_cond_lik,accepted
# ---------------------------------------------------------------------------

def write_trace_csv(fp, trace) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["sweep", "log_cond_lik", "accepted"])
    for step in trace:
        writer.writerow([step.sweep, _fmt(step.log_cond_lik), int(step.accepted)])
