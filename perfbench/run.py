"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload se_paper --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with tracing off; with ``--trace 1`` they
are the per-layer ones from a traced run, which also re-runs every traced
fit untraced and requires bit-identical outputs.  The line before it is
``{"meta": ...}`` with the run's setup (commit, cores, BLAS threads,
library versions, seed, proposal count).  Both are also written to
``.perfbench_runs/`` together with the recorded spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (never more than nproc): on a 2-core machine a second
# OpenBLAS thread spins on the core the interpreter needs, which made SE
# fits slower and noisier.
BLAS_THREADS = 1
# The package is imported this many times (each time afresh, its numpy and
# scipy dependencies already loaded) and the median counts towards setup_s.
IMPORT_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "proposals_per_s": "1/s",
    "predict_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "levy.simulate_jumps.calls": "count",
    "levy.simulate_jumps.self_s": "s",
    "levy.path_build.calls": "count",
    "levy.path_build.self_s": "s",
    "levy.jumps_per_path.mean": "count",
    "levy.jumps_per_path.max": "count",
    "sampler.propose.self_s": "s",
    "sampler.accept_rate": "frac",
    "sampler.chain.self_s": "s",
    "sampler.mixture.self_s": "s",
    "sampler.stored_cov_mb": "MB",
    "gp.warp.self_s": "s",
    "gp.loglik.calls": "count",
    "gp.loglik.self_s": "s",
    "gp.posterior.calls": "count",
    "gp.posterior.self_s": "s",
    "kernels.build_gram.calls": "count",
    "kernels.build_gram.self_s": "s",
    "kernels.gram_mb": "MB",
    "serialize.write.self_s": "s",
    "serialize.bytes_written": "B",
    "serialize.read.self_s": "s",
    "serialize.bytes_read": "B",
    "cli.baseline.self_s": "s",
    "datagen.generate.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
    **{f"gp.loglik_ms.{family}.n{n}": "ms"
       for family in ("se", "matern52") for n in (100, 1000, 2000)},
}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict[str, int | None]:
    """Threads reported by the OpenBLAS builds that numpy and scipy load."""
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules[pkg]
        libs = glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir,
                                      f"{pkg}.libs", "*openblas*"))
        out[pkg] = None
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg] = int(fn())
                    break
    return out


def _import_ngpr() -> float:
    """Seconds to import ``ngpr`` and ``ngpr.cli`` afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ngpr" or m.startswith("ngpr.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("ngpr")
    importlib.import_module("ngpr.cli")
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ngpr" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (ngpr's dependencies load before its import is timed)
    import scipy.spatial.distance  # noqa: F401
    import scipy.special  # noqa: F401

    import_s = statistics.median(_import_ngpr() for _ in range(IMPORT_REPS))
    ngpr = sys.modules["ngpr"]
    if Path(ngpr.__file__).resolve().parent != SRC / "ngpr":
        print(f"error: imported ngpr from {ngpr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR))
    runner = harness.Runner(workload, args.seed, args.seconds, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        values = runner.traced(tracer) if tracer else runner.untraced(import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "proposals_per_fit": workload.proposals,
        "workload_config": asdict(workload),
        "failed_frac": runner.failed / runner.attempted,
        "fit_s_each": runner.fit_times,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=1))
    if tracer:
        (RUNS_DIR / f"{stem}_spans.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
