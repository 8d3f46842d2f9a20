"""Measuring loops of the benchmark: set-up, timed fits, traced fits and their metrics.

Imported by ``run.py`` only after it has timed the import of ``ngpr``.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

SETUP_REPS = 5
# An untraced predict is repeated for at least this long after each fit and
# its mean per call is kept: a single SE predict lasts about 25 ms, too short
# to average out the test machine's speed swings.
MIN_PREDICT_S = 0.5


def _median(values) -> float:
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class FitTiming:
    """One fit that passed its checks: timings, output digest, root span ids when traced."""

    fit_s: float
    predict_s: float
    digest: str
    roots: dict = field(default_factory=dict)


class Runner:
    """Runs one workload's set-up, fits and predicts, and collects timings and problems."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.fit_times: list[float] = []

    def setup(self, tracer=None):
        """Prepare the inputs ``SETUP_REPS`` times; return the last inputs and each duration."""
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            if tracer is None:
                inputs = self.w.prepare(self.seed, self.workdir)
            else:
                with tracer.installed(), tracer.root("setup"):
                    inputs = self.w.prepare(self.seed, self.workdir)
            times.append(time.perf_counter() - t0)
        return inputs, times

    def fit_indices(self):
        """Yield 0, 1, ... while the elapsed time plus the last iteration's fits in the budget."""
        start = time.perf_counter()
        index = 0
        last = 0.0
        while index == 0 or time.perf_counter() - start + last <= self.seconds:
            t0 = time.perf_counter()
            yield index
            last = time.perf_counter() - t0
            index += 1

    def one_fit(self, inputs, index: int, tracer=None) -> FitTiming | None:
        """Fit and predict, then check the outputs; None if it raised or failed a check."""
        self.attempted += 1
        roots = {}
        calls = 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                fit = self.w.fit(inputs, index)
                t1 = time.perf_counter()
                pred = self.w.predict(inputs, fit)
                while time.perf_counter() - t1 < MIN_PREDICT_S:
                    pred = self.w.predict(inputs, fit)
                    calls += 1
            else:
                with tracer.installed():
                    with tracer.root("fit") as roots["fit"]:
                        fit = self.w.fit(inputs, index)
                    t1 = time.perf_counter()
                    with tracer.root("predict") as roots["predict"]:
                        pred = self.w.predict(inputs, fit)
            t2 = time.perf_counter()
        except Exception:  # a fit that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problems = self.w.check(inputs, fit, pred)
        digest = self.w.fingerprint(inputs, fit, pred)
        self.w.discard(fit)
        if problems:
            print(f"fit {index} failed its checks: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        return FitTiming(t1 - t0, (t2 - t1) / calls, digest, roots)

    def untraced(self, import_s: float) -> dict[str, float]:
        inputs, setup_times = self.setup()
        done = [r for i in self.fit_indices() if (r := self.one_fit(inputs, i)) is not None]
        if not done:
            raise RuntimeError("no fit completed its checks")
        self.fit_times = [r.fit_s for r in done]
        return {
            "setup_s": import_s + _median(setup_times),
            "fit_s": _median(self.fit_times),
            "proposals_per_s": _median(self.w.proposals / t for t in self.fit_times),
            "predict_s": _median(r.predict_s for r in done),
            "peak_rss_mb": _peak_rss_mb(),
        }

    def traced(self, tracer) -> dict[str, float]:
        """Per-layer metrics: each fit runs untraced, then traced with the same seed."""
        inputs, _ = self.setup(tracer)
        setup_roots = [i for i, s in enumerate(tracer.spans) if s.name == "setup"]
        pairs = []
        for index in self.fit_indices():
            plain = self.one_fit(inputs, index)
            traced = self.one_fit(inputs, index, tracer)
            if plain is None or traced is None:
                continue
            if plain.digest != traced.digest:
                print(f"fit {index}: traced outputs differ from untraced", file=sys.stderr)
                self.failed += 1
                continue
            pairs.append((plain, traced))
        if not pairs:
            raise RuntimeError("no traced fit matched its untraced twin")

        spans = tracer.spans
        own = tracing.self_times(spans)
        per_fit = []
        for plain, traced in pairs:
            fit_root, pred_root = traced.roots["fit"], traced.roots["predict"]
            indices = tracing.subtree(spans, fit_root) + tracing.subtree(spans, pred_root)
            m = tracing.layer_metrics(spans, own, indices)
            traced_fit_s = spans[fit_root].end - spans[fit_root].start
            m["trace.unattributed_s"] = own[fit_root]
            m["trace.attributed_frac"] = 1.0 - own[fit_root] / traced_fit_s
            m["trace.overhead_frac"] = traced_fit_s / plain.fit_s - 1.0
            per_fit.append(m)
        values = {name: _median(m[name] for m in per_fit) for name in per_fit[0]}
        values["datagen.generate.self_s"] = _median(
            sum(own[i] for i in tracing.subtree(spans, r) if spans[i].name == "datagen.generate")
            for r in setup_roots)
        values.update(workloads.loglik_sweep(self.seed))
        return values
