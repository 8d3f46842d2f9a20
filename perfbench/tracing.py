"""In-memory span tracing of ``ngpr`` layers, installed from outside the package.

``Tracer.install`` replaces each traced public function at every ``ngpr``
module attribute bound to it (``ngpr.sampler.propose``, ``ngpr.gp.build_gram``
and so on), because the package imports names into each module's namespace.
A wrapper records a span ``{name, start, end, parent}`` only while a root
span opened by the benchmark is active, so calls made for set-up checks
or the likelihood sweep are not counted.  ``Tracer.restore`` puts every
original back.

Spans named in ``LEAF_SPANS`` hide their children: the CLI baseline and
the data generator call the same GP and kernel code as the sampler, and
counting those calls under ``gp``/``kernels`` would mix set-up and
baseline work into the sampler's layers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


# Count hooks: ``before(args)`` runs before the call, ``after(args, result,
# before_value)`` after it; both stay outside the span's own time.

def _file_position(args):
    return args[0].tell()


def _written_bytes(args, result, start):
    return {"bytes": args[0].tell() - start}


def _read_bytes(args, result, _):
    return {"bytes": os.fstat(args[0].fileno()).st_size}


def _gram_bytes(args, result, _):
    return {"bytes": int(result.nbytes)}


# The readers below accept the sampler's output in the shapes a later
# version may give it (trace as columns, no retained samples or paths), so
# that the benchmark keeps running unchanged against such a version.

def trace_column(trace, name: str) -> list:
    """One field of a chain trace, whether stored per step or as a column."""
    column = getattr(trace, name, None)
    if column is None:
        column = [getattr(step, name) for step in trace]
    return list(column)


def chain_summary(mix) -> dict:
    """Counts read off one chain's ``MixturePosterior``: path sizes, stored covariances, moves."""
    paths = tuple(getattr(mix, "paths", ()) or ())
    if not paths and getattr(mix, "final_path", None) is not None:
        paths = (mix.final_path,)
    flags = [bool(f) for f in trace_column(mix.trace, "accepted")]
    return {
        "jumps": [int(p.n_jumps()) for p in paths],
        "cov_bytes": int(sum(s.cov.nbytes for s in getattr(mix, "samples", ()) or ())),
        "steps": len(flags),
        "accepted": sum(flags),
    }


def _chain_counts(args, result, _):
    return chain_summary(result)


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module, attribute, optional count hooks.

    ``only`` limits the patch to the attribute in the defining module
    (default: every ``ngpr`` module attribute bound to the same object).
    """

    span: str
    module: str
    attr: str
    before: object = None
    after: object = None
    only: bool = False


TARGETS = (
    Target("levy.simulate_jumps", "ngpr.levy", "simulate_jumps"),
    Target("sampler.chain", "ngpr.sampler", "run_mh_gibbs", after=_chain_counts),
    Target("sampler.propose", "ngpr.sampler", "propose"),
    Target("sampler.mixture", "ngpr.sampler", "mixture_moments"),
    Target("sampler.mixture", "ngpr.sampler", "predictive_moments"),
    Target("sampler.mixture", "ngpr.sampler", "pool_chains"),
    Target("gp.warp", "ngpr.gp", "warp_inputs"),
    Target("gp.loglik", "ngpr.gp", "log_conditional_likelihood"),
    Target("gp.posterior", "ngpr.gp", "posterior"),
    Target("kernels.build_gram", "ngpr.kernels", "build_gram", after=_gram_bytes),
    Target("datagen.generate", "ngpr.datagen", "generate"),
    Target("cli.baseline", "ngpr.cli", "gp_log_marginal_likelihood", only=True),
    Target("cli.baseline", "ngpr.cli", "grid_search_length_scale", only=True),
    *(Target("serialize.write", "ngpr.serialize", name,
             before=_file_position, after=_written_bytes)
      for name in ("write_dataset_csv", "write_jumps_csv", "write_sampled_paths_csv",
                   "write_posterior_csv", "write_trace_csv")),
    *(Target("serialize.read", "ngpr.serialize", name, after=_read_bytes)
      for name in ("read_dataset_csv", "read_jumps_csv", "read_sampled_paths_csv",
                   "read_inputs_csv", "read_posterior_csv")),
)

# Calls to SubordinatorPath(...) are traced through the class's __init__,
# so the class object itself (and isinstance checks) stays untouched.
PATH_BUILD = ("levy.path_build", "ngpr.levy", "SubordinatorPath")

LEAF_SPANS = frozenset({"datagen.generate", "cli.baseline"})


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    counts: dict | None = None


@dataclass
class Tracer:
    """Records spans in memory; ``install``/``restore`` patch and unpatch ``ngpr``."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _leaf_depth: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def root(self, name: str):
        """Open a span with no parent; layer spans are recorded only inside one."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def _wrap(self, fn, target_span: str, before, after):
        tracer = self
        leaf = target_span in LEAF_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack or tracer._leaf_depth:
                return fn(*args, **kwargs)
            pre = before(args) if before else None
            idx = tracer._open(target_span)
            tracer._leaf_depth += leaf
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leaf_depth -= leaf
                tracer._close(idx)
            if after:
                tracer.spans[idx].counts = after(args, result, pre)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target present in the loaded ``ngpr`` modules; missing ones are skipped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ngpr" or name.startswith("ngpr."))]
        for t in TARGETS:
            home = sys.modules.get(t.module)
            original = getattr(home, t.attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, t.span, t.before, t.after)
            for mod in ([home] if t.only else modules):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        span, module, cls_name = PATH_BUILD
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is not None:
            self._set(cls, "__init__", self._wrap(cls.__init__, span, None, None))

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **({"counts": s.counts} if s.counts else {})} for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants (children follow parents in ``spans``)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


LAYER_CALLS = ("levy.simulate_jumps", "levy.path_build", "gp.loglik", "gp.posterior",
               "kernels.build_gram")
LAYER_SELF = ("levy.simulate_jumps", "levy.path_build", "sampler.propose", "sampler.chain",
              "sampler.mixture", "gp.warp", "gp.loglik", "gp.posterior", "kernels.build_gram",
              "serialize.write", "serialize.read", "cli.baseline")


def layer_metrics(spans: list[Span], own: list[float], indices) -> dict[str, float]:
    """Per-layer calls, self seconds and counts over the spans at ``indices``."""
    calls = Counter()
    self_s = defaultdict(float)
    nbytes = Counter()
    jumps: list[int] = []
    cov_bytes = steps = accepted = 0
    for i in indices:
        s = spans[i]
        calls[s.name] += 1
        self_s[s.name] += own[i]
        c = s.counts or {}
        nbytes[s.name] += c.get("bytes", 0)
        jumps += c.get("jumps", [])
        cov_bytes += c.get("cov_bytes", 0)
        steps += c.get("steps", 0)
        accepted += c.get("accepted", 0)
    out: dict[str, float] = {f"{n}.calls": calls[n] for n in LAYER_CALLS}
    out.update({f"{n}.self_s": self_s[n] for n in LAYER_SELF})
    out["levy.jumps_per_path.mean"] = sum(jumps) / len(jumps) if jumps else 0.0
    out["levy.jumps_per_path.max"] = max(jumps, default=0)
    out["sampler.accept_rate"] = accepted / steps if steps else 0.0
    out["sampler.stored_cov_mb"] = cov_bytes / 1e6
    out["kernels.gram_mb"] = nbytes["kernels.build_gram"] / 1e6
    out["serialize.bytes_written"] = nbytes["serialize.write"]
    out["serialize.bytes_read"] = nbytes["serialize.read"]
    return out
