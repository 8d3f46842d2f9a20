"""Checks on the benchmark's own code, at tiny sizes.

Tracing must not change what ``ngpr`` computes, and every attribute the
tracer patches must be restored afterwards.
"""

import json
import sys
from pathlib import Path

import ngpr
import run
import tracing
import workloads

TINY_FIT = workloads.InProcessWorkload("tiny", "se", (0.0, 0.5), n_points=20, n_observed=15,
                                       n_intervals=4, n_sweeps=3, n_terms=50)
TINY_CLI = workloads.CliPipelineWorkload(n_points=12, n_observed=10, n_terms=30, n_sweeps=3,
                                         n_intervals=4, n_chains=2)


def _ngpr_attributes():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "ngpr" or name.startswith("ngpr.")}
    return mods, vars(ngpr.SubordinatorPath)["__init__"]


def _assert_restored(before):
    mods, init = _ngpr_attributes()
    assert vars(ngpr.SubordinatorPath)["__init__"] is before[1]
    for name, attrs in before[0].items():
        assert mods[name].keys() == attrs.keys()
        changed = [k for k, v in attrs.items() if mods[name][k] is not v]
        assert not changed, f"{name}: {changed} not restored"


def test_traced_fit_is_bit_identical_and_restores_wrappers(tmp_path):
    before = _ngpr_attributes()
    inputs = TINY_FIT.prepare(3, tmp_path)
    plain = TINY_FIT.fit(inputs, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert ngpr.sampler.propose is not before[0]["ngpr.sampler"]["propose"]
        with tracer.root("fit") as root:
            traced = TINY_FIT.fit(inputs, 0)
    _assert_restored(before)

    assert plain.aggregate_mean.tobytes() == traced.aggregate_mean.tobytes()
    assert plain.trace == traced.trace
    pred = TINY_FIT.predict(inputs, traced)
    assert TINY_FIT.check(inputs, traced, pred) == []

    spans = tracer.spans
    own = tracing.self_times(spans)
    assert min(own) > -1e-9
    m = tracing.layer_metrics(spans, own, tracing.subtree(spans, root))
    assert m["levy.simulate_jumps.calls"] == TINY_FIT.proposals
    assert m["gp.loglik.calls"] == TINY_FIT.proposals + 1
    assert m["gp.posterior.calls"] == TINY_FIT.n_sweeps
    assert m["levy.jumps_per_path.max"] == max(p.n_jumps() for p in traced.paths)


def test_traced_cli_pipeline_is_bit_identical_and_restores_wrappers(tmp_path):
    before = _ngpr_attributes()
    inputs = TINY_CLI.prepare(5, tmp_path)
    outputs = []
    tracer = tracing.Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            with tracer.root("fit") as root:
                fit = TINY_CLI.fit(inputs, 0)
                pred = TINY_CLI.predict(inputs, fit)
        finally:
            tracer.restore()
        assert TINY_CLI.check(inputs, fit, pred) == []
        outputs.append(TINY_CLI.fingerprint(inputs, fit, pred))
    _assert_restored(before)
    assert outputs[0] == outputs[1]

    spans = tracer.spans
    m = tracing.layer_metrics(spans, tracing.self_times(spans), tracing.subtree(spans, root))
    written = sum(p.stat().st_size for p in fit.out.glob("*.csv"))
    assert 0 < m["serialize.bytes_written"] <= written
    assert m["serialize.bytes_read"] > 0
    assert m["sampler.accept_rate"] > 0
    assert m["cli.baseline.self_s"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == {**run.END_TO_END, **run.PER_LAYER}[m["name"]]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
