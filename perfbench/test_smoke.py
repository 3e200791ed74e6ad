"""Smoke test: each workload shape, tiny, through the untraced and the traced path.

    python3 -m pytest -q perfbench

It checks the outputs, the metric names and what each workload exercises;
it sets no timing bound.
"""

from __future__ import annotations

import inspect
import json

import pytest

import run  # puts the checkout's src/ on the import path
import tracing
import workloads
from motetrust import cli, rwp, simnet
from motetrust.trustworthiness import TrustRecord

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WATCHED = [(cli, "run"), (cli, "load_scenario"), (cli, "pairs_csv"), (simnet, "select_peer"), (rwp, "step_society"),
           (tracing.Sim, "__init__"), (tracing.Sim, "run_interval"), (TrustRecord, "from_counts")]


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def measured(request, tmp_path_factory):
    before = [inspect.getattr_static(owner, attr) for owner, attr in WATCHED]
    harness = run.Harness(request.param, 1, tmp_path_factory.mktemp(request.param), tiny=True)
    e2e = run.measure(harness, seconds=0, traced=False)
    layers = run.measure(harness, seconds=0, traced=True)
    after = [inspect.getattr_static(owner, attr) for owner, attr in WATCHED]
    assert all(a is b for a, b in zip(before, after)), "wrappers left installed"
    traces = [trace for _, trace in harness.runs]  # the last pass's runs, one per operation
    return request.param, harness, e2e, layers, traces


def test_tiny_shapes_stay_tiny(measured):
    _, harness, _, _, traces = measured
    assert len(harness.runs) == len(harness.ops)
    for scenario, trace in harness.runs:
        assert scenario.motes <= 16
        assert len(trace.records) == 2


def test_outputs_match_recorded_digests(measured):
    _, harness, _, _, _ = measured
    assert harness.recorded is not None, "no recorded digests for the smoke seed; run record_digests.py"
    assert harness.attempted > 0
    assert harness.failed == 0


def test_every_metric_is_reported(measured):
    _, _, e2e, layers, _ = measured
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {n: run.layer_unit(n) for n in layers}
    # tiny runs may not raise the process's peak memory; full-size ones always do
    assert all(value > 0 for name, value in e2e.items() if name != "peak_rss_mb")
    assert e2e["peak_rss_mb"] >= 0


def test_workload_exercises_its_layers(measured):
    name, _, _, layers, traces = measured
    if name in ("ring-qad", "grid-bayes-sink"):
        assert layers["trustworthiness.from_counts.calls"] == 0
    else:
        assert layers["trustworthiness.from_counts.calls"] > layers["trustworthiness.update_counts.calls"] > 0
    if name == "grid-bayes-sink":
        assert layers["beliefs.posterior2.calls"] > 0
        served = sum(rec.active_hacp is not None for t in traces for rec in t.records)
        assert layers["simnet.flood.calls"] == layers["sim.floods"] == served
    else:
        assert layers["beliefs.posterior2.calls"] == 0
        assert layers["rwp.election_s"] > 0
    if name == "ring-qad":
        assert layers["qad.step_society.cells"] > 0 and layers["qad.rate_of_change.calls"] > 0
        kill = next(rec for rec in traces[0].records if rec.elected_hacp == 0 and rec.active_hacp != 0)
        assert kill.active_hacp == kill.backup_hacp  # the standby took over from the killed host
    assert layers["simnet.greedy.calls"] > 0 and layers["simnet.unicast.calls"] > 0
    assert layers["trace.overhead"] > 0


def test_every_seed_is_checked_against_recorded_digests(tmp_path):
    harness = run.Harness("demo-sweep", 1 + run.RECORDED_SEEDS, tmp_path, tiny=True)
    assert harness.input_seed == 1 and harness.recorded is not None
    harness.run_pass()
    assert harness.failed == 0


def test_changed_output_fails_the_operation(tmp_path):
    harness = run.Harness("demo-sweep", 1, tmp_path, tiny=True)
    harness.expected[0] = "0" * 64
    harness.run_pass()
    assert harness.failed == 1
