"""Tests of the benchmark's own arithmetic and metric names.

Run from the root of a checkout:  python -m pytest perfbench -q
"""

import json
import re
from pathlib import Path

import pytest

import run
from spans import (
    METRIC_NAME,
    Recorder,
    Span,
    percentile,
    self_seconds,
    spans_from_json,
    summarize,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0, 100, -1, "r"),
        Span("b", 10, 40, 0, "r"),
        Span("c", 20, 30, 1, "r"),
        Span("d", 50, 60, 0, "r"),
        Span("e", 200, 210, -1, "r"),
    ]
    got = [round(s * 1e9) for s in self_seconds(spans)]
    assert got == [60, 20, 10, 10, 10]
    # Self times of one run add up to the time covered by its top-level spans.
    assert sum(got) == 110


def test_recorder_nests_spans_and_records_raising_calls():
    rec = Recorder("run-1")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    class Owner:
        pass

    owner = Owner()
    owner.inner = inner
    rec.patch(owner, "inner", "m.inner")

    def outer(x):
        return owner.inner(x) * 2

    outer = rec.wrap("m.outer", outer)
    assert outer(1) == 4
    with pytest.raises(ValueError):
        owner.inner(-1)
    names = [(s.name, s.parent, s.run_id) for s in rec.spans]
    assert names == [("m.outer", -1, "run-1"), ("m.inner", 0, "run-1"),
                     ("m.inner", -1, "run-1")]
    assert all(s.end >= s.start for s in rec.spans)
    assert spans_from_json(json.loads(json.dumps(rec.to_json()))) == rec.spans


def test_summarize_counts_calls_and_self_time_across_runs():
    run_a = [Span("x", 0, 100, -1, "a"), Span("y", 0, 40, 0, "a")]
    run_b = [Span("x", 0, 50, -1, "b")]
    layers = summarize([run_a, run_b])
    assert layers["x"].calls == 2
    assert layers["x"].total_s == pytest.approx(150e-9)
    assert layers["x"].self_s == pytest.approx(110e-9)
    assert layers["y"].self_s == pytest.approx(40e-9)


def test_percentile_interpolates():
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(101)), 99) == 99.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_metric_names_and_units_follow_the_rules():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert not METRIC_NAME.fullmatch("_leading")
    assert not METRIC_NAME.fullmatch("has space")
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == {"run_s", "analyze_s", "setup_s", "peak_rss_mb", "run_dir_mb",
                   "energy_gap"}
    assert all(m["bound"] <= next(s["bound"] for s in SPEC["end_to_end"]
                                  if s["name"] == "setup_s")
               for m in SPEC["end_to_end"])


def test_layer_metrics_emit_exactly_the_declared_names():
    spans = [
        Span("cli.run_experiment", 0, 1000, -1, "run"),
        Span("flow.run_flow", 10, 900, 0, "run"),
        Span("flow.tension_field", 20, 50, 1, "run"),
        Span("measures.pushforward", 910, 950, 0, "run"),
        Span("hyperbolic.reduce_points", 915, 940, 3, "run"),
    ]
    rep = run.Repeat(
        sample={"run_s": 2.0}, analyze_s=[1.0],
        summary={"snapshot_count": 1, "accepted_steps": 3, "rejected_steps": 0},
        snapshot_bytes=2**20,
    )
    for workload in run.WORKLOADS.values():
        got = run.layer_metrics(workload, [spans], rep, rep)
        assert set(got) == {m["name"] for m in SPEC["per_layer"]}
    assert got["measures.pushforward.calls_per_snapshot"] == 0.5
    assert got["flow.run_flow.self_s"] == pytest.approx(860e-9)
    assert got["hyperbolic.reduce_points.points"] == run.WORKLOADS["snap400"].nodes
    assert got["trace.overhead_s"] == 0.0


def test_every_listed_workload_has_recorded_outcomes_for_every_folded_seed():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert set(run.EXPECTED[name]) == set(range(run.RECORDED_SEEDS))


def test_scaled_time_is_the_time_at_the_nominal_reference_speed():
    op = run.Op(wall_s=3.0, ref_s=2 * run.REF_NOMINAL_S, rss_mib=1.0,
                returncode=0, stdout="")
    # The reference ran at half the nominal speed, so the command would have
    # taken half as long at the nominal speed.
    assert op.scaled(op.wall_s) == pytest.approx(1.5)
    assert op.scaled(0.2) == pytest.approx(0.1)
