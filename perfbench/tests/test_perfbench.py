"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

from checks import OutputCheck, digest
from spans import Span, Tracer, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _span(sid, start, end, parent=None):
    span = Span(sid, "layer", f"s{sid}", start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),    # overlaps span 1 on [2, 3]
        _span(3, 8.0, 12.0, parent=0),   # runs past its parent's end
        _span(4, 1.5, 2.5, parent=1),    # grandchild: not span 0's child
        _span(5, 20.0, 21.0),            # another root
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_the_unit():
    tracer = Tracer(True)
    with tracer.span("parallel", "sweep_seeds", "kernel-a"):
        with tracer.span("runtime", "run") as inner:
            inner.counts["steps"] = 7
    outer, inner = tracer.spans
    assert inner.parent == outer.sid and inner.unit == "kernel-a"
    totals = tracer.layer_totals()
    assert totals[("runtime", "run")]["steps"] == 7
    assert totals[("parallel", "sweep_seeds")]["self_s"] <= outer.duration

    off = Tracer(False)
    with off.span("runtime", "run") as span:
        span.counts["steps"] = 1
    assert off.spans == []


def test_checker_accepts_repeats_and_rejects_drift():
    record = {"status": "ok", "steps": 12}
    check = OutputCheck()
    assert check.observe("u", record, [])
    assert check.observe("u", dict(record), [])
    assert not check.observe("u", {"status": "ok", "steps": 13}, [])
    assert not check.observe("v", record, ["wrong verdict"])
    assert (check.attempted, check.failed) == (4, 2)


def test_checker_fails_on_a_corrupted_reference():
    import workloads

    with open(os.path.join(BENCH, "reference.json")) as f:
        reference = json.load(f)["loadgen"]
    assert reference["seed"] == 0
    workload = workloads.Loadgen()
    workload.setup()
    unit = workload.units(0)[0]
    record, problems = workload.run_unit(unit, Tracer(False))
    unit_id = workload.unit_id(unit)

    assert OutputCheck(reference["units"]).observe(unit_id, record, problems)

    corrupted = dict(reference["units"])
    corrupted[unit_id] = digest({"tampered": True})
    check = OutputCheck(corrupted)
    assert not check.observe(unit_id, record, problems)
    assert "reference.json" in check.failures[0]


def test_reference_round_trip(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "REFERENCE", str(tmp_path / "reference.json"))
    assert run.load_reference("loadgen") is None
    path = {"backend": "tasklet", "compiled": True, "nproc": 2}
    run.write_reference("loadgen", 3, path, {"seed12": "abc"})
    run.write_reference("chaos", 0, path, {"size3/crash-restart/seed0": "d"})
    assert run.load_reference("loadgen") == {
        "seed": 3, "path": {"backend": "tasklet", "compiled": True},
        "units": {"seed12": "abc"}}
    assert run.load_reference("chaos")["seed"] == 0


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        expected = {m["name"]: m["unit"] for m in json.load(f)[section]}
    result = _run("loadgen", trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "loadgen", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
