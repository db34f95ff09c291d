"""The benchmark document: schema-4 fields, backend comparison, perf guard."""

from repro import bench
from repro.runtime.scheduler import resolve_backend


def test_single_cell_records_backend_and_compiled():
    row = bench.bench_single(bench.WORKLOADS["pingpong"], keep_trace=False,
                             rounds=2, repeats=1)
    assert row["backend"] == resolve_backend("coroutine")
    # `compiled` is availability; `fastops_per_run` is engagement.
    assert row["compiled"] == bench.HAS_COMPILED
    if bench.HAS_COMPILED:
        assert row["fastops_per_run"] > 0
    traced = bench.bench_single(bench.WORKLOADS["pingpong"], keep_trace=True,
                                rounds=2, repeats=1)
    # A live trace consumer makes every fast op bail to the observable
    # pure primitive — the accelerators stay loaded, but engage nothing.
    assert traced["compiled"] == bench.HAS_COMPILED
    assert traced["fastops_per_run"] == 0
    thread = bench.bench_single(bench.WORKLOADS["pingpong"], keep_trace=False,
                                rounds=2, repeats=1, backend="thread")
    assert thread["backend"] == "thread"
    # The fast ops run from goroutine context, so they engage on any
    # vehicle — only the fused drive loop is continuation-only.
    assert thread["fastops_per_run"] == row["fastops_per_run"]


def test_schema_bumped_for_the_channel_fastpath():
    assert bench.SCHEMA == 4
    assert "spin" in bench.WORKLOADS
    assert "pingpong_heavy" in bench.CHANNEL_WORKLOADS


def test_backend_comparison_section(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS",
                        {"pingpong": bench.WORKLOADS["pingpong"]})
    doc = bench.run_backend_comparison(repeats=1)
    row = doc["workloads"]["pingpong"]
    assert row["digests_equal"] is True
    assert doc["all_digests_equal"] is True
    assert row["coroutine_backend"] == resolve_backend("coroutine")
    assert row["thread_steps_per_s"] > 0
    assert row["coroutine_steps_per_s"] > 0
    rendered = bench.render({"python": "3.11", "cpus": 1,
                             "backend": row["coroutine_backend"],
                             "compiled": row["compiled"],
                             "backends": doc})
    assert "backend comparison" in rendered
    assert "all schedule digests equal: True" in rendered


def test_fallbacks_section_reports_drive_counters():
    from repro.net.demo import loadgen_summary
    from repro.runtime._hotloop import drive_stats

    drive_stats(True)
    loadgen_summary(seed=0, clients=2, requests=10)
    section = bench.collect_runtime_fallbacks()
    rendered = bench.render({"python": "3.11", "cpus": 1,
                             "fallbacks": section})
    if not bench.HAS_COMPILED:
        assert section["drive"] == {}
        assert "drive:" not in rendered
        return
    drive = section["drive"]
    # The whole run stays in the compiled loop: a couple of calls, every
    # arrival sleep and message delivery fired inside it.
    assert drive["calls"] <= 5
    assert drive["timers_fired"]["ready"] >= 20
    assert drive["timers_fired"]["callback"] >= 40
    assert "  drive: " in rendered


def _doc(sps_fast, sps_traced, backend="tasklet"):
    return {"single": {"pingpong": {
        "fast": {"steps_per_s": sps_fast, "backend": backend},
        "traced": {"steps_per_s": sps_traced, "backend": backend},
    }}}


def test_check_regression_flags_big_drops_only():
    baseline = _doc(100_000, 50_000)
    assert bench.check_regression(_doc(85_000, 45_000), baseline) == []
    flagged = bench.check_regression(_doc(70_000, 50_000), baseline)
    assert len(flagged) == 1
    assert "pingpong/fast" in flagged[0]
    assert "-30.0%" in flagged[0]


def test_check_regression_notes_backend_changes_and_missing_cells():
    baseline = _doc(100_000, 50_000, backend="thread")
    flagged = bench.check_regression(_doc(10_000, 50_000), baseline)
    assert "backend thread -> tasklet" in flagged[0]
    # Workloads absent from the baseline (new cells) are not regressions.
    assert bench.check_regression(
        {"single": {"brand_new": {"fast": {"steps_per_s": 1},
                                  "traced": {"steps_per_s": 1}}}},
        baseline) == []


def test_repro_cli_forwards_comparison_and_guard_flags(monkeypatch):
    """`repro bench` must pass the new flags through to bench.main."""
    from repro import cli

    captured = {}

    def fake_main(argv):
        captured["argv"] = argv
        return 0

    monkeypatch.setattr("repro.bench.main", fake_main)
    assert cli.main(["bench", "--compare-backends",
                     "--guard", "BENCH_baseline.json",
                     "--guard-threshold", "35"]) == 0
    argv = captured["argv"]
    assert "--compare-backends" in argv
    assert argv[argv.index("--guard") + 1] == "BENCH_baseline.json"
    assert argv[argv.index("--guard-threshold") + 1] == "35.0"


def test_guard_cli_exit_codes(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setattr(bench, "WORKLOADS",
                        {"pingpong": bench.WORKLOADS["pingpong"]})
    monkeypatch.setattr(bench, "run_benchmarks",
                        lambda **kw: {"schema": bench.SCHEMA,
                                      "python": "3.11", "cpus": 1,
                                      **_doc(100_000, 50_000)})
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_doc(100_000, 50_000)))
    assert bench.main(["--json", "--guard", str(good)]) == 0
    assert "perf regression guard: ok" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_doc(1_000_000, 50_000)))
    assert bench.main(["--json", "--guard", str(bad)]) == 1
    assert "perf regression guard" in capsys.readouterr().out
    assert bench.main(["--json", "--guard",
                       str(tmp_path / "missing.json")]) == 1
