"""Network throughput: the fabric under load, and determinism at scale.

Three claims about :mod:`repro.net`:

1. The virtual-time load generator sustains **six figures of requests in
   one deterministic run** — 100,000 echo round trips through the
   simulated fabric, with latency percentiles from the observe-layer
   histograms, in seconds of wall clock.
2. The fabric and RPC micro-workloads hold their single-run cost
   (``BENCH_net.json`` at the repo root is the committed baseline; CI's
   perf-smoke job uploads a fresh document per run).
3. Loadgen seed sweeps are **byte-identical** across worker counts:
   ``jobs=4`` returns exactly the serial summaries.
"""

import os
import platform
import time
from functools import partial

from repro.bench import host_cpu_model, render, run_net_benchmarks
from repro.net.demo import loadgen_summary
from repro.parallel import map_units
from repro.runtime._hotloop import HAS_COMPILED, drive_stats


def test_loadgen_sustains_100k_requests(benchmark, report):
    drive_stats(True)
    t0 = time.perf_counter()
    summary = benchmark.pedantic(
        lambda: loadgen_summary(seed=3, clients=40, requests=2500,
                                rate=500.0),
        rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    drive = drive_stats(True)

    lat = summary["latency"]
    report("Virtual-time load generator at 100k requests", "\n".join([
        f"host: {host_cpu_model() or platform.machine()}, "
        f"{os.cpu_count()} cpu(s), python {platform.python_version()}, "
        f"compiled={HAS_COMPILED}",
        f"wall: {wall:.2f}s ({summary['requests'] / wall:,.0f} req/s, "
        f"{summary['steps'] / wall:,.0f} steps/s)"
        + (f"; drive() calls: {drive['calls']}, timers fired in loop: "
           f"{sum(drive['timers_fired'].values()):,}" if drive else ""),
        f"requests: {summary['requests']:,} from {summary['clients']} "
        f"client(s)",
        f"status: {summary['status']}  steps: {summary['steps']:,}  "
        f"virtual: {summary['virtual_s']:.2f}s",
        f"throughput: {summary['rps_virtual']:,.0f} req/s virtual",
        f"latency: mean={lat['mean'] * 1e3:.3f}ms "
        f"p50<={lat['p50'] * 1e3:.3f}ms p90<={lat['p90'] * 1e3:.3f}ms "
        f"p99<={lat['p99'] * 1e3:.3f}ms max={lat['max'] * 1e3:.3f}ms",
        f"fabric: {summary['net']}",
    ]))

    assert summary["status"] == "ok"
    assert summary["requests"] == 100_000
    assert summary["errors"] == 0
    assert summary["leaked"] == 0
    assert lat["count"] == 100_000
    assert lat["p99"] >= lat["p50"] > 0
    assert summary["net"]["delivered"] == summary["net"]["sent"]


def test_net_micro_benchmarks(benchmark, report):
    document = benchmark.pedantic(
        lambda: run_net_benchmarks(repeats=1, loadgen_requests=100),
        rounds=1, iterations=1)

    report("Network micro-benchmarks (baseline: BENCH_net.json)",
           render(document))

    assert set(document["single"]) == {"net_pingpong", "net_rpc"}
    for row in document["single"].values():
        assert row["fast"]["steps_per_run"] > 0
    assert document["loadgen"]["errors"] == 0
    assert document["loadgen"]["deterministic"]


def test_loadgen_sweep_parallel_identical(benchmark, report):
    units = [partial(loadgen_summary, seed, 4, 50, 200.0, "poisson")
             for seed in range(6)]

    serial = map_units(units, jobs=1)
    parallel = benchmark.pedantic(
        lambda: map_units(units, jobs=4), rounds=1, iterations=1)

    report("Loadgen sweep equivalence", "\n".join(
        [f"seed={row['seed']}: requests={row['requests']} "
         f"steps={row['steps']} virtual={row['virtual_s']}s "
         f"p99<={row['latency']['p99'] * 1e3:.3f}ms"
         for row in serial]
        + [f"jobs=4 byte-identical to jobs=1: {serial == parallel}"]))

    assert serial == parallel
    assert all(row["errors"] == 0 for row in serial)
