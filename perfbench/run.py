"""Benchmark runner: one workload, one process, one JSON result line.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

It builds the compiled extensions (timed, outside every metric), times
``repro``'s set-up in fresh processes, runs one untimed warm-up pass that
is traced (it yields the per-pass counts and the first output of every
unit), then repeats timed passes over the workload's units until
``--seconds`` have passed.  Every pass runs with the cross-run memo
disabled, and every unit of every pass is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics from the traced ones and writes their spans to
``perfbench/out/``.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import workloads
from checks import OutputCheck
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: Fresh processes timed for ``setup_s``; the metric is their median.
SETUP_PROBES = 9
#: Timed passes a run makes even when ``--seconds`` is shorter.
MIN_PASSES = 3
MIN_PASSES_TRACED = 4
#: ``peak_rss_mb`` is read after this many passes (warm-up included), so it
#: measures the same amount of work however fast the host is.
RSS_AFTER_PASSES = 3
FASTOP_KINDS = ("send", "recv", "try_send", "try_recv", "select", "mutex",
                "rwmutex")
STATIC_STAGES = ("interp", "capture", "chanshape", "lockgraph", "sharedrace")

_PROBE = ("import sys, workloads; "
          "workloads.WORKLOADS[sys.argv[1]]().setup(); print('ready')")
_BUILD = ("import sys; from repro.runtime._ext import get_ctasklet, "
          "get_hotloop; sys.exit(0 if get_hotloop() and get_ctasklet() "
          "else 3)")


def child_env(src: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    return env


def build_extensions(src: str) -> Tuple[float, bool]:
    """Compile (or find cached) the C extensions; never part of a metric."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _BUILD], env=child_env(src),
                          capture_output=True, timeout=600, check=False)
    return time.perf_counter() - t0, proc.returncode == 0


def time_setup(src: str, workload: str) -> List[float]:
    """Process start to ready-for-the-first-call, in fresh processes.

    The child writes one line when it is ready; the clock stops when that
    line arrives (``select`` wakes on it at once, where a ``wait`` with a
    timeout would poll in steps of up to 50 ms).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, workload],
                              env=child_env(src),
                              stdout=subprocess.PIPE) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            line = proc.stdout.readline() if ready else b""
            samples.append(time.perf_counter() - t0)
            if line.strip() != b"ready":
                proc.kill()
            if proc.wait() != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def path_record(ext_build_s: float, ext_ok: bool,
                loadavg: Tuple[float, float, float]) -> Dict[str, Any]:
    """Which code path the numbers were taken on, and on what host."""
    from repro.runtime._hotloop import HAS_COMPILED, get_drive
    from repro.runtime.scheduler import resolve_backend

    return {
        "backend": resolve_backend("coroutine"),
        "compiled": HAS_COMPILED and get_drive() is not None,
        "ext_build_ok": ext_ok,
        "ext_build_s": ext_build_s,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(loadavg),
    }


def fastops_reset() -> Dict[str, Dict[str, int]]:
    from repro.runtime._hotloop import get_fastops

    fast = get_fastops()
    if fast is None:
        return {"engaged": {}, "bailed": {}}
    return fast.fastops_stats(True)


class Pass(NamedTuple):
    traced: bool
    wall: float
    unit_s: List[float]
    tracer: Any
    fastops: Dict[str, Dict[str, int]]


def run_pass(workload: Any, units: List[Any], traced: bool,
             check: OutputCheck) -> Pass:
    tracer = Tracer(traced)
    workload.begin_pass()
    fastops_reset()
    outputs = []
    unit_s = []
    t0 = time.perf_counter()
    with tracer.patch_run():
        for unit in units:
            u0 = time.perf_counter()
            outputs.append(workload.run_unit(unit, tracer))
            unit_s.append(time.perf_counter() - u0)
    wall = time.perf_counter() - t0
    fastops = fastops_reset()
    for unit, (record, problems) in zip(units, outputs):
        check.observe(workload.unit_id(unit), record, problems)
    return Pass(traced, wall, unit_s, tracer, fastops)


def drive(workload: Any, seed: int, seconds: float, trace: bool,
          check: OutputCheck) -> Tuple[Pass, List[Pass], float, Dict[str, int]]:
    from repro.parallel import memo
    from repro.runtime.scheduler import backend_fallbacks

    units = workload.units(seed)
    hits0 = memo.memo.hits
    fallbacks0 = sum(backend_fallbacks().values())
    with memo.disable():
        warm = run_pass(workload, units, True, check)
        passes: List[Pass] = []
        rss = 0.0
        minimum = MIN_PASSES_TRACED if trace else MIN_PASSES
        deadline = time.perf_counter() + seconds
        while len(passes) < minimum or time.perf_counter() < deadline:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, units, traced, check))
            if len(passes) + 1 == RSS_AFTER_PASSES:
                rss = peak_rss_mb()
    counters = {
        "memo_hits": memo.memo.hits - hits0,
        "backend_fallbacks": sum(backend_fallbacks().values()) - fallbacks0,
    }
    return warm, passes, rss, counters


def quantile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(warm: Pass, passes: List[Pass], setup: List[float],
               rss: float) -> Dict[str, Tuple[float, str]]:
    runs = warm.tracer.layer_totals()[("runtime", "run")]
    wall = statistics.median(p.wall for p in passes)
    # Each unit's median over the passes, so the percentiles describe how
    # units differ from one another rather than how the host varied.
    unit_s = [statistics.median(times)
              for times in zip(*(p.unit_s for p in passes))]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "runs_per_s": (runs["calls"] / wall, "1/s"),
        "steps_per_s": (runs["steps"] / wall, "1/s"),
        "unit_ms_p50": (statistics.median(unit_s) * 1e3, "ms"),
        "unit_ms_p80": (quantile(unit_s, 80) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(warm: Pass, passes: List[Pass],
              counters: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: times are medians over traced passes, counts are
    per pass (every pass does the same work; the checks enforce it)."""
    traced = [p.tracer.layer_totals() for p in passes if p.traced]
    counts = warm.tracer.layer_totals()
    run = ("runtime", "run")
    sweep = ("parallel", "sweep_seeds")
    observed = ("detect", "observed_run")
    classify = ("detect", "classify")
    explore = ("detect", "explore_systematic")
    predict = ("predict", "predict")
    static = ("static", "score_kernel")
    net = ("net", "loadgen_summary")
    inject = ("inject", "run")

    def timed(key: Tuple[str, str], value: Any, scale: float) -> float:
        samples = [value(t[key], t) * scale for t in traced if key in t]
        return statistics.median(samples) if samples else 0.0

    def count(key: Tuple[str, str], field: str) -> float:
        return counts.get(key, {}).get(field, 0)

    def per_call(row: Dict[str, float], _: Any) -> float:
        return row["total_s"] / row["calls"]

    fast = passes[-1].fastops
    engaged = sum(fast["engaged"].values())
    bailed = sum(fast["bailed"].values())
    m: Dict[str, Tuple[float, str]] = {
        "runtime.run_ms": (timed(run, lambda r, _: r["self_s"] / r["calls"],
                                 1e3), "ms"),
        "runtime.step_ns": (timed(run, lambda r, _: r["self_s"] / r["steps"],
                                  1e9), "ns"),
        "runtime.runs": (count(run, "calls"), "count"),
        "runtime.steps": (count(run, "steps"), "count"),
        "runtime.goroutines": (count(run, "goroutines"), "count"),
        "runtime.fastops_engaged": (engaged, "count"),
        "runtime.fastops_bailed": (bailed, "count"),
        "runtime.fastops_engage_ratio": (
            engaged / (engaged + bailed) if engaged + bailed else 0.0,
            "ratio"),
    }
    for kind in FASTOP_KINDS:
        m[f"runtime.fastops_engaged.{kind}"] = (
            fast["engaged"].get(kind, 0), "count")
        m[f"runtime.fastops_bailed.{kind}"] = (
            fast["bailed"].get(kind, 0), "count")
    m.update({
        "runtime.backend_fallbacks": (counters["backend_fallbacks"], "count"),
        "parallel.sweep_ms": (timed(sweep, per_call, 1e3), "ms"),
        "parallel.memo_hits": (counters["memo_hits"], "count"),
        "detect.observed_run_ms": (timed(observed, per_call, 1e3), "ms"),
        "detect.classify_us": (timed(
            classify, lambda r, _: r["total_s"] / r["classifications"], 1e6),
            "us"),
        "detect.systematic_ms_per_run": (timed(
            explore, lambda r, _: r["total_s"] / r["runs"], 1e3), "ms"),
        "detect.systematic_runs": (count(explore, "runs"), "count"),
        "detect.systematic_pruned": (count(explore, "pruned"), "count"),
        "detect.systematic_exhausted": (count(explore, "exhausted"), "count"),
        "detect.systematic_runs_saved": (count(explore, "runs_saved"),
                                         "count"),
        "detect.recovered": (count(inject, "recovered"), "count"),
        "predict.analysis_ms": (timed(predict, per_call, 1e3), "ms"),
        "predict.predictions": (count(predict, "predictions"), "count"),
        "static.kernel_ms": (timed(static, per_call, 1e3), "ms"),
    })
    for stage in STATIC_STAGES:
        m[f"static.checker_s.{stage}"] = (timed(
            static, lambda r, _, key=f"checker_s.{stage}": r.get(key, 0.0),
            1.0), "s")
    # Only loadgen reports fabric counters; the chaos scenario returns none.
    net_runs = net in counts or inject in counts
    m.update({
        "net.delivered": (count(net, "delivered"), "count"),
        "net.delivery_us": (timed(
            net, lambda r, t: t[run]["self_s"] / r["delivered"], 1e6), "us"),
        "net.virtual_s": (count(run, "virtual_s") if net_runs else 0.0, "s"),
        "inject.run_ms": (timed(inject, per_call, 1e3), "ms"),
        "inject.faults_fired": (count(inject, "faults_fired"), "count"),
    })
    untraced = [p.wall for p in passes if not p.traced]
    traced_walls = [p.wall for p in passes if p.traced]
    m["bench.span_overhead_x"] = (
        statistics.median(traced_walls) / statistics.median(untraced), "x")
    return m


def load_reference(workload: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as f:
        return json.load(f).get(workload)


def write_reference(workload: str, seed: int, path: Dict[str, Any],
                    units: Dict[str, str]) -> None:
    document: Dict[str, Any] = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            document = json.load(f)
    document[workload] = {
        "seed": seed,
        "path": {"backend": path["backend"], "compiled": path["compiled"]},
        "units": units,
    }
    with open(REFERENCE, "w") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")


def write_spans(workload: str, seed: int, path: Dict[str, Any],
                passes: List[Pass]) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    document = {
        "workload": workload,
        "seed": seed,
        "path": path,
        "passes": [{"index": i, "wall_s": p.wall, "fastops": p.fastops,
                    "spans": p.tracer.dump()}
                   for i, p in enumerate(passes) if p.traced],
    }
    with open(target, "w") as f:
        json.dump(document, f)
    return target


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the reference "
                             "for its workload and seed")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout; no ./src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    ext_build_s, ext_ok = build_extensions(src)
    setup = time_setup(src, args.workload)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    path = path_record(ext_build_s, ext_ok, loadavg)

    reference = None if args.write_reference else \
        load_reference(args.workload)
    same_seed = reference is not None and reference["seed"] == args.seed
    check = OutputCheck(reference["units"] if same_seed else None)
    warm, passes, rss, counters = drive(workload, args.seed, args.seconds,
                                        bool(args.trace), check)
    if args.trace:
        metrics = per_layer(warm, passes, counters)
        print(f"spans: {write_spans(args.workload, args.seed, path, passes)}")
    else:
        metrics = end_to_end(warm, passes, setup, rss)
    if args.write_reference:
        if check.failed:
            print("reference.json not written: the run failed its checks")
        else:
            write_reference(args.workload, args.seed, path, check.first)

    path["fastops"] = passes[-1].fastops
    path.update(counters)
    print(f"path: {json.dumps(path, sort_keys=True)}")
    if reference is not None:
        same = all(reference["path"][k] == path[k] for k in reference["path"])
        print("configuration: " + ("reference" if same else
                                   "different from reference.json; "
                                   "do not compare"))
    print(f"passes: {len(passes)} timed + 1 warm-up ({warm.wall:.4f} s, "
          f"traced); units/pass: "
          f"{len(passes[0].unit_s)}; pass wall s: "
          f"{[round(p.wall, 4) for p in passes]}; set-up s: "
          f"{[round(s, 4) for s in setup]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {check.failed / check.attempted:.6g} ratio")
    for failure in check.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
