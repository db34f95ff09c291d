"""Compiled channel/select/sync fast ops vs the pure primitives.

``repro.runtime._ext._hotloop`` executes channel send/recv, buffered try
ops, ``select``, and Mutex/RWMutex acquire/release inline in C whenever
nothing observable differs — no kept trace, no fault injector, and a
real goroutine holding the token.  Everything else returns
``NotImplemented`` and the pure primitive runs instead.  These tests pin
the contract from both sides:

* engaged runs (traceless, compiled) take byte-for-byte the same
  schedules — steps, statuses, results, RNG draws — as the same seeds
  under :class:`repro.runtime._hotloop.force_pure`;
* every disqualifier (kept trace, fault injector) actually bails the
  ops out, visibly in ``fastops_stats``, without changing the schedule;
* error paths (send on closed, unlock of unlocked, select on a closed
  send case) panic identically in both modes;
* a ``REPRO_NO_CEXT=1`` subprocess — no extension at all — reproduces
  the compiled process's digests and step counts;
* the whole corpus, the mini-apps, and a crash-recovery cluster replay
  identically compiled vs pure.

Where the extension didn't build, the engagement tests skip and the
parity tests still pass trivially (pure vs pure).
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from functools import partial

import pytest

from repro import run
from repro.bench import CHANNEL_WORKLOADS, WORKLOADS
from repro.inject import FaultPlan
from repro.observe import Observer
from repro.parallel import schedule_digest
from repro.runtime._hotloop import force_pure, get_fastops
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler

needs_fastops = pytest.mark.skipif(
    get_fastops() is None,
    reason="compiled fast ops unavailable on this host")

ALL_WORKLOADS = {**WORKLOADS, **CHANNEL_WORKLOADS}

#: Which stats counters each channel-heavy cell must drive when engaged.
EXPECTED_OPS = {
    "pingpong_heavy": ("send", "recv"),
    "select_fanin_heavy": ("select", "send"),
    "mutex_heavy": ("mutex",),
}


def _reset_stats():
    fast = get_fastops()
    if fast is not None:
        fast.fastops_stats(True)


def _stats():
    fast = get_fastops()
    return fast.fastops_stats(True)


def _signature(result):
    return result.status, result.steps, result.main_result


# ---------------------------------------------------------------------------
# Engaged vs forced-pure parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_traceless_run_matches_forced_pure(workload, seed):
    program = ALL_WORKLOADS[workload]
    engaged = run(program, seed=seed, keep_trace=False)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=False)
    assert _signature(engaged) == _signature(pure)


@needs_fastops
@pytest.mark.parametrize("workload", sorted(EXPECTED_OPS))
def test_channel_cells_actually_engage(workload):
    _reset_stats()
    result = run(ALL_WORKLOADS[workload], seed=1, keep_trace=False)
    assert result.status == "ok"
    stats = _stats()
    for op in EXPECTED_OPS[workload]:
        assert stats["engaged"][op] > 0, (workload, op, stats)


@needs_fastops
@pytest.mark.parametrize("workload", sorted(EXPECTED_OPS))
def test_forced_pure_run_reports_compiled_false(workload):
    engaged = run(ALL_WORKLOADS[workload], seed=1, keep_trace=False)
    assert engaged.compiled is True
    with force_pure():
        pure = run(ALL_WORKLOADS[workload], seed=1, keep_trace=False)
    assert pure.compiled is False


@pytest.mark.parametrize("workload", sorted(CHANNEL_WORKLOADS))
def test_traced_digest_identical_compiled_process_vs_forced_pure(workload):
    program = CHANNEL_WORKLOADS[workload]
    traced = run(program, seed=5, keep_trace=True)
    with force_pure():
        reference = run(program, seed=5, keep_trace=True)
    assert schedule_digest(traced) == schedule_digest(reference)
    assert traced.steps == reference.steps


# ---------------------------------------------------------------------------
# Bail-out paths: every disqualifier defers to the pure primitive
# ---------------------------------------------------------------------------


@needs_fastops
def test_kept_trace_bails_every_op():
    _reset_stats()
    traced = run(CHANNEL_WORKLOADS["pingpong_heavy"], seed=1, keep_trace=True)
    stats = _stats()
    assert sum(stats["engaged"].values()) == 0, stats
    assert stats["bailed"]["send"] > 0
    assert stats["bailed"]["recv"] > 0
    fast = run(CHANNEL_WORKLOADS["pingpong_heavy"], seed=1, keep_trace=False)
    assert _signature(traced) == _signature(fast)


@needs_fastops
def test_fault_injector_bails_every_op():
    """An attached injector — even one with no faults — forces the pure
    path, where every probe point the injector hooks still exists."""
    program = CHANNEL_WORKLOADS["pingpong_heavy"]
    _reset_stats()
    injected = run(program, seed=1, keep_trace=False,
                   inject=FaultPlan(name="noop"))
    stats = _stats()
    assert sum(stats["engaged"].values()) == 0, stats
    plain = run(program, seed=1, keep_trace=False)
    assert _signature(injected) == _signature(plain)


def napper(rt):
    for _ in range(3):
        rt.sleep(0.1)


@needs_fastops
def test_bail_reasons_name_the_first_failing_check():
    """``reasons`` splits the bails by the first engagement check that
    failed, and always sums to the per-op ``bailed`` counts."""
    fast = get_fastops()

    def reasons(action):
        _reset_stats()
        action()
        stats = _stats()
        assert sum(stats["reasons"].values()) == sum(stats["bailed"].values())
        return {why: n for why, n in stats["reasons"].items() if n}

    pingpong = CHANNEL_WORKLOADS["pingpong_heavy"]
    traced = reasons(lambda: run(pingpong, seed=1, keep_trace=True))
    assert set(traced) == {"trace"}
    injected = reasons(lambda: run(pingpong, seed=1, keep_trace=False,
                                   inject=FaultPlan(name="noop")))
    assert set(injected) == {"injector"}
    assert reasons(lambda: run(
        CHANNEL_WORKLOADS["select_fanin_heavy"], seed=1, keep_trace=False,
        rng=random.Random(1))).get("rng", 0) > 0
    assert reasons(lambda: run(napper, seed=0, observe=Observer(
        capture_sites=True))) == {"capture_sites": 3}

    rt = Runtime(Scheduler(seed=0, keep_trace=False))
    ch = rt.make_chan(1)
    assert reasons(lambda: fast.chan_send(ch, 1)) == {"no_goroutine": 1}
    assert reasons(lambda: fast.sleep(rt.sched, "1s")) == {"argument": 1}


# ---------------------------------------------------------------------------
# Per-op error and edge paths, compiled vs pure
# ---------------------------------------------------------------------------


def _both_modes(program, seed=1):
    engaged = run(program, seed=seed, keep_trace=False)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=False)
    return engaged, pure


def test_send_on_closed_channel_panics_identically():
    def program(rt):
        ch = rt.make_chan(1)
        ch.close()
        ch.send(1)

    engaged, pure = _both_modes(program)
    assert engaged.status == pure.status == "panic"
    assert str(engaged.panic_value) == str(pure.panic_value)
    assert engaged.steps == pure.steps


def test_recv_on_closed_channel_zero_value_identically():
    def program(rt):
        ch = rt.make_chan(2)
        ch.send("a")
        ch.close()
        return [ch.recv_ok(), ch.recv_ok(), ch.recv_ok()]

    engaged, pure = _both_modes(program)
    assert _signature(engaged) == _signature(pure)
    assert engaged.main_result == [("a", True), (None, False), (None, False)]


def test_buffered_try_ops_identically():
    def program(rt):
        ch = rt.make_chan(2)
        outcomes = [ch.try_send(1), ch.try_send(2), ch.try_send(3)]
        outcomes.append(ch.try_recv())
        outcomes.append(ch.try_recv())
        outcomes.append(ch.try_recv())
        ch.close()
        outcomes.append(ch.try_recv())
        return outcomes

    engaged, pure = _both_modes(program)
    assert _signature(engaged) == _signature(pure)
    assert engaged.main_result == [
        True, True, False,
        (1, True, True), (2, True, True), (None, False, False),
        (None, False, True),
    ]


def test_select_default_and_single_case_draw_identically():
    """A one-ready-case select still consumes one RNG draw (randrange(1)
    eats a Mersenne word), so later scheduling decisions shift if either
    implementation skips it — the trailing spawn fan-out would diverge."""
    from repro.chan import recv as recv_case

    def program(rt):
        ch = rt.make_chan(1)
        hits = [rt.select(recv_case(ch), default=True)]
        ch.send("x")
        hits.append(rt.select(recv_case(ch)))
        wg = rt.waitgroup()
        for _ in range(6):
            wg.add(1)
            rt.go(wg.done)
        wg.wait()
        return hits

    engaged, pure = _both_modes(program)
    assert _signature(engaged) == _signature(pure)
    assert engaged.main_result[0] == (-1, None, False)
    assert engaged.main_result[1] == (0, "x", True)


def test_select_send_on_closed_case_panics_identically():
    from repro.chan import send as send_case

    def program(rt):
        ch = rt.make_chan(1)
        ch.close()
        rt.select(send_case(ch, 1))

    engaged, pure = _both_modes(program)
    assert engaged.status == pure.status == "panic"
    assert str(engaged.panic_value) == str(pure.panic_value)
    assert engaged.steps == pure.steps


def test_unlock_of_unlocked_mutex_panics_identically():
    def program(rt):
        rt.mutex().unlock()

    engaged, pure = _both_modes(program)
    assert engaged.status == pure.status == "panic"
    assert str(engaged.panic_value) == str(pure.panic_value)


def test_rwmutex_paths_identically():
    def program(rt):
        rw = rt.rwmutex()
        log = []
        done = rt.make_chan()

        def reader(tag):
            rw.rlock()
            log.append(("r+", tag))
            rt.gosched()
            log.append(("r-", tag))
            rw.runlock()
            done.send(None)

        def writer():
            rw.lock()
            log.append("w")
            rw.unlock()
            done.send(None)

        rt.go(reader, 1)
        rt.go(reader, 2)
        rt.go(writer)
        for _ in range(3):
            done.recv()
        return log

    engaged, pure = _both_modes(program)
    assert _signature(engaged) == _signature(pure)


def test_runlock_without_rlock_panics_identically():
    def program(rt):
        rt.rwmutex().runlock()

    engaged, pure = _both_modes(program)
    assert engaged.status == pure.status == "panic"
    assert str(engaged.panic_value) == str(pure.panic_value)


# ---------------------------------------------------------------------------
# REPRO_NO_CEXT subprocess: no extension at all, same bytes
# ---------------------------------------------------------------------------


_SUBPROCESS_SCRIPT = textwrap.dedent("""
    import json
    from repro import run
    from repro.bench import CHANNEL_WORKLOADS
    from repro.parallel import schedule_digest
    from repro.runtime import _hotloop

    rows = {}
    for name in sorted(CHANNEL_WORKLOADS):
        traced = run(CHANNEL_WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(CHANNEL_WORKLOADS[name], seed=11, keep_trace=False)
        rows[name] = {
            "digest": schedule_digest(traced),
            "status": fast.status,
            "steps": fast.steps,
            "compiled_field": fast.compiled,
        }
    print(json.dumps({"compiled": _hotloop.HAS_COMPILED, "rows": rows}))
""")


def test_no_cext_subprocess_matches_compiled_process():
    env = dict(os.environ, REPRO_NO_CEXT="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["compiled"] is False
    for name, row in payload["rows"].items():
        assert row["compiled_field"] is False, name
        traced = run(CHANNEL_WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(CHANNEL_WORKLOADS[name], seed=11, keep_trace=False)
        assert row["digest"] == schedule_digest(traced), name
        assert row["status"] == fast.status, name
        assert row["steps"] == fast.steps, name


# ---------------------------------------------------------------------------
# Corpus, mini-apps, recovery: compiled vs pure over everything
# ---------------------------------------------------------------------------


def _corpus_kernels():
    from repro.bugs import registry

    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_kernel_parity_compiled_vs_pure(kernel):
    """Every bug kernel, both variants: fast ops engaged vs force_pure."""
    for variant in (kernel.buggy, kernel.fixed):
        kwargs = dict(kernel.run_kwargs)
        kwargs["keep_trace"] = False
        engaged = run(variant, seed=3, **kwargs)
        with force_pure():
            pure = run(variant, seed=3, **kwargs)
        assert engaged.status == pure.status
        assert engaged.steps == pure.steps
        assert engaged.main_result == pure.main_result
        kwargs["keep_trace"] = True
        traced = run(variant, seed=3, **kwargs)
        with force_pure():
            traced_pure = run(variant, seed=3, **kwargs)
        assert schedule_digest(traced) == schedule_digest(traced_pure)


def _app_scenarios():
    from repro.inject import scenarios

    return sorted(scenarios.all_scenarios(), key=lambda row: row[0])


@pytest.mark.parametrize("scenario", _app_scenarios(),
                         ids=lambda row: row[0])
def test_miniapp_parity_compiled_vs_pure(scenario):
    _, program, base_kwargs = scenario
    kwargs = dict(base_kwargs)
    kwargs["keep_trace"] = True
    traced = run(program, seed=1, **kwargs)
    with force_pure():
        pure = run(program, seed=1, **kwargs)
    assert traced.status == pure.status
    assert traced.steps == pure.steps
    assert schedule_digest(traced) == schedule_digest(pure)


def test_net_recovery_scenario_parity_compiled_vs_pure():
    from repro.inject import plans
    from repro.inject.scenarios import net_etcd_recovery_scenario

    program = partial(net_etcd_recovery_scenario, size=3)
    kwargs = dict(seed=2, keep_trace=True,
                  inject=plans.crash_restart(delay=0.3), max_steps=600_000)
    compiled = run(program, **kwargs)
    with force_pure():
        pure = run(program, **kwargs)
    assert compiled.status == pure.status
    assert compiled.steps == pure.steps
    assert schedule_digest(compiled) == schedule_digest(pure)
