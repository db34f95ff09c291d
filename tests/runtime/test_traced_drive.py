"""Kept traces recorded by the compiled loop and the compiled ``sleep``.

With a kept trace and no injector, ``Scheduler.run_until_quiescent``
enters the compiled ``drive()``, which appends the events the pure loop
emits itself (go.end / go.panic, timer.fire + go.unblock) to the trace,
and ``Runtime.sleep`` dispatches to the compiled ``sleep`` op, which
records time.sleep / go.block.  These tests pin the recorded stream to
the pure one event by event — ``(step, repr(time), gid, kind, obj,
info)``, not just the schedule digest — and check the engagement
contract: a kept-trace run really takes the compiled paths, and so does
a run whose detector folds the trace, that captures block sites, or that
has a fault injector attached (drive runs up to the injector's horizon
and the compiled sleep stays engaged).

Without the extension the parity tests compare pure with pure and the
engagement tests skip.
"""

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import RaceDetector
from repro.inject import plans
from repro.runtime._hotloop import (drive_stats, force_pure, get_drive,
                                    get_fastops)
from repro.runtime.errors import Killed
from repro.runtime.goroutine import GState
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler

ENGAGED = get_drive() is not None and get_fastops() is not None
needs_compiled = pytest.mark.skipif(
    not ENGAGED, reason="compiled hot loop unavailable on this host")

SEEDS = range(12)


def _events(trace):
    return [(e.step, repr(e.time), e.gid, e.kind, e.obj, e.info)
            for e in trace]


def _outcome(result):
    return (result.status, result.steps, repr(result.end_time),
            result.main_result, _events(result.trace))


def _reset():
    drive_stats(True)
    fast = get_fastops()
    if fast is not None:
        fast.fastops_stats(True)


def _sleep_stats():
    stats = get_fastops().fastops_stats(True)
    return stats["engaged"]["sleep"], stats["bailed"]["sleep"]


def _assert_parity(program, **kwargs):
    """Compiled vs force_pure with a kept trace; returns the compiled run
    and the drive counters it produced."""
    _reset()
    compiled = run(program, keep_trace=True, **kwargs)
    stats = drive_stats(True)
    with force_pure():
        pure = run(program, keep_trace=True, **kwargs)
    assert _outcome(compiled) == _outcome(pure)
    return compiled, stats


# ---------------------------------------------------------------------------
# The corpus: every kernel, both variants, twelve seeds
# ---------------------------------------------------------------------------


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_full_event_parity(kernel):
    for variant in (kernel.buggy, kernel.fixed):
        kwargs = dict(kernel.run_kwargs, keep_trace=True)
        for seed in SEEDS:
            compiled = run(variant, seed=seed, **kwargs)
            with force_pure():
                pure = run(variant, seed=seed, **kwargs)
            assert _outcome(compiled) == _outcome(pure), (variant, seed)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def sleepers(rt):
    log = []
    wg = rt.waitgroup()

    def nap(index):
        for step in range(4):
            rt.sleep(0.25 * ((index + step) % 3 + 1))
            log.append((rt.gid(), repr(rt.now())))
        wg.done()

    for index in range(4):
        wg.add(1)
        rt.go(nap, index)
    wg.wait()
    return log


def panicking_sleeper(rt):
    def doomed():
        rt.sleep(0.5)
        raise ValueError("boom after a nap")

    rt.go(doomed)
    rt.sleep(2.0)
    return "unreachable"


def int_deadline(rt):
    clock = rt.sched.clock
    fired = rt.make_chan(1)
    clock.call_at(5, lambda: fired.poll_send(clock.now, gid=0))
    got = fired.recv()
    rt.sleep(1)  # int now + int duration: an int deadline
    return [repr(got), repr(rt.now())]


def forever_ticking(rt):
    def ticker(period):
        while True:
            rt.sleep(period)

    rt.go(ticker, 1.0)
    rt.go(ticker, 0.75)
    rt.make_chan(0).recv()


def zero_sleeps(rt):
    log = []

    def child():
        log.append("child")

    rt.go(child)
    rt.sleep(0)
    log.append("main after sleep(0)")
    rt.sleep(-1.5)
    log.append("main after sleep(-1.5)")
    rt.sleep(0.0)
    return log


# ---------------------------------------------------------------------------
# Parity on shapes the corpus may not cover
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["coroutine", "thread", "generator"])
def test_vehicles_record_identically(backend):
    compiled, stats = _assert_parity(sleepers, seed=3, backend=backend)
    assert compiled.status == "ok"
    if ENGAGED:
        assert stats["calls"] > 0 and stats["recorded"] > 0
    # Every vehicle takes the same schedule.
    reference = run(sleepers, seed=3, keep_trace=True)
    assert _outcome(compiled) == _outcome(reference)


def test_panicking_goroutine_records_go_panic():
    compiled, _ = _assert_parity(panicking_sleeper, seed=1)
    assert compiled.status == "panic"
    assert [e.kind for e in compiled.trace].count("go.panic") == 1


def test_int_deadline_stamps_int_times():
    compiled, _ = _assert_parity(int_deadline)
    assert compiled.main_result == ["5", "6"]
    assert repr(compiled.trace.events[-1].time) == "6"


@pytest.mark.parametrize("limit", [0.75, 2.5, 3.0])
def test_time_limit_between_deadlines(limit):
    compiled, _ = _assert_parity(forever_ticking, time_limit=limit)
    assert compiled.status == "timeout"


def _raw_traced(program):
    """One run_until_quiescent on a fresh kept-trace scheduler: the
    exception it raised and the events recorded up to it."""
    sched = Scheduler(seed=0, keep_trace=True)
    rt = Runtime(sched)
    main_g = sched.spawn(program, (rt,), name="main")
    try:
        sched.run_until_quiescent(stop_mode=("main", main_g))
        error = None
    except ValueError as exc:
        error = str(exc)
    outcome = (error, sched.steps, repr(sched.clock.now),
               _events(sched.trace))
    sched.kill_all()
    return outcome


def raising_callback(rt):
    clock = rt.sched.clock

    def boom():
        raise ValueError(f"timer failed at {clock.now!r}")

    clock.call_after(1.0, lambda: None)
    clock.call_after(1.0, boom)
    clock.call_after(1.0, lambda: None)
    rt.sleep(5.0)


def test_raising_timer_callback_propagates_identically():
    _reset()
    compiled = _raw_traced(raising_callback)
    stats = drive_stats(True)
    with force_pure():
        pure = _raw_traced(raising_callback)
    assert compiled == pure
    assert compiled[0] == "timer failed at 1.0"
    kinds = [event[3] for event in compiled[3]]
    # The batch's first two timers recorded timer.fire; the third was
    # dropped with the raise.
    assert kinds.count("timer.fire") == 2
    if ENGAGED:
        assert stats["callbacks_raised"] == 1


# ---------------------------------------------------------------------------
# Engagement witnesses
# ---------------------------------------------------------------------------


@needs_compiled
def test_kept_trace_run_stays_compiled():
    _reset()
    result = run(sleepers, seed=0, keep_trace=True)
    stats = drive_stats(True)
    engaged, bailed = _sleep_stats()
    assert result.status == "ok"
    assert stats["calls"] > 0
    assert stats["exits"]["ineligible"] == 0
    assert stats["recorded"] > 0
    assert engaged == 16 and bailed == 0


def _capturing_sites():
    sched = Scheduler(seed=0, keep_trace=True)
    rt = Runtime(sched)
    sched.capture_sites = True
    main_g = sched.spawn(sleepers, (rt,), name="main")
    sched.run_until_quiescent(stop_mode=("main", main_g))
    sched.kill_all()
    return main_g.result, _events(sched.trace)


def _detected():
    detector = RaceDetector()
    result = run(sleepers, seed=0, observers=[detector])
    return _outcome(result), detector.reports, detector.final_clocks()


@needs_compiled
@pytest.mark.parametrize("case", ["detector", "capture_sites"])
def test_observed_runs_enter_drive(case):
    observed = _detected if case == "detector" else _capturing_sites
    _reset()
    result = observed()
    stats = drive_stats(True)
    engaged, bailed = _sleep_stats()
    with force_pure():
        assert observed() == result
    assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
    assert stats["recorded"] > 0
    if case == "detector":
        assert engaged == 16 and bailed == 0
    else:
        # go.block needs the user stack, which the compiled sleep does
        # not take: every sleep runs pure inside the compiled loop.
        assert engaged == 0 and bailed == 16


@needs_compiled
def test_injected_runs_enter_drive():
    plan = plans.delay_storm(every=5, probability=1.0)
    _reset()
    result = run(sleepers, seed=0, inject=plan)
    stats = drive_stats(True)
    engaged, bailed = _sleep_stats()
    with force_pure():
        pure = run(sleepers, seed=0, inject=plan)
    assert _outcome(result) == _outcome(pure)
    assert result.injected == pure.injected and result.injected
    assert len(result.main_result) == 16
    assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
    assert stats["exits"]["horizon"] > 0 and stats["recorded"] > 0
    assert engaged == 16 and bailed == 0


# ---------------------------------------------------------------------------
# Compiled sleep edge cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preempt", [True, False])
def test_nonpositive_sleep_is_a_schedule_point(preempt):
    compiled, _ = _assert_parity(zero_sleeps, seed=2, preempt=preempt)
    sleeps = [e for e in compiled.trace if e.kind == "time.sleep"]
    assert [e.info["duration"] for e in sleeps] == [0, -1.5, 0.0]
    assert not [e for e in compiled.trace if e.kind == "go.block"]
    if not preempt:
        # No yield: main runs straight through; the child only runs in
        # the drain after main returned.
        assert compiled.main_result == ["main after sleep(0)",
                                        "main after sleep(-1.5)", "child"]


def _victim_sleeper(rt, log, inject):
    def sleeper():
        try:
            rt.sleep(10.0)
            log.append("slept")
        except Killed:
            log.append(("killed", repr(rt.now())))
            raise
        except KeyError as exc:
            log.append(("raised", exc.args[0], repr(rt.now())))

    g = rt.go(sleeper, name="sleeper")
    rt.sleep(1.0)
    log.append(("inject", inject(rt.sched, g)))
    rt.sleep(20.0)
    return log


def killed_sleeper(rt):
    return _victim_sleeper(rt, [], lambda s, g: s.inject_kill(g))


def panicked_sleeper(rt):
    return _victim_sleeper(rt, [], lambda s, g: s.inject_panic(
        g, KeyError("injected")))


def woken_sleeper(rt):
    return _victim_sleeper(rt, [], lambda s, g: s.inject_wakeup(g))


def test_killed_raised_out_of_the_sleep():
    compiled, _ = _assert_parity(killed_sleeper)
    assert compiled.main_result == [("inject", True), ("killed", "1.0")]


def test_pending_error_raised_out_of_the_sleep():
    compiled, _ = _assert_parity(panicked_sleeper)
    assert compiled.main_result == [("inject", True),
                                    ("raised", "injected", "1.0")]


def test_spurious_wakeup_reblocks():
    compiled, _ = _assert_parity(woken_sleeper)
    assert compiled.main_result == [("inject", True), "slept"]
    sleeper_blocks = [e for e in compiled.trace
                      if e.kind == "go.block" and e.gid == 2]
    assert len(sleeper_blocks) == 2  # blocked, woken early, blocked again


def test_wakeup_storm_takes_the_compiled_sleep():
    _reset()
    plan = plans.wakeup_storm(every=2, probability=1.0)
    compiled = run(sleepers, seed=4, inject=plan)
    if ENGAGED:
        engaged, bailed = _sleep_stats()
        assert engaged > 0 and bailed == 0
    with force_pure():
        pure = run(sleepers, seed=4, inject=plan)
    assert _outcome(compiled) == _outcome(pure)
    assert compiled.injected == pure.injected
    assert compiled.injected, "the storm woke nobody"


def long_sleeper(rt):
    log = []

    def sleeper():
        try:
            rt.sleep(100.0)
        finally:
            log.append("unwound")

    rt.go(sleeper, name="sleeper")
    rt.sleep(1.0)
    return log


def test_kill_all_unwinds_a_sleeping_goroutine():
    for mode in ("compiled", "pure"):
        if mode == "pure":
            with force_pure():
                result = run(long_sleeper, drain=False)
        else:
            result = run(long_sleeper, drain=False)
        sleeper = [g for g in result.goroutines if g.name == "sleeper"][0]
        assert result.main_result == ["unwound"], mode
        assert sleeper.state == GState.KILLED, mode
