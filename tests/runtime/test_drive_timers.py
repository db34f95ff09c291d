"""Timers fired inside the compiled step loop vs the pure loop.

When nothing is runnable the compiled ``drive()`` pops the virtual clock's
due timers and runs them itself, instead of returning to
``Scheduler.run_until_quiescent`` for ``advance_to_next`` + ``fire_timers``.
These tests run each timer shape twice — compiled, and under
:class:`force_pure` — and require byte-identical outcomes: status, steps,
``repr`` of the end time (so an int deadline stays an int), and a digest of
the schedule as the program itself observed it.  The compiled loop only
engages on untraced runs, where ``schedule_digest`` has no trace to hash,
so each program logs ``(gid, repr(now), label)`` at every point of
interest; the order of that log is the interleaving.  Traced runs (pure
loop either way) are pinned too: their ``schedule_digest`` matches across
the two modes and their step count matches the untraced compiled run.

``drive_stats`` proves the compiled side really fired timers in the loop.
Without the extension the comparison is pure vs pure and still passes.
"""

import hashlib

import pytest

from repro import run
from repro.chan.cases import recv
from repro.net.demo import loadgen_summary
from repro.parallel import schedule_digest
from repro.runtime import _hotloop
from repro.runtime._hotloop import drive_stats, force_pure
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler

#: True when the compiled loop runs here; the counter checks need it.
ENGAGED = _hotloop.get_drive() is not None


def _log_digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _signature(result):
    return (result.status, result.steps, repr(result.end_time),
            _log_digest(result.main_result))


def _fired(stats):
    return stats["timers_fired"]["ready"] + stats["timers_fired"]["callback"]


def _assert_parity(program, seed=0, expect_fired=True, **kwargs):
    """Compiled vs forced-pure, untraced and traced; returns the compiled
    untraced result and the drive counters it produced."""
    drive_stats(True)
    compiled = run(program, seed=seed, keep_trace=False, **kwargs)
    stats = drive_stats(True)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=False, **kwargs)
    assert _signature(compiled) == _signature(pure)

    traced = run(program, seed=seed, keep_trace=True, **kwargs)
    with force_pure():
        traced_pure = run(program, seed=seed, keep_trace=True, **kwargs)
    assert schedule_digest(traced) == schedule_digest(traced_pure)
    assert _signature(traced) == _signature(compiled)

    if ENGAGED:
        assert stats["exits"]["error"] == 0
        if expect_fired:
            assert _fired(stats) > 0, stats
    return compiled, stats


def _note(rt, log, label):
    log.append((rt.gid(), repr(rt.now()), label))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def sleep_heavy(rt):
    log = []
    wg = rt.waitgroup()
    done = rt.make_chan(0)

    def sleeper(index):
        for step in range(25):
            rt.sleep(0.001 * ((index * 7 + step * 3) % 5 + 1))
            _note(rt, log, f"s{index}.{step}")
        wg.done()

    def relay():
        for _ in range(10):
            rt.sleep(0.002)
            done.send(rt.now())
        done.close()

    for index in range(6):
        wg.add(1)
        rt.go(sleeper, index)
    rt.go(relay)
    for stamp in done:
        _note(rt, log, f"relay {stamp!r}")
    wg.wait()
    return log


def forever_ticking(rt):
    log = []

    def ticker(period):
        while True:
            rt.sleep(period)
            _note(rt, log, f"tick {period}")

    rt.go(ticker, 1.0)
    rt.go(ticker, 0.75)
    rt.make_chan(0).recv()  # main waits forever
    return log


def int_deadline(rt):
    log = []
    clock = rt.sched.clock
    fired = rt.make_chan(1)

    def at_five():
        log.append(("cb", repr(clock.now)))
        fired.poll_send(clock.now, gid=0)

    clock.call_at(5, at_five)
    _note(rt, log, f"fired at {fired.recv()!r}")
    rt.sleep(1)  # int now + int delay: the next deadline is an int too
    _note(rt, log, "slept 1")
    return log


def cancelled_heads(rt):
    log = []
    clock = rt.sched.clock
    clock.call_after(0.5, log.append, "never").cancel()
    clock.call_after(0.5, log.append, "never either").cancel()
    later = []

    def first():
        log.append(("first", repr(clock.now)))
        # Same-deadline sibling already popped with this batch: too late.
        log.append(("cancel sibling", later[0].cancel()))

    clock.call_after(1.0, first)
    # Cancelled but due with a live head: skipped while popping the batch.
    clock.call_after(1.0, log.append, "never behind a live head").cancel()
    later.append(clock.call_after(1.0, log.append, "sibling fired anyway"))
    rt.sleep(2.0)
    _note(rt, log, "main")
    return log


def same_deadline_rearm(rt):
    log = []
    clock = rt.sched.clock

    def sleeper():
        rt.sleep(1.0)
        _note(rt, log, "sleeper woke")

    def arm():
        log.append(("arm", repr(clock.now)))
        # Due now, but it must wait for the next idle: the sleeper readied
        # in this same batch runs first.
        clock.call_at(clock.now, lambda: log.append(("rearmed",
                                                      repr(clock.now))))

    rt.go(sleeper)
    rt.gosched()
    clock.call_after(1.0, arm)
    rt.sleep(3.0)
    _note(rt, log, "main")
    return log


def wakeup_sleeper(rt):
    log = []
    sched = rt.sched
    g = []

    def sleeper():
        rt.sleep(2.0)  # spurious wakeup at 0.5 must not end this early
        _note(rt, log, "sleeper woke")

    g.append(rt.go(sleeper, name="sleeper"))
    sched.clock.call_after(
        0.5, lambda: log.append(("wakeup", sched.inject_wakeup(g[0]))))
    rt.sleep(3.0)
    _note(rt, log, "main")
    return log


def delayed_goroutine(rt):
    log = []
    sched = rt.sched
    g = []

    def sleeper():
        rt.sleep(1.0)
        _note(rt, log, "sleeper woke")

    g.append(rt.go(sleeper, name="sleeper"))
    rt.gosched()  # the sleeper arms its timer first ...

    def delay():
        # ... so by now this batch has readied it: park it for 0.5s more.
        log.append(("delay", sched.inject_delay(g[0], 0.5),
                    g[0].block_reason))

    sched.clock.call_after(1.0, delay)
    rt.sleep(3.0)
    _note(rt, log, "main")
    log.append(("reason after", g[0].block_reason))
    return log


def stdlib_timers(rt):
    log = []
    # Figure 1's shape: a result racing time.After.
    result = rt.make_chan(0)

    def worker():
        rt.sleep(0.3)
        result.try_send("late")

    rt.go(worker)
    index, value, _ok = rt.select(recv(result), recv(rt.after(0.2)))
    _note(rt, log, f"select {index} {value!r}")

    timer = rt.new_timer(1.0)
    _note(rt, log, f"stop {timer.stop()}")
    timer = rt.new_timer(0.5)
    _note(rt, log, f"timer {timer.c.recv()!r}")

    ticker = rt.new_ticker(0.25)
    for _ in range(4):
        _note(rt, log, f"tick {ticker.c.recv()!r}")
    ticker.stop()

    ctx, _cancel = rt.with_timeout(rt.background(), 0.7)
    ctx.done().recv_ok()
    _note(rt, log, f"ctx {ctx.err()!r}")
    return log


# ---------------------------------------------------------------------------
# Parity through run()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sleep_heavy_parity(seed):
    compiled, stats = _assert_parity(sleep_heavy, seed=seed)
    assert compiled.status == "ok"
    if ENGAGED:
        # All 160 sleeps fire inside the loop, in a couple of drive calls.
        assert stats["timers_fired"]["ready"] >= 160
        assert stats["calls"] <= 5


@pytest.mark.parametrize("limit", [2.5, 3.0, 0.75])
def test_time_limit_between_deadlines(limit):
    compiled, _ = _assert_parity(forever_ticking, time_limit=limit)
    assert compiled.status == "timeout"
    assert compiled.end_time >= limit


def test_int_deadline_stays_int():
    compiled, _ = _assert_parity(int_deadline)
    assert repr(compiled.end_time) == "6"
    assert ("cb", "5") in compiled.main_result


def test_cancelled_timer_at_heap_head():
    compiled, _ = _assert_parity(cancelled_heads)
    log = compiled.main_result
    assert not [entry for entry in log
                if isinstance(entry, str) and entry.startswith("never")]
    assert ("cancel sibling", False) in log
    assert "sibling fired anyway" in log


def test_callback_arming_same_deadline_fires_next_idle():
    compiled, _ = _assert_parity(same_deadline_rearm)
    labels = [entry[-1] if len(entry) == 3 else entry[0]
              for entry in compiled.main_result]
    assert labels.index("sleeper woke") < labels.index("rearmed")


def test_inject_wakeup_on_sleeper_reblocks():
    compiled, _ = _assert_parity(wakeup_sleeper)
    log = compiled.main_result
    assert ("wakeup", True) in log
    woke = [entry for entry in log if entry[-1] == "sleeper woke"]
    assert woke and woke[0][1] == "2.0"


def test_inject_delay_parks_then_releases():
    compiled, _ = _assert_parity(delayed_goroutine)
    log = compiled.main_result
    assert ("delay", True, "inject.delay") in log
    woke = [entry for entry in log if entry[-1] == "sleeper woke"]
    assert woke and woke[0][1] == "1.5"
    assert ("reason after", None) in log


def test_timer_ticker_and_context_timeout():
    compiled, _ = _assert_parity(stdlib_timers)
    assert compiled.status == "ok"


@pytest.mark.parametrize("seed", [0, 1])
def test_loadgen_summary_parity(seed):
    drive_stats(True)
    compiled = loadgen_summary(seed=seed, clients=4, requests=60)
    stats = drive_stats(True)
    with force_pure():
        pure = loadgen_summary(seed=seed, clients=4, requests=60)
    assert compiled == pure
    assert compiled["ok"] == 240
    if ENGAGED:
        # Every arrival sleep and every message delivery fired in the loop.
        assert stats["calls"] <= 5
        assert stats["timers_fired"]["ready"] >= 240
        assert stats["timers_fired"]["callback"] == compiled["net"]["sent"]


# ---------------------------------------------------------------------------
# Parity on the bare scheduler: exceptions and advance_clock=False
# ---------------------------------------------------------------------------


def _drive_raw(program, seed=0, **kwargs):
    """One run_until_quiescent call on a fresh scheduler; returns what the
    scheduler looks like afterwards (or the exception it raised)."""
    sched = Scheduler(seed=seed, keep_trace=False)
    rt = Runtime(sched)
    log = []
    main_g = sched.spawn(program, (rt, log), name="main")
    try:
        outcome = sched.run_until_quiescent(stop_mode=("main", main_g),
                                            **kwargs)
        error = None
    except ValueError as exc:
        outcome, error = None, str(exc)
    state = (outcome, error, sched.steps, repr(sched.clock.now),
             _log_digest(log), sched.current_gid,
             [len(sched.clock._heap), main_g.state])
    sched.kill_all()
    return state, log


def _raw_parity(program, **kwargs):
    drive_stats(True)
    compiled = _drive_raw(program, **kwargs)
    stats = drive_stats(True)
    with force_pure():
        pure = _drive_raw(program, **kwargs)
    assert compiled[0] == pure[0]
    return compiled, stats


def raising_callback(rt, log):
    clock = rt.sched.clock

    def boom():
        raise ValueError(f"timer failed at {clock.now!r}")

    clock.call_after(1.0, log.append, "before")
    clock.call_after(1.0, boom)
    clock.call_after(1.0, log.append, "dropped with the batch")
    clock.call_after(2.0, log.append, "later")
    rt.sleep(5.0)
    log.append("main done")


def test_raising_callback_propagates_identically():
    (state, log), stats = _raw_parity(raising_callback)
    assert state[1] == "timer failed at 1.0"
    assert log == ["before"]
    if ENGAGED:
        assert stats["callbacks_raised"] == 1
        assert stats["exits"]["error"] == 1


def sleepers(rt, log):
    def nap(seconds):
        rt.sleep(seconds)
        log.append((rt.gid(), rt.now()))

    for seconds in (0.5, 1.5, 1.0):
        rt.go(nap, seconds)
    rt.sleep(2.0)
    log.append("main done")


def test_advance_clock_false_stops_at_idle():
    (state, log), stats = _raw_parity(sleepers, advance_clock=False)
    assert state[0] == "quiescent"
    assert state[3] == "0.0"
    assert log == []
    if ENGAGED:
        assert _fired(stats) == 0


def test_advance_clock_true_finishes_the_same_program():
    (state, log), _ = _raw_parity(sleepers)
    assert state[0] == "stopped"
    assert log[-1] == "main done"
