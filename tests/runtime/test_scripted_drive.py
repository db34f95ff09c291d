"""``drive()`` with a non-stock rng and the ``annotate_pick`` hook.

The compiled loop reads the stock rng directly; any other rng draws
through ``sched._randrange(n)`` and indexes the runnable list with list
semantics, and ``annotate_pick`` is called right after the draw — both
exactly as the pure ``_advance`` does.  Each case here runs on the
compiled loop and under ``force_pure()`` and must agree on everything
observable: the result or the exception, the step and budget counters,
``_current`` and the recorded events.  The thread and generator vehicles
are covered as well as the default one.

Without the extension both sides are pure and the engagement checks
skip.
"""

import pytest

from repro.detect.systematic import ScriptedChoices
from repro.runtime._hotloop import drive_stats, force_pure, get_drive
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler

ENGAGED = get_drive() is not None

BACKENDS = ["coroutine", "thread", "generator"]


def workers(rt):
    out = []
    ch = rt.make_chan(0)

    def worker(index):
        for step in range(3):
            out.append((index, step))
            rt.gosched()
        ch.send(index)

    for index in range(3):
        rt.go(worker, index)
    got = [ch.recv() for _ in range(3)]
    return out, got


def generator_workers(rt):
    out = []
    wg = rt.waitgroup()

    def worker(index):
        for step in range(3):
            out.append((index, step))
            yield
        wg.done()

    for index in range(3):
        wg.add(1)
        rt.go(worker, index)
    wg.wait()
    return out


def _program(backend):
    return generator_workers if backend == "generator" else workers


class NegativeRng:
    """Always -1: the last runnable goroutine, by list semantics."""

    def randrange(self, n):
        return -1


class LastRng:
    """Always ``n - 1``."""

    def randrange(self, n):
        return n - 1


class OutOfRangeRng:
    """Index 0 three times, then ``n`` (one past the end)."""

    def __init__(self):
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return 0 if self.draws <= 3 else n


class RaisingRng:
    """Index 0 four times, then raises."""

    def __init__(self):
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        if self.draws > 4:
            raise LookupError(f"rng exhausted at draw {self.draws}")
        return 0


def _scheduled(program, rng, backend, hook=None, keep_trace=True):
    """One ``run_until_quiescent`` on a fresh scheduler: ``(result or
    exception, steps, budget used, _current, events, hook calls)``."""
    sched = Scheduler(rng=rng, keep_trace=keep_trace, backend=backend)
    rt = Runtime(sched)
    calls = []
    if hook is not None:
        sched.annotate_pick = lambda runnable, idx: hook(
            calls, sched, runnable, idx)
    main_g = sched.spawn(program, (rt,), name="main")
    try:
        outcome = (sched.run_until_quiescent(stop_mode=("main", main_g)),
                   main_g.result)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        outcome = (type(exc).__name__, str(exc))
    state = (outcome, sched.steps, sched._budget_used,
             sched._current is None,
             [(e.step, repr(e.time), e.gid, e.kind, e.obj, e.info)
              for e in sched.trace], calls)
    sched.kill_all()
    return state


def _parity(program, make_rng, backend, hook=None, keep_trace=True):
    """Compiled vs pure; ``make_rng`` returning None means the stock
    rng."""
    drive_stats(True)
    rng = make_rng()
    compiled = _scheduled(program, rng, backend, hook, keep_trace)
    stats = drive_stats(True)
    with force_pure():
        pure = _scheduled(program, make_rng(), backend, hook, keep_trace)
    assert compiled == pure
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
        assert stats["scripted"] == (0 if rng is None else 1)
    return compiled


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_index_wraps(backend):
    wrapped = _parity(_program(backend), NegativeRng, backend)
    (verdict, _), steps, *_ = wrapped
    assert verdict == "stopped" and steps > 0
    assert wrapped == _scheduled(_program(backend), LastRng(), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_of_range_index_raises(backend):
    outcome, steps, budget_used, current_cleared, _, _ = _parity(
        _program(backend), OutOfRangeRng, backend)
    assert outcome == ("IndexError", "list index out of range")
    # The failed pick still counted its step, as in the pure loop.
    assert steps == budget_used == 4
    assert current_cleared


@pytest.mark.parametrize("backend", BACKENDS)
def test_raising_rng_propagates(backend):
    outcome, steps, _, current_cleared, _, _ = _parity(
        _program(backend), RaisingRng, backend)
    assert outcome == ("LookupError", "rng exhausted at draw 5")
    assert steps == 5 and current_cleared


def _raise_on_fourth(calls, sched, runnable, idx):
    calls.append((sched.steps, tuple(g.gid for g in runnable), idx))
    if len(calls) == 4:
        raise RuntimeError("hook failed")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rng", ["stock", "scripted"])
@pytest.mark.parametrize("keep_trace", [True, False])
def test_raising_pick_hook_propagates(backend, rng, keep_trace):
    make_rng = (lambda: None) if rng == "stock" else ScriptedChoices
    outcome, steps, _, current_cleared, _, calls = _parity(
        _program(backend), make_rng, backend, _raise_on_fourth, keep_trace)
    assert outcome == ("RuntimeError", "hook failed")
    # The hook saw the step its pick opened.
    assert [call[0] for call in calls] == [1, 2, 3, 4] and steps == 4
    assert current_cleared


@pytest.mark.parametrize("backend", BACKENDS)
def test_clamped_prefix_records_the_same_divergences(backend):
    rngs = []

    def make_rng():
        rngs.append(ScriptedChoices([5, 5, 1, 9]))
        return rngs[-1]

    (verdict, _), *_ = _parity(_program(backend), make_rng, backend)
    assert verdict == "stopped"
    compiled, pure = rngs[0], rngs[-1]
    assert compiled.divergences and compiled.divergences == pure.divergences
    assert compiled.log == pure.log
