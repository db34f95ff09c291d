"""Goroutine host backends: resolution, fallback warnings, cross-backend
schedule equivalence.

The backend only changes *how* goroutines are hosted (continuations vs OS
threads); every scheduling decision comes from the same seeded RNG either
way, so all backends must produce bit-identical schedule fingerprints.
"""

import warnings

import pytest

from repro import run
from repro.bench import WORKLOADS
from repro.parallel import schedule_digest
from repro.runtime import _hotloop
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.goroutine import has_tasklet
from repro.runtime.scheduler import BACKENDS, resolve_backend


def _program(rt):
    ch = rt.make_chan(1)

    def worker(i):
        ch.send(i)

    for i in range(3):
        rt.go(worker, i)
    return tuple(ch.recv() for _ in range(3))


@pytest.mark.parametrize("backend", ["fiber", "greenlet"])
def test_unknown_backend_rejected(backend):
    with pytest.raises(ValueError, match="unknown goroutine backend"):
        run(_program, backend=backend)


def test_coroutine_is_the_default_and_resolves_to_a_continuation_vehicle():
    result = run(_program, seed=3)
    assert result.backend in ("tasklet", "generator")
    assert result.backend == resolve_backend("coroutine")
    # The compat mode is still reachable and reports itself.
    assert run(_program, seed=3, backend="thread").backend == "thread"


def test_backend_surfaced_on_result_and_summary():
    from repro.parallel import summarize_result

    result = run(_program, seed=1, backend="thread")
    assert result.backend == "thread"
    assert result.to_dict()["backend"] == "thread"
    assert summarize_result(result).backend == "thread"


def test_fallback_warns_once_per_process_across_schedulers(monkeypatch):
    """tasklet->generator, the one fallback edge: many Scheduler
    constructions (a sweep) -> one warning, and the schedule is unchanged.
    The extension is masked so the edge runs on every leg, not only where
    the extension is missing."""
    monkeypatch.setattr(scheduler_mod, "has_tasklet", lambda: False)
    monkeypatch.setattr(scheduler_mod, "_fallback_warned", set())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        results = [run(_program, seed=seed, backend="tasklet")
                   for seed in range(4)]
    fallback_warnings = [w for w in caught
                         if "falling back to the" in str(w.message)]
    assert len(fallback_warnings) == 1
    assert all(r.backend == "generator" for r in results)
    thread = run(_program, seed=3, backend="thread")
    assert schedule_digest(results[3]) == schedule_digest(thread)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backends_produce_identical_schedules(seed):
    available = ["thread", "coroutine", "generator"]
    if has_tasklet():
        available.append("tasklet")
    results = {b: run(_program, seed=seed, backend=b) for b in available}
    reference = results["thread"]
    for backend, result in results.items():
        assert result.status == reference.status, backend
        assert result.steps == reference.steps, backend
        assert result.main_result == reference.main_result, backend
        assert schedule_digest(result) == schedule_digest(reference), backend


def test_backends_tuple_names_every_vehicle():
    assert BACKENDS == ("coroutine", "thread", "tasklet", "generator")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in BACKENDS:
            assert resolve_backend(name) in ("thread", "tasklet", "generator")


@pytest.mark.skipif(not _hotloop.HAS_COMPILED,
                    reason="compiled extension unavailable")
@pytest.mark.parametrize("workload", ["pingpong", "spawn"])
def test_thread_backend_steps_through_the_compiled_loop(workload):
    """Thread hosts bounce every step through the scheduler's one loop, so
    an untraced thread run enters the compiled drive() like any other."""
    program = WORKLOADS[workload]
    _hotloop.drive_stats(reset=True)
    thread = run(program, seed=1, keep_trace=False, backend="thread")
    assert _hotloop.drive_stats()["calls"] > 0
    coro = run(program, seed=1, keep_trace=False)
    assert (thread.status, thread.steps) == (coro.status, coro.steps)
    traced_thread = run(program, seed=1, keep_trace=True, backend="thread")
    traced_coro = run(program, seed=1, keep_trace=True)
    assert schedule_digest(traced_thread) == schedule_digest(traced_coro)
