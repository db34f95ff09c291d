"""The systematic explorer on the compiled loop.

Explorer runs draw from a scripted ``randrange`` and install the
``annotate_pick`` hook; both now run inside the compiled ``drive()``, and
the pick annotations are read from the kept trace rather than from a
listener.  These tests pin every :class:`Exploration` field (``wall_s``
aside) compiled vs ``force_pure()`` over the corpus, witness that explorer
runs really enter the compiled loop and its ``sleep`` op, and check that
an attached detector, which folds the kept trace after each run, keeps
them there without changing the exploration.

Without the extension the parity tests compare pure with pure and the
engagement tests skip.
"""

import dataclasses

import pytest

from repro.bugs import registry
from repro.detect import RaceDetector
from repro.detect.systematic import Exploration, explore_systematic
from repro.runtime._hotloop import (drive_stats, force_pure, get_drive,
                                    get_fastops)

ENGAGED = get_drive() is not None and get_fastops() is not None
needs_compiled = pytest.mark.skipif(
    not ENGAGED, reason="compiled hot loop unavailable on this host")

EXPLORE = dict(prune=True, memo=False, max_runs=60)


def _fields(found):
    """Every Exploration field but ``wall_s``; the counterexample's
    RunResult reduced to its status, steps and trace events."""
    out = {}
    for field in dataclasses.fields(Exploration):
        value = getattr(found, field.name)
        if field.name == "wall_s":
            continue
        if field.name == "counterexample_result" and value is not None:
            value = (value.status, value.steps, repr(value.end_time),
                     [(e.step, repr(e.time), e.gid, e.kind, e.obj, e.info)
                      for e in value.trace])
        out[field.name] = value
    return out


def _explore(kernel, variant, **kwargs):
    return explore_systematic(getattr(kernel, variant),
                              stop_on=kernel.manifested,
                              **dict(kernel.run_kwargs, **EXPLORE, **kwargs))


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_exploration_parity(kernel):
    for variant in ("buggy", "fixed"):
        compiled = _explore(kernel, variant)
        with force_pure():
            pure = _explore(kernel, variant)
        assert _fields(compiled) == _fields(pure), variant


def nappers(rt):
    done = rt.make_chan(2)

    def nap(duration):
        rt.sleep(duration)
        done.send(duration)

    rt.go(nap, 0.5)
    rt.go(nap, 0.25)
    return sorted([done.recv(), done.recv()])


def _reset():
    drive_stats(True)
    get_fastops().fastops_stats(True)


@needs_compiled
def test_explorer_runs_enter_the_compiled_loop():
    _reset()
    found = explore_systematic(nappers, max_runs=40, prune=True, memo=False)
    stats = drive_stats(True)
    sleeps = get_fastops().fastops_stats(True)
    assert found.exhausted and found.statuses == {"ok": found.runs}
    assert stats["calls"] > 0
    assert stats["exits"]["ineligible"] == 0
    assert stats["scripted"] > 0
    assert sleeps["engaged"]["sleep"] == 2 * found.runs
    assert sleeps["bailed"]["sleep"] == 0


@needs_compiled
def test_detector_keeps_the_explorer_compiled():
    plain = explore_systematic(nappers, max_runs=40, prune=True, memo=False)
    _reset()
    observed = explore_systematic(nappers, max_runs=40, prune=True,
                                  memo=False,
                                  observer_factories=[RaceDetector])
    stats = drive_stats(True)
    sleeps = get_fastops().fastops_stats(True)
    assert stats["calls"] > 0
    assert stats["exits"]["ineligible"] == 0
    assert sleeps["engaged"]["sleep"] == 2 * observed.runs
    assert sleeps["bailed"]["sleep"] == 0
    with force_pure():
        pure = explore_systematic(nappers, max_runs=40, prune=True,
                                  memo=False,
                                  observer_factories=[RaceDetector])
    assert _fields(observed) == _fields(plain) == _fields(pure)
