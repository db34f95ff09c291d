"""Trace consumers fold the kept trace after the run, compiled and pure.

``RaceDetector``, ``LockOrderDetector`` and the ``Observer`` turn event
keeping on when they attach and replay the kept events through their
per-event handlers in ``finish()``, so a detected or observed run stays on
the compiled ``drive()`` loop.  These tests pin what they report three
ways over the corpus: compiled vs ``force_pure()``, and — for the two
detectors — against a test-local reference that feeds ``on_event`` as
each event is emitted, which is the ordering the fold must reproduce.

Without the extension the compiled side is pure as well.
"""

import json

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import LockOrderDetector, RaceDetector
from repro.detect.rules import ChannelRuleChecker
from repro.inject import plans
from repro.observe import Observer
from repro.runtime._hotloop import drive_stats, force_pure, get_drive
from repro.runtime.trace import Trace

ENGAGED = get_drive() is not None

SEEDS = (0, 1, 5)


class LiveTrace(Trace):
    """A trace that also hands each event to ``on_event`` as it is
    emitted.  Not the exact ``Trace`` type, so the compiled loop and fast
    ops never take a run that uses it: the reference stays pure."""

    __slots__ = ("on_event",)

    def __init__(self, on_event):
        super().__init__()
        self.on_event = on_event

    def emit(self, event):
        super().emit(event)
        self.on_event(event)


class LiveReference:
    """Feeds a race and a lock-order detector event by event while the run
    is live; the detectors themselves are never attached."""

    def __init__(self):
        self.race = RaceDetector()
        self.lock = LockOrderDetector()

    def attach(self, rt):
        def on_event(event):
            self.race.on_event(event)
            self.lock.on_event(event)

        rt.sched.trace = LiveTrace(on_event)

    def finish(self, result):
        self.lock.analyze()


def _detected(race, lock):
    return (race.reports, race.final_clocks(), lock.edges, lock.violations)


def _folded(program, seed, **kwargs):
    race, lock = RaceDetector(), LockOrderDetector()
    observer = Observer(capture_sites=True)
    result = run(program, seed=seed, observe=observer,
                 observers=[race, lock, ChannelRuleChecker()], **kwargs)
    return (result.status, result.steps, _detected(race, lock),
            observer.to_json())


def _live(program, seed, **kwargs):
    reference = LiveReference()
    result = run(program, seed=seed, observers=[reference], **kwargs)
    return (result.status, result.steps,
            _detected(reference.race, reference.lock))


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_fold_parity(kernel):
    for variant in (kernel.buggy, kernel.fixed):
        for seed in SEEDS:
            kwargs = dict(kernel.run_kwargs)
            drive_stats(True)
            compiled = _folded(variant, seed, **kwargs)
            stats = drive_stats(True)
            with force_pure():
                pure = _folded(variant, seed, **kwargs)
            live = _live(variant, seed, **kwargs)
            assert compiled == pure, (variant, seed)
            assert compiled[:3] == live, (variant, seed)
            if ENGAGED:
                assert stats["calls"] > 0, (variant, seed)
                assert stats["exits"]["ineligible"] == 0, (variant, seed)


def racy_and_inverted(rt):
    """A data race and an AB/BA lock inversion in one program."""
    counter = rt.shared("counter", 0)
    a, b = rt.mutex(), rt.mutex()
    wg = rt.waitgroup()

    def worker(first, second):
        with first:
            with second:
                pass
        counter.add(1)
        wg.done()

    wg.add(2)
    rt.go(worker, a, b)
    rt.go(worker, b, a)
    wg.wait()


@pytest.mark.parametrize("keep_trace", [True, False])
def test_fold_reports_what_the_live_reference_does(keep_trace):
    seen = set()
    for seed in range(8):
        compiled = _folded(racy_and_inverted, seed, keep_trace=keep_trace)
        assert compiled[:3] == _live(racy_and_inverted, seed,
                                     keep_trace=keep_trace)
        assert compiled[0] in ("ok", "deadlock"), seed
        reports, _clocks, edges, violations = compiled[2]
        seen.add((bool(reports), bool(violations), len(edges)))
        # The observer folded the same events: main and both workers.
        metrics = json.loads(compiled[3])["metrics"]
        assert metrics["go.spawned"]["value"] == 3
        assert metrics["mutex.acquires"]["value"] >= 2
    # The program is not vacuous: some seed races, every seed inverts.
    assert any(raced for raced, _, _ in seen)
    assert all(inverted and n == 2 for _, inverted, n in seen)


def test_finish_twice_folds_once():
    race = RaceDetector()
    result = run(racy_and_inverted, seed=0, observers=[race])
    first = (list(race.reports), race.final_clocks())
    race.finish(result)
    assert (race.reports, race.final_clocks()) == first
    assert result.races == race.reports


def test_untraced_detector_run_keeps_no_trace_on_the_result():
    race = RaceDetector()
    result = run(racy_and_inverted, seed=0, keep_trace=False,
                 observers=[race])
    assert result.trace is None
    assert race.final_clocks()


def test_injected_run_enters_drive_and_folds_the_same():
    plan = plans.delay_storm(every=3)
    drive_stats(True)
    compiled = _folded(racy_and_inverted, 2, inject=plan)
    stats = drive_stats(True)
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
    with force_pure():
        assert _folded(racy_and_inverted, 2, inject=plan) == compiled
    assert compiled[:3] == _live(racy_and_inverted, 2, inject=plan)
