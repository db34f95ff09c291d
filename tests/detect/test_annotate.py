"""Choice annotations read from the kept trace, compiled and pure.

``ChoiceAnnotator`` records each pick (with the scheduler step it opens)
through the ``annotate_pick`` hook and, after the run, groups the kept
trace's events by step and reduces each pick's group to its footprint, so
an annotated run stays on the compiled ``drive()`` loop.
These tests pin the resulting :class:`PickAnnotation` lists three ways:
compiled vs ``force_pure()``, and against a test-local annotator that
buckets events *live* — each event into the latest pick's segment as it
is emitted — which is the semantics the step bucketing must equal.

Without the extension the compiled side is pure as well.
"""

import pytest

from repro import run
from repro.bugs import registry
from repro.detect.annotate import ChoiceAnnotator, PickAnnotation, _footprint
from repro.detect.systematic import ScriptedChoices
from repro.observe import Observer
from repro.runtime._hotloop import drive_stats, force_pure, get_drive
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace

ENGAGED = get_drive() is not None

PREFIXES = ([], [1], [1, 0, 1])


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


class LiveAnnotator:
    """Reference: adds each event to the segment of the latest pick
    while the run is live, through a :class:`LiveTrace`."""

    def __init__(self):
        self.picks = []
        self._segments = []

    def attach(self, rt):
        sched = rt.sched
        log = sched.rng.log

        def on_pick(runnable, idx):
            self._segments.append((len(log) - 1,
                                   tuple(g.gid for g in runnable), idx, []))

        def on_event(event):
            if self._segments:
                self._segments[-1][3].append(event)

        sched.annotate_pick = on_pick
        sched.trace = LiveTrace(on_event)

    def finish(self, result):
        self.picks = [
            PickAnnotation(position, gids, chosen,
                           *_footprint(gids[chosen], events))
            for position, gids, chosen, events in self._segments]


def _annotated(program, prefix, annotator_cls=ChoiceAnnotator, **kwargs):
    annotator = annotator_cls()
    choices = ScriptedChoices(prefix)
    result = run(program, rng=choices, observers=[annotator], **kwargs)
    return annotator.picks, (result.status, result.steps, choices.log,
                             choices.divergences)


def _all_ways(program, prefix, **kwargs):
    """Compiled, pure and live-listener annotations of one scripted run;
    asserts they agree and returns the compiled picks."""
    drive_stats(True)
    compiled = _annotated(program, prefix, **kwargs)
    stats = drive_stats(True)
    with force_pure():
        pure = _annotated(program, prefix, **kwargs)
    live = _annotated(program, prefix, LiveAnnotator, **kwargs)
    assert compiled == pure
    assert compiled == live
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
    return compiled[0]


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_annotation_parity(kernel):
    for variant in (kernel.buggy, kernel.fixed):
        for prefix in PREFIXES:
            picks = _all_ways(variant, prefix, **dict(kernel.run_kwargs))
            assert picks, (variant, prefix)
            untraced = _annotated(variant, prefix,
                                  **dict(kernel.run_kwargs, keep_trace=False))
            assert untraced[0] == picks


# ---------------------------------------------------------------------------
# Edge cases of the step bucketing
# ---------------------------------------------------------------------------


def _direct(prefix):
    """Run a scheduler by hand so goroutines can be spawned before the
    first pick; returns the compiled picks after checking the live ones."""

    def idle(rt):
        rt.gosched()

    def main(rt):
        rt.gosched()
        rt.gosched()

    def annotate(annotator):
        sched = Scheduler(rng=ScriptedChoices(prefix), keep_trace=True)
        rt = Runtime(sched)
        annotator.attach(rt)
        main_g = sched.spawn(main, (rt,), name="main")
        sched.spawn(idle, (rt,), name="other")
        sched.run_until_quiescent(stop_mode=("main", main_g))
        sched.kill_all()
        annotator.finish(None)
        return annotator.picks, list(sched.trace)

    picks, events = annotate(ChoiceAnnotator())
    with force_pure():
        assert annotate(ChoiceAnnotator())[0] == picks
    assert annotate(LiveAnnotator())[0] == picks
    return picks, events


def test_events_before_the_first_pick_belong_to_no_segment():
    picks, events = _direct([0])
    # Both GO_CREATEs happen at step 0, before any pick: goroutine 2's
    # creation must not show up in main's first segment.
    assert [(e.step, e.kind, e.obj) for e in events[:2]] == [
        (0, "go.create", 1), (0, "go.create", 2)]
    assert picks[0].gids == (1, 2) and picks[0].chosen == 0
    assert picks[0].tokens == frozenset({("g", 1)})
    assert not picks[0].poisoned


def nappers(rt):
    wg = rt.waitgroup()

    def nap(duration):
        rt.sleep(duration)
        wg.done()

    wg.add(2)
    rt.go(nap, 1.0)
    rt.go(nap, 2.0)
    wg.wait()


def test_timer_fires_between_picks_poison_the_earlier_segment():
    picks = _all_ways(nappers, [])
    events = list(run(nappers, rng=ScriptedChoices([])).trace)
    fires = [(e.step, events[i + 1]) for i, e in enumerate(events)
             if e.kind == "timer.fire"]
    assert len(fires) == 2
    for step, unblock in fires:
        # The fire happened while nothing was runnable, after the pick at
        # its step: that pick's segment is poisoned and holds the wakeup.
        assert unblock.kind == "go.unblock" and unblock.step == step
        assert picks[step - 1].poisoned
        assert ("g", unblock.obj) in picks[step - 1].tokens


def test_main_ending_poisons_its_segment():
    def main(rt):
        rt.go(lambda: None)
        rt.gosched()

    picks = _all_ways(main, [])
    ends = [p for p in picks if p.gids[p.chosen] == 1 and p.poisoned]
    assert len(ends) == 1
    # Main's go.end lands in the last segment main ran.
    last_main = max(p.position for p in picks if p.gids[p.chosen] == 1)
    assert ends[0].position == last_main


def held_at_teardown(rt):
    mu = rt.mutex()
    never = rt.make_chan(0)

    def holder():
        mu.lock()
        try:
            never.recv()
        finally:
            mu.unlock()

    rt.go(holder)
    rt.gosched()
    return "main done"


def test_kill_all_teardown_events_join_the_last_segment():
    picks = _all_ways(held_at_teardown, [])
    result = run(held_at_teardown, rng=ScriptedChoices([]))
    assert result.status == "leak"
    unlock = [e for e in result.trace if e.kind == "mutex.unlock"]
    # The deferred unlock runs while kill_all unwinds the holder, in
    # scheduler context at the last step.
    assert len(unlock) == 1 and unlock[0].gid == 0
    assert unlock[0].step == result.steps == len(picks)
    assert ("o", unlock[0].obj) in picks[-1].tokens
    assert ("g", 0) in picks[-1].tokens


@pytest.mark.parametrize("program", [nappers, held_at_teardown])
def test_untraced_run_yields_the_same_picks(program):
    kept = _annotated(program, [1])
    drive_stats(True)
    annotator = ChoiceAnnotator()
    result = run(program, rng=ScriptedChoices([1]), observers=[annotator],
                 keep_trace=False)
    stats = drive_stats(True)
    assert annotator.picks == kept[0]
    assert result.trace is None
    if ENGAGED:
        # Event keeping was turned on for the annotator, so the loop
        # recorded the trace it read.
        assert stats["recorded"] > 0


@pytest.mark.parametrize("observer_first", [True, False])
def test_pick_hook_chains_with_an_observer(observer_first):
    """The annotator and the Observer share the pick hook: neither may
    silence the other, whichever attaches first."""
    alone = _annotated(held_at_teardown, [1])
    annotator, observer = ChoiceAnnotator(), Observer()
    if observer_first:
        kwargs = dict(observers=[annotator], observe=observer)
    else:
        kwargs = dict(observers=[annotator, observer])
    result = run(held_at_teardown, rng=ScriptedChoices([1]), **kwargs)
    metrics = observer.to_dict()["metrics"]
    assert metrics["sched.steps"]["value"] == result.steps > 0
    assert metrics["sched.runnable_depth"]["count"] == result.steps
    assert annotator.picks == alone[0]
