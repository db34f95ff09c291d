"""Choice-point annotation for the systematic explorer.

The explorer's schedule tree branches on raw ``randrange`` indices; to
prune equivalent branches it must know what each choice *did*.  This
module answers that in two parts:

* the inert :attr:`Scheduler.annotate_pick` hook reports, for every
  scheduling decision, the runnable goroutines offered and the index
  chosen — aligned to the scripted choice log by position (the hook fires
  right after the draw) and to the trace by the scheduler step it opens;
* after the run, one pass over the kept trace gives each event to the
  decision whose step it carries — the *segment* that picked goroutine
  then executed — and each segment reduces to a **footprint**: the set of
  synchronization objects and goroutines it touched.

Every event between two picks carries the earlier pick's step (the
scheduler only advances ``_steps`` at a pick), so the step bucketing is
the same as attributing each event to the latest pick while the run is
live; events before the first pick (main's ``GO_CREATE``) belong to no
segment.  Reading the kept trace after the run keeps explorer runs on the
compiled loop (:mod:`repro.runtime._hotloop`).

Footprints drive the sleep-set pruning rule in
:mod:`repro.detect.systematic`: two segments on different goroutines with
disjoint footprints commute, so schedules differing only in their order
are equivalent.  Soundness demands the footprint never *understate* a
segment's interactions.  The scheduler therefore names the wait queues a
blocked attempt registers on (``GO_BLOCK`` carries the primitive id, or
the full case-channel set for a select) and ``select.begin`` carries
every case channel it consults, so those reduce to ordinary object
tokens.  Sleeps reduce to a single shared timer token ``("t", 0)``: two
sleeps may contend on wake order, but a sleep commutes with any channel
or lock operation (clock *advances* still poison, see below).

Anything the event stream cannot fully describe poisons the segment
(treated as dependent on everything):

* ``GO_BLOCK`` without a named object (external waits, nil channels);
* timer fires (the clock advance reorders every deadline), external
  waits, injected faults, panics, the main goroutine ending (changes run
  length), network fabric activity, and any event kind this table does
  not know.

Everything else contributes tokens: ``("o", id)`` for a primitive object,
``("g", gid)`` for goroutine-directed effects (spawn, unblock, completing
a peer's parked operation).  Every segment also carries its own
goroutine's ``("g", gid)`` token, so two segments of the same goroutine
never commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from ..runtime.trace import EventKind, TraceEvent

__all__ = ["ChoiceAnnotator", "PickAnnotation"]

#: Event kinds whose segment cannot be summarized by object tokens alone.
_POISON_KINDS = frozenset({
    EventKind.GO_PANIC,
    EventKind.TIMER_FIRE,
    EventKind.EXTERNAL_WAIT,
    EventKind.INJECT,
})

#: The shared virtual-clock token: all sleep registrations conflict with
#: each other (wake order) but commute with channel/lock traffic.
_TIMER_TOKEN = ("t", 0)

#: Event kinds that carry no cross-goroutine information at all.
_INERT_KINDS = frozenset({
    EventKind.GO_START,
    EventKind.SELECT_COMMIT,
})

#: Event kinds whose ``obj`` is a goroutine id, not a primitive id.
_GID_OBJ_KINDS = frozenset({
    EventKind.GO_CREATE,
    EventKind.GO_UNBLOCK,
})

#: Event kinds whose ``obj`` names a synchronization primitive.
_OBJ_KINDS = frozenset({
    EventKind.CHAN_MAKE, EventKind.CHAN_SEND, EventKind.CHAN_RECV,
    EventKind.CHAN_CLOSE,
    EventKind.MU_REQUEST, EventKind.MU_LOCK, EventKind.MU_UNLOCK,
    EventKind.RW_RLOCK, EventKind.RW_RUNLOCK, EventKind.RW_REQUEST,
    EventKind.RW_LOCK, EventKind.RW_UNLOCK,
    EventKind.WG_ADD, EventKind.WG_DONE, EventKind.WG_WAIT,
    EventKind.ONCE_DO,
    EventKind.COND_WAIT, EventKind.COND_SIGNAL, EventKind.COND_BROADCAST,
    EventKind.ATOMIC_OP,
    EventKind.MEM_READ, EventKind.MEM_WRITE,
})

#: gid of the program's main goroutine (first spawned by ``run``).
MAIN_GID = 1

_STEP = attrgetter("step")


@dataclass(frozen=True)
class PickAnnotation:
    """One scheduling decision: who was offered, who ran, what they touched.

    Attributes:
        position: index into the scripted choice log (which ``randrange``
            call this pick was).
        gids: runnable goroutine ids offered, in runnable-list order
            (``gids[chosen]`` ran).
        chosen: the index drawn.
        tokens: footprint of the segment the chosen goroutine then
            executed, as ``("o", id)`` / ``("g", gid)`` pairs.
        poisoned: True when the footprint may be incomplete; a poisoned
            segment never justifies pruning.
    """

    position: int
    gids: Tuple[int, ...]
    chosen: int
    tokens: FrozenSet[Tuple[str, int]]
    poisoned: bool


def _footprint(gid: int, events: Iterable[TraceEvent]
              ) -> Tuple[FrozenSet[Tuple[str, int]], bool]:
    """Reduce the events of one segment — what goroutine ``gid`` did after
    it was picked — to its ``(tokens, poisoned)`` footprint."""
    tokens = {("g", gid)}
    poisoned = False
    for event in events:
        kind = event.kind
        if kind in _OBJ_KINDS:
            if event.obj is not None:
                tokens.add(("o", event.obj))
            else:  # pragma: no cover - defensive
                poisoned = True
            if event.gid != gid:
                # Completing a parked peer's operation touches that peer.
                tokens.add(("g", event.gid))
        elif kind in _GID_OBJ_KINDS:
            tokens.add(("g", event.obj))
        elif kind == EventKind.GO_BLOCK:
            info = event.info or {}
            objs = info.get("objs")
            if event.obj is not None:
                tokens.add(("o", event.obj))
            elif objs:
                tokens.update(("o", obj) for obj in objs)
            elif info.get("reason") == "time.sleep":
                tokens.add(_TIMER_TOKEN)
            else:
                # External waits, nil channels: wait queue unnamed.
                poisoned = True
        elif kind == EventKind.SELECT_BEGIN:
            chans = (event.info or {}).get("chans")
            if chans is None:  # pragma: no cover - defensive
                poisoned = True
            else:
                tokens.update(("o", obj) for obj in chans)
        elif kind == EventKind.SLEEP:
            tokens.add(_TIMER_TOKEN)
        elif kind == EventKind.GO_END:
            if event.gid == MAIN_GID:
                # Main ending flips the run into drain mode.
                poisoned = True
            else:
                tokens.add(("g", event.gid))
        elif kind in _INERT_KINDS:
            pass
        else:
            # Timer fires, faults, panics, net.*, unknown kinds.
            poisoned = True
    return frozenset(tokens), poisoned


class ChoiceAnnotator:
    """Observer recording pick offers and segment footprints for one run.

    Pass in ``observers=[annotator]`` to :func:`repro.run` alongside the
    scripted ``rng``; read :attr:`picks` afterwards.  Attaching installs
    the ``annotate_pick`` scheduler hook (chaining one already installed,
    such as an :class:`repro.observe.Observer`'s) and turns event keeping
    on (a ``keep_trace=False`` run's ``result.trace`` stays None);
    :meth:`finish` reads the footprints from the kept trace.
    """

    def __init__(self) -> None:
        self.picks: List[PickAnnotation] = []
        #: ``(step, position, gids, chosen)`` per pick, in pick order.
        self._offers: List[Tuple[int, int, Tuple[int, ...], int]] = []
        self._sched: Any = None
        self._log: List[Tuple[int, int]] = []

    # -- observer protocol -------------------------------------------------

    def attach(self, rt: Any) -> None:
        sched = rt.sched
        self._sched = sched
        self._log = sched.rng.log
        sched.trace.active = True
        sched.add_pick_hook(self._on_pick)

    def finish(self, result: Any) -> None:
        # One pass groups the events by the step they carry; a step no pick
        # opened (step 0, before the first pick) is never looked up.
        events_at: Dict[int, List[TraceEvent]] = {}
        for step, events in groupby(self._sched.trace.events, _STEP):
            events_at.setdefault(step, []).extend(events)
        self.picks = [
            PickAnnotation(position, gids, chosen,
                           *_footprint(gids[chosen], events_at.get(step, ())))
            for step, position, gids, chosen in self._offers
        ]

    # -- hooks -------------------------------------------------------------

    def _on_pick(self, runnable: List[Any], idx: int) -> None:
        # The draw just happened, so its log entry is the last one.
        self._offers.append((self._sched._steps, len(self._log) - 1,
                             tuple([g.gid for g in runnable]), idx))
