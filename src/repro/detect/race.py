"""The happens-before data race detector.

A reimplementation of the detector the paper evaluates in Section 6.3: Go's
``-race`` mode, which "uses the same happen-before algorithm as
ThreadSanitizer" and keeps **up to four shadow words per memory object**.
Both properties are reproduced:

* Happens-before edges are derived from the trace: goroutine creation,
  channel send/recv/close (with the bidirectional rendezvous edge for
  unbuffered channels), mutex and RWMutex transfer, WaitGroup Done→Wait,
  Once execution→return, Cond signal, and atomic operations.
* Each :class:`~repro.sync.shared.SharedVar` keeps at most
  ``shadow_words`` recent accesses; older ones are evicted, so long
  histories can hide races — the paper's third miss cause in Table 12.
  Pass ``shadow_words=None`` for the unlimited-history ablation.

Usage::

    det = RaceDetector()
    result = run(program, seed=3, observers=[det])
    for report in det.reports: print(report)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..runtime.trace import EventKind, Trace, TraceEvent
from .report import Access, RaceReport
from .vectorclock import VectorClock


class _Shadow:
    """One shadow word: a stamped access to a memory object."""

    __slots__ = ("gid", "epoch", "is_write", "step")

    def __init__(self, gid: int, epoch: Tuple[int, int], is_write: bool, step: int):
        self.gid = gid
        self.epoch = epoch
        self.is_write = is_write
        self.step = step


class RaceDetector:
    """Vector-clock data race detector (observer for :func:`repro.run`)."""

    name = "go-race-detector"

    def __init__(self, shadow_words: Optional[int] = 4,
                 max_reports_per_var: int = 1):
        self.shadow_words = shadow_words
        self.max_reports_per_var = max_reports_per_var
        self.reports: List[RaceReport] = []
        self._clocks: Dict[int, VectorClock] = {}
        self._chan_msgs: Dict[Tuple[int, int], VectorClock] = {}
        self._chan_close: Dict[int, VectorClock] = {}
        self._lock_rel: Dict[int, VectorClock] = {}
        self._rw_read_rel: Dict[int, VectorClock] = {}
        self._wg_rel: Dict[int, VectorClock] = {}
        self._once_rel: Dict[int, VectorClock] = {}
        self._cond_rel: Dict[int, VectorClock] = {}
        self._atomic_rel: Dict[int, VectorClock] = {}
        self._shadows: Dict[int, Deque[_Shadow]] = {}
        self._var_names: Dict[int, str] = {}
        self._reported_vars: Dict[int, int] = {}
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------

    def attach(self, rt) -> None:
        # Keep the run's events; finish() folds them in emission order.
        self._trace = rt.sched.trace
        self._trace.active = True

    def finish(self, result) -> None:
        trace, self._trace = self._trace, None
        if trace is not None:
            for event in trace.events:
                self.on_event(event)
        # Expose reports on the result for convenience.
        setattr(result, "races", list(self.reports))

    @property
    def detected(self) -> bool:
        return bool(self.reports)

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------

    def final_clocks(self) -> Dict[int, VectorClock]:
        """Per-goroutine clocks after the run (copies).

        The observable happens-before closure: the offline replay in
        :mod:`repro.predict.hb` must reproduce these clock-for-clock
        from the exported sync-event stream (round-trip test).
        """
        return {gid: clock.copy() for gid, clock in self._clocks.items()}

    def _clock(self, gid: int) -> VectorClock:
        clock = self._clocks.get(gid)
        if clock is None:
            clock = VectorClock()
            clock.increment(gid)
            self._clocks[gid] = clock
        return clock

    def _release(self, store: Dict[int, VectorClock], obj: int, gid: int) -> None:
        clock = self._clock(gid)
        slot = store.get(obj)
        if slot is None:
            store[obj] = clock.copy()
        else:
            slot.join(clock)
        clock.increment(gid)

    def _acquire(self, store: Dict[int, VectorClock], obj: int, gid: int) -> None:
        slot = store.get(obj)
        if slot is not None:
            self._clock(gid).join(slot)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        gid = event.gid
        obj = event.obj

        if kind == EventKind.GO_CREATE:
            child = int(obj)  # type: ignore[arg-type]
            parent_clock = self._clock(gid)
            child_clock = parent_clock.copy()
            child_clock.increment(child)
            self._clocks[child] = child_clock
            parent_clock.increment(gid)

        elif kind == EventKind.CHAN_SEND:
            seq = event.info["seq"]
            self._chan_msgs[(obj, seq)] = self._clock(gid).copy()
            self._clock(gid).increment(gid)

        elif kind == EventKind.CHAN_RECV:
            if event.info.get("closed"):
                self._acquire(self._chan_close, obj, gid)
            else:
                seq = event.info.get("seq")
                msg_clock = self._chan_msgs.pop((obj, seq), None)
                if event.info.get("sync") and event.info.get("partner") is not None:
                    # Unbuffered rendezvous synchronizes both directions.
                    partner = int(event.info["partner"])
                    recv_pre = self._clock(gid).copy()
                    self._clock(gid).join(msg_clock)
                    self._clock(partner).join(recv_pre)
                    self._clock(partner).increment(partner)
                else:
                    self._clock(gid).join(msg_clock)
            self._clock(gid).increment(gid)

        elif kind == EventKind.CHAN_CLOSE:
            self._release(self._chan_close, obj, gid)

        elif kind in (EventKind.MU_LOCK, EventKind.RW_RLOCK):
            self._acquire(self._lock_rel, obj, gid)

        elif kind == EventKind.RW_LOCK:
            self._acquire(self._lock_rel, obj, gid)
            self._acquire(self._rw_read_rel, obj, gid)

        elif kind in (EventKind.MU_UNLOCK, EventKind.RW_UNLOCK):
            self._release(self._lock_rel, obj, gid)

        elif kind == EventKind.RW_RUNLOCK:
            self._release(self._rw_read_rel, obj, gid)

        elif kind == EventKind.WG_ADD:
            if event.info.get("delta", 0) > 0:
                self._release(self._wg_rel, obj, gid)

        elif kind == EventKind.WG_DONE:
            self._release(self._wg_rel, obj, gid)

        elif kind == EventKind.WG_WAIT:
            self._acquire(self._wg_rel, obj, gid)

        elif kind == EventKind.ONCE_DO:
            if event.info.get("ran"):
                self._release(self._once_rel, obj, gid)
            else:
                self._acquire(self._once_rel, obj, gid)

        elif kind in (EventKind.COND_SIGNAL, EventKind.COND_BROADCAST):
            self._release(self._cond_rel, obj, gid)

        elif kind == EventKind.COND_WAIT:
            self._acquire(self._cond_rel, obj, gid)

        elif kind == EventKind.ATOMIC_OP:
            self._acquire(self._atomic_rel, obj, gid)
            self._release(self._atomic_rel, obj, gid)

        elif kind in (EventKind.MEM_READ, EventKind.MEM_WRITE):
            self._check_access(event)

    # ------------------------------------------------------------------
    # Shadow-word race checking
    # ------------------------------------------------------------------

    def _check_access(self, event: TraceEvent) -> None:
        gid = event.gid
        obj = int(event.obj)  # type: ignore[arg-type]
        is_write = event.kind == EventKind.MEM_WRITE
        name = str(event.info.get("name", f"var#{obj}"))
        self._var_names[obj] = name
        clock = self._clock(gid)

        shadows = self._shadows.get(obj)
        if shadows is None:
            shadows = deque()
            self._shadows[obj] = shadows

        for shadow in shadows:
            if shadow.gid == gid:
                continue
            if not (is_write or shadow.is_write):
                continue  # two reads never race
            if clock.dominates_epoch(shadow.epoch):
                continue  # ordered by happens-before
            self._report(obj, name, shadow, event, is_write)

        shadows.append(
            _Shadow(gid, clock.epoch(gid), is_write, event.step)
        )
        if self.shadow_words is not None:
            # TSan keeps a small fixed shadow per object and evicts old
            # cells; FIFO eviction keeps the simulator deterministic.
            while len(shadows) > self.shadow_words:
                shadows.popleft()

        # The access itself advances the accessor's epoch so later accesses
        # by the same goroutine are distinguishable.
        clock.increment(gid)

    def _report(self, obj: int, name: str, shadow: _Shadow,
                event: TraceEvent, is_write: bool) -> None:
        count = self._reported_vars.get(obj, 0)
        if count >= self.max_reports_per_var:
            return
        self._reported_vars[obj] = count + 1
        first = Access(
            gid=shadow.gid,
            kind="write" if shadow.is_write else "read",
            step=shadow.step,
            var_name=name,
        )
        second = Access(
            gid=event.gid,
            kind="write" if is_write else "read",
            step=event.step,
            var_name=name,
        )
        self.reports.append(RaceReport(var_id=obj, var_name=name,
                                       first=first, second=second))
