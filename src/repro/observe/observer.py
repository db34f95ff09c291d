"""The Observer: one attachable trace consumer that builds every view.

Contract (the same one detectors follow, see DESIGN.md): ``attach`` turns
event keeping on for the run's :class:`repro.runtime.trace.Trace`, installs
(or chains) the ``annotate_pick`` scheduler hook and sets the inert
``capture_sites`` flag; ``finish`` folds the kept events.  It never touches
the RNG, the runnable set, or primitive state — attaching an observer is
guaranteed not to change the schedule, which the determinism tests assert
bit-for-bit.

Everything it derives — the metrics registry, the goroutine/block/mutex
profiles, the flamegraph stacks — is a pure function of the trace, so two
same-seed runs produce byte-identical dumps.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..runtime.trace import EventKind, TraceEvent
from .metrics import MetricsRegistry
from .profiles import GoroutineProfile, Profile, flamegraph

#: Block reasons whose spans feed the mutex-contention profile.
_LOCK_REASONS = ("mutex.lock:", "rwmutex.lock:", "rwmutex.rlock:")

#: Event kind -> counter name (simple tallies).
_TALLY = {
    EventKind.CHAN_SEND: "chan.sends",
    EventKind.CHAN_RECV: "chan.recvs",
    EventKind.CHAN_CLOSE: "chan.closes",
    EventKind.CHAN_MAKE: "chan.made",
    EventKind.SELECT_COMMIT: "select.commits",
    EventKind.MU_LOCK: "mutex.acquires",
    EventKind.MU_UNLOCK: "mutex.releases",
    EventKind.RW_LOCK: "rwmutex.wlocks",
    EventKind.RW_RLOCK: "rwmutex.rlocks",
    EventKind.WG_WAIT: "waitgroup.waits",
    EventKind.ONCE_DO: "once.dos",
    EventKind.COND_WAIT: "cond.waits",
    EventKind.ATOMIC_OP: "atomic.ops",
    EventKind.MEM_READ: "mem.reads",
    EventKind.MEM_WRITE: "mem.writes",
    EventKind.SLEEP: "time.sleeps",
    EventKind.TIMER_FIRE: "time.timer_fires",
    EventKind.EXTERNAL_WAIT: "external.waits",
    EventKind.INJECT: "inject.faults",
    EventKind.GO_PANIC: "go.panics",
    EventKind.NET_SEND: "net.sends",
    EventKind.NET_RECV: "net.recvs",
    EventKind.NET_DROP: "net.drops",
    EventKind.NET_DIAL: "net.dials",
    EventKind.NET_PARTITION: "net.partitions",
    EventKind.NET_HEAL: "net.heals",
}

#: Bucket bounds for per-link delivery latency (virtual seconds).
_NET_LATENCY_BOUNDS = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
                       0.2, 0.5, 1.0)


class _OpenSpan:
    """One in-flight block: a goroutine parked since (step, time)."""

    __slots__ = ("reason", "site", "stack", "step", "time")

    def __init__(self, reason: str, site: str, stack: Tuple[str, ...],
                 step: int, time: float):
        self.reason = reason
        self.site = site
        self.stack = stack
        self.step = step
        self.time = time


class Observer:
    """pprof/expvar-style observability over one deterministic run.

    Attach via ``run(main, observe=Observer(...))`` (or ``observe=True``
    for the defaults).  After the run, the observer exposes:

    * ``metrics`` — the :class:`MetricsRegistry`.
    * ``block_profile`` / ``mutex_profile`` / ``goroutine_profile``.
    * ``render()`` — the full text report; ``flamegraph()`` — text flame.
    * ``to_dict()`` / ``to_json()`` — stable machine-readable dumps.

    Args:
        capture_sites: record user call-site stacks on every block (the
            pprof-style attribution); off saves the frame walk.
        max_series: cap per time series (runnable depth, occupancy).
        track_occupancy: per-channel occupancy histograms + series.
    """

    def __init__(self, capture_sites: bool = True, max_series: int = 4096,
                 track_occupancy: bool = True):
        self.capture_sites = capture_sites
        self.max_series = max_series
        self.track_occupancy = track_occupancy

        self.metrics = MetricsRegistry()
        self.block_profile = Profile("block", ("primitive", "site"))
        self.mutex_profile = Profile("mutex", ("lock", "site"))
        self.goroutine_profile = GoroutineProfile()

        # Trace-derived goroutine book-keeping.
        self._g_state: Dict[int, str] = {}
        self._g_name: Dict[int, str] = {}
        self._g_site: Dict[int, str] = {}
        self._open: Dict[int, _OpenSpan] = {}
        self._flame: Dict[Tuple[str, ...], int] = {}

        # Channel book-keeping.
        self._chan_label: Dict[int, str] = {}
        self._chan_occ: Dict[int, int] = {}

        self._last_gid: Optional[int] = None
        self._attached = False
        self._finished = False
        self._sched: Optional[Any] = None
        self.result: Optional[Any] = None

        # Hot-path instrument handles (bound once; ``_on_pick`` runs every
        # scheduler step and must not pay a registry lookup each time).
        self._steps_counter = self.metrics.counter("sched.steps")
        self._switch_counter = self.metrics.counter("sched.switches")
        self._depth_hist = self.metrics.histogram("sched.runnable_depth")
        self._depth_series = self.metrics.timeseries(
            "sched.runnable_depth.series", self.max_series)
        self._tally_cache: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Attachment (the observers=/observe= protocol)
    # ------------------------------------------------------------------

    def attach(self, rt: Any) -> None:
        if self._attached:
            raise RuntimeError(
                "Observer instances are single-run; create a fresh one "
                "per run so dumps stay a pure function of (program, seed)")
        self._attached = True
        sched = rt.sched
        self._sched = sched
        sched.trace.active = True
        if self.capture_sites:
            sched.capture_sites = True
        sched.add_pick_hook(self._on_pick)

    # ------------------------------------------------------------------
    # Scheduler hook
    # ------------------------------------------------------------------

    def _on_pick(self, runnable: List[Any], idx: int) -> None:
        depth = len(runnable)
        gid = runnable[idx].gid
        self._steps_counter.value += 1
        self._depth_hist.observe(depth)
        self._depth_series.sample(self._sched._steps, depth)
        if self._last_gid is not None and gid != self._last_gid:
            self._switch_counter.value += 1
        self._last_gid = gid

    # ------------------------------------------------------------------
    # Trace consumption
    # ------------------------------------------------------------------

    def _on_event(self, e: TraceEvent) -> None:
        kind = e.kind
        tally = _TALLY.get(kind)
        if tally is not None:
            counter = self._tally_cache.get(tally)
            if counter is None:
                counter = self.metrics.counter(tally)
                self._tally_cache[tally] = counter
            counter.value += 1

        if kind == EventKind.GO_CREATE:
            gid = int(e.obj)  # type: ignore[arg-type]
            self._g_state[gid] = "runnable"
            self._g_name[gid] = str(e.info.get("name", f"g{gid}"))
            self._g_site[gid] = str(e.info.get("site") or "?")
            live = self.metrics.gauge("go.live")
            live.add(1)
            self.metrics.counter("go.spawned").inc()
            if e.info.get("anonymous"):
                self.metrics.counter("go.spawned_anonymous").inc()
        elif kind == EventKind.GO_BLOCK:
            reason = str(e.info.get("reason", "?"))
            site = str(e.info.get("site", "?"))
            stack = tuple(e.info.get("stack") or ())
            self._g_state[e.gid] = f"blocked:{reason}"
            self._open[e.gid] = _OpenSpan(reason, site, stack, e.step, e.time)
            self.metrics.counter("go.blocks").inc()
        elif kind == EventKind.GO_UNBLOCK:
            gid = int(e.obj)  # type: ignore[arg-type]
            self._g_state[gid] = "runnable"
            span = self._open.pop(gid, None)
            if span is not None:
                self._close_span(gid, span, e.step, e.time, still_blocked=False)
        elif kind in (EventKind.GO_END, EventKind.GO_PANIC):
            self._g_state[e.gid] = ("done" if kind == EventKind.GO_END
                                    else "panicked")
            self._open.pop(e.gid, None)
            self.metrics.gauge("go.live").add(-1)
        elif kind == EventKind.CHAN_MAKE:
            cid = int(e.obj)  # type: ignore[arg-type]
            name = e.info.get("name", f"chan#{cid}")
            self._chan_label[cid] = f"{name}#{cid}"
            self._chan_occ[cid] = 0
        elif kind == EventKind.CHAN_SEND:
            if self.track_occupancy and not e.info.get("sync", False):
                self._occupancy(int(e.obj), +1, e.step)  # type: ignore[arg-type]
        elif kind == EventKind.CHAN_RECV:
            if (self.track_occupancy and not e.info.get("sync", False)
                    and "seq" in e.info):
                self._occupancy(int(e.obj), -1, e.step)  # type: ignore[arg-type]
        elif kind == EventKind.NET_RECV:
            link = e.info.get("link")
            latency = e.info.get("latency")
            if link is not None and latency is not None:
                self.metrics.histogram(f"net.latency_s[{link}]",
                                       bounds=_NET_LATENCY_BOUNDS
                                       ).observe(latency)
        elif kind == EventKind.NET_DROP:
            link = e.info.get("link")
            if link is not None:
                self.metrics.counter(f"net.drops[{link}]").inc()

    def _occupancy(self, cid: int, delta: int, step: int) -> None:
        occ = self._chan_occ.get(cid, 0) + delta
        self._chan_occ[cid] = occ
        label = self._chan_label.get(cid, f"chan#{cid}")
        self.metrics.histogram(f"chan.occupancy[{label}]").observe(occ)
        self.metrics.timeseries(f"chan.occupancy[{label}].series",
                                self.max_series).sample(step, occ)

    # ------------------------------------------------------------------

    def _close_span(self, gid: int, span: _OpenSpan, step: int, time: float,
                    still_blocked: bool) -> None:
        wait_steps = step - span.step
        wait_seconds = time - span.time
        primitive = span.reason.split(":", 1)[0]
        self.block_profile.add(
            (primitive, span.site), steps=wait_steps, seconds=wait_seconds,
            still_blocked=1 if still_blocked else 0)
        self.metrics.histogram(
            f"block.wait_steps[{primitive}]").observe(wait_steps)
        if wait_seconds > 0:
            self.metrics.histogram(
                f"block.wait_seconds[{primitive}]").observe(wait_seconds)
        if span.reason.startswith(_LOCK_REASONS):
            lock = span.reason.split(":", 1)[1] or "?"
            self.mutex_profile.add(
                (lock, span.site), steps=wait_steps, seconds=wait_seconds,
                still_blocked=1 if still_blocked else 0)
        # Flamegraph stack: outermost user frame first, reason as the leaf.
        if span.stack:
            frames = tuple(reversed(span.stack)) + (span.reason,)
        else:
            frames = (self._g_name.get(gid, f"g{gid}"), span.reason)
        self._flame[frames] = self._flame.get(frames, 0) + wait_steps

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finish(self, result: Any) -> None:
        """Fold the kept trace, close open spans against the end of the run
        and snapshot states."""
        if self._finished:
            return
        self._finished = True
        self.result = result
        if self._sched is not None:
            for event in self._sched.trace.events:
                self._on_event(event)
            self._sched = None
        end_step = result.steps
        end_time = result.end_time
        for gid in sorted(self._open):
            span = self._open[gid]
            self._close_span(gid, span, end_step, end_time, still_blocked=True)
        self._open.clear()
        for gid in sorted(self._g_state):
            self.goroutine_profile.add(
                gid, self._g_state[gid],
                self._g_name.get(gid, f"g{gid}"),
                self._g_site.get(gid, "?"))
        peak = self.metrics.gauge("go.live").max
        self.metrics.gauge("go.peak_live").set(peak)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def flamegraph(self, width: int = 40) -> str:
        return flamegraph(sorted(self._flame.items()), width=width,
                          title="blocked-time flamegraph "
                                "(weight = scheduler steps blocked)")

    def _run_summary(self) -> dict:
        if self.result is None:
            return {}
        return {"status": self.result.status, "seed": self.result.seed,
                "steps": self.result.steps,
                "virtual_time": self.result.end_time}

    def render(self, top: int = 10) -> str:
        """The full text report (`repro profile` output)."""
        sections: List[str] = []
        summary = self._run_summary()
        if summary:
            sections.append(
                "run: " + " ".join(f"{k}={v}" for k, v in summary.items()))
        sections.append(self.goroutine_profile.render())
        sections.append(self.block_profile.render(top))
        sections.append(self.mutex_profile.render(top))
        sections.append("metrics:\n" + self.metrics.render())
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        """Stable, JSON-serializable dump of every derived view."""
        return {
            "run": self._run_summary(),
            "metrics": self.metrics.to_dict(),
            "profiles": {
                "goroutine": self.goroutine_profile.to_dict(),
                "block": self.block_profile.to_dict(),
                "mutex": self.mutex_profile.to_dict(),
            },
            "flame": [{"stack": list(stack), "steps": steps}
                      for stack, steps in sorted(self._flame.items())],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
