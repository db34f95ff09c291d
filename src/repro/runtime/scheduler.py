"""The deterministic, seeded goroutine scheduler.

The scheduler owns the token described in :mod:`repro.runtime.goroutine`,
the virtual clock, the runnable set, and the trace.  Every run is a pure
function of ``(program, seed, options)``: the only source of nondeterminism
Go programs observe (which runnable goroutine runs next, which ready
``select`` case fires) is drawn from one seeded RNG.

Sweeping seeds is the simulator's replacement for the paper's "run the buggy
program a lot of times": a bug that manifests on 3% of real executions
manifests on a similar fraction of seeds.  Because sweep throughput is the
system's effective speed, the per-step path here is deliberately lean:

* scheduling randomness comes from :class:`repro.runtime.fastrand.BatchedRandom`
  (bit-identical to ``random.Random``, a fraction of the call overhead);
* trace events are only *allocated* when they are kept (``Trace.active``);
  a ``keep_trace=False`` run with no detectors pays one attribute check per
  would-be event;
* ``user_stack()`` walks only happen under ``capture_sites`` (profiling).
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .clock import VirtualClock
from .errors import SchedulerStateError, StepLimitExceeded
from ._hotloop import (BatchedRandom, count_horizon_exit, get_drive,
                       get_fastops)
from .goroutine import (
    GeneratorGoroutine,
    Goroutine,
    GState,
    TaskletGoroutine,
    has_tasklet,
    tasklet_module,
)
from .trace import EventKind, Trace, TraceEvent

#: Package directories whose frames are simulator plumbing, not user code.
#: Bug kernels (``repro.bugs``), mini-apps (``repro.apps``) and the chaos
#: scenarios (``repro.inject.scenarios``) are *user* code for profiling
#: purposes; the injector itself only runs in scheduler context and never
#: appears above a block, so ``inject`` needs no entry here.
_INTERNAL_PACKAGES = ("runtime", "chan", "sync", "stdlib")
_internal_dirs: Optional[Tuple[str, ...]] = None

#: Goroutine host backends.  ``"coroutine"`` (the default) resolves to the
#: best single-threaded continuation vehicle available — the in-tree
#: ``_ctasklet`` C extension, else the pure-Python generator trampoline.
#: ``"thread"`` is the always-available opt-in compatibility mode (one
#: daemon OS thread per goroutine); the remaining names request a specific
#: vehicle and fall back (with a one-time warning) when it is unavailable.
#: Every backend produces bit-identical schedules.
BACKENDS = ("coroutine", "thread", "tasklet", "generator")


def _internal_frame_dirs() -> Tuple[str, ...]:
    global _internal_dirs
    if _internal_dirs is None:
        base = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _internal_dirs = tuple(
            os.path.join(base, pkg) + os.sep for pkg in _INTERNAL_PACKAGES
        )
    return _internal_dirs


#: Interned ``file:line`` strings.  Bounded: a long-lived process sweeping
#: many programs touches an unbounded set of ``(filename, lineno)`` pairs,
#: and the cache used to grow forever.  On overflow the oldest entries are
#: evicted FIFO (dict preserves insertion order), which keeps the hot
#: working set — sites recur heavily within one program — while capping
#: memory.
_SITE_CACHE_MAX = 4096
_site_cache: dict = {}


def short_site(filename: str, lineno: int) -> str:
    """``dir/file.py:line`` — stable across checkouts (no absolute prefix)."""
    key = (filename, lineno)
    site = _site_cache.get(key)
    if site is None:
        parts = filename.replace(os.sep, "/").rsplit("/", 2)
        site = f"{'/'.join(parts[-2:])}:{lineno}"
        if len(_site_cache) >= _SITE_CACHE_MAX:
            for stale in list(_site_cache)[: _SITE_CACHE_MAX // 8]:
                del _site_cache[stale]
        _site_cache[key] = site
    return site


def user_stack(limit: int = 8) -> Tuple[str, ...]:
    """User-code call sites above the current frame, innermost first.

    Frames inside the simulator's own packages (scheduler, primitives,
    stdlib analogues, fault injection) are skipped so profiles attribute
    waits to the program under study, not to the plumbing.  The walk stops
    at the goroutine trampoline (``Goroutine._execute``), never leaking host
    ``threading`` frames into a profile.
    """
    internal = _internal_frame_dirs()
    frames: List[str] = []
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover - exotic hosts
        return ()
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        filename = code.co_filename
        if code.co_name in ("_run", "_execute") and filename.endswith("goroutine.py"):
            break
        if not filename.startswith(internal):
            frames.append(short_site(filename, frame.f_lineno))
        frame = frame.f_back
    return tuple(frames)


# Requested backends we have already warned about falling back from.
# Module-level so the warning fires exactly once per process, no matter how
# many Schedulers a sweep constructs.
_fallback_warned: set = set()

# Every fallback that actually happened, counted per (requested -> fallback)
# edge.  The warning above fires once; the counts keep accumulating so
# ``repro bench`` can report how many schedulers silently ran on a different
# vehicle than the one requested.
_fallback_counts: Dict[str, int] = {}


def backend_fallbacks() -> Dict[str, int]:
    """Counts of backend fallbacks this process, keyed ``"requested->used"``."""
    return dict(_fallback_counts)


def resolve_backend(backend: str) -> str:
    """Map a requested backend name to the concrete vehicle that will run.

    ``"coroutine"`` picks the best continuation vehicle silently; asking for
    ``"tasklet"`` where the extension is unavailable falls back to
    ``"generator"`` with a once-per-process ``RuntimeWarning``.  Fallbacks
    never change schedules — every vehicle draws the identical seeded
    decision sequence.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown goroutine backend {backend!r}; expected one of {BACKENDS}")
    if backend == "coroutine":
        return "tasklet" if has_tasklet() else "generator"
    if backend == "tasklet" and not has_tasklet():
        _warn_fallback(backend, "generator",
                       "the _ctasklet extension is unavailable on this platform")
        return "generator"
    return backend


def _warn_fallback(requested: str, fallback: str, why: str) -> None:
    edge = f"{requested}->{fallback}"
    _fallback_counts[edge] = _fallback_counts.get(edge, 0) + 1
    if requested in _fallback_warned:
        return
    _fallback_warned.add(requested)
    import warnings

    warnings.warn(
        f"{requested} backend requested but {why}; falling back to the "
        f"{fallback} backend (schedules are identical)",
        RuntimeWarning,
        stacklevel=4,
    )


class Scheduler:
    """Cooperative scheduler enforcing the one-runner invariant.

    Not part of the public API: user code talks to
    :class:`repro.runtime.runtime.Runtime`, which delegates here.
    """

    def __init__(
        self,
        seed: int = 0,
        max_steps: int = 1_000_000,
        preempt: bool = True,
        keep_trace: bool = True,
        rng: Optional[Any] = None,
        backend: str = "coroutine",
    ):
        #: Source of all scheduling nondeterminism.  Anything with a
        #: ``randrange(n)`` method works; the systematic explorer injects a
        #: scripted source here to enumerate schedules exhaustively.  The
        #: default is a batched Mersenne-Twister front-end that draws the
        #: exact sequence ``random.Random(seed)`` would.
        self.rng = rng if rng is not None else BatchedRandom(seed)
        self._randrange = self.rng.randrange  # hot-path bound method
        self.seed = seed
        self.clock = VirtualClock()
        self.trace = Trace(keep_events=keep_trace)
        self.max_steps = max_steps
        #: When True, every primitive operation is a preemption point; when
        #: False only genuinely blocking operations yield (faster, but fewer
        #: interleavings are explored).
        self.preempt = preempt
        #: The backend name the caller asked for (possibly ``"coroutine"``).
        self.requested_backend = backend
        #: The concrete vehicle carrying the token: "tasklet", "generator"
        #: (single-thread continuations) or "thread" (compat).
        self.backend = resolve_backend(backend)
        self._hub: Any = None
        if self.backend == "tasklet":
            # The calling thread's main continuation is the hub every
            # goroutine tasklet switches back to.
            self._hub = tasklet_module().current()

        self.goroutines: List[Goroutine] = []
        self._runnable: List[Goroutine] = []
        self._current: Optional[Goroutine] = None
        self._steps = 0
        #: Scheduler-owned half of the token handoff (thread backend):
        #: created held; goroutines release it when handing the token back.
        self._handoff = threading.Lock()
        self._handoff.acquire()
        self._next_gid = 1
        self._shutting_down = False
        #: The goroutine currently being unwound by :meth:`kill_all`, so a
        #: dying host that re-enters the runtime can be parked (see
        #: :meth:`_teardown_park`).
        self._teardown_g: Optional[Goroutine] = None
        #: The compiled fused step loop (``repro.runtime._ext._hotloop``),
        #: or None.  Every backend can use it: tasklets switch inline, other
        #: vehicles go through a generic ``resume()`` call.
        self._hot: Optional[Callable[["Scheduler", bool], Optional[str]]] = (
            get_drive())
        #: Compiled channel/select/mutex fast ops (the same C module), or
        #: None.  Unlike ``_hot`` these work on every backend: each op
        #: re-checks engagement (trace inactive, no injector, goroutine
        #: context) at entry and returns ``NotImplemented`` to defer to the
        #: pure path when any observer is attached.
        self._fastops = get_fastops()
        # Per-call loop state (read by the compiled loop as well).
        self._stop_when: Optional[Callable[[], bool]] = None
        #: Structured stop condition (``("main", g)`` / ``("panic", None)``)
        #: mirroring ``_stop_when`` when the caller used one of the standard
        #: shapes; lets the compiled loop evaluate the stop check without a
        #: Python call per step.
        self._stop_mode: Optional[Tuple[str, Optional[Goroutine]]] = None
        self._time_limit: Optional[float] = None
        self._budget = 0
        self._budget_used = 0
        #: Why ``_advance`` found nothing to run: one of the
        #: ``run_until_quiescent`` outcome strings, or ``"idle"`` (no
        #: runnable goroutine — fire timers or declare quiescence).
        self._main_verdict: Optional[str] = None
        #: First goroutine to panic, if any (aborts the whole run, as in Go).
        self.panicked: Optional[Goroutine] = None
        #: Optional fault injector (:mod:`repro.inject`): pulsed in
        #: scheduler context, so every injected fault lands at an existing
        #: scheduling point.  One with a ``horizon(sched)`` method is pulsed
        #: only where a fault can be due, and the compiled loop runs the
        #: stretches in between; any other is pulsed every loop iteration.
        self.injector: Optional[Any] = None
        #: Join bound handed to :meth:`Goroutine.kill` during teardown.
        self.host_join_timeout: Optional[float] = None
        #: Observability hook (:mod:`repro.observe`): when on, every
        #: GO_BLOCK event carries the user call-site stack.  Inert by
        #: default (one flag test per block).
        self.capture_sites = False
        #: Pick hook (see :meth:`add_pick_hook`): sees the full runnable
        #: list and the chosen index for every scheduling decision, with
        #: ``_steps`` already counting it.  Inert by default (one None check
        #: per step).
        self.annotate_pick: Optional[Callable[[List[Goroutine], int], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Scheduling steps taken so far (one per token handoff)."""
        return self._steps

    @property
    def current(self) -> Goroutine:
        """The goroutine currently holding the token."""
        if self._current is None:
            self._teardown_park()
            raise SchedulerStateError("no goroutine is currently running")
        return self._current

    def _teardown_park(self) -> None:
        """Park a dying host that re-entered the runtime during teardown.

        A goroutine that swallows ``Killed`` and retries a blocking
        primitive lands here (`sched.current` with the run already over).
        On an OS-thread host, raising was survivable — the thread spun or
        died on its own core.  On a single-threaded continuation, raising
        returns control *to the swallowing loop*, which retries forever and
        hangs the whole process.  The only safe move is to suspend the
        continuation right here: control returns to ``kill``, which marks
        the goroutine stuck and abandons it.  Never returns once it parks;
        a further kill attempt re-raises ``Killed`` from the yield.
        """
        g = self._teardown_g
        if self._shutting_down and g is not None and g.on_current_host():
            while True:
                g.yield_to_scheduler()

    @property
    def current_gid(self) -> int:
        """gid of the running goroutine, or 0 in scheduler context."""
        return self._current.gid if self._current is not None else 0

    def live_goroutines(self) -> List[Goroutine]:
        return [g for g in self.goroutines if g.state in GState.LIVE]

    def blocked_goroutines(self) -> List[Goroutine]:
        return [g for g in self.goroutines if g.state == GState.BLOCKED]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def emit(
        self,
        kind: str,
        obj: Optional[int] = None,
        info: Optional[dict] = None,
        gid: Optional[int] = None,
    ) -> None:
        """Append a trace event attributed to the running goroutine.

        Fast path: when nobody consumes events (``keep_trace=False`` and no
        attached detector/observer) the event object is never allocated.
        """
        trace = self.trace
        if not trace.active:
            return
        trace.emit(
            TraceEvent(
                step=self._steps,
                time=self.clock.now,
                gid=self.current_gid if gid is None else gid,
                kind=kind,
                obj=obj,
                info=info,
            )
        )

    def add_pick_hook(self, hook: Callable[[List[Goroutine], int], None]
                      ) -> None:
        """Install ``hook`` as :attr:`annotate_pick`, called after any hook
        already installed (the observer and the explorer's annotator can
        share one run)."""
        prev = self.annotate_pick
        if prev is None:
            self.annotate_pick = hook
        else:
            def chained(runnable: List[Goroutine], idx: int) -> None:
                prev(runnable, idx)
                hook(runnable, idx)
            self.annotate_pick = chained

    # ------------------------------------------------------------------
    # Goroutine management
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        name: Optional[str] = None,
        anonymous: bool = False,
        creation_site: Optional[str] = None,
    ) -> Goroutine:
        """Create a goroutine and put it on the runnable set."""
        common = dict(
            gid=self._next_gid,
            fn=fn,
            args=args,
            scheduler=self,
            name=name,
            anonymous=anonymous,
            creation_site=creation_site,
        )
        backend = self.backend
        if backend == "tasklet":
            g: Goroutine = TaskletGoroutine(hub=self._hub, **common)
        elif backend == "generator" and inspect.isgeneratorfunction(fn):
            g = GeneratorGoroutine(**common)
        else:
            # thread backend, or a plain-function body under the generator
            # backend (which can only trampoline generator functions).
            g = Goroutine(**common)
        self._next_gid += 1
        g.created_at = self.clock.now
        self.goroutines.append(g)
        self._runnable.append(g)
        g.start()
        if self.trace.active:
            self.emit(EventKind.GO_CREATE, obj=g.gid,
                      info={"anonymous": anonymous, "name": g.name,
                            "site": creation_site})
        return g

    # ------------------------------------------------------------------
    # Goroutine-side primitives (run on a goroutine host holding the token)
    # ------------------------------------------------------------------

    def schedule_point(self) -> None:
        """A voluntary preemption point: let the scheduler pick again."""
        if not self.preempt or self._current is None:
            return
        g = self._current
        # State stays RUNNING so the loop knows this was a yield, not a block.
        g.yield_to_scheduler()

    def block(self, reason: str, external: bool = False,
              obj: "Optional[object]" = None) -> None:
        """Park the running goroutine until another party readies it.

        Primitive code must register the goroutine on the relevant wait queue
        *before* calling this, then re-check its wait condition after it
        returns (the standard wait-loop discipline).  ``obj`` names the
        object(s) whose wait queue the goroutine registered on — a single
        primitive id or a tuple of ids (a select parks on every case
        channel); it rides on the ``GO_BLOCK`` event so schedule-equivalence
        pruning knows the blocked attempt's full footprint.
        """
        g = self.current
        g.state = GState.BLOCKED
        g.block_reason = reason
        g.external = external
        if self.trace.active:
            info: dict = {"reason": reason}
            event_obj: Optional[int] = None
            if obj is not None:
                if isinstance(obj, int):
                    event_obj = obj
                else:
                    info["objs"] = tuple(obj)
            if self.capture_sites:
                stack = user_stack()
                if stack:
                    info["site"] = stack[0]
                    info["stack"] = stack
            self.emit(EventKind.GO_BLOCK, obj=event_obj, info=info)
        if g in self._runnable:
            self._runnable.remove(g)
        g.yield_to_scheduler()
        g.block_reason = None
        g.external = False

    def ready(self, g: Goroutine) -> None:
        """Move a blocked goroutine back to the runnable set."""
        if g.state != GState.BLOCKED:
            return
        g.state = GState.RUNNABLE
        self._runnable.append(g)
        self.emit(EventKind.GO_UNBLOCK, obj=g.gid)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_until_quiescent(
        self,
        stop_when: Optional[Callable[[], bool]] = None,
        advance_clock: bool = True,
        step_budget: Optional[int] = None,
        time_limit: Optional[float] = None,
        stop_mode: Optional[Tuple[str, Optional[Goroutine]]] = None,
    ) -> str:
        """Drive goroutines until nothing can run.

        ``stop_mode`` is the structured form of the two standard stop
        conditions — ``("main", g)`` (stop when ``g`` is terminal or any
        goroutine panicked) and ``("panic", None)`` (stop only on panic).
        Passing it instead of a ``stop_when`` closure means the compiled
        hot loop can evaluate the condition without calling into Python,
        and this method synthesizes the equivalent closure for the pure
        paths.  An explicit ``stop_when`` always wins.

        Returns one of:
          * ``"stopped"``   — ``stop_when()`` became true (e.g. main exited,
            or a goroutine panicked),
          * ``"quiescent"`` — no goroutine runnable and no timer armed (or
            clock advancement disabled),
          * ``"steps"``     — the step budget ran out (livelock backstop),
          * ``"timeout"``   — the virtual clock passed ``time_limit`` (the
            observation-window cutoff for programs that run forever).

        Every backend steps through this one loop: each yield comes straight
        back here (a continuation switch, or a lock handoff from a thread
        host), and this loop does the bookkeeping itself.
        """
        if stop_mode is not None:
            if stop_when is not None:
                stop_mode = None  # explicit closure wins; compiled loop off
            else:
                kind, stop_g = stop_mode
                if kind == "main":
                    def stop_when() -> bool:
                        return (stop_g.state in GState.TERMINAL
                                or self.panicked is not None)
                elif kind == "panic":
                    def stop_when() -> bool:
                        return self.panicked is not None
                else:
                    raise ValueError(f"unknown stop mode {kind!r}")
        self._stop_when = stop_when
        self._stop_mode = stop_mode
        self._time_limit = time_limit
        self._budget = self.max_steps if step_budget is None else step_budget
        self._budget_used = 0
        self._main_verdict = None
        # The compiled fused loop stands in for the whole per-step body
        # below — timer firing included — whenever nothing observable
        # differs from the pure path: a structured stop condition.  A kept
        # trace is recorded in C; any RNG and the ``annotate_pick`` hook
        # are fine: drive reads the stock RNG directly, calls
        # ``_randrange`` for any other (the explorer's scripted choices),
        # and calls the pick hook where ``_advance`` does.  An injector
        # with a ``horizon`` bounds each drive stretch to where a fault can
        # be due; the pure iteration below then pulses it.
        hot = self._hot if stop_mode is not None else None
        horizon = None
        if self.injector is not None:
            horizon = getattr(self.injector, "horizon", None)
            if horizon is None:
                hot = None  # pulsed every iteration: the pure loop only
        try:
            while True:
                if hot is not None:
                    verdict = (hot(self, advance_clock) if horizon is None
                               else self._drive_to(horizon(self), hot,
                                                   advance_clock))
                    if verdict is None:
                        # Static mismatch (e.g. a runnable set that is not
                        # a plain list): the pure loop takes over for the
                        # rest of this call.
                        hot = None
                    elif verdict == "idle":
                        # drive fired every pending timer already.
                        return "quiescent"
                    elif verdict != "horizon":
                        return verdict
                g = self._advance()
                if g is not None:
                    self._current = g
                    g.resume()
                    self._current = None
                    self._after_resume(g)
                    continue
                verdict = self._main_verdict
                self._main_verdict = None
                if verdict == "idle":
                    if advance_clock and self.clock.has_pending():
                        self.fire_timers(self.clock.advance_to_next())
                        # A timer batch spends one unit of the budget, so
                        # a repeating timer nobody waits on cannot keep an
                        # otherwise idle run going forever.
                        self._budget_used += 1
                        continue
                    return "quiescent"
                return verdict
        finally:
            self._stop_when = None
            self._stop_mode = None

    def _drive_to(self, bound: Optional[Tuple[Optional[int], Optional[float]]],
                  hot: Callable[["Scheduler", bool], Optional[str]],
                  advance_clock: bool) -> Optional[str]:
        """Run the compiled loop up to the injector's horizon ``bound``.

        ``bound`` is ``(step, time)`` from the injector's ``horizon``, or
        None when a fault is due now.  The step bound lowers the budget and
        the time bound the time limit, for this call only: those are the
        exits drive checks at the exact point where ``_advance`` pulses.
        Returns drive's verdict, or ``"horizon"`` when the run reached the
        bound (or a fault is due) with its real limits not reached: the
        caller's pure iteration then pulses and takes one step.  An early
        exit is always safe, since the pure iteration is exact.
        """
        if bound is None:
            return "horizon"
        step, time = bound
        budget, time_limit = self._budget, self._time_limit
        if step is not None:
            self._budget = min(budget,
                               self._budget_used + (step - self._steps))
        if time is not None and (time_limit is None or time < time_limit):
            self._time_limit = time
        try:
            verdict = hot(self, advance_clock)
        finally:
            self._budget, self._time_limit = budget, time_limit
        if verdict == "steps":
            reached = self._budget_used >= budget
        elif verdict == "timeout":
            reached = time_limit is not None and self.clock.now >= time_limit
        else:
            return verdict
        if reached:
            return verdict
        count_horizon_exit(verdict)
        return "horizon"

    def fire_timers(self, fired) -> None:
        """Run fired timer callbacks in scheduler context (one trace event
        each), shared by the pure main loop and the fault injector's clock
        jumps.  The compiled loop does the same for the timers it fires."""
        for handle in fired:
            self.emit(EventKind.TIMER_FIRE, gid=0)
            if handle.callback is None:
                self.ready(handle.args[0])
            else:
                handle.callback(*handle.args)

    def _advance(self) -> Optional[Goroutine]:
        """One scheduler-loop decision, in scheduler context.  Returns the
        goroutine to run next, or ``None`` after stashing the reason in
        ``_main_verdict``."""
        while True:
            if self._stop_when is not None and self._stop_when():
                self._main_verdict = "stopped"
                return None
            if self._time_limit is not None and self.clock.now >= self._time_limit:
                self._main_verdict = "timeout"
                return None
            if self._budget_used >= self._budget:
                self._main_verdict = "steps"
                return None
            if self.injector is not None and self.injector.pulse(self):
                # A fault fired (goroutines woken/killed, clock jumped,
                # channels mutated): re-evaluate the stop conditions before
                # taking the next step.
                continue
            runnable = self._runnable
            if runnable:
                self._budget_used += 1
                self._steps += 1
                idx = self._randrange(len(runnable))
                g = runnable[idx]
                if self.annotate_pick is not None:
                    self.annotate_pick(runnable, idx)
                return g
            # No runnable goroutine: the caller fires timers or declares
            # the run quiescent.
            self._main_verdict = "idle"
            return None

    def _handback(self) -> None:
        """Return the token to the main loop from a thread host (a yield,
        a block, or the end of its body); the main loop does the step's
        bookkeeping once ``resume`` returns."""
        try:
            self._handoff.release()
        except RuntimeError:  # pragma: no cover - late stuck-thread race
            # Teardown only: a stuck thread that unwinds after its ``kill``
            # gave up finds the handoff lock already released.
            if not self._shutting_down:
                raise

    def _after_resume(self, g: Goroutine) -> None:
        if g.state == GState.RUNNING:
            g.state = GState.RUNNABLE  # voluntary yield at a schedule point
            return
        # Blocked goroutines already removed themselves in block().
        if g.state in GState.TERMINAL:
            if g in self._runnable:
                self._runnable.remove(g)
            g.ended_at = self.clock.now
            if g.state == GState.PANICKED and self.panicked is None:
                self.panicked = g
            kind = EventKind.GO_PANIC if g.state == GState.PANICKED else EventKind.GO_END
            self.emit(kind, gid=g.gid)

    # ------------------------------------------------------------------
    # Fault-injection entry points (scheduler context; used by repro.inject)
    # ------------------------------------------------------------------

    def inject_wakeup(self, g: Goroutine) -> bool:
        """Spuriously ready a blocked goroutine.

        Safe under the wait-loop discipline: every primitive re-checks its
        wait condition after :meth:`block` returns, so a spurious wakeup can
        only add interleavings, never corrupt state.
        """
        if g.state != GState.BLOCKED:
            return False
        self.ready(g)
        return True

    def inject_delay(self, g: Goroutine, duration: float) -> bool:
        """Park a runnable goroutine for ``duration`` virtual seconds."""
        if g.state != GState.RUNNABLE or g not in self._runnable:
            return False
        self._runnable.remove(g)
        g.state = GState.BLOCKED
        g.block_reason = "inject.delay"
        self.clock.call_after(max(duration, 0.0), self._end_delay, g)
        return True

    def _end_delay(self, g: Goroutine) -> None:
        # Not a ready timer: the parked goroutine is not inside block(), so
        # its block reason is cleared here, whatever state it is in now.
        g.block_reason = None
        self.ready(g)

    def inject_kill(self, g: Goroutine) -> bool:
        """Mark a goroutine dead: it unwinds (state ``KILLED``) at its next
        resume, modelling a goroutine that dies while peers still block on
        it.  Anything it left on wait queues stays there, as in real crashes.
        """
        if g.state not in (GState.RUNNABLE, GState.BLOCKED):
            return False
        g._killed = True
        if g.state == GState.BLOCKED:
            g.block_reason = None
            self.ready(g)
        return True

    def inject_panic(self, g: Goroutine, error: BaseException) -> bool:
        """Raise ``error`` inside the goroutine at its next scheduling point."""
        if g.state not in (GState.RUNNABLE, GState.BLOCKED):
            return False
        g.pending_error = error
        if g.state == GState.BLOCKED:
            self.ready(g)
        return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def kill_all(self) -> None:
        """Unwind every live goroutine's host (end of run cleanup).

        ``host_join_timeout`` is a *total* teardown budget, not a
        per-goroutine one: with N hung thread-compat hosts the old
        per-goroutine bound stalled teardown for N x timeout, which let a
        mixed-backend test suite leak minutes to a handful of stuck
        threads.  Each kill gets the time remaining on the shared deadline
        (with a small floor so a well-behaved host can always unwind);
        coroutine vehicles unwind synchronously and spend none of it.
        """
        self._shutting_down = True
        from .goroutine import HOST_JOIN_TIMEOUT

        budget = (HOST_JOIN_TIMEOUT if self.host_join_timeout is None
                  else self.host_join_timeout)
        deadline = _time.monotonic() + max(budget, 0.0)
        try:
            for g in self.goroutines:
                if g.state in GState.LIVE:
                    remaining = deadline - _time.monotonic()
                    self._teardown_g = g
                    g.kill(join_timeout=max(remaining, 0.05))
        finally:
            self._teardown_g = None

    def check_step_limit(self) -> None:
        if self._steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} scheduling steps (seed={self.seed})"
            )
