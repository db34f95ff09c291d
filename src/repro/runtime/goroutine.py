"""Goroutines as token-passing hosts (single-threaded continuations by
default, OS threads as an opt-in compatibility mode).

Exactly one host in a simulation runs at any instant: either the scheduler
or a single goroutine holding the *token*.  Because of this one-runner
invariant, primitive state needs no host-level locking and every
interleaving is fully determined by the scheduler's seeded choices.

Three interchangeable vehicles implement the handoff; ``backend="coroutine"``
(the default) resolves to the best continuation vehicle available:

* ``"tasklet"``: every goroutine is a single-threaded continuation on the
  scheduler's own thread, provided by the in-tree
  ``repro.runtime._ext._ctasklet`` C extension (compiled lazily with the
  system toolchain; CPython 3.11 / x86-64 Linux).  The handoff is a
  userspace stack switch with no locks and no OS context switch.  This is
  what ``"coroutine"`` resolves to wherever the extension builds.
* ``"generator"``: the pure-Python trampoline fallback.  Goroutine bodies
  written as *generator functions* run as true continuations (each
  ``yield`` is a schedule point); plain-function bodies ride thread-compat
  hosts so arbitrary programs still work unchanged.
* ``"thread"``: one daemon host thread per goroutine — the original
  backend, kept as an opt-in compatibility mode.  The token moves through
  raw ``threading.Lock`` binary semaphores — one per goroutine plus one
  owned by the scheduler's main loop.  Every yield hands the token back to
  the main loop, which makes the next scheduling decision exactly as it
  does for the continuation vehicles.

All vehicles produce bit-identical schedules — the token protocol and the
seeded decision sequence are the same, only the vehicle differs — which the
cross-backend fingerprint tests assert over the whole kernel corpus.

A goroutine's life:

``CREATED -> RUNNABLE <-> RUNNING <-> BLOCKED`` and finally one of
``DONE | PANICKED | KILLED``.
"""

from __future__ import annotations

import threading
import traceback
import warnings
from typing import Any, Callable, Optional, Tuple

from .errors import GoPanic, Killed, SchedulerStateError

#: How long :meth:`Goroutine.kill` waits for a host thread to unwind before
#: declaring it stuck.  A thread can outlive this when user code swallows
#: ``Killed`` (a ``BaseException``) or parks on a host-level primitive the
#: scheduler cannot interrupt; such threads are recorded on the goroutine
#: (``stuck_host_thread``) and surfaced on the :class:`RunResult` instead of
#: being dropped silently.  Override per run with
#: ``run(..., host_join_timeout=...)``; sweep workers shrink it so one
#: pathological seed cannot stall a whole sweep (see :mod:`repro.parallel`).
HOST_JOIN_TIMEOUT = 5.0

# The in-tree stack-switching extension (lazy: first use compiles it with
# the system toolchain and caches the .so; see repro.runtime._ext).
_tasklet_mod: Any = None
_tasklet_checked = False


def tasklet_module() -> Any:
    """The ``_ctasklet`` extension module, or None where unsupported."""
    global _tasklet_mod, _tasklet_checked
    if not _tasklet_checked:
        from . import _ext

        _tasklet_mod = _ext.get_ctasklet()
        _tasklet_checked = True
    return _tasklet_mod


def has_tasklet() -> bool:
    """True when the in-tree tasklet continuation vehicle is usable."""
    return tasklet_module() is not None


class GState:
    """Goroutine states (plain strings for cheap comparisons and repr)."""

    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    PANICKED = "panicked"
    KILLED = "killed"

    LIVE = frozenset({CREATED, RUNNABLE, RUNNING, BLOCKED})
    TERMINAL = frozenset({DONE, PANICKED, KILLED})


class Goroutine:
    """One simulated goroutine backed by a daemon host thread.

    The scheduler interacts with it through :meth:`start`, :meth:`resume`
    and :meth:`kill`; the goroutine yields back with :meth:`yield_to_scheduler`
    (called from primitive code running on the goroutine's host).

    Token protocol (thread backend): the main loop's handoff lock and the
    goroutine's private lock are both created *held*.  ``resume`` releases
    the goroutine's lock (waking it) and blocks acquiring the main-loop
    lock; a yielding goroutine releases the main-loop lock
    (``Scheduler._handback``) and parks on its own lock until the main loop
    picks it again.  Strict alternation under the one-runner invariant
    means each lock is released exactly once per acquire.
    """

    __slots__ = (
        "gid", "fn", "args", "name", "anonymous", "creation_site",
        "state", "block_reason", "external", "panic_value",
        "panic_traceback", "result", "pending_error", "stuck_host_thread",
        "created_at", "ended_at", "mailbox",
        "_sched", "_my_lock", "_killed", "_thread",
    )

    def __init__(
        self,
        gid: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        scheduler: Any,
        name: Optional[str] = None,
        anonymous: bool = False,
        creation_site: Optional[str] = None,
    ):
        self.gid = gid
        self.fn = fn
        self.args = args
        self.name = name or getattr(fn, "__name__", "goroutine")
        #: True when created from a lambda / nested closure ("anonymous
        #: function" in the paper's Table 2 terminology).
        self.anonymous = anonymous
        #: "file:line" of the ``go()`` call, for leak reports.
        self.creation_site = creation_site

        self.state = GState.CREATED
        #: Why the goroutine is blocked (e.g. "chan.send"), for diagnostics.
        self.block_reason: Optional[str] = None
        #: True when blocked on a modelled external resource (network, disk):
        #: the built-in deadlock detector must ignore such goroutines.
        self.external = False
        self.panic_value: Optional[BaseException] = None
        self.panic_traceback: Optional[str] = None
        self.result: Any = None
        #: Exception injected by the fault injector; raised at the
        #: goroutine's next scheduling point (see ``yield_to_scheduler``).
        self.pending_error: Optional[BaseException] = None
        #: True when the host thread survived :meth:`kill`'s join timeout.
        self.stuck_host_thread = False

        # Virtual-clock bookkeeping for the Table 3 lifetime statistics.
        self.created_at: float = 0.0
        self.ended_at: Optional[float] = None

        # Mailbox used by rendezvous primitives to hand a value to a waiter.
        self.mailbox: Any = None

        #: The owning scheduler: yields hand the token back to its main loop
        #: (``_handback``), and ``kill`` pairs with its main-loop handoff lock.
        self._sched = scheduler
        self._my_lock = threading.Lock()
        self._my_lock.acquire()  # created held: the host parks on it
        self._killed = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Scheduler-side API (called with the scheduler holding the token)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the host thread; it immediately parks waiting for the token."""
        self._thread = threading.Thread(
            target=self._run, name=f"goroutine-{self.gid}-{self.name}", daemon=True
        )
        self.state = GState.RUNNABLE
        self._thread.start()

    def resume(self) -> None:
        """Hand the token to this goroutine; park the main loop until the
        goroutine yields, blocks or ends."""
        self.state = GState.RUNNING
        self._my_lock.release()
        self._sched._handoff.acquire()

    def kill(self, join_timeout: Optional[float] = None) -> None:
        """Force the goroutine's host thread to unwind (scheduler-side).

        Safe to call on a blocked or runnable goroutine; terminal goroutines
        are ignored.  Blocks until the host thread has exited — bounded by
        ``join_timeout`` (default :data:`HOST_JOIN_TIMEOUT`).  A thread that
        outlives the bound is recorded as stuck (``stuck_host_thread``) and a
        ``RuntimeWarning`` is emitted; callers surface it on the RunResult.
        """
        if self.state in GState.TERMINAL or self._thread is None:
            return
        timeout = HOST_JOIN_TIMEOUT if join_timeout is None else join_timeout
        handoff = self._sched._handoff
        self._killed = True
        # Drain a stale token return left by a previously stuck thread that
        # unwound late (the lock analogue of the old ``Event.clear()``).
        while handoff.acquire(blocking=False):
            pass
        self._my_lock.release()
        handed_back = handoff.acquire(timeout=max(timeout, 0.0))
        if handed_back:
            self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self._mark_stuck(timeout)
            if not handed_back:
                # Keep the scheduler-holds-the-handoff invariant for the
                # next kill even though this thread never handed it back.
                handoff.acquire(blocking=False)

    def _mark_stuck(self, timeout: float) -> None:
        self.stuck_host_thread = True
        warnings.warn(
            f"goroutine {self.gid} ({self.name}): host thread did not "
            f"unwind within {timeout:g}s after kill; the thread is stuck "
            "and will be abandoned (user code may be swallowing the "
            "Killed signal or blocking outside the simulator)",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # Goroutine-side API (called on the goroutine's own host)
    # ------------------------------------------------------------------

    def yield_to_scheduler(self) -> None:
        """Give the token back to the main loop and park until resumed."""
        self._sched._handback()
        self._my_lock.acquire()
        if self._killed:
            raise Killed()
        if self.pending_error is not None:
            error = self.pending_error
            self.pending_error = None
            raise error

    # ------------------------------------------------------------------

    def _execute(self) -> None:
        """Run the user function and classify how it ended (backend-shared)."""
        try:
            if self._killed:
                raise Killed()
            self.result = self.fn(*self.args)
            self.state = GState.DONE
        except Killed:
            self.state = GState.KILLED
        except GoPanic as exc:
            self.state = GState.PANICKED
            self.panic_value = exc
            self.panic_traceback = traceback.format_exc()
        except BaseException as exc:  # host-level bug in user code
            self.state = GState.PANICKED
            self.panic_value = exc
            self.panic_traceback = traceback.format_exc()

    def _run(self) -> None:
        # Park until the scheduler first hands us the token.
        self._my_lock.acquire()
        try:
            self._execute()
        finally:
            # Final token return: the main loop records the terminal state.
            self._sched._handback()

    def on_current_host(self) -> bool:
        """True when the calling code is running on this goroutine's own
        host (thread/continuation) — i.e. it is safe to park it from here.
        Used by teardown to suspend a dying host that swallowed ``Killed``
        and re-entered the runtime."""
        return self._thread is not None and self._thread is threading.current_thread()

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable one-liner used in deadlock and leak reports."""
        where = f" at {self.creation_site}" if self.creation_site else ""
        reason = f" [{self.block_reason}]" if self.block_reason else ""
        return f"goroutine {self.gid} ({self.name}){where}: {self.state}{reason}"

    def __repr__(self) -> str:
        return f"<Goroutine {self.gid} {self.name} {self.state}>"


class TaskletGoroutine(Goroutine):
    """A goroutine hosted on an in-tree C continuation (``_ctasklet``).

    All goroutines share the scheduler's OS thread and the handoff is a
    userspace stack switch, carried by ``repro.runtime._ext._ctasklet``, so
    the coroutine core works out of the box on CPython 3.11 / x86-64 Linux
    with nothing but a C compiler.
    """

    __slots__ = ("_tk", "_hub")

    def __init__(self, *args: Any, hub: Any = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: The scheduler's own tasklet (the thread's main continuation):
        #: the parent every goroutine tasklet returns to when it finishes.
        self._hub = hub
        self._tk: Any = None

    # -- scheduler side -------------------------------------------------

    def start(self) -> None:
        mod = tasklet_module()
        if mod is None:  # pragma: no cover - guarded by backend resolution
            raise RuntimeError("tasklet backend requested but the _ctasklet "
                               "extension is not available on this platform")
        self._tk = mod.Tasklet(self._execute, self._hub)
        self.state = GState.RUNNABLE

    def resume(self) -> None:
        self.state = GState.RUNNING
        self._tk.switch()

    def kill(self, join_timeout: Optional[float] = None) -> None:
        """Unwind the goroutine's continuation by raising ``Killed`` inside
        it.  Two attempts: the first throw unwinds well-behaved code; a
        second covers a handler that swallowed ``Killed`` once.  A
        continuation that swallows both is recorded as a stuck host and its
        stack is abandoned, mirroring an OS thread that outlives its join."""
        if self.state in GState.TERMINAL or self._tk is None:
            return
        self._killed = True
        for _ in range(2):
            if self._tk.dead:
                break
            self._tk.throw(Killed)
            if self._tk.dead or self.state in GState.TERMINAL:
                break
        else:
            timeout = HOST_JOIN_TIMEOUT if join_timeout is None else join_timeout
            self._mark_stuck(timeout)
            return
        if self.state not in GState.TERMINAL:
            # Killed before its first resume: the body never ran, so
            # ``_execute`` never classified the exit.
            self.state = GState.KILLED

    def on_current_host(self) -> bool:
        return (self._tk is not None
                and tasklet_module().current() is self._tk)

    # -- goroutine side -------------------------------------------------

    def yield_to_scheduler(self) -> None:
        self._hub.switch()
        if self._killed:
            raise Killed()
        if self.pending_error is not None:
            error = self.pending_error
            self.pending_error = None
            raise error


class GeneratorGoroutine(Goroutine):
    """A goroutine whose body is a *generator function*, trampolined by the
    scheduler: every ``yield`` is a voluntary schedule point.

    This is the pure-Python continuation vehicle — no OS thread, no C
    extension, works on any interpreter.  The restriction is structural:
    a generator can only suspend its own frame, so a generator-backed body
    must not call blocking primitives (``chan.send``, ``mutex.lock``, ...)
    or ``rt.gosched()`` — it yields instead.  The scheduler only picks this
    vehicle (under ``backend="generator"``) for bodies that *are* generator
    functions; plain functions ride thread-compat hosts in the same run.
    """

    __slots__ = ("_gen",)

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._gen: Any = None

    # -- scheduler side -------------------------------------------------

    def start(self) -> None:
        self.state = GState.RUNNABLE

    def resume(self) -> None:
        """Drive the generator one step, in the caller's (scheduler) frame.

        Unlike the stack-switching vehicles there is no separate host to
        transfer to, so exit classification (``_execute``'s job elsewhere)
        happens inline here.
        """
        self.state = GState.RUNNING
        try:
            if self._gen is None:
                if self._killed:
                    raise Killed()
                self._gen = self.fn(*self.args)
            if self._killed:
                self._gen.throw(Killed)
            elif self.pending_error is not None:
                error = self.pending_error
                self.pending_error = None
                self._gen.throw(error)
            else:
                next(self._gen)
            # Yielded: state stays RUNNING so the loop records a voluntary
            # schedule point (exactly like yield_to_scheduler elsewhere).
        except StopIteration as stop:
            self.result = stop.value
            self.state = GState.DONE
        except Killed:
            self.state = GState.KILLED
        except GoPanic as exc:
            self.state = GState.PANICKED
            self.panic_value = exc
            self.panic_traceback = traceback.format_exc()
        except BaseException as exc:
            self.state = GState.PANICKED
            self.panic_value = exc
            self.panic_traceback = traceback.format_exc()

    def kill(self, join_timeout: Optional[float] = None) -> None:
        if self.state in GState.TERMINAL:
            return
        self._killed = True
        if self._gen is None:
            self.state = GState.KILLED
            return
        for _ in range(2):
            try:
                self._gen.throw(Killed)
            except StopIteration as stop:
                self.result = stop.value
                self.state = GState.DONE
                return
            except Killed:
                self.state = GState.KILLED
                return
            except BaseException as exc:
                self.state = GState.PANICKED
                self.panic_value = exc
                self.panic_traceback = traceback.format_exc()
                return
            # throw() returned: the generator swallowed Killed and yielded
            # again — one more attempt, then it is stuck by the standard
            # definition (nothing to abandon: dropping the generator is safe).
        timeout = HOST_JOIN_TIMEOUT if join_timeout is None else join_timeout
        self._mark_stuck(timeout)

    def on_current_host(self) -> bool:
        # A generator has no separate host to park; resume() drives it in
        # the scheduler's own frame, so parking from here is impossible.
        return False

    # -- goroutine side -------------------------------------------------

    def yield_to_scheduler(self) -> None:
        raise SchedulerStateError(
            f"goroutine {self.gid} ({self.name}) is generator-backed: its "
            "body must use a bare `yield` as the schedule point and cannot "
            "call blocking primitives or gosched() (only the thread and "
            "tasklet vehicles can suspend nested frames)"
        )
