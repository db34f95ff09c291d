"""Virtual time.

The simulator never consults the wall clock.  A :class:`VirtualClock` owns
"now" and a heap of pending timers; when the scheduler finds no runnable
goroutine it advances the clock to the earliest deadline and fires the timer
callbacks.  This makes every timeout-dependent bug in the corpus (Figure 1's
``time.After`` race, Figure 12's ``Timer(0)``, ``context.WithTimeout``)
deterministic and instantaneous.

The heap is a plain ``heapq`` list of ``(deadline, seq, handle)`` entries,
and it is the only one: the pure scheduler loop fires timers through
:meth:`VirtualClock.advance_to_next` and ``Scheduler.fire_timers``, the
fault injector's clock jumps through :meth:`VirtualClock.advance`, and the
compiled step loop (``repro.runtime._hotloop``) pops the same list with
``heapq.heappop`` and fires due timers itself, in the same order.

A timer is either a callback with positional ``args`` or, when its
callback is None, a *ready* timer (:meth:`VirtualClock.ready_after`):
firing it readies the goroutine in ``args[0]``, which the compiled loop
does without calling into Python.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class TimerHandle:
    """A cancellable entry in the virtual-clock timer heap.

    ``cancelled`` is also set when the timer fires, so it reads "no longer
    pending" — a sleeper polls it to tell its own timer from a spurious
    wakeup.
    """

    __slots__ = ("deadline", "callback", "args", "cancelled", "seq")

    def __init__(self, deadline: float, seq: int,
                 callback: Optional[Callable[..., None]],
                 args: Tuple[Any, ...] = ()):
        self.deadline = deadline
        self.seq = seq
        #: Called as ``callback(*args)``; None marks a ready timer.
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> bool:
        """Cancel the timer.  Returns True if it had not fired/cancelled yet."""
        if self.cancelled:
            return False
        self.cancelled = True
        return True


class VirtualClock:
    """Discrete-event virtual clock with a cancellable timer heap."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def call_at(self, deadline: float, callback: Optional[Callable[..., None]],
                *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` to run when the clock reaches
        ``deadline``.

        Deadlines in the past fire on the next scheduler idle point.
        """
        handle = TimerHandle(max(deadline, self._now), next(self._seq),
                             callback, args)
        heapq.heappush(self._heap, (handle.deadline, handle.seq, handle))
        return handle

    def call_after(self, delay: float, callback: Optional[Callable[..., None]],
                   *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        return self.call_at(self._now + max(delay, 0.0), callback, *args)

    def ready_after(self, delay: float, g: Any) -> TimerHandle:
        """Ready goroutine ``g`` ``delay`` seconds from now (a ready timer:
        the scheduler calls ``ready(g)`` when it fires)."""
        return self.call_at(self._now + max(delay, 0.0), None, g)

    def next_deadline(self) -> Optional[float]:
        """Earliest pending (non-cancelled) deadline, or None."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def has_pending(self) -> bool:
        return self.next_deadline() is not None

    def advance_to_next(self) -> List[TimerHandle]:
        """Jump to the earliest deadline and pop every timer due at it.

        Returns the fired handles (callbacks are *not* run here; the
        scheduler runs them so it can interleave wakeups correctly).
        """
        deadline = self.next_deadline()
        if deadline is None:
            return []
        self._now = max(self._now, deadline)
        return self._pop_due()

    def advance(self, delta: float) -> List[TimerHandle]:
        """Advance the clock by ``delta`` and pop every timer now due."""
        self._now += max(delta, 0.0)
        return self._pop_due()

    def _pop_due(self) -> List[TimerHandle]:
        due: List[TimerHandle] = []
        while self._heap and self._heap[0][0] <= self._now:
            _, _, handle = heapq.heappop(self._heap)
            if not handle.cancelled:
                handle.cancelled = True  # a fired timer cannot be cancelled
                due.append(handle)
        return due

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
