"""Picklable run summaries: what a sweep worker sends back to the parent.

A :class:`repro.runtime.runtime.RunResult` is deliberately rich — it holds
live :class:`Goroutine` objects, the full trace, attached observers — and
none of that crosses a process boundary.  :class:`RunSummary` is the flat,
picklable projection a sweep actually consumes: status, leak/deadlock
descriptions, panic text, injected-fault records, and a SHA-256 digest of
the schedule fingerprint so serial and parallel sweeps can be compared
bit-for-bit.

Both the serial and the parallel sweep paths reduce results through the
same :func:`summarize_result`, which is what makes ``jobs=N`` output
byte-identical to ``jobs=1``: a deterministic run produces the same
summary no matter which process executed it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, Tuple


def schedule_digest(result: Any) -> Optional[str]:
    """SHA-256 over the run's schedule fingerprint, or None without a trace.

    The fingerprint is the ``(step, gid, kind, obj)`` projection of every
    trace event (the same projection
    :func:`repro.observe.overhead.schedule_fingerprint` uses): it pins the
    complete interleaving while ignoring payload details.  A stable hex
    digest — not Python's salted ``hash()`` — so digests compare across
    processes and sessions.
    """
    if result.trace is None:
        return None
    # One buffer, hashed once: the same bytes as one update per event.
    fingerprint = "".join([f"{e.step}|{e.gid}|{e.kind}|{e.obj}\n"
                           for e in result.trace])
    return hashlib.sha256(fingerprint.encode()).hexdigest()


def _json_safe(value: Any) -> Any:
    if isinstance(value, (type(None), bool, int, float, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class RunSummary:
    """Flat, picklable outcome of one simulated run.

    Mirrors :meth:`RunResult.to_dict` field-for-field, plus:

    Attributes:
        trace_digest: SHA-256 of the schedule fingerprint (None when the
            run kept no trace) — the cross-process equality witness.
        manifested: result of the sweep's predicate over the full
            :class:`RunResult`, evaluated worker-side where the rich object
            still exists; None when the sweep had no predicate.
        metrics: optional small numeric dict computed worker-side (chaos
            sweeps fold observation metrics here).
        backend: the resolved goroutine vehicle that ran the simulation
            (``result.backend``); lets cross-backend parity checks compare
            ``trace_digest`` while still recording who produced it.
        compiled: whether the run had compiled accelerators loaded
            (``result.compiled``).  Worker processes record their *own*
            resolution here, so a sweep whose forked children failed to
            load the extension the parent had is visible in the summaries
            rather than silently slower.
    """

    status: str
    seed: int
    steps: int
    virtual_time: float
    goroutines: int
    main_result: Any = None
    leaked: Tuple[str, ...] = ()
    abandoned: Tuple[str, ...] = ()
    panic: Optional[str] = None
    deadlock: Optional[Tuple[str, ...]] = None
    stuck_host_threads: Tuple[str, ...] = ()
    faults_injected: Tuple[Any, ...] = ()
    trace_digest: Optional[str] = None
    manifested: Optional[bool] = None
    metrics: Optional[dict] = field(default=None)
    backend: Optional[str] = None
    compiled: Optional[bool] = None

    @property
    def completed(self) -> bool:
        """True when the main goroutine returned normally."""
        return self.status in ("ok", "leak")

    @property
    def leak_count(self) -> int:
        return len(self.leaked)

    def to_dict(self) -> dict:
        """JSON-serializable form (same shape as ``RunResult.to_dict`` plus
        the summary-only fields)."""
        out = asdict(self)
        out["leaked"] = list(self.leaked)
        out["abandoned"] = list(self.abandoned)
        out["deadlock"] = None if self.deadlock is None else list(self.deadlock)
        out["stuck_host_threads"] = list(self.stuck_host_threads)
        out["faults_injected"] = list(self.faults_injected)
        return out


def summarize_result(
    result: Any,
    predicate: Optional[Callable[[Any], bool]] = None,
    metrics: Optional[dict] = None,
) -> RunSummary:
    """Reduce a :class:`RunResult` to its picklable :class:`RunSummary`.

    ``predicate`` (e.g. a kernel's ``manifested``) runs here, in the worker,
    against the full result — so sweeps can ask arbitrary questions of the
    trace without shipping it back to the parent.
    """
    return RunSummary(
        status=result.status,
        seed=result.seed,
        steps=result.steps,
        virtual_time=result.end_time,
        goroutines=len(result.goroutines),
        main_result=_json_safe(result.main_result),
        leaked=tuple(g.describe() for g in result.leaked),
        abandoned=tuple(g.describe() for g in result.abandoned),
        panic=None if result.panic_value is None else str(result.panic_value),
        deadlock=(tuple(result.deadlock.blocked)
                  if result.deadlock is not None else None),
        stuck_host_threads=tuple(g.describe()
                                 for g in result.stuck_host_threads),
        faults_injected=tuple(record.to_dict() if hasattr(record, "to_dict")
                              else record for record in result.injected),
        trace_digest=schedule_digest(result),
        manifested=None if predicate is None else bool(predicate(result)),
        metrics=metrics,
        backend=getattr(result, "backend", None),
        compiled=getattr(result, "compiled", None),
    )
