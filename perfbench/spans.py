"""In-memory spans recorded around the benchmark's calls into ``repro``.

A span is one call across a layer boundary: the layer (a ``repro`` module
name), the function, start and end on ``time.perf_counter``, the span that
was open when it started (its parent), the unit it served (a kernel id or a
seed) and the counts recorded at that boundary (steps, goroutines, ...).

Spans stay in memory while the benchmark runs and are written out once, at
the end.  Nothing here is imported by ``repro``: the benchmark wraps its own
call sites, and for calls ``repro`` makes internally (the per-run
``repro.runtime.runtime.run`` inside a sweep, an exploration or a loadgen)
it swaps the module attribute those callers look up for a recording
wrapper while a traced pass runs (:meth:`Tracer.patch_run`).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)


class Span:
    __slots__ = ("sid", "layer", "name", "start", "end", "parent", "unit",
                 "counts")

    def __init__(self, sid: int, layer: str, name: str, start: float,
                 parent: Optional[int], unit: Any) -> None:
        self.sid = sid
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.counts: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, self_s: float) -> Dict[str, Any]:
        return {"id": self.sid, "layer": self.layer, "name": self.name,
                "start": self.start, "end": self.end, "parent": self.parent,
                "unit": self.unit, "self_s": self_s, "counts": self.counts}


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so time two children share is subtracted
    once.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.duration - covered
    return out


#: Modules whose ``run`` attribute is the per-run entry point of a layer the
#: benchmark calls.  ``repro.parallel`` imports it from
#: ``repro.runtime.runtime`` at call time; the others bind it at import.
RUN_HOLDERS = ("repro.runtime.runtime", "repro.detect.systematic",
               "repro.net.demo")


#: What a disabled tracer yields: counts written to it are dropped.
_UNRECORDED = Span(-1, "", "", 0.0, None, None)


class Tracer:
    """Records spans; a disabled tracer records nothing and costs a branch."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str, unit: Any = None) -> Iterator[Span]:
        if not self.enabled:
            _UNRECORDED.counts.clear()
            yield _UNRECORDED
            return
        parent = self._stack[-1].sid if self._stack else None
        if unit is None and self._stack:
            unit = self._stack[-1].unit
        span = Span(len(self.spans), layer, name, time.perf_counter(),
                    parent, unit)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patch_run(self) -> Iterator[None]:
        """Record a ``runtime.run`` span around every simulated run.

        Swaps ``run`` in :data:`RUN_HOLDERS` for a wrapper while the block
        runs and restores the originals after it.  The wrapper passes every
        argument through untouched, so what the run computes is unchanged.
        """
        if not self.enabled:
            yield
            return
        modules = [importlib.import_module(name) for name in RUN_HOLDERS]
        originals: List[Tuple[Any, Callable[..., Any]]] = [
            (module, module.run) for module in modules]
        real_run = originals[0][1]

        def traced_run(*args: Any, **kwargs: Any) -> Any:
            with self.span("runtime", "run") as span:
                result = real_run(*args, **kwargs)
            span.counts["steps"] = result.steps
            span.counts["goroutines"] = len(result.goroutines)
            span.counts["virtual_s"] = result.end_time
            return result

        for module, _ in originals:
            module.run = traced_run
        try:
            yield
        finally:
            for module, original in originals:
                module.run = original

    def layer_totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per ``(layer, name)``: calls, inclusive and self seconds, counts."""
        selfs = self_times(self.spans)
        totals: Dict[Tuple[str, str], Dict[str, float]] = {}
        for span in self.spans:
            row = totals.setdefault((span.layer, span.name),
                                    {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.sid]
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return totals

    def dump(self) -> List[Dict[str, Any]]:
        selfs = self_times(self.spans)
        return [span.to_dict(selfs[span.sid]) for span in self.spans]
