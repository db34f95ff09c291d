"""Parallel seed sweeps: scale "run it a lot of times" with cores.

The paper's detection reality is statistical — a blocking bug that
manifests on a few percent of real executions manifests on a similar
fraction of seeds — so sweep throughput *is* the system's effective speed.
This package fans independent ``(seed, plan)`` simulation units across a
process pool (:mod:`repro.parallel.engine`) and merges their picklable
summaries (:mod:`repro.parallel.summary`) in seed order.

Determinism contract: ``jobs=N`` output is **byte-identical** to
``jobs=1`` — both paths reduce runs through the same
:func:`summarize_result`, the unit list is fixed before any worker starts,
and ``Pool.map`` preserves submission order.  The equivalence tests in
``tests/parallel`` assert this for every sweep consumer.

What parallelism cannot preserve: in-process side effects.  A shared
Observer, a detector accumulating across seeds, or a program
mutating parent-process globals will not see worker writes (children are
forked copies).  Sweep-level predicates run *worker-side* against the full
:class:`RunResult` (``RunSummary.manifested``), which covers the common
cases; anything needing cross-seed aggregation in one address space should
use ``jobs=1``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, List, Optional

from .engine import effective_jobs, map_units
from .summary import RunSummary, schedule_digest, summarize_result

__all__ = [
    "DEFAULT_SWEEP_JOIN_TIMEOUT",
    "RunSummary",
    "effective_jobs",
    "map_units",
    "schedule_digest",
    "summarize_result",
    "sweep_seeds",
]

#: Host-thread join bound applied to sweep runs (seconds).  The interactive
#: default (:data:`repro.runtime.goroutine.HOST_JOIN_TIMEOUT`) is generous;
#: inside a sweep one pathological seed with a stuck host thread should cost
#: about a second, not five, so the engine shrinks it — in the serial path
#: too, keeping jobs=1 and jobs=N byte-identical.
DEFAULT_SWEEP_JOIN_TIMEOUT = 1.0


def _run_unit(
    program: Callable[..., Any],
    seed: int,
    predicate: Optional[Callable[[Any], bool]],
    run_kwargs: dict,
) -> RunSummary:
    from ..runtime.runtime import run

    result = run(program, seed=seed, **run_kwargs)
    return summarize_result(result, predicate=predicate)


def sweep_seeds(
    program: Callable[..., Any],
    seeds: Iterable[int],
    *,
    jobs: int = 1,
    predicate: Optional[Callable[[Any], bool]] = None,
    memo_key: Optional[Any] = None,
    **run_kwargs: Any,
) -> List[RunSummary]:
    """Run ``program`` under every seed, optionally across processes.

    Args:
        program: a ``main(rt)`` program (also accepts kernel variants).
        seeds: the seeds to sweep, in the order results are returned.
        jobs: worker processes; 1 (the default) runs in-process.  Output is
            identical either way.
        predicate: optional test over each full :class:`RunResult`
            (e.g. ``kernel.manifested``), evaluated in the worker; lands on
            ``RunSummary.manifested``.
        memo_key: opt into cross-run memoization (:mod:`repro.parallel.memo`)
            under this stable identity (e.g. ``("kernel", kernel_id,
            variant)``).  Seeds already in the cache are served without
            running; only misses are dispatched, and their summaries are
            stored for the next sweep.  The key must uniquely identify the
            *program's behavior* — registry ids qualify, closures do not.
        run_kwargs: forwarded to :func:`repro.run`.  ``host_join_timeout``
            defaults to :data:`DEFAULT_SWEEP_JOIN_TIMEOUT` here.

    Returns:
        One :class:`RunSummary` per seed, in seed order.
    """
    from . import memo as memo_mod

    run_kwargs.setdefault("host_join_timeout", DEFAULT_SWEEP_JOIN_TIMEOUT)
    if "backend" in run_kwargs:
        # Resolve in the parent so every forked worker inherits the same
        # concrete vehicle (and the fallback warning fires once, here, not
        # once per worker process).  Schedules are backend-invariant, so
        # this only pins *which* vehicle runs, never what it produces.
        from ..runtime.scheduler import resolve_backend

        run_kwargs["backend"] = resolve_backend(run_kwargs["backend"])
    seeds = list(seeds)
    use_memo = memo_key is not None and memo_mod.enabled
    if not use_memo:
        units = [partial(_run_unit, program, seed, predicate, run_kwargs)
                 for seed in seeds]
        return map_units(units, jobs=jobs)

    options = memo_mod.fingerprint(run_kwargs)
    keys = [("sweep", memo_key, seed, predicate, options) for seed in seeds]
    results: List[Optional[RunSummary]] = [memo_mod.memo.get(key)
                                           for key in keys]
    misses = [i for i, summary in enumerate(results) if summary is None]
    if misses:
        executed = map_units(
            [partial(_run_unit, program, seeds[i], predicate, run_kwargs)
             for i in misses],
            jobs=jobs,
        )
        for i, summary in zip(misses, executed):
            results[i] = summary
            memo_mod.memo.put(keys[i], summary)
    return results  # type: ignore[return-value]
