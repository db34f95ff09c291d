"""The four benchmark workloads, each driven through ``repro``'s public API.

A workload turns the benchmark seed into a fixed list of units, runs one
unit at a time in this process (``jobs=1``, no worker pool) and reduces
each unit to a plain, JSON-able record of what the simulation produced.
Records hold simulated outputs only, never host timings, so the same unit
gives the same record on every pass, traced or not.  ``problems`` holds
the checks a record must pass against the ground truth; an empty list
means the unit is correct.

Why these four (see README.md for the full table):

- ``corpus``: what one corpus scorecard costs.  Thousands of short traced
  runs, detector hooks, one-run prediction and a cold static parse.
- ``explore``: "find the bug / verify the fix".  Systematic exploration
  on the scripted-choice path the compiled loop does not take.
- ``loadgen``: the only workload on the default compiled path; timers
  and the network fabric dominate.
- ``chaos``: the same runtime/net layers with a fault injector attached,
  so every compiled fast op bails; the only user of ``inject``,
  ``net.disk``, ``net.supervise`` and ``detect.convergence``.
"""

from __future__ import annotations

import linecache
import random
from functools import partial
from typing import Any, Dict, List, Tuple

#: A unit's record and the ground-truth problems found in it.
Outcome = Tuple[Dict[str, Any], List[str]]

#: Buggy-variant seeds swept per kernel in one ``corpus`` unit.
CORPUS_SWEEP_SEEDS = 40
#: Run cap of one systematic exploration in ``explore``.
EXPLORE_MAX_RUNS = 60
#: ``loadgen``: runs per pass, and clients and requests per client in each.
LOADGEN_RUNS = 4
LOADGEN_CLIENTS = 8
LOADGEN_REQUESTS_PER_CLIENT = 625
#: ``chaos``: cluster sizes, and seeds per (size, plan) cell.
CHAOS_SIZES = (3, 5)
CHAOS_SEEDS = 13
CHAOS_MAX_STEPS = 600_000


def _runtime():
    # Looked up on every call, so a traced pass sees the recording wrapper
    # that spans.Tracer.patch_run installs.
    from repro.runtime import runtime
    return runtime


def _kernels() -> List[Any]:
    from repro.bugs import registry
    return registry.all_kernels()


class Workload:
    """A named list of units; subclasses add ``units`` and ``run_unit``."""

    name = ""

    def setup(self) -> None:
        """Load what the first call needs: ``repro``, the kernel registry,
        the compiled extensions (built beforehand) and, in subclasses, the
        workload's modules."""
        from repro.runtime._ext import get_ctasklet, get_hotloop
        from repro.runtime._hotloop import get_fastops

        _kernels()
        get_hotloop()
        get_ctasklet()
        get_fastops()

    @staticmethod
    def unit_id(unit: Any) -> str:
        return unit.meta.kernel_id

    def begin_pass(self) -> None:
        """Reset what a fresh invocation of the user's command would not
        have warm; nothing by default."""


class Corpus(Workload):
    """Per kernel, the calls the dynamic, predict and static scorecards
    make."""

    name = "corpus"

    def setup(self) -> None:
        super().setup()
        import repro.detect  # noqa: F401
        import repro.parallel  # noqa: F401
        import repro.predict  # noqa: F401
        import repro.static.scorecard  # noqa: F401

    def units(self, seed: int) -> List[Any]:
        self.seeds = range(seed * CORPUS_SWEEP_SEEDS,
                           (seed + 1) * CORPUS_SWEEP_SEEDS)
        return _kernels()

    def begin_pass(self) -> None:
        # A CLI scorecard parses every kernel afresh on each invocation;
        # the static tier's per-class parse cache would hide that cost.
        from repro.static import interp

        interp._INTERP_CACHE.clear()
        linecache.clearcache()

    def run_unit(self, kernel: Any, tracer: Any) -> Outcome:
        from repro.detect import (BuiltinDeadlockDetector, ChannelRuleChecker,
                                  GoroutineLeakDetector, LockOrderDetector,
                                  RaceDetector)
        from repro.parallel import sweep_seeds
        from repro.predict import predict
        from repro.static.scorecard import score_kernel

        kid = kernel.meta.kernel_id
        kwargs = dict(kernel.run_kwargs)
        with tracer.span("parallel", "sweep_seeds", kid):
            summaries = sweep_seeds(kernel.buggy, self.seeds,
                                    predicate=kernel.manifested, **kwargs)
        manifesting = [s.seed for s in summaries if s.manifested]
        seed = manifesting[0] if manifesting else summaries[0].seed

        race, rules, lockorder = (RaceDetector(), ChannelRuleChecker(),
                                  LockOrderDetector())
        with tracer.span("detect", "observed_run"):
            result = _runtime().run(kernel.buggy, seed=seed,
                                    observers=[race, rules, lockorder],
                                    **kwargs)
        with tracer.span("detect", "classify") as span:
            builtin = BuiltinDeadlockDetector().classify(result)
            leak = GoroutineLeakDetector().classify(result)
        span.counts["classifications"] = 2
        with tracer.span("predict", "predict") as span:
            report = predict(result)
        span.counts["predictions"] = len(report.predictions)
        with tracer.span("static", "score_kernel") as span:
            row = score_kernel(kernel)
        for rep in (row.buggy_report, row.fixed_report):
            for stage, secs in rep.timings.items():
                key = f"checker_s.{stage}"
                span.counts[key] = span.counts.get(key, 0.0) + secs

        dynamic = {"race": race.detected, "rules": rules.detected,
                   "lockorder": lockorder.detected, "builtin": builtin,
                   "leak": leak}
        record = {
            "sweep": [[s.seed, s.status, s.manifested, s.trace_digest]
                      for s in summaries],
            "observed": {"seed": seed, "status": result.status,
                         "steps": result.steps, **dynamic},
            "predict": sorted([p.family, p.rule] for p in report.predictions),
            "static": {"buggy": list(row.buggy_rules),
                       "fixed": list(row.fixed_rules)},
        }
        problems = []
        if not row.buggy_flagged:
            problems.append("static tier missed the buggy variant")
        if not row.fixed_ok:
            problems.append("static verdict on the fixed variant contradicts "
                            "its label")
        if any(dynamic.values()) and not report.found:
            problems.append("a dynamic detector fired but predict is silent")
        return record, problems


class Explore(Workload):
    """Both variants of every kernel through systematic exploration."""

    name = "explore"

    def setup(self) -> None:
        super().setup()
        import repro.detect.systematic  # noqa: F401

    def units(self, seed: int) -> List[Any]:
        # Exploration takes no seed; the seed only orders the kernels.
        kernels = list(_kernels())
        random.Random(seed).shuffle(kernels)
        return kernels

    def run_unit(self, kernel: Any, tracer: Any) -> Outcome:
        from repro.detect.systematic import explore_systematic

        record: Dict[str, Any] = {}
        for variant in ("buggy", "fixed"):
            with tracer.span("detect", "explore_systematic",
                             kernel.meta.kernel_id) as span:
                found = explore_systematic(
                    getattr(kernel, variant), stop_on=kernel.manifested,
                    max_runs=EXPLORE_MAX_RUNS, prune=True, memo=False,
                    **dict(kernel.run_kwargs))
            span.counts.update(runs=found.runs, pruned=found.pruned,
                               exhausted=int(found.exhausted),
                               runs_saved=found.runs_saved)
            record[variant] = {
                "runs": found.runs, "exhausted": found.exhausted,
                "pruned": found.pruned, "runs_saved": found.runs_saved,
                "counterexample": found.counterexample,
                "statuses": found.statuses,
            }
        problems = []
        buggy_found = record["buggy"]["counterexample"] is not None
        if not buggy_found and not kernel.meta.latent:
            problems.append("no counterexample for a non-latent buggy variant")
        if record["fixed"]["counterexample"] is not None:
            problems.append("counterexample on the fixed variant")
        return record, problems


class Loadgen(Workload):
    """Poisson echo clients against one server, untraced (the default)."""

    name = "loadgen"

    def setup(self) -> None:
        super().setup()
        import repro.net.demo  # noqa: F401

    def units(self, seed: int) -> List[int]:
        return [seed * LOADGEN_RUNS + i for i in range(LOADGEN_RUNS)]

    @staticmethod
    def unit_id(seed: int) -> str:
        return f"seed{seed}"

    def run_unit(self, seed: int, tracer: Any) -> Outcome:
        from repro.net.demo import loadgen_summary

        with tracer.span("net", "loadgen_summary", seed) as span:
            summary = loadgen_summary(
                seed=seed, clients=LOADGEN_CLIENTS,
                requests=LOADGEN_REQUESTS_PER_CLIENT)
        span.counts["delivered"] = summary["net"]["delivered"]
        span.counts["requests"] = summary["requests"]
        problems = []
        expected = LOADGEN_CLIENTS * LOADGEN_REQUESTS_PER_CLIENT
        if summary["status"] != "ok":
            problems.append(f"run ended {summary['status']}")
        if not (summary["ok"] == summary["requests"] == expected):
            problems.append(f"{summary['ok']} of {expected} requests ok")
        if summary["errors"]:
            problems.append(f"{summary['errors']} request errors")
        return summary, problems


class Chaos(Workload):
    """Supervised durable etcd clusters recovering from crash faults."""

    name = "chaos"

    def setup(self) -> None:
        super().setup()
        # What net_etcd_recovery_scenario imports on its first call.
        import repro.apps.minietcd.cluster  # noqa: F401
        import repro.detect.convergence  # noqa: F401
        import repro.inject.plans  # noqa: F401
        import repro.inject.scenarios  # noqa: F401
        import repro.net  # noqa: F401
        import repro.parallel  # noqa: F401

    def units(self, seed: int) -> List[Tuple[int, str, int]]:
        return [(size, plan, seed * CHAOS_SEEDS + i)
                for size in CHAOS_SIZES
                for plan in ("crash-restart", "crash-storm")
                for i in range(CHAOS_SEEDS)]

    @staticmethod
    def unit_id(unit: Tuple[int, str, int]) -> str:
        size, plan, seed = unit
        return f"size{size}/{plan}/seed{seed}"

    def run_unit(self, unit: Tuple[int, str, int], tracer: Any) -> Outcome:
        from repro.inject import plans
        from repro.inject.scenarios import net_etcd_recovery_scenario
        from repro.parallel import schedule_digest

        size, plan_name, seed = unit
        plan = (plans.crash_restart(delay=0.3) if plan_name == "crash-restart"
                else plans.crash_storm(times=3, delay=0.3))
        with tracer.span("inject", "run", self.unit_id(unit)) as span:
            result = _runtime().run(
                partial(net_etcd_recovery_scenario, size=size), seed=seed,
                inject=plan, max_steps=CHAOS_MAX_STEPS)
        main = result.main_result if isinstance(result.main_result, dict) \
            else {}
        span.counts["faults_fired"] = len(result.injected)
        span.counts["recovered"] = int(main.get("verdict") == "recovered")
        record = {"status": result.status, "steps": result.steps,
                  "virtual_s": result.end_time, "main": main,
                  "faults_fired": len(result.injected),
                  "schedule": schedule_digest(result)}
        problems = []
        if result.status != "ok" or main.get("verdict") != "recovered":
            problems.append(f"verdict {main.get('verdict', result.status)}")
        return record, problems


WORKLOADS = {cls.name: cls for cls in (Corpus, Explore, Loadgen, Chaos)}
