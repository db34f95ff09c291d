"""Fault-injected runs on the compiled loop match the pure loop.

With a fault injector attached, ``Scheduler.run_until_quiescent`` runs
the compiled ``drive()`` up to the injector's horizon — the next step or
virtual time at which a fault can be due — and the pure iteration pulses
the injector there.  These tests pin compiled against ``force_pure()``
for every trigger kind (``every``, ``at_step``, ``after_time``), a
probability gate, a due fault retried until its victim exists, every
goroutine action, context cancellation, clock jumps, channel faults and
crash/restart and partition plans on a cluster: the kept trace event by
event and the ``injected`` log record by record.  A counting injector
checks that the compiled side pulses only where a fault can be due.

Every kernel run carries a ``max_steps``.  Without the extension both
sides are pure.
"""

from functools import partial

import pytest

from repro import run
from repro.bugs import registry
from repro.chan.cases import recv
from repro.inject import Fault, FaultInjector, FaultPlan, plans
from repro.inject.scenarios import net_etcd_recovery_scenario
from repro.runtime._hotloop import drive_stats, force_pure, get_drive

ENGAGED = get_drive() is not None

MAX_STEPS = 20_000


def _plan(name, *faults):
    return FaultPlan(name=name, faults=tuple(faults))


#: One plan per trigger kind and action; ``perturb`` stacks three
#: probability-gated storms.
PLANS = {
    "wakeup-every": plans.wakeup_storm(every=3, probability=1.0),
    "delay-gated": plans.delay_storm(every=4, probability=0.5),
    "perturb": plans.perturb(),
    "kill-at-step": _plan("kill", Fault("kill", at_step=15)),
    "panic-at-step": _plan("panic", Fault("panic", at_step=25, times=2)),
    "jump-after-time": _plan(
        "jump", Fault("clock_jump", after_time=0.2, value=0.3),
        Fault("clock_jump", after_time=1.5, value=2.0)),
    "cancel-storm": plans.cancel_storm(every=5, probability=1.0),
    "chan-faults": _plan(
        "chan", Fault("chan_fill", every=9, times=2),
        Fault("chan_close", at_step=30)),
    "mixed-triggers": _plan(
        "mixed", Fault("wakeup", at_step=10, after_time=0.1, times=3),
        Fault("delay", every=6, value=0.02, probability=0.7, times=None)),
}


class CountingInjector(FaultInjector):
    """Counts pulses; fires exactly what :class:`FaultInjector` fires."""

    def __init__(self, plan, seed=0):
        super().__init__(plan, seed=seed)
        self.pulses = 0

    def pulse(self, sched):
        self.pulses += 1
        return super().pulse(sched)


def _events(trace):
    return [(e.step, repr(e.time), e.gid, e.kind, e.obj, repr(e.info))
            for e in trace]


def _outcome(result):
    return (result.status, result.steps, repr(result.end_time),
            repr(result.main_result), _events(result.trace),
            [record.to_dict() for record in result.injected])


def _both(program, plan, seed=0, **kwargs):
    """(compiled outcome, pure outcome, compiled drive stats, compiled and
    pure pulse counts)."""
    drive_stats(True)
    injector = CountingInjector(plan, seed=seed)
    compiled = _outcome(run(program, seed=seed, inject=injector, **kwargs))
    stats = drive_stats(True)
    with force_pure():
        pure_injector = CountingInjector(plan, seed=seed)
        pure = _outcome(run(program, seed=seed, inject=pure_injector,
                            **kwargs))
    return compiled, pure, stats, injector.pulses, pure_injector.pulses


def service(rt):
    """Named workers behind a cancellable context: a producer feeds a
    buffered job channel, workers select on the job channel and the
    context, sleep, and report through a mutex and a second channel; a
    late worker appears after half a virtual second."""
    jobs = rt.make_chan(2, name="jobs")
    done = rt.make_chan(4, name="done")
    ctx, cancel = rt.with_cancel(rt.background())
    mu = rt.mutex("mu")
    served = []

    def worker(index):
        while True:
            which, job, ok = rt.select(recv(ctx.done()), recv(jobs))
            if which == 0 or not ok:
                return
            rt.sleep(0.05 * (index + 1))
            with mu:
                served.append((index, job))
            done.send(job)

    def producer():
        for job in range(12):
            jobs.send(job)
            rt.sleep(0.02)

    for index in range(3):
        rt.go(worker, index, name=f"worker-{index}")
    rt.go(producer, name="producer")
    rt.sleep(0.5)
    rt.go(lambda: rt.sleep(0.3), name="late-worker")
    for _ in range(12):
        which, _job, _ok = rt.select(recv(done), recv(rt.after(0.4)))
        if which == 1:
            break
    cancel()
    return sorted(served)


@pytest.mark.parametrize("name", sorted(PLANS))
@pytest.mark.parametrize("seed", [0, 3])
def test_service_parity(name, seed):
    compiled, pure, stats, _, _ = _both(service, PLANS[name], seed=seed,
                                        max_steps=MAX_STEPS)
    assert compiled == pure
    assert compiled[-1], f"{name} fired nothing"
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0


def test_due_fault_without_a_victim_is_retried_until_one_exists():
    """Due from step 1, the kill finds no ``late-worker`` until it is
    spawned at t=0.5: the pure iteration retries it at every scheduling
    point in between, and it fires at the same step on both sides."""
    plan = _plan("late", Fault("kill", target="late-*", at_step=1))
    compiled, pure, stats, pulses, pure_pulses = _both(
        service, plan, max_steps=MAX_STEPS)
    assert compiled == pure
    (record,) = compiled[-1]
    assert record["victim"].endswith(":late-worker")
    assert record["time"] >= 0.5
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["horizon"] > 0
        # Retried at every point until the victim exists, then never
        # again: the pure side keeps pulsing after it fired.
        assert 1 < pulses < pure_pulses


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_parity(kernel):
    kwargs = dict(kernel.run_kwargs)
    kwargs["max_steps"] = MAX_STEPS
    for variant in (kernel.buggy, kernel.fixed):
        for name, plan in PLANS.items():
            compiled, pure, stats, _, _ = _both(variant, plan, **kwargs)
            assert compiled == pure, (variant, name)
            if ENGAGED:
                assert stats["exits"]["ineligible"] == 0, (variant, name)


@pytest.mark.parametrize("plan", [
    plans.crash_restart(delay=0.3),
    plans.crash_storm(times=3, delay=0.3),
    plans.partition(at_step=200, heal_after=600),
], ids=lambda plan: plan.name)
def test_cluster_parity(plan):
    program = partial(net_etcd_recovery_scenario, size=3)
    compiled, pure, stats, pulses, pure_pulses = _both(
        program, plan, seed=1, max_steps=600_000)
    assert compiled == pure
    assert compiled[-1], "no fault fired"
    if ENGAGED:
        assert stats["calls"] > 0 and stats["exits"]["ineligible"] == 0
        assert pulses < pure_pulses


@pytest.mark.skipif(not ENGAGED, reason="compiled hot loop unavailable")
def test_crash_restart_pulses_a_handful_of_times():
    """One ``after_time`` fault: the compiled loop runs to it, the pure
    iteration pulses once there, and no other pulse happens — where the
    pure loop pulses at every one of thousands of scheduling points."""
    injector = CountingInjector(plans.crash_restart(delay=0.3), seed=0)
    result = run(partial(net_etcd_recovery_scenario, size=3), seed=0,
                 inject=injector, max_steps=600_000)
    assert result.status == "ok" and len(result.injected) == 1
    assert injector.pulses <= 5


def test_injector_without_a_horizon_is_pulsed_every_iteration():
    """A duck-typed injector (``attach``, ``pulse`` and ``log``, no
    ``horizon``) keeps the pure loop: it sees a pulse at every scheduling
    point."""

    class Pulses:
        def __init__(self):
            self.steps = []
            self.log = []

        def attach(self, rt):
            rt.sched.injector = self

        def pulse(self, sched):
            self.steps.append(sched.steps)
            return False

    injector = Pulses()
    drive_stats(True)
    result = run(service, seed=0, inject=injector, max_steps=MAX_STEPS)
    stats = drive_stats(True)
    assert stats is None or stats["calls"] == 0
    assert set(range(result.steps)) <= set(injector.steps)


def test_horizon_bounds():
    """``horizon`` per trigger kind: the next epoch boundary for
    ``every``, the step for ``at_step``, the time for ``after_time``,
    and None while anything is due."""

    class Sched:
        def __init__(self, steps, now):
            self.steps = steps
            self.clock = type("Clock", (), {"now": now})()

    every = FaultInjector(_plan("e", Fault("wakeup", every=10, times=None)))
    assert every.horizon(Sched(0, 0.0)) is None  # epoch 0 not yet pulsed
    every._last_epoch[0] = 0
    assert every.horizon(Sched(3, 0.0)) == (10, None)
    assert every.horizon(Sched(10, 0.0)) is None

    mixed = FaultInjector(_plan(
        "m", Fault("kill", at_step=40), Fault("clock_jump", after_time=2.5),
        Fault("panic", at_step=7, after_time=1.0)))
    assert mixed.horizon(Sched(0, 0.0)) == (7, 1.0)
    assert mixed.horizon(Sched(7, 0.5)) == (40, 1.0)
    assert mixed.horizon(Sched(7, 1.0)) is None
    mixed._remaining[2] = 0  # consumed faults no longer bound anything
    assert mixed.horizon(Sched(7, 1.0)) == (40, 2.5)
    mixed._remaining[0] = mixed._remaining[1] = 0
    assert mixed.horizon(Sched(7, 1.0)) == (None, None)
