"""Property tests: any valid plan, any seed --- the system survives.

Hypothesis generates fault schedules across the plan's whole parameter
space and asserts the chaos contract: a seeded schedule either completes
or stops with a *typed* :class:`~repro.errors.ReproError` (never a bare
exception, never a lost frame), the invariant checker never fires (it
would propagate as :class:`InvariantViolationError` and fail the test),
and the whole thing is bit-for-bit deterministic in ``(plan, seed)``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosPlan, Injector
from repro.chaos.harness import run_schedule
from repro.errors import ReproError, TransientDiskError
from repro.verify.workloads import VICTIM_MANAGER

pytestmark = pytest.mark.chaos

# rates capped at 0.3 so the shared-draw sums stay within [0, 1]
_rate = st.floats(min_value=0.0, max_value=0.3)

plans = st.builds(
    ChaosPlan,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    disk_error_rate=_rate,
    disk_slow_rate=_rate,
    disk_error_burst=st.integers(min_value=1, max_value=3),
    disk_slow_factor=st.floats(min_value=1.0, max_value=16.0),
    frame_ecc_rate=st.floats(min_value=0.0, max_value=0.1),
    manager_crash_rate=_rate,
    manager_hang_rate=_rate,
    manager_byzantine_rate=_rate,
    manager_alloc_crash_rate=_rate,
    ipc_drop_rate=_rate,
    ipc_duplicate_rate=_rate,
    target_managers=st.just((VICTIM_MANAGER,)),
    max_injections=st.one_of(
        st.none(), st.integers(min_value=0, max_value=20)
    ),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=plans, seed=st.integers(min_value=0, max_value=2**16))
def test_any_plan_completes_or_fails_typed(plan, seed):
    """The chaos contract over the Figure-2 workload: completion or a
    typed ReproError, with every invariant sweep clean (a violation
    would raise InvariantViolationError out of run_schedule)."""
    try:
        result = run_schedule("figure2-crash", seed, plan=plan)
    except ReproError as exc:  # pragma: no cover - contract breach
        pytest.fail(f"harness let a ReproError escape: {exc!r}")
    assert result.completed or result.error_type is not None
    if not result.completed:
        assert result.error  # the typed error carries a message
    assert result.checks_run >= 1
    assert result.n_injected == sum(result.injected.values())


@settings(max_examples=10, deadline=None)
@given(plan=plans, seed=st.integers(min_value=0, max_value=2**16))
def test_schedules_are_deterministic_in_plan_and_seed(plan, seed):
    a = run_schedule("figure2-crash", seed, plan=plan)
    b = run_schedule("figure2-crash", seed, plan=plan)
    assert a.completed == b.completed
    assert a.error_type == b.error_type
    assert a.injected == b.injected
    assert a.kernel_stats == b.kernel_stats
    assert a.references == b.references


def _drive(injector: Injector, n: int = 64) -> list:
    out = []
    for i in range(n):
        try:
            out.append(("disk", injector.disk_io("read", i)))
        except TransientDiskError:
            out.append(("disk", "error"))
        out.append(("ecc", injector.frame_ecc(i)))
        out.append(("mgr", injector.manager_invocation(VICTIM_MANAGER)))
        out.append(("ipc", injector.ipc_delivery(VICTIM_MANAGER)))
    return out


@settings(max_examples=50, deadline=None)
@given(plan=plans)
def test_injector_schedule_is_reproducible(plan):
    a, b = Injector(plan), Injector(plan)
    assert _drive(a) == _drive(b)
    assert a.injected == b.injected


@settings(max_examples=50, deadline=None)
@given(plan=plans)
def test_injected_events_are_sequenced_and_budgeted(plan):
    injector = Injector(plan)
    _drive(injector)
    seqs = [fault.seq for fault in injector.injected]
    assert seqs == list(range(1, len(seqs) + 1))
    assert sum(injector.counts().values()) == len(seqs)
    if plan.max_injections is not None:
        # an in-flight disk-error burst may run past the budget
        assert len(seqs) <= plan.max_injections + plan.disk_error_burst - 1
