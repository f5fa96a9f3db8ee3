"""The zero-overhead contract of the disabled observability hooks.

With :data:`NULL_TRACER`, :data:`NULL_INJECTOR`, :data:`NULL_JOURNAL` and
no kernel listeners installed (the benchmarked configuration), the fault
path must not allocate a single block on behalf of tracing, injection or
journaling --- the null objects hand out shared singletons and every hook
site is guarded by an ``enabled`` flag.  These tests pin that contract
with tracemalloc so an accidental allocation on the hot path (a span
record built before the ``enabled`` check, an f-string in a guard) fails
CI rather than quietly taxing every benchmark.

The same run-time contract holds for flag and enum objects: the fault
path carries protections as ints and compares members by identity, so a
profiled reclaim-heavy run must make no Python-level call into
``enum.py``.
"""

from __future__ import annotations

import enum
import sys
import tracemalloc
from collections import Counter

import repro.chaos.injector as injector_mod
import repro.contracts as contracts_mod
import repro.obs.records as records_mod
import repro.obs.trace as trace_mod
from repro.contracts import NULL_INJECTOR, NULL_JOURNAL
from repro.core.flags import PageFlags
from repro.managers.base import GenericSegmentManager
from repro.obs.trace import NULL_TRACER
from repro.verify.workloads import REGISTRY
from repro.verify.oracle import build_vpp_system, drive_vpp
from repro.verify.schedule import figure2_schedule

#: the files whose allocations the null configuration must not touch
_OBSERVABILITY_FILES = (
    trace_mod.__file__,
    records_mod.__file__,
    injector_mod.__file__,
    contracts_mod.__file__,
)


def _blocks_allocated_in(snapshot, path: str) -> int:
    """Live tracemalloc blocks attributed to ``path``."""
    stats = snapshot.filter_traces(
        (tracemalloc.Filter(True, path),)
    ).statistics("filename")
    return sum(stat.count for stat in stats)


class TestNullSingletons:
    def test_null_tracer_span_is_shared(self):
        """Every null span is the same object: opening one costs nothing."""
        a = NULL_TRACER.span("kernel", "dispatch_fault", kind="x")
        b = NULL_TRACER.span("manager", "handle_fault")
        assert a is b
        with a as span:
            span.set_attr("k", "v")

    def test_null_objects_read_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_INJECTOR.enabled is False
        assert NULL_JOURNAL.enabled is False


class TestFaultPathAllocations:
    def test_serviced_faults_allocate_nothing_for_tracing(self):
        """A full Figure-2 drive with the nulls installed retains zero
        blocks from the trace, record, injector, or contracts modules."""
        schedule = figure2_schedule()
        # warm-up drive: fills import-time and memoization caches so the
        # measured drive sees only steady-state fault-path allocations
        system, _manager, segments = build_vpp_system(schedule)
        drive_vpp(system, schedule, segments)

        system, _manager, segments = build_vpp_system(schedule)
        kernel = system.kernel
        assert kernel.tracer is NULL_TRACER
        assert kernel.injector is NULL_INJECTOR
        assert kernel.journal is NULL_JOURNAL
        assert not kernel._fault_listeners
        assert not kernel._fault_step_listeners
        assert not kernel._failover_listeners

        tracemalloc.start()
        try:
            drive_vpp(system, schedule, segments)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        assert kernel.stats.faults > 0  # the drive really faulted
        for path in _OBSERVABILITY_FILES:
            assert _blocks_allocated_in(snapshot, path) == 0, (
                f"null-dispatch fault path allocated blocks in {path}"
            )


class _NoCheck:
    """Stands in for the invariant checker while the drive is profiled
    (the checker reads flag sets on purpose; the fault path must not)."""

    def check_all(self) -> None:
        pass


def _enum_calls(fn) -> Counter:
    """Python-level calls into ``enum.py`` while ``fn()`` runs, by
    (function, calling file:function)."""
    calls: Counter = Counter()
    enum_file = enum.__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum_file:
            caller = frame.f_back.f_code
            calls[(frame.f_code.co_name,
                   f"{caller.co_filename}:{caller.co_name}")] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestFaultPathEnumFree:
    """The trap -> resolve -> dispatch -> MigratePages -> install loop
    runs on ints and module-level members: no ``PageFlags(...)``
    construction, no ``.name`` property read, no enum operator."""

    def test_profiler_sees_enum_calls(self):
        """Control: the probe does count a flag-set construction."""
        calls = _enum_calls(lambda: PageFlags(3))
        assert sum(calls.values()) > 0

    def test_reclaim_heavy_serving_calls_no_enum_code(self):
        system, drive = REGISTRY["serve-thrash"].boot()
        kernel = system.kernel
        faults = kernel.stats.faults
        calls = _enum_calls(lambda: drive(_NoCheck()))
        managers = {
            seg.manager for seg in kernel.segments()
            if isinstance(seg.manager, GenericSegmentManager)
        }
        # the drive really faulted and the tenants really reclaimed
        assert kernel.stats.faults - faults > 50
        assert sum(m.pages_reclaimed for m in managers) > 0
        assert not calls, f"enum.py calls on the fault path: {dict(calls)}"
