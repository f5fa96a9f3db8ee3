"""Fault descriptions and trace rendering."""

from __future__ import annotations

import inspect

import pytest

from repro.core.faults import FaultKind, FaultTrace, PageFault, TraceStep


class TestPageFault:
    def test_describe(self):
        assert PageFault(3, 7, FaultKind.MISSING_PAGE, True).describe() == (
            "MISSING_PAGE fault: write of page 7 in segment 3"
        )
        assert PageFault(3, 7, FaultKind.PROTECTION, False).describe() == (
            "PROTECTION fault: read of page 7 in segment 3"
        )
        assert PageFault(1, 2, FaultKind.COPY_ON_WRITE, True).describe() == (
            "COPY_ON_WRITE fault: write of page 2 in segment 1"
        )

    def test_frozen(self):
        fault = PageFault(1, 2, FaultKind.COPY_ON_WRITE, write=True)
        for field in ("segment_id", "page", "kind", "write", "space_id",
                      "vaddr"):
            with pytest.raises(AttributeError):
                setattr(fault, field, 3)

    def test_fields_and_defaults(self):
        params = inspect.signature(PageFault).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("segment_id", inspect.Parameter.empty),
            ("page", inspect.Parameter.empty),
            ("kind", inspect.Parameter.empty),
            ("write", inspect.Parameter.empty),
            ("space_id", None),
            ("vaddr", None),
        ]
        fault = PageFault(1, 2, FaultKind.MISSING_PAGE, False, 3, 8192)
        assert (fault.segment_id, fault.page, fault.kind, fault.write,
                fault.space_id, fault.vaddr) == (
            1, 2, FaultKind.MISSING_PAGE, False, 3, 8192
        )


class TestFaultTrace:
    def test_steps_numbered_in_order(self):
        trace = FaultTrace()
        trace.add("application", "traps", 20.0)
        trace.add("kernel", "forwards", 15.0)
        trace.add("manager", "resolves")
        assert [s.step for s in trace.steps] == [1, 2, 3]
        assert trace.total_cost_us == 35.0

    def test_render_shows_actors_and_costs(self):
        trace = FaultTrace()
        trace.add("kernel", "forwards fault", 15.0)
        trace.add("manager", "migrates frame")
        text = trace.render()
        assert "[kernel]" in text
        assert "(15 us)" in text
        assert "[manager] migrates frame" in text

    def test_trace_step_fields(self):
        step = TraceStep(1, "kernel", "x", 5.0)
        assert (step.step, step.actor, step.action, step.cost_us) == (
            1,
            "kernel",
            "x",
            5.0,
        )
