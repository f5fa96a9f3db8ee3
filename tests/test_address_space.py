"""Address-space composition (Figure 1)."""

from __future__ import annotations

import pytest

from repro.core.address_space import (
    RegionSpec,
    build_address_space,
    build_figure1_layout,
)
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.errors import ProtectionError, SegmentError
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel)
    manager = GenericSegmentManager(kernel, spcm, "app", initial_frames=128)
    return kernel, manager


class TestBuilder:
    def test_regions_placed_in_order_with_guards(self, world):
        kernel, manager = world
        vas = build_address_space(
            kernel,
            manager,
            [
                RegionSpec("a", 4),
                RegionSpec("b", 4, guard_pages=2),
                RegionSpec("c", 2, start_page=20),
            ],
        )
        assert vas.region("a").start_page == 0
        assert vas.region("b").start_page == 6
        assert vas.region("c").start_page == 20
        assert vas.space.n_pages == 22

    def test_empty_spec_rejected(self, world):
        kernel, manager = world
        with pytest.raises(SegmentError):
            build_address_space(kernel, manager, [])

    def test_zero_page_region_rejected(self, world):
        kernel, manager = world
        with pytest.raises(SegmentError):
            build_address_space(kernel, manager, [RegionSpec("a", 0)])

    def test_addr_computes_and_bounds(self, world):
        kernel, manager = world
        vas = build_address_space(
            kernel, manager, [RegionSpec("a", 2), RegionSpec("b", 2)]
        )
        assert vas.addr("a", 0) == 0
        assert vas.addr("b", 100) == 2 * 4096 + 100
        with pytest.raises(SegmentError):
            vas.addr("b", 2 * 4096)
        with pytest.raises(SegmentError):
            vas.region("nope")


class TestFigure1:
    def test_layout_shape(self, world):
        kernel, manager = world
        vas = build_figure1_layout(kernel, manager)
        assert set(vas.regions) == {"code", "data", "stack"}
        # guard gaps between the regions, like the figure
        code, data, stack = (
            vas.region("code"),
            vas.region("data"),
            vas.region("stack"),
        )
        assert code.end_page < data.start_page < data.end_page < stack.start_page

    def test_reads_and_writes_land_in_backing_segments(self, world):
        kernel, manager = world
        vas = build_figure1_layout(kernel, manager)
        vas.write(vas.addr("data", 0))
        vas.write(vas.addr("stack", 4096))
        assert vas.region("data").segment.resident_pages == 1
        assert vas.region("stack").segment.resident_pages == 1
        assert vas.region("code").segment.resident_pages == 0

    def test_code_region_rejects_writes(self, world):
        kernel, manager = world
        vas = build_figure1_layout(kernel, manager)
        vas.read(vas.addr("code", 0))
        faults = kernel.stats.faults
        with pytest.raises(ProtectionError):
            vas.write(vas.addr("code", 0))
        # the read-only binding mask is final: nothing reaches the manager
        assert kernel.stats.faults == faults

    def test_guard_pages_fault_without_manager(self, world):
        kernel, manager = world
        vas = build_figure1_layout(kernel, manager)
        gap_addr = vas.region("code").end_page * 4096
        from repro.errors import NoManagerError

        with pytest.raises(NoManagerError):
            vas.read(gap_addr)

    def test_describe_mentions_every_region(self, world):
        kernel, manager = world
        vas = build_figure1_layout(kernel, manager)
        text = vas.describe()
        for region in ("code", "data", "stack"):
            assert region in text

    def test_cow_region_spec(self, world):
        kernel, manager = world
        template = kernel.create_segment(8, name="template", manager=manager)
        kernel.reference(template, 0, write=True)
        template.pages[0].write(b"tpl")
        vas = build_address_space(
            kernel,
            manager,
            [RegionSpec("data", 8, copy_on_write_of=template)],
        )
        frame = kernel.reference(vas.space, 0, write=True)
        assert frame.read(0, 3) == b"tpl"
        frame.write(b"new")
        assert template.pages[0].read(0, 3) == b"tpl"
