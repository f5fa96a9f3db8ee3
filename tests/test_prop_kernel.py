"""Property-based kernel invariants.

Invariant 1 (DESIGN.md): every physical frame is owned by exactly one
segment at all times, under arbitrary interleavings of migrations,
references, reclamations and segment deletion.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.chaos.invariants import InvariantChecker
from repro.core.api import MigratePagesRequest
from repro.core.kernel import Kernel
from repro.errors import KernelError, OutOfFramesError
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.base import GenericSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

N_SEGMENTS = 4
PAGES_PER_SEGMENT = 8


class KernelMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self.kernel = Kernel(PhysicalMemory(256 * 4096))
        self.spcm = SystemPageCacheManager(
            self.kernel, policy=ReservePolicy(reserve_frames=0)
        )
        self.manager = GenericSegmentManager(
            self.kernel, self.spcm, "prop", initial_frames=32
        )
        self.segments = [
            self.kernel.create_segment(
                PAGES_PER_SEGMENT, name=f"s{i}", manager=self.manager
            )
            for i in range(N_SEGMENTS)
        ]

    @rule(
        seg=st.integers(0, N_SEGMENTS - 1),
        page=st.integers(0, PAGES_PER_SEGMENT - 1),
        write=st.booleans(),
    )
    def touch(self, seg, page, write):
        try:
            self.kernel.reference(
                self.segments[seg], page * 4096, write=write
            )
        except OutOfFramesError:
            pass

    @rule(
        seg=st.integers(0, N_SEGMENTS - 1),
        page=st.integers(0, PAGES_PER_SEGMENT - 1),
    )
    def reclaim(self, seg, page):
        segment = self.segments[seg]
        if page in segment.pages:
            self.manager.reclaim_one(segment, page)

    @rule(n=st.integers(1, 8))
    def reclaim_batch(self, n):
        self.manager.reclaim_pages(n)

    @rule(n=st.integers(1, 16))
    def return_frames(self, n):
        self.manager.return_frames(n)

    @rule(n=st.integers(1, 16))
    def request_frames(self, n):
        self.manager.request_frames(n)

    @rule(
        src=st.integers(0, N_SEGMENTS - 1),
        dst=st.integers(0, N_SEGMENTS - 1),
        src_page=st.integers(0, PAGES_PER_SEGMENT - 1),
        dst_page=st.integers(0, PAGES_PER_SEGMENT - 1),
    )
    def migrate_between_segments(self, src, dst, src_page, dst_page):
        source, dest = self.segments[src], self.segments[dst]
        if source is dest:
            return
        if src_page in source.pages and dst_page not in dest.pages:
            self.kernel.migrate_pages(
                MigratePagesRequest(source, dest, src_page, dst_page, 1)
            )
            # bookkeeping the manager would do
            self.manager._resident.pop((source.seg_id, src_page), None)
            self.manager._resident[(dest.seg_id, dst_page)] = None

    @rule(seg=st.integers(0, N_SEGMENTS - 1))
    def recreate_segment(self, seg):
        self.kernel.delete_segment(self.segments[seg])
        self.segments[seg] = self.kernel.create_segment(
            PAGES_PER_SEGMENT, name=f"s{seg}'", manager=self.manager
        )

    @invariant()
    def frames_conserved(self):
        self.kernel.check_frame_conservation()

    @invariant()
    def full_audit_passes(self):
        assert InvariantChecker(self.kernel).violations() == []

    @invariant()
    def owner_backrefs_consistent(self):
        for segment in self.kernel.segments():
            for page, frame in segment.pages.items():
                assert frame.owner_segment_id == segment.seg_id
                assert frame.page_index == page

    @invariant()
    def manager_stock_is_backed(self):
        free_seg = self.manager.free_segment
        for slot in self.manager._free_slots:
            assert slot in free_seg.pages


TestKernelMachine = KernelMachine.TestCase
TestKernelMachine.settings = settings(
    max_examples=20, stateful_step_count=50, deadline=None
)
