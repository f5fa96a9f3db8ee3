"""The invariant checker as a system auditor: catches injected corruption.

Each case corrupts one structure by hand and asserts that
:class:`~repro.chaos.invariants.InvariantChecker` names it.
"""

from __future__ import annotations

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.errors import InvariantViolationError
from repro.managers.base import GenericSegmentManager


def violations(system) -> list[str]:
    return InvariantChecker(system.kernel).violations()


class TestCleanSystems:
    def test_fresh_system_is_consistent(self, system):
        checker = InvariantChecker(system.kernel)
        assert checker.violations() == []
        assert checker.checks_run == 1

    def test_exercised_system_is_consistent(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "work", initial_frames=64
        )
        seg = kernel.create_segment(32, manager=manager)
        for page in range(32):
            kernel.reference(seg, page * 4096, write=(page % 2 == 0))
        manager.reclaim_pages(8)
        manager.return_frames(4)
        file_seg = kernel.create_segment(
            0, name="f", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(file_seg)
        system.uio.write(file_seg, 0, b"x" * (8 * 4096))
        assert violations(system) == []


class TestInjectedCorruption:
    def test_detects_lost_frame(self, system):
        boot = system.kernel.initial_segment
        page = next(iter(boot.pages))
        frame = boot.pages.pop(page)  # corruption: the frame vanishes
        assert violations(system) == [
            f"frame pfn={frame.pfn} lost: owned by no segment and not "
            "retired",
            f"SPCM free list names boot page {page} (size 4096) which "
            "holds no frame",
        ]

    def test_detects_double_ownership(self, system):
        kernel = system.kernel
        boot = kernel.initial_segment
        seg = kernel.create_segment(4, name="dup")
        page = next(iter(boot.pages))
        seg.pages[0] = boot.pages[page]  # corruption: filed twice
        assert any("owned twice" in v for v in violations(system))

    def test_detects_bad_backref(self, system):
        boot = system.kernel.initial_segment
        frame = next(iter(boot.pages.values()))
        frame.owner_segment_id = 9999  # corruption
        assert any(
            "back-pointer names segment 9999" in v for v in violations(system)
        )

    def test_detects_stale_translation(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "stale", initial_frames=16
        )
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0, write=True)
        # corruption: move the frame without the kernel's shootdown
        frame = seg.pages.pop(0)
        spare = kernel.create_segment(4, name="spare")
        spare.pages[0] = frame
        frame.owner_segment_id = spare.seg_id
        found = violations(system)
        assert any(v.startswith("TLB entry") for v in found)
        assert any(v.startswith("page table entry") for v in found)

    def test_detects_malformed_tlb_payload(self, system):
        system.kernel.tlb.insert(1, 7, 42)  # corruption: bare pfn
        assert violations(system) == [
            "TLB entry space 1 vpn 7 caches 42, not a (pfn, writable) pair"
        ]

    def test_detects_manager_slot_confusion(self, system):
        manager = GenericSegmentManager(
            system.kernel, system.spcm, "confused", initial_frames=8
        )
        slot = manager._free_slots[0]
        manager._empty_slots.append(slot)  # corruption: both lists
        assert violations(system) == [
            f"manager confused: slot {slot} is both free and empty",
            f"manager confused: empty slot {slot} still holds a frame",
        ]

    def test_detects_unbacked_free_slot(self, system):
        manager = GenericSegmentManager(
            system.kernel, system.spcm, "unbacked", initial_frames=0
        )
        manager._free_slots.append(3)  # corruption: no frame at slot 3
        assert violations(system) == [
            "manager unbacked: free slot 3 holds no frame"
        ]

    def test_detects_migrate_back_disagreement(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "cache", initial_frames=8
        )
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0)
        manager.reclaim_pages(1)
        ((slot, origin),) = manager._stale_origin.items()
        manager._stale_slot[origin] = slot + 1  # corruption
        assert violations(system) == [
            f"manager cache: migrate-back maps disagree at {origin}"
        ]
        manager._stale_slot[origin] = slot
        manager._free_slots.remove(slot)  # corruption: cache names it
        manager._empty_slots.append(slot)
        found = violations(system)
        assert (
            f"manager cache: migrate-back cache names slot {slot}, which "
            "is not free"
        ) in found
        manager._stale_slot[(99, 99)] = slot  # corruption: no reverse
        assert any("maps differ in size" in v for v in violations(system))

    def test_manager_reachable_only_through_segments_is_checked(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "orphan", initial_frames=4
        )
        kernel.create_segment(2, manager=manager)
        del system.spcm.managers["orphan"]
        manager._empty_slots.append(manager._free_slots[0])
        assert any(v.startswith("manager orphan:") for v in violations(system))

    def test_detects_spcm_pool_drift(self, system):
        pool = system.spcm._free[4096]
        pool.append(999_999)  # corruption: a page the boot segment lacks
        assert violations(system) == [
            "SPCM free list names boot page 999999 (size 4096) which "
            "holds no frame"
        ]
        pool.remove(999_999)
        page = pool[0]
        pool.remove(page)  # corruption: a free frame the pool forgot
        assert violations(system) == [
            f"boot page {page} (size 4096) holds a frame the SPCM free "
            "list does not name"
        ]

    def test_detects_unsorted_pool(self, system):
        pool = system.spcm._free[4096]
        bucket = pool._buckets[0]
        bucket[0], bucket[1] = bucket[1], bucket[0]  # corruption
        assert violations(system) == [
            "SPCM free list (size 4096) is not sorted"
        ]

    def test_raise_if_failed(self, system):
        boot = system.kernel.initial_segment
        del boot.pages[next(iter(boot.pages))]
        with pytest.raises(InvariantViolationError, match="2 invariant"):
            InvariantChecker(system.kernel).check_all()

    def test_clean_report_does_not_raise(self, system):
        InvariantChecker(system.kernel).check_all()
