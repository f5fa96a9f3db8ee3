"""API v3 facade: request/result construction, typed kernel entries.

Every public caller goes through the typed request/result dataclasses
of :mod:`repro.core.api`; each kernel primitive and manager callback has
exactly one public call form (in-process managers and the SPCM use the
internal entry the facade delegates to; see ``test_migrate_entry``).
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.api import (
    API_VERSION,
    AdmitTenantRequest,
    AdmitTenantResult,
    BatchMigratePagesRequest,
    BatchMigratePagesResult,
    BatchStats,
    FrameDemand,
    FrameGrant,
    GetPageAttributesRequest,
    GetPageAttributesResult,
    MigratePagesRequest,
    MigratePagesResult,
    ModifyPageFlagsRequest,
    ModifyPageFlagsResult,
    PageAttribute,
    RetryAfter,
    SetSegmentManagerRequest,
    SetSegmentManagerResult,
    TenantQuota,
)
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.core.manager_api import SegmentManager
from repro.errors import HardwareError
from repro.hw.numa import NumaTopology
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


class TestPayloadRoundTrips:
    """Request/result dataclasses: construction, coercion, validation."""

    def test_api_version(self):
        assert API_VERSION == (3, 0)

    def test_page_attribute(self):
        attr = PageAttribute(
            page=3,
            present=True,
            flags=PageFlags.READ | PageFlags.DIRTY,
            pfn=17,
            phys_addr=17 * 4096,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            attr.pfn = 18  # type: ignore[misc]

    def test_page_attribute_absent(self):
        attr = PageAttribute(
            page=0, present=False, flags=PageFlags.NONE, pfn=None,
            phys_addr=None,
        )
        assert not attr.present
        assert attr.pfn is None and attr.phys_addr is None

    def test_batch_stats(self):
        # a bare MigratePages is one call; only batches merge counts up
        assert BatchStats() == BatchStats(
            n_calls=1, n_pages=0, zero_fills=0, cow_copies=0,
            local_pages=0, remote_pages=0,
        )

    def test_migrate_pages_request(self):
        req = MigratePagesRequest(
            src=1, dst=2, src_page=3, dst_page=4, n_pages=5,
            set_flags=int(PageFlags.PINNED),  # type: ignore[arg-type]
            clear_flags=int(PageFlags.DIRTY),  # type: ignore[arg-type]
            home_node=1,
        )
        assert type(req.set_flags) is PageFlags
        assert req.set_flags == PageFlags.PINNED
        assert type(req.clear_flags) is PageFlags
        assert req.clear_flags == PageFlags.DIRTY

    def test_migrate_pages_request_coerces_segments(self, kernel):
        seg = kernel.create_segment(1, name="coerce")
        req = MigratePagesRequest(seg, seg, 0, 0)
        assert req.src == seg.seg_id
        assert req.dst == seg.seg_id

    def test_migrate_pages_result(self):
        result = MigratePagesResult(
            moved_pfns=(9, 10, 11),
            batch=BatchStats(n_pages=3, local_pages=3),
        )
        assert result.n_pages == 3

    def test_modify_page_flags_request(self, kernel):
        seg = kernel.create_segment(2, name="flags")
        req = ModifyPageFlagsRequest(
            segment=seg, page=1, n_pages=1,
            set_flags=int(PageFlags.READ),  # type: ignore[arg-type]
            clear_flags=PageFlags.REFERENCED,
        )
        assert req.segment == seg.seg_id
        assert type(req.set_flags) is PageFlags
        assert req.set_flags == PageFlags.READ

    def test_modify_page_flags_result(self):
        result = ModifyPageFlagsResult(modified=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.modified = 6  # type: ignore[misc]

    def test_get_page_attributes_request(self, kernel):
        seg = kernel.create_segment(8, name="attrs")
        req = GetPageAttributesRequest(segment=seg, page=0, n_pages=8)
        assert req.segment == seg.seg_id
        with pytest.raises(TypeError):
            GetPageAttributesRequest(segment="attrs", page=0)

    def test_get_page_attributes_result(self):
        result = GetPageAttributesResult(
            attributes=(
                PageAttribute(0, True, PageFlags.READ, 1, 4096),
                PageAttribute(1, False, PageFlags.NONE, None, None),
            )
        )
        assert [a.present for a in result.attributes] == [True, False]

    def test_set_segment_manager_request(self, system):
        seg = system.kernel.create_segment(1, name="bind")
        manager = system.default_manager
        req = SetSegmentManagerRequest(segment=seg, manager=manager)
        assert req.segment == seg.seg_id
        assert req.manager is manager

    def test_set_segment_manager_result(self, system):
        kernel = system.kernel
        other = GenericSegmentManager(
            kernel, system.spcm, "other", initial_frames=0
        )
        seg = kernel.create_segment(2, manager=system.default_manager)
        result = kernel.set_segment_manager(
            SetSegmentManagerRequest(seg, other)
        )
        assert result == SetSegmentManagerResult(system.default_manager.name)
        assert seg.manager is other

    def test_frame_demand(self):
        demand = FrameDemand(n_frames=4)
        assert demand.node is None
        assert demand.reason == "pressure"

    def test_frame_demand_rejects_negative(self):
        with pytest.raises(ValueError):
            FrameDemand(-1)

    def test_frame_grant(self):
        grant = FrameGrant(pages=[2, 5, 7], node=0)  # type: ignore[arg-type]
        assert grant.pages == (2, 5, 7)
        assert grant.n_frames == 3
        assert grant

    def test_frame_grant_empty(self):
        grant = FrameGrant.empty()
        assert not grant
        assert grant.n_frames == 0
        assert grant == FrameGrant(())

    # -- the v2.1 serving vocabulary ------------------------------------

    def test_batch_migrate_pages_request(self):
        req = BatchMigratePagesRequest(
            requests=(
                MigratePagesRequest(1, 2, 0, 0, 4, home_node=0),
                MigratePagesRequest(1, 2, 8, 4, 2, home_node=1),
            )
        )
        assert req.n_requests == 2
        assert req.n_pages == 6

    def test_batch_migrate_pages_request_coerces_tuple(self):
        req = BatchMigratePagesRequest(
            requests=[MigratePagesRequest(1, 2, 0, 0, 1)]  # type: ignore[arg-type]
        )
        assert type(req.requests) is tuple

    def test_batch_migrate_pages_result(self):
        result = BatchMigratePagesResult(
            moved_pfns=(3, 4, 5),
            batch=BatchStats(n_calls=2, n_pages=3, local_pages=3),
            n_requests=2,
        )
        assert result.n_pages == 3

    def test_retry_after(self):
        shed = RetryAfter(tenant="tenant-3", retry_after_us=0.0)
        assert shed.reason == "admission"

    def test_retry_after_rejects_negative(self):
        with pytest.raises(ValueError):
            RetryAfter("t", -1.0)

    def test_tenant_quota(self):
        # zero is a legal quota: the tenant may hold no frames at all
        quota = TenantQuota(account="tenant-0", frames=0, dram_mb=0.0)
        assert quota.frames == 0 and quota.dram_mb == 0.0

    def test_tenant_quota_unlimited_axes(self):
        quota = TenantQuota(account="tenant-1")
        assert quota.frames is None and quota.dram_mb is None

    def test_tenant_quota_rejects_negative(self):
        with pytest.raises(ValueError):
            TenantQuota("t", frames=-1)
        with pytest.raises(ValueError):
            TenantQuota("t", dram_mb=-0.5)

    def test_admit_tenant_request(self):
        quota = TenantQuota("tenant-7", frames=8)
        req = AdmitTenantRequest(
            tenant="tenant-7",
            home_node=1,
            working_set_pages=32,
            quota=quota,
        )
        assert req.quota is quota

    def test_admit_tenant_request_no_quota(self):
        req = AdmitTenantRequest(tenant="solo")
        assert req.home_node is None
        assert req.working_set_pages == 16
        assert req.quota is None

    def test_admit_tenant_request_rejects_bad_args(self):
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="")
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="t", working_set_pages=0)
        with pytest.raises(ValueError):
            AdmitTenantRequest(tenant="t", working_set_pages=-1)

    def test_admit_tenant_result_admitted(self):
        result = AdmitTenantResult(admitted=True, tenant="tenant-2")
        assert result.account is None
        assert result.retry_after is None

    def test_admit_tenant_result_shed(self):
        shed = RetryAfter("tenant-9", 250.0, reason="capacity")
        result = AdmitTenantResult(
            admitted=False, tenant="tenant-9", retry_after=shed
        )
        assert not result.admitted
        assert result.retry_after.reason == "capacity"


class TestTypedKernelEntries:
    """Each primitive and manager callback has exactly one call form."""

    @pytest.mark.parametrize(
        "method",
        [
            Kernel.set_segment_manager,
            Kernel.migrate_pages,
            Kernel.migrate_pages_batch,
            Kernel.modify_page_flags,
            Kernel.get_page_attributes,
            SegmentManager.release_frames,
            SegmentManager.on_frames_seized,
            GenericSegmentManager.release_frames,
            GenericSegmentManager.on_frames_seized,
        ],
        ids=lambda m: m.__qualname__,
    )
    def test_one_typed_argument(self, method):
        _self, *rest = inspect.signature(method).parameters.values()
        assert len(rest) == 1
        assert rest[0].default is inspect.Parameter.empty

    def test_migrate_pages_batch_typed_form(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(4, manager=system.default_manager)
        boot = kernel.initial_segment
        pages = sorted(boot.pages)[:2]
        result = kernel.migrate_pages_batch(
            BatchMigratePagesRequest(
                (
                    MigratePagesRequest(boot, seg, pages[0], 0, 1),
                    MigratePagesRequest(boot, seg, pages[1], 1, 1),
                )
            )
        )
        assert isinstance(result, BatchMigratePagesResult)
        assert result.n_requests == 2
        assert result.n_pages == 2
        assert result.batch.n_calls == 2

    def test_migrate_pages_batch_typed_empty(self, kernel):
        result = kernel.migrate_pages_batch(BatchMigratePagesRequest(()))
        assert result == BatchMigratePagesResult(
            (), BatchStats(n_calls=0), 0
        )


class TestTopologyValidation:
    """Node boundaries are checked wherever a topology meets a machine."""

    def test_for_memory_requires_divisible_size(self, memory):
        with pytest.raises(HardwareError):
            NumaTopology.for_memory(memory, 3)  # 4 MB does not split by 3

    def test_validate_for_rejects_short_topology(self, memory):
        bad = NumaTopology(n_nodes=2, node_bytes=memory.size_bytes // 4)
        with pytest.raises(HardwareError):
            bad.validate_for(memory)

    def test_kernel_rejects_mismatched_topology(self, memory):
        bad = NumaTopology(n_nodes=2, node_bytes=memory.size_bytes)
        with pytest.raises(HardwareError):
            Kernel(memory, topology=bad)

    def test_spcm_rejects_mismatched_topology(self, memory):
        kernel = Kernel(memory)
        bad = NumaTopology(n_nodes=4, node_bytes=memory.size_bytes)
        with pytest.raises(HardwareError):
            SystemPageCacheManager(kernel, topology=bad)

    def test_matching_topology_boots_sharded(self, memory):
        topology = NumaTopology.for_memory(memory, 2)
        kernel = Kernel(memory, topology=topology)
        spcm = SystemPageCacheManager(kernel)
        assert spcm.n_shards == 2
        assert [shard.node for shard in spcm.shards] == [0, 1]
