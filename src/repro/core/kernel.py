"""The V++ kernel model: external page-cache management.

The kernel owns the hardware translation structures (global hash page
table and TLB), the segment registry, and the four operations the paper
adds over a conventional VM interface (S2.1):

* :meth:`Kernel.set_segment_manager` — ``SetSegmentManager(seg, manager)``
* :meth:`Kernel.migrate_pages` — ``MigratePages(src, dst, ...)``
* :meth:`Kernel.modify_page_flags` — ``ModifyPageFlags(seg, ...)``
* :meth:`Kernel.get_page_attributes` — ``GetPageAttributes(seg, ...)``

The kernel does **no** page reclamation and **no** writeback; faults it
cannot satisfy from its translation structures are forwarded to the
segment's process-level manager, following the Figure-2 sequence.  On boot
every page frame is placed, in physical-address order, in a well-known
segment from which the System Page Cache Manager hands frames out.

All code paths charge the kernel's :class:`~repro.hw.costs.CostMeter`, so
an experiment can read both elapsed cost and its decomposition.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.contracts import (
    NULL_INJECTOR,
    NULL_JOURNAL,
    IPCFailureMode,
    ManagerFailureMode,
)
from repro.core.api import (
    BatchMigratePagesRequest,
    BatchMigratePagesResult,
    BatchStats,
    GetPageAttributesRequest,
    GetPageAttributesResult,
    MigratePagesRequest,
    MigratePagesResult,
    ModifyPageFlagsRequest,
    ModifyPageFlagsResult,
    PageAttribute,
    SetSegmentManagerRequest,
    SetSegmentManagerResult,
)
from repro.core.faults import (
    COPY_ON_WRITE, MISSING_PAGE, PROTECTION, FaultTrace, PageFault,
)
from repro.core.flags import (
    DIRTY_I, MANAGER_SETTABLE_I, READ_I, REFERENCED_I, RW_I, WRITE_I,
    ZERO_FILL_I, PageFlags,
)
from repro.core.manager_api import SEPARATE_PROCESS, SegmentManager
from repro.core.segment import ResolvedPage, Segment
from repro.errors import (
    ManagerCrashError,
    MigrationError,
    NoManagerError,
    ProtectionError,
    SegmentError,
    UnresolvedFaultError,
)
from repro.hw.costs import DECSTATION_5000_200, CostMeter, MachineCosts
from repro.hw.numa import NumaTopology
from repro.hw.page_table import GlobalHashPageTable, Translation
from repro.hw.phys_mem import PageFrame, PhysicalMemory
from repro.hw.tlb import TLB
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Kernel", "KernelStats", "PageAttribute"]

#: Maximum times a single reference retries after fault handling before the
#: kernel declares the fault unresolvable.
MAX_FAULT_RETRIES = 8

#: After this many fruitless manager deliveries on one reference, the kernel
#: stops trusting the manager and fails the segment over to the fallback
#: (must be < MAX_FAULT_RETRIES so the fallback still gets retries).
FAILOVER_AFTER_ATTEMPTS = 4

#: Dropped fault messages are redelivered this many times before the kernel
#: declares the manager unreachable.
IPC_MAX_REDELIVERIES = 3

# Injected failure modes as module globals: the dispatch path compares
# against them by identity on every fault, and a global load is cheaper
# than an attribute lookup on an Enum class.
_CRASH = ManagerFailureMode.CRASH
_HANG = ManagerFailureMode.HANG
_BYZANTINE = ManagerFailureMode.BYZANTINE


@dataclass
class KernelStats:
    """Counters the evaluation section reads."""

    references: int = 0
    faults: int = 0
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    migrate_calls: int = 0
    migrate_batches: int = 0
    pages_migrated: int = 0
    numa_local_pages: int = 0
    numa_remote_pages: int = 0
    modify_flags_calls: int = 0
    get_attributes_calls: int = 0
    set_manager_calls: int = 0
    zero_fills: int = 0
    cow_copies: int = 0
    # graceful-degradation counters (chaos runs; all zero in healthy runs;
    # ``faults`` counts deliveries, so a failed-over fault counts twice)
    manager_timeouts: int = 0
    manager_crashes: int = 0
    manager_failovers: int = 0
    fallback_resolutions: int = 0
    byzantine_replies: int = 0
    ipc_drops: int = 0
    ipc_duplicates: int = 0
    ecc_retirements: int = 0
    #: crashed managers rebuilt from checkpoint + journal replay instead
    #: of failing over cold
    warm_restarts: int = 0
    #: exceptions swallowed from fault/failover listeners (the hooks are
    #: observability, never control flow)
    listener_errors: int = 0
    #: manager invocations by manager name (Table 3, column 1)
    manager_calls: dict[str, int] = field(default_factory=dict)
    #: MigratePages invocations by calling manager name (Table 3, column 2)
    migrate_calls_by_manager: dict[str, int] = field(default_factory=dict)
    #: outermost fault services on a serving tenant's segment
    tenant_faults: dict[str, int] = field(default_factory=dict)
    #: summed metered latency of those services, by tenant
    tenant_fault_us: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Flat scalar view for :class:`repro.obs.MetricsRegistry`."""
        out: dict[str, float] = {
            "references": float(self.references),
            "faults": float(self.faults),
            "migrate_calls": float(self.migrate_calls),
            "migrate_batches": float(self.migrate_batches),
            "pages_migrated": float(self.pages_migrated),
            "numa_local_pages": float(self.numa_local_pages),
            "numa_remote_pages": float(self.numa_remote_pages),
            "modify_flags_calls": float(self.modify_flags_calls),
            "get_attributes_calls": float(self.get_attributes_calls),
            "set_manager_calls": float(self.set_manager_calls),
            "zero_fills": float(self.zero_fills),
            "cow_copies": float(self.cow_copies),
            "manager_timeouts": float(self.manager_timeouts),
            "manager_crashes": float(self.manager_crashes),
            "manager_failovers": float(self.manager_failovers),
            "fallback_resolutions": float(self.fallback_resolutions),
            "byzantine_replies": float(self.byzantine_replies),
            "ipc_drops": float(self.ipc_drops),
            "ipc_duplicates": float(self.ipc_duplicates),
            "ecc_retirements": float(self.ecc_retirements),
            "warm_restarts": float(self.warm_restarts),
            "listener_errors": float(self.listener_errors),
        }
        for kind, n in self.faults_by_kind.items():
            out[f"faults.{kind.lower()}"] = float(n)
        for name, n in self.manager_calls.items():
            out[f"manager_calls.{name}"] = float(n)
        for name, n in self.tenant_faults.items():
            out[f"tenant_faults.{name}"] = float(n)
        return out

    def note_manager_call(self, manager_name: str) -> None:
        """Count one request forwarded to ``manager_name``."""
        self.manager_calls[manager_name] = (
            self.manager_calls.get(manager_name, 0) + 1
        )

    def note_tenant_fault(self, tenant: str, latency_us: float) -> None:
        """Book one outermost fault service against ``tenant``."""
        self.tenant_faults[tenant] = self.tenant_faults.get(tenant, 0) + 1
        self.tenant_fault_us[tenant] = (
            self.tenant_fault_us.get(tenant, 0.0) + latency_us
        )


class Kernel:
    """The V++ kernel: segments, translation, fault forwarding."""

    def __init__(
        self,
        memory: PhysicalMemory,
        costs: MachineCosts = DECSTATION_5000_200,
        meter: CostMeter | None = None,
        tlb: TLB | None = None,
        page_table: GlobalHashPageTable | None = None,
        tracer: Tracer | NullTracer = NULL_TRACER,
        topology: NumaTopology | None = None,
    ) -> None:
        self.memory = memory
        self.costs = costs
        # one fault-delivery IPC leg (message + context switch), summed
        # once: charged twice per separate-process fault delivery
        self._ipc_round_cost = costs.ipc_message + costs.context_switch
        #: NUMA topology of the machine (None models flat UMA memory);
        #: validated against the physical memory at construction so a
        #: mismatched node_bytes cannot survive to the first remote access
        if topology is not None:
            topology.validate_for(memory)
        self.topology = topology
        self.meter = meter if meter is not None else CostMeter()
        self.tlb = tlb if tlb is not None else TLB()
        self.page_table = (
            page_table if page_table is not None else GlobalHashPageTable()
        )
        self.stats = KernelStats()
        #: when set, fault handling appends Figure-2 style steps here
        self.trace: FaultTrace | None = None
        #: structured span/event collector (NULL_TRACER when disabled);
        #: its clock follows this kernel's cost meter
        self.tracer = tracer
        if tracer.enabled and getattr(tracer, "clock", None) is None:
            tracer.clock = lambda: self.meter.total_us  # type: ignore[union-attr]
        self.tlb.tracer = tracer
        #: fault injector (NULL_INJECTOR when chaos is disabled)
        self.injector = NULL_INJECTOR
        #: recovery write-ahead journal (NULL_JOURNAL when recovery is off)
        self.journal = NULL_JOURNAL
        #: recovery coordinator, when installed (warm-restarts crashed
        #: managers before the cold failover path below)
        self._recovery = None
        #: manager the kernel fails segments over to when their own manager
        #: crashes, hangs, or keeps failing (``build_system`` points this at
        #: the default manager; None disables failover)
        self.fallback_manager: SegmentManager | None = None
        #: the SPCM, once booted (lets the kernel trigger forcible reclaim
        #: of a dead manager's frames and report ECC retirements)
        self.spcm = None
        #: pfns removed from service after an uncorrectable ECC error
        self.retired_frames: set[int] = set()
        # set while a failed-over fault is being retried, so the resolving
        # reference can be attributed to the fallback manager
        self._failover_pending = False
        # continuous-telemetry listeners: called with the metered latency
        # of each completed outermost fault service / failover.  Empty
        # lists keep the fault path cost-free when telemetry is off.
        self._fault_listeners: list = []
        self._failover_listeners: list = []
        # per-fault step listeners: called with the faulting (space, vpn,
        # write, latency_us, pfn) of each completed outermost slow-path
        # entry; the verify harness records its digest chain here
        self._fault_step_listeners: list = []
        # sim time at which an in-flight manager degradation was detected
        # (failover duration is measured from here, not from reassignment)
        self._degradation_start: float | None = None
        self._fault_depth = 0
        self._segments: dict[int, Segment] = {}
        self._next_seg_id = 0
        # pfn -> {(space_id, vpn)} reverse map for translation shootdown
        self._frame_translations: dict[int, set[tuple[int, int]]] = {}
        # who is invoking kernel operations (Table 3 counts MigratePages
        # calls per invoking module); innermost attribution wins
        self._attribution: list[str] = []
        # Boot: one well-known segment per frame size, all frames in
        # physical-address order (paper, S2.1).
        self.boot_segments: dict[int, Segment] = {}
        for frame in memory.frames():
            boot = self.boot_segments.get(frame.page_size)
            if boot is None:
                boot = self.create_segment(
                    0,
                    page_size=frame.page_size,
                    name=f"physmem-{frame.page_size}",
                    auto_grow=True,
                )
                self.boot_segments[frame.page_size] = boot
            page = boot.n_pages
            boot.grow(1)
            boot.pages[page] = frame
            frame.owner_segment_id = boot.seg_id
            frame.page_index = page
            frame.flags = RW_I
        self.initial_segment = self.boot_segments.get(
            memory.page_size,
            next(iter(self.boot_segments.values()), None),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # segment lifecycle
    # ------------------------------------------------------------------

    def create_segment(
        self,
        n_pages: int,
        page_size: int | None = None,
        name: str = "",
        manager: SegmentManager | None = None,
        prot: PageFlags = PageFlags.READ | PageFlags.WRITE,
        cow_source: Segment | None = None,
        auto_grow: bool = False,
    ) -> Segment:
        """Create a segment; optionally COW-sourced, optionally managed."""
        size = page_size if page_size is not None else self.memory.page_size
        if cow_source is not None and cow_source.page_size != size:
            raise SegmentError("COW source must share the page size")
        segment = Segment(
            self._next_seg_id,
            n_pages,
            size,
            name=name,
            prot=prot,
            cow_source=cow_source,
            auto_grow=auto_grow,
        )
        self._next_seg_id += 1
        self._segments[segment.seg_id] = segment
        if manager is not None:
            self._set_segment_manager(segment, manager)
        return segment

    def segment(self, seg_id: int) -> Segment:
        """The segment with ``seg_id`` (raises for unknown ids)."""
        try:
            return self._segments[seg_id]
        except KeyError:
            raise SegmentError(f"no such segment: {seg_id}") from None

    def segments(self) -> list[Segment]:
        """All live segments."""
        return list(self._segments.values())

    def delete_segment(self, segment: Segment) -> None:
        """Delete a segment: notify the manager, sweep leftover frames.

        The manager "is informed when a segment it manages is closed or
        deleted, so that it can reclaim the segment page frames at that
        time" (S2.2).  Frames the manager leaves behind are swept back to
        the boot segment by the kernel.
        """
        if segment.deleted:
            raise SegmentError(f"segment {segment.name} already deleted")
        for other in self._segments.values():
            if other is segment:
                continue
            if any(b.target is segment for b in other.bindings):
                raise SegmentError(
                    f"segment {segment.name} is bound into {other.name}; "
                    "unbind before deleting"
                )
            if other.cow_source is segment:
                raise SegmentError(
                    f"segment {segment.name} is the COW source of "
                    f"{other.name}; delete that first"
                )
        if segment.manager is not None:
            self.stats.note_manager_call(segment.manager.name)
            segment.manager.segment_deleted(segment)
            segment.manager.managed.discard(segment.seg_id)
        if segment.pages:
            boot = self.boot_segments[segment.page_size]
            for page in sorted(segment.pages):
                dst = boot.n_pages
                boot.grow(1)
                self._migrate(segment, boot, page, dst)
        segment.deleted = True
        del self._segments[segment.seg_id]
        self.tlb.flush_space(segment.seg_id)
        self.page_table.remove_space(segment.seg_id)

    # ------------------------------------------------------------------
    # the four external page-cache management operations
    # ------------------------------------------------------------------

    @property
    def _tracing(self) -> bool:
        """True when any trace surface wants Figure-2 step text."""
        return self.trace is not None or self.tracer.enabled

    def _step(self, actor: str, action: str, cost_us: float = 0.0) -> None:
        """Dual-emit one Figure-2 step to the FaultTrace and the tracer."""
        if self.trace is not None:
            self.trace.add(actor, action, cost_us)
        if self.tracer.enabled:
            self.tracer.event(actor, action, cost_us)

    def set_segment_manager(
        self, request: SetSegmentManagerRequest
    ) -> SetSegmentManagerResult:
        """``SetSegmentManager(seg, manager)``.

        Returns a :class:`~repro.core.api.SetSegmentManagerResult` naming
        the previous manager.
        """
        previous = self._set_segment_manager(
            self.segment(request.segment), request.manager
        )
        return SetSegmentManagerResult(previous)

    def _set_segment_manager(
        self, segment: Segment, manager: SegmentManager
    ) -> str | None:
        """Reassign a segment's manager; returns the previous one's name."""
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"SetSegmentManager: {segment.name} -> {manager.name}",
                self.costs.vpp_set_manager_call,
            )
        self.meter.charge("set_manager", self.costs.vpp_set_manager_call)
        self.stats.set_manager_calls += 1
        previous = segment.manager.name if segment.manager is not None else None
        if segment.manager is not None:
            segment.manager.managed.discard(segment.seg_id)
        segment.manager = manager
        manager.managed.add(segment.seg_id)
        if self.journal.enabled:
            # ground truth for the recovery auditor (not replayed)
            self.journal.append(
                "kernel.bind",
                manager.name,
                seg=segment.seg_id,
                previous=previous,
            )
        return previous

    def migrate_pages(
        self, request: MigratePagesRequest
    ) -> MigratePagesResult:
        """``MigratePages``: move frames from ``src`` to ``dst``.

        Returns a :class:`~repro.core.api.MigratePagesResult` with the
        moved pfns and batch statistics (a ``home_node`` hint splits the
        pages into local/remote and charges the DASH remote penalty for
        off-node frames).

        Migration is the *only* way frames change segments, which is what
        makes the frame-conservation invariant checkable.  Migrating into a
        segment is a write for protection/COW purposes (S2.1): the
        destination must be writable, and a frame arriving at a page still
        shared with a COW source receives a copy of the source data.
        Frames flagged ``ZERO_FILL`` are zeroed in transit (the
        "given to another user" case).

        Bound regions are honored on both sides: "The MigratePages
        operation operates on the page frames in bound regions by
        operating on the associated segments" (S2.1) --- migrating a
        frame to a VAS address range covered by a binding effectively
        migrates it to the bound segment.  The whole page range must lie
        within one binding (or none).
        """
        before = self._migrate_counters()
        moved = self._migrate(
            self.segment(request.src), self.segment(request.dst),
            request.src_page, request.dst_page, request.n_pages,
            int(request.set_flags), int(request.clear_flags),
            home_node=request.home_node,
        )
        return MigratePagesResult(
            tuple([frame.pfn for frame in moved]),
            self._batch_stats(1, len(moved), before),
        )

    def migrate_pages_batch(
        self, request: BatchMigratePagesRequest
    ) -> BatchMigratePagesResult:
        """Several ``MigratePages`` runs in one kernel entry.

        The first run is charged the full ``vpp_migrate_call``;
        subsequent runs only the marginal ``vpp_migrate_batch_extra`` ---
        the batch crosses into the kernel once, the way the paper
        amortizes batched ``MigratePages``.  The sharded SPCM uses this
        to group per-node frame grabs into one shard transaction, and
        the serving layer's batch scheduler coalesces per-(manager,
        node) refills the same way.
        """
        runs = request.requests
        if not runs:
            return BatchMigratePagesResult((), BatchStats(n_calls=0), 0)
        self.stats.migrate_batches += 1
        before = self._migrate_counters()
        moved_pfns: list[int] = []
        cost = self.costs.vpp_migrate_call
        for run in runs:
            moved = self._migrate(
                self.segment(run.src), self.segment(run.dst),
                run.src_page, run.dst_page, run.n_pages,
                int(run.set_flags), int(run.clear_flags),
                cost, run.home_node,
            )
            moved_pfns.extend([frame.pfn for frame in moved])
            cost = self.costs.vpp_migrate_batch_extra
        return BatchMigratePagesResult(
            tuple(moved_pfns),
            self._batch_stats(len(runs), len(moved_pfns), before),
            len(runs),
        )

    def _migrate_counters(self) -> tuple[int, int, int, int]:
        """The counters a :class:`BatchStats` reports, as a snapshot."""
        s = self.stats
        return (
            s.zero_fills, s.cow_copies, s.numa_local_pages, s.numa_remote_pages
        )

    def _batch_stats(
        self, n_calls: int, n_pages: int, before: tuple[int, int, int, int]
    ) -> BatchStats:
        """What the migrate runs since the ``before`` snapshot did."""
        now = self._migrate_counters()
        return BatchStats(
            n_calls, n_pages, *[a - b for a, b in zip(now, before)]
        )

    def _migrate(
        self,
        src: Segment,
        dst: Segment,
        src_page: int,
        dst_page: int,
        n_pages: int = 1,
        set_i: int = 0,
        clear_i: int = 0,
        cost_us: float | None = None,
        home_node: int | None = None,
    ) -> list[PageFrame]:
        """The one internal ``MigratePages`` entry.

        The public facades resolve their request ids and delegate here;
        in-process managers and the SPCM call it directly with resolved
        segments and int flags.  ``cost_us`` is the kernel-entry charge
        (default ``vpp_migrate_call``; batches pass the marginal cost),
        and a ``home_node`` hint splits the moved frames into NUMA
        local/remote pages and charges the remote penalty.
        """
        if cost_us is None:
            cost_us = self.costs.vpp_migrate_call
        if not self.tracer.enabled:
            moved = self._migrate_pages(
                src, dst, src_page, dst_page, n_pages, set_i, clear_i, cost_us
            )
        else:
            with self.tracer.span(
                "kernel", "MigratePages", src=src.name, dst=dst.name,
                dst_page=dst_page, n_pages=n_pages,
            ):
                moved = self._migrate_pages(
                    src, dst, src_page, dst_page, n_pages, set_i, clear_i,
                    cost_us,
                )
        stats = self.stats
        if self.topology is None or home_node is None:
            stats.numa_local_pages += len(moved)
            return moved
        is_local = self.topology.is_local
        local = 0
        for frame in moved:
            if is_local(home_node, frame.phys_addr):
                local += 1
        remote = len(moved) - local
        if remote:
            penalty = self.costs.numa_remote_penalty_us * remote
            if penalty > 0:
                self.meter.charge("numa_remote_placement", penalty)
        stats.numa_local_pages += local
        stats.numa_remote_pages += remote
        return moved

    def _migrate_pages(
        self,
        src: Segment,
        dst: Segment,
        src_page: int,
        dst_page: int,
        n_pages: int,
        set_i: int,
        clear_i: int,
        cost_us: float,
    ) -> list[PageFrame]:
        # unbound segments (the common fault path) skip the binding walk
        # and take its range/grow checks inline; ``check_page_range`` runs
        # only to raise its error for a range the inline test rejects
        if src.bindings:
            src, src_page = self._through_bindings(src, src_page, n_pages)
        elif n_pages <= 0 or src_page < 0 or src_page + n_pages > src.n_pages:
            src.check_page_range(src_page, n_pages)
        if dst.bindings:
            dst, dst_page = self._through_bindings(
                dst, dst_page, n_pages, allow_grow=True
            )
        else:
            if dst.auto_grow and dst_page + n_pages > dst.n_pages:
                dst.n_pages = dst_page + n_pages
            if n_pages <= 0 or dst_page < 0 or dst_page + n_pages > dst.n_pages:
                dst.check_page_range(dst_page, n_pages)
        self.meter.charge("migrate_pages", cost_us)
        stats = self.stats
        stats.migrate_calls += 1
        attribution = self._attribution
        if attribution:
            by_manager = stats.migrate_calls_by_manager
            name = attribution[-1]
            by_manager[name] = by_manager.get(name, 0) + 1
        if src.page_size != dst.page_size:
            raise MigrationError(
                f"page size mismatch: {src.page_size} vs {dst.page_size}"
            )
        if not (int(dst.prot) & WRITE_I):
            raise ProtectionError(
                f"migration into read-only segment {dst.name}"
            )
        unsupported = (set_i | clear_i) & ~MANAGER_SETTABLE_I
        if unsupported:
            raise MigrationError(
                f"flags not manager-settable: {unsupported:#x}"
            )
        src_pages = src.pages
        dst_pages = dst.pages
        # validate the whole range before mutating anything
        for i in range(n_pages):
            if src_page + i not in src_pages:
                raise MigrationError(
                    f"source page {src_page + i} of {src.name} has no frame"
                )
            if dst_page + i in dst_pages:
                raise MigrationError(
                    f"destination page {dst_page + i} of {dst.name} is "
                    "already backed"
                )
        moved: list[PageFrame] = []
        not_clear_i = ~clear_i
        dst_cow = dst.cow_source
        dst_seg_id = dst.seg_id
        frame_translations = self._frame_translations
        tlb = self.tlb
        page_table = self.page_table
        for i in range(n_pages):
            frame = src_pages.pop(src_page + i)
            # translation shootdown for the whole batch, inline: every
            # cached translation naming a moved frame is dropped here
            keys = frame_translations.pop(frame.pfn, None)
            if keys:
                for key in keys:
                    tlb.invalidate(key[0], key[1])
                    page_table.remove(key[0], key[1])
            flags = frame.flags
            if flags & ZERO_FILL_I:
                frame.zero()
                flags &= ~ZERO_FILL_I
                self.meter.charge("zero_fill", self.costs.zero_page)
                self.stats.zero_fills += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "zeroing",
                        f"zero-fill frame pfn={frame.pfn} in transit",
                        self.costs.zero_page,
                    )
            flags = (flags | set_i) & not_clear_i
            # COW privatization: the arriving frame takes a copy of the
            # still-shared source page ("the kernel performs the copy after
            # the manager has allocated a page", S2.1).
            if dst_cow is not None and (dst_page + i) not in dst_pages:
                source_res = (
                    dst_cow.resolve(dst_page + i)
                    if dst_page + i < dst_cow.n_pages
                    else None
                )
                if source_res is not None and source_res.frame is not None:
                    frame.copy_from(source_res.frame)
                    flags |= DIRTY_I
                    self.meter.charge("cow_copy", self.costs.copy_page)
                    self.stats.cow_copies += 1
            frame.flags = flags
            dst_pages[dst_page + i] = frame
            frame.owner_segment_id = dst_seg_id
            frame.page_index = dst_page + i
            moved.append(frame)
        self.stats.pages_migrated += n_pages
        if self.trace is not None or self.tracer.enabled:
            self._step(
                "kernel",
                f"MigratePages: {n_pages} frame(s) {src.name} -> {dst.name}"
                f" page {dst_page}",
                cost_us,
            )
        return moved

    def modify_page_flags(
        self, request: ModifyPageFlagsRequest
    ) -> ModifyPageFlagsResult:
        """``ModifyPageFlags``: flag changes without migration.

        Returns a :class:`~repro.core.api.ModifyPageFlagsResult` with the
        number of present pages modified.  Reducing protection shoots
        down any cached translations so the next access re-enters the
        kernel --- this is how a manager arranges to see references (the
        clock algorithm) or writes.
        """
        modified = self._modify_page_flags(
            self.segment(request.segment),
            request.page,
            request.n_pages,
            int(request.set_flags),
            int(request.clear_flags),
        )
        return ModifyPageFlagsResult(modified)

    def _modify_page_flags(
        self,
        segment: Segment,
        page: int,
        n_pages: int,
        set_i: int,
        clear_i: int,
    ) -> int:
        """``ModifyPageFlags`` on a resolved segment with int flag masks
        (the facade's body; the clock sweep calls it directly)."""
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"ModifyPageFlags: {n_pages} page(s) of {segment.name} "
                f"at {page} (+{PageFlags(set_i)!r} -{PageFlags(clear_i)!r})",
                self.costs.vpp_modify_flags_call,
            )
        self.meter.charge("modify_flags", self.costs.vpp_modify_flags_call)
        self.stats.modify_flags_calls += 1
        unsupported = (set_i | clear_i) & ~MANAGER_SETTABLE_I
        if unsupported:
            raise SegmentError(
                f"flags not manager-settable: {unsupported:#x}"
            )
        segment.check_page_range(page, n_pages)
        modified = 0
        lowers_access = bool(clear_i & (RW_I | REFERENCED_I))
        not_clear_i = ~clear_i
        segment_pages = segment.pages
        for i in range(n_pages):
            frame = segment_pages.get(page + i)
            if frame is None:
                continue
            frame.flags = (frame.flags | set_i) & not_clear_i
            if lowers_access:
                self._invalidate_frame_translations(frame)
            modified += 1
        return modified

    def get_page_attributes(
        self, request: GetPageAttributesRequest
    ) -> GetPageAttributesResult:
        """``GetPageAttributes``: flags plus physical frame addresses.

        Returns a :class:`~repro.core.api.GetPageAttributesResult` with a
        tuple of :class:`~repro.core.api.PageAttribute`.

        Exposing the physical address is deliberate --- it is what lets an
        application implement page coloring and physical placement (S1).
        """
        attributes = self._get_page_attributes(
            self.segment(request.segment), request.page, request.n_pages
        )
        return GetPageAttributesResult(tuple(attributes))

    def _get_page_attributes(
        self, segment: Segment, page: int, n_pages: int
    ) -> list[PageAttribute]:
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"GetPageAttributes: {n_pages} page(s) of {segment.name} "
                f"at {page}",
                self.costs.vpp_get_attributes_call,
            )
        self.meter.charge("get_attributes", self.costs.vpp_get_attributes_call)
        self.stats.get_attributes_calls += 1
        segment.check_page_range(page, n_pages)
        result = []
        for i in range(n_pages):
            frame = segment.pages.get(page + i)
            if frame is None:
                result.append(
                    PageAttribute(page + i, False, PageFlags.NONE, None, None)
                )
            else:
                result.append(
                    PageAttribute(
                        page + i,
                        True,
                        PageFlags(frame.flags),
                        frame.pfn,
                        frame.phys_addr,
                    )
                )
        return result

    # ------------------------------------------------------------------
    # memory references and fault handling
    # ------------------------------------------------------------------

    def reference(
        self, space: Segment, vaddr: int, write: bool = False
    ) -> PageFrame:
        """One CPU reference to ``vaddr`` in address space ``space``.

        Follows the hardware path: TLB, then the global hash page table
        (a kernel software refill), then the full segment-structure walk,
        faulting to the responsible segment manager as needed.  Dirty
        tracking uses the classic write-protect-until-first-store scheme,
        so managers reading DIRTY via ``GetPageAttributes`` see exact
        information.

        When a fault injector is installed, the access may additionally
        raise an ECC machine check: the kernel retires the bad frame and
        re-runs the reference, which re-faults so the manager refills the
        page into a healthy frame.
        """
        frame = self._reference(space, vaddr, write)
        if not self.memory.injector.enabled:
            return frame
        for _ in range(2):
            if not self.memory.ecc_failure(frame):
                break
            self.retire_frame(frame)
            frame = self._reference(space, vaddr, write)
        return frame

    def _reference(
        self, space: Segment, vaddr: int, write: bool
    ) -> PageFrame:
        self.stats.references += 1
        if vaddr < 0 or vaddr >= space.size_bytes:
            raise SegmentError(
                f"address {vaddr:#x} outside space {space.name}"
            )
        vpn = vaddr // space.page_size
        payload = self.tlb.lookup(space.seg_id, vpn)
        if payload is not None:
            pfn, writable = payload  # type: ignore[misc]
            if not write or writable:
                return self.memory.frame(pfn)
        entry = self.page_table.lookup(space.seg_id, vpn)
        if entry is not None:
            writable = bool(entry.prot & WRITE_I)
            if not write or writable:
                self.meter.charge("tlb_refill", self.costs.tlb_refill)
                self.tlb.insert(space.seg_id, vpn, (entry.pfn, writable))
                return self.memory.frame(entry.pfn)
        return self._slow_reference(space, vpn, write)

    def _slow_reference(self, space: Segment, vpn: int, write: bool) -> PageFrame:
        """Full segment walk with fault dispatch and retry."""
        if (
            not self.tracer.enabled
            and not self._fault_listeners
            and not self._fault_step_listeners
            and space.tenant is None
        ):
            return self._handle_slow_reference(space, vpn, write)
        before = self.meter.total_us
        self._fault_depth += 1
        frame: PageFrame | None = None
        try:
            if not self.tracer.enabled:
                frame = self._handle_slow_reference(space, vpn, write)
                return frame
            with self.tracer.span(
                "application",
                "page_fault",
                space=space.name,
                vpn=vpn,
                write=write,
            ):
                frame = self._handle_slow_reference(space, vpn, write)
                return frame
        finally:
            self._fault_depth -= 1
            # only the outermost fault service is one end-to-end latency
            # observation (a manager's fill may itself fault)
            if self._fault_depth == 0:
                latency = self.meter.total_us - before
                if space.tenant is not None:
                    self.stats.note_tenant_fault(space.tenant, latency)
                for listener in self._fault_listeners:
                    try:
                        listener(latency)
                    except Exception:
                        self.stats.listener_errors += 1
                if self._fault_step_listeners:
                    pfn = frame.pfn if frame is not None else None
                    for listener in self._fault_step_listeners:
                        try:
                            listener(space, vpn, write, latency, pfn)
                        except Exception:
                            self.stats.listener_errors += 1

    def on_fault_serviced(self, listener) -> None:
        """Call ``listener(latency_us)`` after each outermost fault service.

        The latency is the metered simulated cost of the whole slow path
        (dispatches, retries, and failovers included).  Telemetry and the
        SLO watchdogs subscribe here; with no listeners the fault path is
        untouched.

        Listeners are observability, never control flow: an exception a
        listener raises is swallowed (counted in
        ``KernelStats.listener_errors``), the remaining listeners still
        run, the listener stays subscribed, and the fault outcome is
        unaffected.
        """
        self._fault_listeners.append(listener)

    def on_failover(self, listener) -> None:
        """Call ``listener(duration_us)`` after each manager failover.

        Same contract as :meth:`on_fault_serviced`: a raising listener is
        counted in ``KernelStats.listener_errors`` and otherwise ignored
        --- it keeps its subscription and never disturbs the failover.
        """
        self._failover_listeners.append(listener)

    def on_fault_step(self, listener) -> None:
        """Call ``listener(space, vpn, write, latency_us, pfn)`` after each
        outermost slow-path entry (fault service or slow reinstall).

        ``pfn`` is the resolved frame number, or ``None`` when the slow
        path raised.  The verify harness subscribes here to build its
        per-fault incremental digest chain; with no listeners (and no
        tracer) the fast path is untouched.  A raising listener follows
        the :meth:`on_fault_serviced` contract: counted in
        ``KernelStats.listener_errors``, never re-raised.
        """
        self._fault_step_listeners.append(listener)

    def _handle_slow_reference(
        self, space: Segment, vpn: int, write: bool
    ) -> PageFrame:
        self.meter.charge("trap", self.costs.trap_entry_exit)
        if self.trace is not None or self.tracer.enabled:
            access = "write" if write else "read"
            self._step(
                "application",
                f"{access} of page {vpn} traps to kernel",
                self.costs.trap_entry_exit,
            )
        for attempt in range(MAX_FAULT_RETRIES + 1):
            res = space.resolve(vpn, for_write=write)
            fault = self._fault_from_resolution(space, vpn, write, res)
            if fault is None:
                assert res.frame is not None
                if self._failover_pending:
                    self.stats.fallback_resolutions += 1
                    self._failover_pending = False
                return self._install_and_touch(
                    space, vpn, res, write, post_fault=attempt > 0
                )
            if attempt == MAX_FAULT_RETRIES:
                break
            if attempt >= FAILOVER_AFTER_ATTEMPTS:
                # The manager keeps replying without resolving the fault
                # (the byzantine mode): stop trusting it.
                target = self.segment(fault.segment_id)
                manager = target.manager
                if (
                    manager is not None
                    and self.fallback_manager is not None
                    and manager is not self.fallback_manager
                ):
                    if self._tracing:
                        self._step(
                            "kernel",
                            f"fault persists after {attempt} deliveries to "
                            f"{manager.name}; treating the manager as faulty",
                        )
                    self._fail_over(
                        target, manager, fault, "failed to resolve the fault"
                    )
                    continue  # re-resolve; the next delivery goes to the fallback
            self.dispatch_fault(fault)
        self._failover_pending = False
        raise UnresolvedFaultError(
            f"fault on page {vpn} of {space.name} persisted after "
            f"{MAX_FAULT_RETRIES} manager invocations"
        )

    def _fault_from_resolution(
        self, space: Segment, vpn: int, write: bool, res: ResolvedPage
    ) -> PageFault | None:
        """Classify a resolution outcome; ``None`` means access is fine.

        A protection shortfall becomes a fault only when the frame's own
        flags deny the access, since those are what a manager can change.
        When the frame allows it but a segment protection or binding mask
        on the resolution chain does not, no manager can lift the mask:
        the access raises :class:`ProtectionError` undelivered.
        """
        if res.needs_cow:
            return PageFault(
                res.owner.seg_id, res.page, COPY_ON_WRITE, True,
                space.seg_id, vpn * space.page_size,
            )
        frame = res.frame
        if frame is None:
            return PageFault(
                res.owner.seg_id, res.page, MISSING_PAGE, write,
                space.seg_id, vpn * space.page_size,
            )
        needed_i = WRITE_I if write else READ_I
        if res.prot_i & needed_i:
            return None
        if frame.flags & needed_i:
            self._failover_pending = False
            raise ProtectionError(
                f"{'write' if write else 'read'} of page {vpn} in "
                f"{space.name} denied by a segment or binding protection"
            )
        return PageFault(
            res.owner.seg_id, res.page, PROTECTION, write,
            space.seg_id, vpn * space.page_size,
        )

    def _install_and_touch(
        self,
        space: Segment,
        vpn: int,
        res: ResolvedPage,
        write: bool,
        post_fault: bool,
    ) -> PageFrame:
        """Install a translation and set REFERENCED/DIRTY.

        A translation is installed writable only once the page is dirty,
        so the first store to a clean page re-enters the kernel (cheap)
        and dirties it --- exact dirty information for managers.  The
        mapping-update cost after a fault is part of ``MigratePages``
        ("the kernel manages hardware-supported VM translation tables",
        S2.1), so only non-fault installs charge ``map_update``.
        """
        frame = res.frame
        assert frame is not None
        if write:
            frame.flags |= REFERENCED_I | DIRTY_I
        else:
            frame.flags |= REFERENCED_I
        if not post_fault:
            self.meter.charge("map_update", self.costs.map_update)
        prot_i = res.prot_i
        writable = bool(prot_i & WRITE_I) and bool(frame.flags & DIRTY_I)
        entry = Translation(
            space.seg_id,
            vpn,
            frame.pfn,
            prot=(prot_i & READ_I) | (WRITE_I if writable else 0),
        )
        self.page_table.insert(entry)
        self.tlb.insert(space.seg_id, vpn, (frame.pfn, writable))
        translations = self._frame_translations
        bucket = translations.get(frame.pfn)
        if bucket is None:
            bucket = translations[frame.pfn] = set()
        bucket.add((space.seg_id, vpn))
        return frame

    def dispatch_fault(self, fault: PageFault) -> None:
        """Forward a fault to the responsible segment manager (Figure 2).

        Charges the control-transfer costs for the manager's invocation
        mode, invokes the handler, and charges resumption.
        """
        segment = self.segment(fault.segment_id)
        manager = segment.manager
        if manager is None:
            raise NoManagerError(
                f"segment {segment.name} has no manager for "
                f"{fault.describe()}"
            )
        if not self.tracer.enabled:
            return self._dispatch_fault(segment, manager, fault)
        with self.tracer.span(
            "kernel",
            "dispatch_fault",
            kind=fault.kind.name,
            segment=segment.name,
            page=fault.page,
            manager=manager.name,
        ):
            return self._dispatch_fault(segment, manager, fault)

    def _dispatch_fault(
        self, segment: Segment, manager: SegmentManager, fault: PageFault
    ) -> None:
        self.meter.charge("fault_dispatch", self.costs.vpp_fault_dispatch)
        stats = self.stats
        stats.faults += 1
        # ``_name_`` is the member's plain attribute; ``.name`` is an
        # enum property, a Python-level call on every fault
        kind = fault.kind._name_
        stats.faults_by_kind[kind] = stats.faults_by_kind.get(kind, 0) + 1
        manager_calls = stats.manager_calls
        manager_calls[manager.name] = manager_calls.get(manager.name, 0) + 1
        if self.trace is not None or self.tracer.enabled:
            self._step(
                "kernel",
                f"forward {kind} fault (segment "
                f"{segment.name}, page {fault.page}) to manager "
                f"{manager.name}",
                self.costs.vpp_fault_dispatch,
            )
        # The fallback manager is exempt from injection: the paper's
        # survival story assumes the default manager itself is sound.
        outcome = None
        deliveries = 1
        if self.injector.enabled and manager is not self.fallback_manager:
            outcome = self.injector.manager_invocation(manager.name)
            if outcome is _HANG:
                self._manager_unresponsive(
                    segment, manager, fault, "timed out"
                )
                return self.dispatch_fault(fault)
            if outcome is None and manager.invocation is SEPARATE_PROCESS:
                deliveries = self._ipc_deliveries(segment, manager, fault)
                if deliveries == 0:
                    # undeliverable: failover already happened; redeliver
                    return self.dispatch_fault(fault)
        try:
            if outcome is _CRASH:
                # control transfers to the manager, which then dies
                if manager.invocation is SEPARATE_PROCESS:
                    ipc_cost = (
                        self.costs.ipc_message + self.costs.context_switch
                    )
                    self.meter.charge("fault_ipc", ipc_cost)
                    if self.tracer.enabled:
                        self.tracer.event(
                            "ipc",
                            f"fault message to {manager.name} (crashes)",
                            ipc_cost,
                        )
                else:
                    self.meter.charge("fault_upcall", self.costs.vpp_upcall)
                raise ManagerCrashError(
                    f"manager {manager.name} died on fault delivery"
                )
            byzantine = outcome is _BYZANTINE
            for _ in range(deliveries):
                self._invoke_manager(manager, fault, byzantine=byzantine)
        except ManagerCrashError as crash:
            self.stats.manager_crashes += 1
            if self._tracing:
                self._step("kernel", f"manager crash detected: {crash}")
            # a second crash during an in-flight recovery/failover keeps
            # the original detection time (the SLO measures degradation
            # from first detection, not from the latest crash)
            if self._degradation_start is None:
                self._degradation_start = self.meter.total_us
            recovery = self._recovery
            if recovery is not None and recovery.try_restart(manager):
                self.stats.warm_restarts += 1
                self._degradation_start = None
                return self.dispatch_fault(fault)
            self._fail_over(segment, manager, fault, "crashed")
            return self.dispatch_fault(fault)
        recovery = self._recovery
        if recovery is not None:
            # the delivery succeeded: the manager is making progress, so
            # its consecutive-restart budget resets
            recovery.note_progress(manager)

    def _invoke_manager(
        self, manager: SegmentManager, fault: PageFault, byzantine: bool
    ) -> None:
        """One delivery: control transfer, handler, resumption charges."""
        separate = manager.invocation is SEPARATE_PROCESS
        if separate:
            ipc_cost = self._ipc_round_cost
            self.meter.charge("fault_ipc", ipc_cost)
            if self.tracer.enabled:
                self.tracer.event(
                    "ipc", f"fault message to {manager.name}", ipc_cost
                )
        else:
            self.meter.charge("fault_upcall", self.costs.vpp_upcall)
        if byzantine:
            self.stats.byzantine_replies += 1
            if self._tracing:
                self._step(
                    "manager",
                    f"{manager.name} replies without resolving the fault",
                )
        else:
            # attribution is pushed inline (not via attribute()): this
            # runs once per fault delivery, and a context manager here
            # costs a generator allocation on the hottest path
            attribution = self._attribution
            attribution.append(manager.name)
            try:
                if self.tracer.enabled:
                    with self.tracer.span(
                        "manager", "handle_fault", manager=manager.name
                    ):
                        manager.handle_fault(fault)
                else:
                    manager.handle_fault(fault)
            finally:
                attribution.pop()
        if separate:
            ipc_cost = self._ipc_round_cost
            self.meter.charge("fault_ipc", ipc_cost)
            if self.tracer.enabled:
                self.tracer.event(
                    "ipc", f"reply message from {manager.name}", ipc_cost
                )
            self.meter.charge("fault_resume", self.costs.vpp_kernel_resume)
        else:
            self.meter.charge("fault_resume", self.costs.vpp_resume_direct)
        if self._tracing:
            self._step(
                "manager",
                "reply to faulting process; application resumes",
                self.costs.vpp_kernel_resume
                if separate
                else self.costs.vpp_resume_direct,
            )

    # ------------------------------------------------------------------
    # graceful degradation (paper S2.2: the kernel protects itself from
    # faulty or uncooperative segment managers)
    # ------------------------------------------------------------------

    def _ipc_deliveries(
        self, segment: Segment, manager: SegmentManager, fault: PageFault
    ) -> int:
        """How many times to invoke the handler for one fault message.

        Models at-least-once IPC: a dropped message costs the send plus a
        reply timeout and is redelivered (bounded); a duplicated message
        invokes the handler twice, which managers must tolerate.  Returns
        0 when the manager proved unreachable (failover already done).
        """
        delivery = self.injector.ipc_delivery(manager.name)
        redeliveries = 0
        while delivery is IPCFailureMode.DROP:
            self.stats.ipc_drops += 1
            # the lost send still costs a message; then the kernel waits
            # out its reply timeout before redelivering
            self.meter.charge("fault_ipc", self.costs.ipc_message)
            if self.tracer.enabled:
                self.tracer.event(
                    "ipc",
                    f"lost fault message to {manager.name}",
                    self.costs.ipc_message,
                )
            self.meter.charge(
                "manager_timeout", self.costs.manager_timeout_us
            )
            if self._tracing:
                self._step(
                    "kernel",
                    f"fault message to {manager.name} lost; redeliver "
                    "after reply timeout",
                    self.costs.manager_timeout_us,
                )
            redeliveries += 1
            if redeliveries > IPC_MAX_REDELIVERIES:
                self._manager_unresponsive(
                    segment, manager, fault, "unreachable"
                )
                return 0
            delivery = self.injector.ipc_delivery(manager.name)
        if delivery is IPCFailureMode.DUPLICATE:
            self.stats.ipc_duplicates += 1
            if self._tracing:
                self._step(
                    "kernel",
                    f"fault message to {manager.name} duplicated "
                    "(at-least-once delivery)",
                )
            return 2
        return 1

    def _manager_unresponsive(
        self,
        segment: Segment,
        manager: SegmentManager,
        fault: PageFault,
        reason: str,
    ) -> None:
        """Per-fault timeout expired with no manager reply: fail over."""
        self.stats.manager_timeouts += 1
        # the failover clock starts at detection: the timeout spent
        # waiting is part of the failover latency the SLO budgets; an
        # earlier in-flight detection keeps its (earlier) start time
        if self._degradation_start is None:
            self._degradation_start = self.meter.total_us
        self.meter.charge("manager_timeout", self.costs.manager_timeout_us)
        if self._tracing:
            self._step(
                "kernel",
                f"manager {manager.name} unresponsive; per-fault timeout "
                f"({self.costs.manager_timeout_us:.0f} us) expires",
                self.costs.manager_timeout_us,
            )
        self._fail_over(segment, manager, fault, reason)

    def _fail_over(
        self,
        segment: Segment,
        manager: SegmentManager,
        fault: PageFault,
        reason: str,
    ) -> None:
        """Reassign every segment of a failed manager to the fallback.

        The fallback (default) manager adopts the failed manager's
        resident pages and the SPCM forcibly seizes its free frames ---
        a dead manager cannot cooperate, so the SPCM takes the frames
        back through the kernel directly.  With no fallback available
        the fault becomes an :class:`UnresolvedFaultError`, which
        suspends only the faulting process.
        """
        fallback = self.fallback_manager
        if fallback is None or manager is fallback:
            raise UnresolvedFaultError(
                f"{fault.describe()}: manager {manager.name} {reason} and "
                "no fallback manager is available; suspending the "
                "faulting process"
            )
        self.stats.manager_failovers += 1
        manager.failed = True
        # measure from detection when the caller marked it (timeout or
        # crash); a byzantine distrust decision starts the clock here
        failover_start = self._degradation_start
        if failover_start is None:
            failover_start = self.meter.total_us
        self._degradation_start = None
        with self.tracer.span(
            "kernel",
            "manager_failover",
            failed=manager.name,
            to=fallback.name,
            reason=reason,
        ):
            if self._tracing:
                self._step(
                    "kernel",
                    f"fail segments of {manager.name} over to "
                    f"{fallback.name} ({reason})",
                )
            for seg_id in sorted(manager.managed):
                seg = self._segments.get(seg_id)
                if seg is None:
                    continue
                self._set_segment_manager(seg, fallback)
                fallback.adopt_segment(seg)
            if self.spcm is not None:
                self.spcm.seize_frames(manager)
        self._failover_pending = True
        if self._failover_listeners:
            duration = self.meter.total_us - failover_start
            for listener in self._failover_listeners:
                try:
                    listener(duration)
                except Exception:
                    self.stats.listener_errors += 1

    def retire_frame(self, frame: PageFrame) -> None:
        """Remove a frame from service after an uncorrectable ECC error.

        The frame leaves its owning segment and joins the retired set;
        the next reference to the page re-faults, so the manager refills
        the data into a healthy frame.
        """
        self.stats.ecc_retirements += 1
        self.meter.charge("ecc_retire", self.costs.trap_entry_exit)
        if self._tracing:
            self._step(
                "kernel",
                f"uncorrectable ECC error: retire frame pfn={frame.pfn}",
                self.costs.trap_entry_exit,
            )
        owner = (
            self._segments.get(frame.owner_segment_id)
            if frame.owner_segment_id is not None
            else None
        )
        if owner is not None and owner.pages.get(frame.page_index) is frame:
            del owner.pages[frame.page_index]
        self._invalidate_frame_translations(frame)
        frame.owner_segment_id = None
        frame.page_index = None
        frame.flags = 0
        self.retired_frames.add(frame.pfn)
        if self.spcm is not None:
            self.spcm.note_frame_retired(frame)

    def _through_bindings(
        self,
        segment: Segment,
        page: int,
        n_pages: int,
        allow_grow: bool = False,
    ) -> tuple[Segment, int]:
        """Resolve a page range through bound regions to the segment that
        actually holds its frames (for MigratePages, S2.1)."""
        seen = 0
        while True:
            if allow_grow and segment.auto_grow:
                segment.ensure_size(page + n_pages)
            segment.check_page_range(page, n_pages)
            binding = segment.binding_covering(page)
            if binding is None:
                return segment, page
            if not binding.covers(page + n_pages - 1):
                raise MigrationError(
                    f"pages [{page}, {page + n_pages}) straddle the "
                    f"boundary of a bound region in {segment.name}"
                )
            page = binding.translate(page)
            segment = binding.target
            seen += 1
            if seen > 64:
                raise MigrationError("binding chain too deep")

    @contextmanager
    def attribute(self, name: str):
        """Attribute kernel operations inside the block to ``name``.

        Nesting is honored: the SPCM granting frames *during* a manager's
        fault handling attributes those MigratePages calls to itself, not
        the manager --- Table 3 counts invocations by the manager.
        """
        self._attribution.append(name)
        try:
            yield
        finally:
            self._attribution.pop()

    def notify_manager_call(self, manager: SegmentManager) -> None:
        """Record a non-fault manager request forwarded by the kernel
        (file opens/closes and the like --- Table 3 counts these too)."""
        self.stats.note_manager_call(manager.name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _invalidate_frame_translations(self, frame: PageFrame) -> None:
        """Shoot down every cached translation that names ``frame``."""
        keys = self._frame_translations.pop(frame.pfn, None)
        if not keys:
            return
        for space_id, vpn in keys:
            self.tlb.invalidate(space_id, vpn)
            self.page_table.remove(space_id, vpn)

    # -- invariant support -------------------------------------------------

    def frame_census(self) -> dict[int, int]:
        """pfn -> owning seg_id for every frame (invariant checks)."""
        census: dict[int, int] = {}
        for segment in self._segments.values():
            for frame in segment.pages.values():
                if frame.pfn in census:
                    raise MigrationError(
                        f"frame {frame.pfn} owned by two segments"
                    )
                census[frame.pfn] = segment.seg_id
        return census

    def check_frame_conservation(self) -> None:
        """Raise unless every in-service frame is owned by one segment.

        Frames retired after ECC failures (:meth:`retire_frame`) have
        left service on purpose and are excluded from the count.
        """
        census = self.frame_census()
        expected = self.memory.n_frames - len(self.retired_frames)
        if len(census) != expected:
            missing = expected - len(census)
            raise MigrationError(
                f"{missing} frame(s) are not owned by any segment"
            )
