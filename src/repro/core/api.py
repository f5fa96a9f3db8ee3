"""The versioned, typed kernel API (v3).

The paper's four external page-cache management operations (S2.1) are
methods on :class:`~repro.core.kernel.Kernel`, each with exactly one
public call form: it takes a frozen *request* dataclass from this module
and returns a frozen *result* dataclass.  The requests carry the NUMA
placement hints and the results the batch statistics the sharded System
Page Cache Manager needs.  The facades resolve their ids and delegate to
one internal entry per primitive (``Kernel._migrate``,
``Kernel._modify_page_flags``), which in-process managers and the SPCM
call directly with resolved segments and int flag masks.

* :class:`MigratePagesRequest` / :class:`MigratePagesResult`
* :class:`BatchMigratePagesRequest` / :class:`BatchMigratePagesResult`
* :class:`ModifyPageFlagsRequest` / :class:`ModifyPageFlagsResult`
* :class:`GetPageAttributesRequest` / :class:`GetPageAttributesResult`
* :class:`SetSegmentManagerRequest` / :class:`SetSegmentManagerResult`

The same vocabulary covers the manager callback surface: the SPCM asks a
manager for frames with a :class:`FrameDemand` and frames change hands as
a :class:`FrameGrant`, whichever direction they travel (release, seizure,
adoption).

Requests reference segments by id; ``Segment`` instances are accepted and
coerced, and integer flag masks are coerced to :class:`PageFlags`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.flags import PageFlags

#: Facade version: (major, minor).  The major number moves when a call
#: form changes or goes; the minor when request/result types are added.
API_VERSION = (3, 0)


def _seg_id(value: Any) -> int:
    """Coerce a ``Segment`` (or anything with ``seg_id``) to its id."""
    seg_id = getattr(value, "seg_id", value)
    if not isinstance(seg_id, int):
        raise TypeError(f"expected a segment or segment id, got {value!r}")
    return seg_id


# ---------------------------------------------------------------------------
# page attributes (the GetPageAttributes result element)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PageAttribute:
    """One entry of a ``GetPageAttributes`` result."""

    page: int
    present: bool
    flags: PageFlags
    pfn: int | None
    phys_addr: int | None


# ---------------------------------------------------------------------------
# batch statistics (returned with every MigratePages result)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchStats:
    """What one (possibly batched) ``MigratePages`` actually did.

    ``local_pages`` / ``remote_pages`` are only split when the kernel has
    a NUMA topology and the request carried a ``home_node`` hint;
    otherwise every page counts as local.
    """

    n_calls: int = 1
    n_pages: int = 0
    zero_fills: int = 0
    cow_copies: int = 0
    local_pages: int = 0
    remote_pages: int = 0


# ---------------------------------------------------------------------------
# the four primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MigratePagesRequest:
    """``MigratePages(src, dst, src_page, dst_page, n_pages, ...)``.

    ``home_node`` is a placement hint: the node the destination's pages
    are expected to be accessed from.  A NUMA-aware kernel uses it to
    split the per-page local/remote counts and charge the DASH-style
    remote-access penalty for frames landing off-node.
    """

    src: int
    dst: int
    src_page: int
    dst_page: int
    n_pages: int = 1
    set_flags: PageFlags = PageFlags.NONE
    clear_flags: PageFlags = PageFlags.NONE
    home_node: int | None = None

    def __post_init__(self) -> None:
        # coercions are skipped when the caller already passed the exact
        # types --- this constructor runs on every fault-path grant
        if type(self.src) is not int:
            object.__setattr__(self, "src", _seg_id(self.src))
        if type(self.dst) is not int:
            object.__setattr__(self, "dst", _seg_id(self.dst))
        if type(self.set_flags) is not PageFlags:
            object.__setattr__(self, "set_flags", PageFlags(self.set_flags))
        if type(self.clear_flags) is not PageFlags:
            object.__setattr__(
                self, "clear_flags", PageFlags(self.clear_flags)
            )


@dataclass(frozen=True, slots=True)
class MigratePagesResult:
    """Frames moved by one ``MigratePages`` (or one batch of them)."""

    moved_pfns: tuple[int, ...]
    batch: BatchStats = field(default_factory=BatchStats)

    @property
    def n_pages(self) -> int:
        return len(self.moved_pfns)


@dataclass(frozen=True, slots=True)
class BatchMigratePagesRequest:
    """Several ``MigratePages`` runs crossing into the kernel once (v2.1).

    The canonical form of the batched fast path: the first run is charged
    the full kernel-entry cost, the rest only the marginal batch cost.
    The sharded SPCM groups per-node frame grabs into one of these, and
    the serving layer's :class:`~repro.serve.scheduler.BatchScheduler`
    coalesces per-(manager, node) fault work the same way.
    """

    requests: tuple[MigratePagesRequest, ...]

    def __post_init__(self) -> None:
        if type(self.requests) is not tuple:
            object.__setattr__(self, "requests", tuple(self.requests))

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_pages(self) -> int:
        return sum(r.n_pages for r in self.requests)


@dataclass(frozen=True, slots=True)
class BatchMigratePagesResult:
    """What one batched kernel entry moved, run statistics merged."""

    moved_pfns: tuple[int, ...]
    batch: BatchStats = field(default_factory=BatchStats)
    n_requests: int = 0

    @property
    def n_pages(self) -> int:
        return len(self.moved_pfns)


@dataclass(frozen=True, slots=True)
class ModifyPageFlagsRequest:
    """``ModifyPageFlags(seg, page, n_pages, set, clear)``."""

    segment: int
    page: int
    n_pages: int = 1
    set_flags: PageFlags = PageFlags.NONE
    clear_flags: PageFlags = PageFlags.NONE

    def __post_init__(self) -> None:
        if type(self.segment) is not int:
            object.__setattr__(self, "segment", _seg_id(self.segment))
        if type(self.set_flags) is not PageFlags:
            object.__setattr__(self, "set_flags", PageFlags(self.set_flags))
        if type(self.clear_flags) is not PageFlags:
            object.__setattr__(
                self, "clear_flags", PageFlags(self.clear_flags)
            )


@dataclass(frozen=True, slots=True)
class ModifyPageFlagsResult:
    """How many present pages one ``ModifyPageFlags`` touched."""

    modified: int


@dataclass(frozen=True)
class GetPageAttributesRequest:
    """``GetPageAttributes(seg, page, n_pages)``."""

    segment: int
    page: int
    n_pages: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment", _seg_id(self.segment))


@dataclass(frozen=True)
class GetPageAttributesResult:
    """Per-page attributes, physical addresses included (S1)."""

    attributes: tuple[PageAttribute, ...]


@dataclass(frozen=True)
class SetSegmentManagerRequest:
    """``SetSegmentManager(seg, manager)``; ``manager`` is the live object."""

    segment: int
    manager: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment", _seg_id(self.segment))


@dataclass(frozen=True)
class SetSegmentManagerResult:
    """The manager the segment had before (by name; None if unmanaged)."""

    previous_manager: str | None


# ---------------------------------------------------------------------------
# the multi-tenant serving vocabulary (v2.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RetryAfter:
    """A typed shed: the request was not admitted, try again later.

    ``retry_after_us`` is simulated microseconds from the shed; every
    shed the admission controller issues carries one, so backpressure is
    a first-class, typed signal rather than a bare refusal.
    """

    tenant: str
    retry_after_us: float
    reason: str = "admission"  # "admission" | "backpressure" | "capacity"

    def __post_init__(self) -> None:
        if self.retry_after_us < 0:
            raise ValueError(
                f"retry_after_us must be non-negative: {self.retry_after_us}"
            )


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Per-tenant dram-pool cap, enforced through the SPCM market rules.

    ``frames`` caps the tenant's machine-wide SPCM frame grants (the
    paper's memory-market holding, in frames rather than drams); a
    request that would breach it is **deferred**, never refused, so the
    tenant reclaims and retries rather than failing.  ``dram_mb`` is the
    equivalent advisory holding ceiling recorded with the shard markets.
    ``None`` means unlimited on that axis.
    """

    account: str
    frames: int | None = None
    dram_mb: float | None = None

    def __post_init__(self) -> None:
        if self.frames is not None and self.frames < 0:
            raise ValueError(f"frames quota must be >= 0: {self.frames}")
        if self.dram_mb is not None and self.dram_mb < 0:
            raise ValueError(f"dram_mb quota must be >= 0: {self.dram_mb}")


@dataclass(frozen=True, slots=True)
class AdmitTenantRequest:
    """``AdmitTenant``: register one workload + manager + home node.

    ``working_set_pages`` sizes the tenant's address space; ``quota``
    rides along (its ``account`` may be left empty --- the serving layer
    fills in the manager's account at admission).
    """

    tenant: str
    home_node: int | None = None
    working_set_pages: int = 16
    quota: TenantQuota | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")
        if self.working_set_pages <= 0:
            raise ValueError(
                f"working_set_pages must be positive: {self.working_set_pages}"
            )


@dataclass(frozen=True, slots=True)
class AdmitTenantResult:
    """Whether the tenant was admitted; a shed carries the retry signal."""

    admitted: bool
    tenant: str
    account: str | None = None
    home_node: int | None = None
    retry_after: RetryAfter | None = None


# ---------------------------------------------------------------------------
# the manager callback vocabulary (shared with the SPCM)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FrameDemand:
    """The SPCM (or arbiter) asking a manager for frames back.

    ``node`` narrows the demand to frames homed on one NUMA node (the
    arbiter reclaiming a loan); ``None`` means any frames will do.
    """

    n_frames: int
    node: int | None = None
    reason: str = "pressure"

    def __post_init__(self) -> None:
        if self.n_frames < 0:
            raise ValueError("cannot demand a negative number of frames")


@dataclass(frozen=True, slots=True)
class FrameGrant:
    """Frames changing hands, named by free-segment page index.

    The single currency of the callback surface: what a manager
    surrenders under pressure (``release_frames``), what the SPCM seizes
    from a failed manager (``on_frames_seized``), and what an adopter
    indexes during failover (``adopt_segment``).
    """

    pages: tuple[int, ...] = ()
    node: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pages", tuple(self.pages))

    @classmethod
    def empty(cls) -> "FrameGrant":
        return cls(())

    @property
    def n_frames(self) -> int:
        return len(self.pages)

    def __bool__(self) -> bool:
        return bool(self.pages)


__all__ = [
    "API_VERSION",
    "AdmitTenantRequest",
    "AdmitTenantResult",
    "BatchMigratePagesRequest",
    "BatchMigratePagesResult",
    "BatchStats",
    "FrameDemand",
    "FrameGrant",
    "GetPageAttributesRequest",
    "GetPageAttributesResult",
    "MigratePagesRequest",
    "MigratePagesResult",
    "ModifyPageFlagsRequest",
    "ModifyPageFlagsResult",
    "PageAttribute",
    "RetryAfter",
    "SetSegmentManagerRequest",
    "SetSegmentManagerResult",
    "TenantQuota",
]
