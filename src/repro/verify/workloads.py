"""The one registry of named workloads.

Every gate that takes a workload name --- the ``python -m repro chaos``
scenarios, ``verify determinism``, ``verify recovery`` and the
differential oracle --- resolves it here, so one name means one
workload everywhere.  An entry is a :class:`Workload`; its
:meth:`~Workload.boot` returns a freshly booted system and a
``drive(checker) -> references`` closure over it.  Two shapes fill the
registry:

* *imperative* entries run Python against the small chaos machine
  (:func:`build_workload_system`); the chaos scenarios inject into
  their victim manager (:data:`VICTIM_MANAGER`) or their tenant
  managers (:data:`SERVE_TENANTS`);
* *declarative* entries are :class:`~repro.verify.schedule.WorkloadSchedule`
  builders driven through the oracle's V++ executor, and expose the
  builder so the oracle can drive the same schedule through all three
  executors.

:func:`resolve` also accepts a corpus ``.json`` path, a
:class:`WorkloadSchedule`, or a bare ``fn(system, checker)`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro import build_system
from repro.errors import VerificationError
from repro.managers.default_manager import DefaultSegmentManager
from repro.serve.loadgen import admit_fleet, run_load
from repro.serve.tenants import ServingSystem
from repro.verify.oracle import build_vpp_system, drive_vpp
from repro.verify.schedule import (
    WorkloadSchedule,
    figure2_schedule,
    table1_schedule,
)
from repro.workloads.apps import diff_model
from repro.workloads.traces import ReadFileSeq, TouchRegion, WriteFileSeq

#: the application manager every manager-directed scenario injects into
#: (the kernel's fallback --- the real default manager --- stays exempt)
VICTIM_MANAGER = "victim-ucds"

#: the tenant fleet the four-tenant serving workloads admit (manager
#: names match the tenant names, so scenarios can target them)
SERVE_TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")


def build_workload_system(tracer=None, n_nodes=None):
    """The small system every imperative workload runs against."""
    return build_system(
        memory_mb=4, manager_frames=64, tracer=tracer, n_nodes=n_nodes
    )


@dataclass(frozen=True)
class Workload:
    """One named workload: imperative (``run``) or declarative (``schedule``)."""

    name: str
    #: ``run(system, checker) -> references`` (imperative entries)
    run: Callable | None = None
    #: ``schedule(nodes=...) -> WorkloadSchedule`` (declarative entries)
    schedule: Callable[..., WorkloadSchedule] | None = None

    def boot(self, nodes: int | None = None, tracer=None):
        """A freshly booted system and its ``drive(checker) -> refs``."""
        if self.schedule is None:
            system = build_workload_system(tracer=tracer, n_nodes=nodes)
            return system, partial(self.run, system)
        schedule = self.schedule(nodes=nodes)
        system, _manager, segments = build_vpp_system(schedule, tracer=tracer)

        def drive(checker) -> int:
            drive_vpp(system, schedule, segments)
            checker.check_all()
            return len(schedule.ops)

        return system, drive

    def oracle_schedule(self, manager: str | None = None) -> WorkloadSchedule:
        """The schedule the differential oracle drives, under ``manager``."""
        if self.schedule is None:
            declarative = ", ".join(
                name for name, w in REGISTRY.items() if w.schedule
            )
            raise VerificationError(
                f"workload {self.name!r} is imperative; the oracle drives "
                f"a declarative schedule ({declarative}) or a schedule "
                f".json path"
            )
        schedule = self.schedule()
        return schedule if manager is None else replace(schedule, manager=manager)


def resolve(workload) -> Workload:
    """The :class:`Workload` a registry name, ``.json`` path, schedule or
    ``fn(system, checker)`` callable denotes."""
    if isinstance(workload, WorkloadSchedule):
        return Workload(
            workload.name,
            schedule=lambda nodes=None: (
                workload if nodes is None else replace(workload, nodes=nodes)
            ),
        )
    if callable(workload):
        return Workload(getattr(workload, "__name__", "custom"), run=workload)
    if workload in REGISTRY:
        return REGISTRY[workload]
    if str(workload).endswith(".json"):
        return resolve(WorkloadSchedule.load(workload))
    raise VerificationError(
        f"unknown workload {workload!r}; have {', '.join(REGISTRY)}, "
        f"or a schedule .json path"
    )


# ---------------------------------------------------------------------------
# imperative workload bodies
# ---------------------------------------------------------------------------


def _make_victim(system):
    """A second UCDS instance for the injector to break.

    Starts with no frame stock so a failover seizes nothing resident ---
    the interesting state (the faulted-in pages) moves by adoption.
    """
    return DefaultSegmentManager(
        system.kernel,
        system.spcm,
        system.file_server,
        initial_frames=0,
        name=VICTIM_MANAGER,
    )


def _figure2_victim(system, checker) -> int:
    """The Figure-2 fault path, repeated: fault cached-file pages in
    through a victim manager that injection may crash, hang, or corrupt."""
    kernel = system.kernel
    victim = _make_victim(system)
    n_pages = 21
    file_seg = kernel.create_segment(
        0, name="chaos-file", manager=victim, auto_grow=True
    )
    system.file_server.create_file(
        file_seg, data=b"fig2" * (n_pages * file_seg.page_size // 4)
    )
    space = kernel.create_segment(n_pages, name="chaos-space")
    space.bind(0, n_pages, file_seg, 0)
    refs = 0
    for page in range(n_pages):
        kernel.reference(space, page * space.page_size, write=False)
        refs += 1
    checker.check_all()
    return refs


def _ecc(system, checker) -> int:
    """Anonymous memory under ECC failures: frames retire, pages refault."""
    kernel = system.kernel
    seg = kernel.create_segment(
        16, name="chaos-anon", manager=system.default_manager
    )
    refs = 0
    for sweep in range(4):
        for page in range(seg.n_pages):
            kernel.reference(seg, page * seg.page_size, write=(sweep % 2 == 0))
            refs += 1
    checker.check_all()
    return refs


def _disk(system, checker) -> int:
    """UIO traffic under transient disk errors and latency spikes."""
    kernel = system.kernel
    victim = _make_victim(system)
    seg = kernel.create_segment(
        0, name="chaos-io", manager=victim, auto_grow=True
    )
    page = seg.page_size
    system.file_server.create_file(seg, data=b"io" * (8 * page // 2))
    refs = 0
    for rep in range(3):
        system.uio.read(seg, 0, 8 * page)
        system.uio.write(seg, (8 + rep) * page, b"w" * page)
        refs += 9
        # push the cached pages out so the next sweep re-fetches from disk
        victim.reclaim_pages(8)
    checker.check_all()
    return refs


def _apps(system, checker) -> int:
    """A Table-2 style application (diff): regions via a victim manager,
    file I/O via the default manager, under the scenario's injection."""
    kernel = system.kernel
    victim = _make_victim(system)
    app = diff_model()
    scale = 8  # trim file sizes; the fault *path* is what chaos exercises
    regions = {
        name: kernel.create_segment(
            pages, name=f"chaos.{name}", manager=victim
        )
        for name, pages in app.regions.items()
    }
    files = {}
    for name, size in app.input_files.items():
        seg = kernel.create_segment(
            0, name=name, manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"a" * (size // scale))
        files[name] = seg
    refs = 0
    for event in app.trace:
        if isinstance(event, TouchRegion):
            seg = regions[event.region]
            for page in range(event.start_page, event.start_page + event.n_pages):
                kernel.reference(seg, page * seg.page_size, write=event.write)
                refs += 1
        elif isinstance(event, ReadFileSeq):
            seg = files[event.name]
            system.uio.read(seg, event.offset, event.n_bytes // scale)
        elif isinstance(event, WriteFileSeq):
            if event.name not in files:
                seg = kernel.create_segment(
                    0,
                    name=event.name,
                    manager=system.default_manager,
                    auto_grow=True,
                )
                system.file_server.create_file(seg)
                files[event.name] = seg
            seg = files[event.name]
            n = event.n_bytes // scale
            system.uio.write(seg, event.offset, b"w" * n)
        # OpenFile/CloseFile/Compute carry no chaos-relevant work here
    checker.check_all()
    return refs


def _serve(
    system,
    checker,
    *,
    n_tenants: int,
    duration_us: float,
    quota_frames: int,
    seed: int,
    rate_per_s: float,
) -> int:
    """A quota'd tenant fleet served closed-loop by the load generator."""
    serving = ServingSystem(system, seed=seed, rate_per_s=rate_per_s)
    admit_fleet(
        serving,
        n_tenants,
        working_set_pages=8,
        quota_frames=quota_frames,
    )
    serviced = run_load(serving, duration_us)
    checker.check_all()
    return serviced


#: the four-tenant fleet the chaos scenarios inject into
_CHAOS_FLEET = dict(
    n_tenants=len(SERVE_TENANTS), duration_us=10_000.0, seed=7,
    rate_per_s=10_000.0,
)

#: name -> workload; the only name registry the gates consult
REGISTRY: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("figure2-victim", run=_figure2_victim),
        Workload("ecc", run=_ecc),
        Workload("disk", run=_disk),
        Workload("apps", run=_apps),
        # batched service must degrade per item under manager crashes
        # and hangs, never corrupt frame or quota accounting
        Workload("serve", run=partial(_serve, quota_frames=8, **_CHAOS_FLEET)),
        # quotas tighter than the working set: every tenant recycles its
        # own residents while faults land
        Workload(
            "serve-thrash", run=partial(_serve, quota_frames=4, **_CHAOS_FLEET)
        ),
        Workload(
            "serve-smoke",
            run=partial(
                _serve, n_tenants=4, duration_us=20_000.0, quota_frames=16,
                seed=42, rate_per_s=20_000.0,
            ),
        ),
        Workload(
            "serve-64x2",
            run=partial(
                _serve, n_tenants=64, duration_us=40_000.0, quota_frames=8,
                seed=42, rate_per_s=20_000.0,
            ),
        ),
        Workload("figure2", schedule=figure2_schedule),
        Workload("table1", schedule=table1_schedule),
    )
}
