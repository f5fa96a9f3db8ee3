"""One ``MigratePages`` behaviour behind two call forms.

The public facade (``Kernel.migrate_pages(MigratePagesRequest)``)
resolves its ids and delegates to the internal entry
``Kernel._migrate`` that in-process managers and the SPCM call with
resolved segments and int flags.  Each case below runs the same
migration on two fresh kernels, one per form, and requires identical
moved frames, frame flags, cost-meter categories and kernel counters ---
including the charge-then-validate order of every rejection.  The
facade's ``BatchStats`` must equal the counter deltas of the internal
run.

A batched kernel entry must also trace what it charges: every run after
the first costs the marginal ``vpp_migrate_batch_extra``, and its
``MigratePages`` trace step says so.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import (
    BatchMigratePagesRequest,
    BatchStats,
    MigratePagesRequest,
)
from repro.core.flags import (
    DIRTY_I,
    REFERENCED_I,
    RW_I,
    ZERO_FILL_I,
    PageFlags,
)
from repro.core.kernel import Kernel
from repro.errors import MigrationError, ProtectionError, SegmentError
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.obs.trace import Tracer

MB = 1024 * 1024


def _kernel(numa: bool = False, tracer=None) -> Kernel:
    memory = PhysicalMemory(4 * MB)
    topology = NumaTopology.for_memory(memory, 2) if numa else None
    if tracer is None:
        return Kernel(memory, topology=topology)
    return Kernel(memory, topology=topology, tracer=tracer)


def _plain(kernel):
    dst = kernel.create_segment(4, name="dst")
    return kernel.initial_segment, dst, 10, 0, 2, RW_I, REFERENCED_I, None


def _zero_fill(kernel):
    boot = kernel.initial_segment
    boot.pages[20].flags |= ZERO_FILL_I | DIRTY_I
    boot.pages[20].write(b"stale data of the previous user")
    dst = kernel.create_segment(2, name="dst")
    return boot, dst, 20, 0, 1, RW_I, REFERENCED_I | DIRTY_I, None


def _cow(kernel):
    boot = kernel.initial_segment
    base = kernel.create_segment(2, name="base")
    kernel._migrate(boot, base, 30, 0)
    base.pages[0].write(b"shared source page")
    child = kernel.create_segment(2, name="child", cow_source=base)
    return boot, child, 31, 0, 1, RW_I, 0, None


def _numa_remote(kernel):
    boot = kernel.initial_segment
    last = boot.n_pages - 1
    dst = kernel.create_segment(4, name="dst")
    # the top of physical memory is node 1; home node 0 makes it remote
    return boot, dst, last - 2, 0, 3, RW_I, REFERENCED_I, 0


def _read_only_dst(kernel):
    dst = kernel.create_segment(2, name="ro", prot=PageFlags.READ)
    return kernel.initial_segment, dst, 5, 0, 1, RW_I, 0, None


def _unsupported_flag(kernel):
    dst = kernel.create_segment(2, name="dst")
    return kernel.initial_segment, dst, 5, 0, 1, 1 << 6, 0, None


def _missing_source(kernel):
    src = kernel.create_segment(2, name="empty")
    dst = kernel.create_segment(2, name="dst")
    return src, dst, 1, 0, 1, 0, 0, None


def _backed_destination(kernel):
    boot = kernel.initial_segment
    dst = kernel.create_segment(2, name="dst")
    kernel._migrate(boot, dst, 40, 1)
    return boot, dst, 41, 0, 2, 0, 0, None


def _page_size_mismatch(kernel):
    dst = kernel.create_segment(2, page_size=8192, name="big")
    return kernel.initial_segment, dst, 5, 0, 1, 0, 0, None


def _out_of_range(kernel):
    dst = kernel.create_segment(1, name="dst")
    return kernel.initial_segment, dst, 5, 1, 1, 0, 0, None


#: case -> (setup, NUMA machine, expected rejection, charged before it)
CASES = {
    "plain": (_plain, False, None, True),
    "zero-fill-in-transit": (_zero_fill, False, None, True),
    "cow-privatization": (_cow, False, None, True),
    "numa-remote": (_numa_remote, True, None, True),
    "read-only-destination": (_read_only_dst, False, ProtectionError, True),
    "unsupported-flag": (_unsupported_flag, False, MigrationError, True),
    "missing-source-page": (_missing_source, False, MigrationError, True),
    "backed-destination": (_backed_destination, False, MigrationError, True),
    "page-size-mismatch": (_page_size_mismatch, False, MigrationError, True),
    "out-of-range": (_out_of_range, False, SegmentError, False),
}


def _run(name: str, facade: bool):
    setup, numa, _, _ = CASES[name]
    kernel = _kernel(numa)
    src, dst, src_page, dst_page, n_pages, set_i, clear_i, home = setup(kernel)
    stats_before = dataclasses.asdict(kernel.stats)
    meter_before = dict(kernel.meter.by_category)
    moved_pfns = batch = error = None
    try:
        if facade:
            result = kernel.migrate_pages(
                MigratePagesRequest(
                    src, dst, src_page, dst_page, n_pages,
                    set_flags=PageFlags(set_i),
                    clear_flags=PageFlags(clear_i),
                    home_node=home,
                )
            )
            moved_pfns, batch = list(result.moved_pfns), result.batch
        else:
            moved = kernel._migrate(
                src, dst, src_page, dst_page, n_pages, set_i, clear_i,
                home_node=home,
            )
            moved_pfns = [frame.pfn for frame in moved]
    except Exception as exc:  # compared across the two forms below
        error = (type(exc), str(exc))
    frames = {
        pfn: (kernel.memory.frame(pfn).flags, kernel.memory.frame(pfn).read())
        for pfn in moved_pfns or []
    }
    return {
        "error": error,
        "moved": moved_pfns,
        "frames": frames,
        "census": kernel.frame_census(),
        "stats": dataclasses.asdict(kernel.stats),
        "stats_before": stats_before,
        "meter": dict(kernel.meter.by_category),
        "meter_before": meter_before,
        "batch": batch,
    }


@pytest.mark.parametrize("name", list(CASES))
def test_facade_and_internal_entry_are_one_behaviour(name):
    via_facade = _run(name, facade=True)
    via_entry = _run(name, facade=False)
    for key in ("error", "moved", "frames", "census", "stats", "meter"):
        assert via_facade[key] == via_entry[key], key

    _, _, rejection, charged = CASES[name]
    stats, before = via_entry["stats"], via_entry["stats_before"]
    charge = (
        via_entry["meter"].get("migrate_pages", 0.0)
        - via_entry["meter_before"].get("migrate_pages", 0.0)
    )
    # pin today's order: range checks, then the kernel-entry charge and
    # call count, then the remaining validation
    assert charge == (35.0 if charged else 0.0)
    assert stats["migrate_calls"] - before["migrate_calls"] == int(charged)
    if rejection is not None:
        assert via_entry["error"][0] is rejection
        assert stats["pages_migrated"] == before["pages_migrated"]
        return
    assert via_entry["error"] is None

    def delta(key):
        return stats[key] - before[key]

    assert via_facade["batch"] == BatchStats(
        n_calls=1,
        n_pages=len(via_entry["moved"]),
        zero_fills=delta("zero_fills"),
        cow_copies=delta("cow_copies"),
        local_pages=delta("numa_local_pages"),
        remote_pages=delta("numa_remote_pages"),
    )


def test_cases_exercise_what_they_name():
    assert _run("zero-fill-in-transit", True)["batch"].zero_fills == 1
    assert _run("cow-privatization", True)["batch"].cow_copies == 1
    numa = _run("numa-remote", True)
    assert numa["batch"].remote_pages == 3
    assert numa["meter"]["numa_remote_placement"] > 0
    for flags, data in _run("cow-privatization", False)["frames"].values():
        assert data.startswith(b"shared source page")
        assert flags & DIRTY_I


def test_batch_trace_steps_carry_the_charged_cost():
    tracer = Tracer()
    kernel = _kernel(tracer=tracer)
    boot = kernel.initial_segment
    boot.pages[52].flags |= ZERO_FILL_I
    dst = kernel.create_segment(8, name="dst")
    before = kernel.meter.by_category.get("migrate_pages", 0.0)
    result = kernel.migrate_pages_batch(
        BatchMigratePagesRequest(
            tuple(
                MigratePagesRequest(boot, dst, 50 + 2 * i, i, 1)
                for i in range(3)
            )
        )
    )
    # the batch's statistics cover every run
    assert result.batch == BatchStats(
        n_calls=3, n_pages=3, zero_fills=1, local_pages=3
    )
    charged = kernel.meter.by_category["migrate_pages"] - before
    costs = kernel.costs
    assert charged == costs.vpp_migrate_call + 2 * costs.vpp_migrate_batch_extra
    steps = [
        e.cost_us
        for e in tracer.events
        if e.actor == "kernel" and e.action.startswith("MigratePages:")
    ]
    assert len(steps) == 3
    assert sum(steps) == charged
