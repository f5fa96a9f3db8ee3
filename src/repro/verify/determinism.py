"""The run-twice determinism gate.

Every simulation in this repository is meant to be a pure function of
its seeds.  This module makes that a checkable property: execute one
workload twice from identical inputs, record a
:class:`~repro.verify.digest.DigestChain` link per outermost kernel
fault plus a final full-state snapshot, and diff the two chains.  Equal
head digests prove the runs computed identical state at every recorded
step; a mismatch is pinpointed to the **first divergent step** (the
chain construction guarantees the first differing link is the first
differing payload, not a downstream consequence).

The gate drives anything :func:`repro.verify.workloads.resolve`
accepts --- a registry name (each boots exactly the machine its chaos
scenario or oracle run boots), a corpus schedule path, a
:class:`~repro.verify.schedule.WorkloadSchedule`, or a callable
``fn(system, checker) -> refs`` (tests inject a deliberately
nondeterministic manager this way to prove the gate catches it) ---
optionally under a seeded chaos plan against the victim manager.

A typed :class:`~repro.errors.ReproError` stopping the workload is
itself recorded as a chain step --- a run that fails the same way at the
same point is deterministic; one that fails differently is the bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.injector import Injector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.plan import ChaosPlan
from repro.errors import ReproError
from repro.verify.digest import DigestChain, Divergence, snapshot_state
from repro.verify.workloads import VICTIM_MANAGER, Workload, resolve

#: the mixed-fault plan ``--chaos-seed`` reseeds: manager crash/hang and
#: IPC trouble at the victim manager, plus background disk errors
VERIFY_CHAOS_PLAN = ChaosPlan(
    manager_crash_rate=0.2,
    manager_hang_rate=0.1,
    ipc_duplicate_rate=0.1,
    disk_error_rate=0.05,
    target_managers=(VICTIM_MANAGER,),
)


class ChainRecorder:
    """Appends one digest-chain link per outermost kernel fault.

    The per-step payload carries the fault's identity and its visible
    effects (resolved pfn, simulated latency, the meter and fault
    counters after service) --- enough that any difference in fault
    *order*, *placement*, or *cost* between two runs lands in the chain
    at the exact step it first happens.
    """

    def __init__(self, system, chain: DigestChain) -> None:
        self.system = system
        self.chain = chain
        system.kernel.on_fault_step(self._on_fault)

    def _on_fault(self, space, vpn, write, latency_us, pfn) -> None:
        kernel = self.system.kernel
        digest = self.chain.append(
            f"fault:{space.name}:{vpn}",
            [
                space.seg_id,
                space.name,
                vpn,
                bool(write),
                pfn,
                latency_us,
                kernel.meter.total_us,
                kernel.stats.faults,
            ],
        )
        if self.system.tracer.enabled:
            self.system.tracer.digest_event(
                len(self.chain.steps) - 1, digest, label=f"{space.name}:{vpn}"
            )

    def finalize(self) -> str:
        """Append the full-state snapshot as the terminal link."""
        digest = self.chain.append(
            "final-state", snapshot_state(self.system)
        )
        if self.system.tracer.enabled:
            self.system.tracer.digest_event(
                len(self.chain.steps) - 1, digest, label="final-state"
            )
        return digest


@dataclass
class RunRecord:
    """One recorded execution: its chain and how it ended."""

    label: str
    chain: DigestChain
    references: int = 0
    error_type: str | None = None


@dataclass
class DeterminismReport:
    """Two recorded runs and where (if anywhere) they part ways."""

    workload: str
    nodes: int | None
    chaos_seed: int | None
    runs: list[RunRecord] = field(default_factory=list)
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        """A human-readable verdict (both runs, then PASS or the step)."""
        a, b = self.runs[0], self.runs[1]
        lines = [
            f"determinism: workload {self.workload!r} nodes={self.nodes} "
            f"chaos_seed={self.chaos_seed}",
            f"  run {a.label}: {len(a.chain.steps)} steps, "
            f"head {a.chain.head[:16]}..."
            + (f" (stopped: {a.error_type})" if a.error_type else ""),
            f"  run {b.label}: {len(b.chain.steps)} steps, "
            f"head {b.chain.head[:16]}..."
            + (f" (stopped: {b.error_type})" if b.error_type else ""),
        ]
        if self.ok:
            lines.append("  PASS: digest chains identical")
        else:
            lines.append(f"  FAIL: {self.divergence.describe()}")
        return "\n".join(lines)


def _record(
    entry: Workload, nodes: int | None, chaos_seed: int | None, label: str
) -> RunRecord:
    """Boot ``entry`` fresh, drive it, and chain every outermost fault."""
    system, drive = entry.boot(nodes)
    if chaos_seed is not None:
        Injector(
            replace(VERIFY_CHAOS_PLAN, seed=chaos_seed), tracer=system.tracer
        ).install(system)
    checker = InvariantChecker(system.kernel)
    chain = DigestChain(
        meta={"workload": entry.name, "nodes": nodes, "chaos_seed": chaos_seed}
    )
    recorder = ChainRecorder(system, chain)
    record = RunRecord(label=label, chain=chain)
    try:
        record.references = drive(checker)
    except ReproError as exc:
        # a typed failure is a legitimate, repeatable outcome; chain it
        # so both runs must fail identically at the same point
        record.error_type = type(exc).__name__
        chain.append("error", [type(exc).__name__, str(exc)])
    recorder.finalize()
    return record


def run_twice(
    workload,
    nodes: int | None = None,
    chaos_seed: int | None = None,
) -> DeterminismReport:
    """Execute ``workload`` twice from identical inputs and diff chains."""
    entry = resolve(workload)
    report = DeterminismReport(
        workload=entry.name, nodes=nodes, chaos_seed=chaos_seed
    )
    report.runs = [_record(entry, nodes, chaos_seed, label) for label in "AB"]
    report.divergence = report.runs[0].chain.first_divergence(
        report.runs[1].chain
    )
    return report
