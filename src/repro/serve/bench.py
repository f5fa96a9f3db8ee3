"""``python -m repro bench serve``: the multi-tenant serving benchmark.

Sweeps the tenant count (1 / 8 / 64) over a 2-node machine and reports,
per row: admitted/shed rates, per-tenant p50/p99 fault latency (mean p50
across tenants, worst p99 of any tenant --- the no-starvation number),
aggregate serviced requests per simulated second, and Jain's fairness
index over per-tenant serviced counts.  Everything is simulated and
seeded, so the payload is deterministic and ``bench diff`` gates it at
full strength against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import build_system
from repro.serve.loadgen import admit_fleet, run_load
from repro.serve.tenants import ServingSystem

SCHEMA_VERSION = 1

#: the sweep and machine shape (also the run-identity meta)
TENANT_SWEEP = (1, 8, 64)
MEMORY_MB = 8
N_NODES = 2
DURATION_US = 60_000.0
SEED = 42
RATE_PER_S = 4_000.0
BURST = 4.0
MAX_BACKLOG = 256
QUOTA_FRAMES = 16
WORKING_SET_PAGES = 16


def jain_fairness(values: list[float]) -> float:
    """Jain's index: 1.0 is perfectly fair, 1/n is one-tenant capture."""
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(values) * sum_of_squares)


def run_one(n_tenants: int, duration_us: float = DURATION_US) -> dict:
    """One serving run; returns the row ``bench diff`` reads."""
    system = build_system(
        memory_mb=MEMORY_MB, n_nodes=N_NODES, manager_frames=64
    )
    serving = ServingSystem(
        system,
        seed=SEED,
        rate_per_s=RATE_PER_S,
        burst=BURST,
        max_backlog=MAX_BACKLOG,
    )
    admit_fleet(
        serving,
        n_tenants,
        working_set_pages=WORKING_SET_PAGES,
        quota_frames=QUOTA_FRAMES,
    )
    serviced = run_load(serving, duration_us)
    sessions = [serving.sessions[t] for t in sorted(serving.sessions)]
    submitted = sum(s.submitted for s in sessions)
    shed = sum(s.shed for s in sessions)
    p50s = [s.latency.percentile(50) for s in sessions if s.latency.count]
    p99s = [s.latency.percentile(99) for s in sessions if s.latency.count]
    serviced_counts = [float(s.serviced) for s in sessions]
    # every shed carried a typed RetryAfter (the acceptance contract)
    sheds_with_retry = sum(
        1 for s in sessions if s.shed and s.last_retry_after is not None
    )
    shedding_tenants = sum(1 for s in sessions if s.shed)
    return {
        "n_tenants": n_tenants,
        "duration_us": duration_us,
        "submitted": submitted,
        "admitted": sum(s.admitted for s in sessions),
        "shed": shed,
        "admitted_rate": (
            (submitted - shed) / submitted if submitted else 1.0
        ),
        "shed_rate": shed / submitted if submitted else 0.0,
        "sheds_carry_retry_after": sheds_with_retry == shedding_tenants,
        "serviced": serviced,
        "throughput_per_sim_s": serviced * 1e6 / duration_us,
        "tenant_p50_us_mean": (
            sum(p50s) / len(p50s) if p50s else 0.0
        ),
        "tenant_p99_us_worst": max(p99s) if p99s else 0.0,
        "fairness_index": jain_fairness(serviced_counts),
        "quota_deferrals": system.spcm.quota_deferrals,
        "batches_flushed": serving.scheduler.batches_flushed,
        "service_errors": sum(s.service_errors for s in sessions),
    }


def run_sweep(duration_us: float = DURATION_US) -> dict:
    """The full payload ``BENCH_serve.json`` holds."""
    results = [run_one(n, duration_us) for n in TENANT_SWEEP]
    return {
        "experiment": "serve",
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "memory_mb": MEMORY_MB,
            "n_nodes": N_NODES,
            "tenants": list(TENANT_SWEEP),
            "duration_us": duration_us,
            "seed": SEED,
            "rate_per_s": RATE_PER_S,
            "burst": BURST,
            "max_backlog": MAX_BACKLOG,
            "quota_frames": QUOTA_FRAMES,
            "working_set_pages": WORKING_SET_PAGES,
        },
        "results": results,
    }


def write_report(path: str, duration_us: float = DURATION_US) -> dict:
    """Run the sweep and write the JSON payload to ``path``."""
    report = run_sweep(duration_us)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def render(report: dict) -> str:
    """A human-readable table of the sweep."""
    lines = [
        "multi-tenant serving sweep "
        f"({report['meta']['memory_mb']} MB, "
        f"{report['meta']['n_nodes']} nodes):",
        f"  {'tenants':>7}  {'serviced':>8}  {'shed%':>6}  "
        f"{'p50 us':>8}  {'worst p99':>9}  {'fairness':>8}",
    ]
    for row in report["results"]:
        lines.append(
            f"  {row['n_tenants']:>7}  {row['serviced']:>8}  "
            f"{100.0 * row['shed_rate']:>5.1f}%  "
            f"{row['tenant_p50_us_mean']:>8.1f}  "
            f"{row['tenant_p99_us_worst']:>9.1f}  "
            f"{row['fairness_index']:>8.3f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro bench serve``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench serve",
        description=(
            "Multi-tenant serving benchmark: tenant sweep with admission, "
            "batched scheduling and per-tenant quotas; writes "
            "BENCH_serve.json."
        ),
    )
    parser.add_argument(
        "--duration-us",
        type=float,
        default=DURATION_US,
        help=f"simulated run length per row (default {DURATION_US:.0f})",
    )
    parser.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="payload path (default BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    report = write_report(args.output, args.duration_us)
    print(render(report))
    print(f"wrote {args.output}")
    worst = min(row["fairness_index"] for row in report["results"])
    if worst < 0.8:
        print(
            f"bench serve: fairness index {worst:.3f} < 0.8 "
            "(tenant starvation)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
