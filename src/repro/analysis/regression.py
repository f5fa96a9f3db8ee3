"""``python -m repro bench diff``: the benchmark regression gate.

Compares the working tree's ``BENCH_*.json`` payloads against committed
baselines (``benchmarks/baselines/``) with a configurable relative
tolerance.  Metrics are **direction-aware**: Table-1 primitive times are
lower-is-better, NUMA scale-out throughput is higher-is-better, so a
"regression" always means *worse*, whichever way the number moved.

The differ refuses to compare payloads whose ``schema_version`` or run
``meta`` header disagree (different machine size, fault count, seed or
quick-mode run) --- comparing those would report phantom regressions.

Exit codes (CI gates on them):

* ``0`` --- every shared metric within tolerance (or better);
* ``1`` --- at least one metric regressed beyond tolerance;
* ``2`` --- payloads not comparable (missing file, schema/meta mismatch,
  unknown payload kind).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

#: the payload files the gate diffs by default
DEFAULT_BENCH_FILES = (
    "BENCH_table1.json",
    "BENCH_numa_scaleout.json",
    "BENCH_fault_path_micro.json",
    "BENCH_serve.json",
)

#: where the committed baselines live
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: default relative tolerance (15% --- noisy metrics stay quiet, real
#: slowdowns don't)
DEFAULT_TOLERANCE = 0.15


class ComparabilityError(Exception):
    """The two payloads must not be compared (exit 2)."""


@dataclass
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    name: str
    direction: str  # "lower" | "higher" is better
    baseline: float
    current: float
    #: relative change in the *bad* direction (positive = worse)
    regression: float
    #: per-metric widening of the gate tolerance: wall-clock metrics
    #: (machine-dependent) gate loosely, simulated costs gate tightly
    tolerance_scale: float = 1.0

    def status(self, tolerance: float) -> str:
        """``ok``, ``improved``, or ``REGRESSED`` at this tolerance."""
        tolerance = tolerance * self.tolerance_scale
        if self.regression > tolerance:
            return "REGRESSED"
        if self.regression < -tolerance:
            return "improved"
        return "ok"


def load_payload(path: str) -> dict:
    """Read one BENCH payload, requiring the run-identity header."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ComparabilityError(f"missing payload: {path}") from None
    except json.JSONDecodeError as exc:
        raise ComparabilityError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ComparabilityError(f"{path}: payload is not an object")
    if "schema_version" not in payload:
        raise ComparabilityError(
            f"{path}: no schema_version header (regenerate with the "
            f"current tree before diffing)"
        )
    if "meta" not in payload:
        raise ComparabilityError(f"{path}: no run meta header")
    return payload


def check_comparable(baseline: dict, current: dict, name: str) -> None:
    """Refuse schema or run-meta mismatches (would fake regressions)."""
    if baseline.get("schema_version") != current.get("schema_version"):
        raise ComparabilityError(
            f"{name}: schema_version mismatch "
            f"(baseline {baseline.get('schema_version')!r}, "
            f"current {current.get('schema_version')!r})"
        )
    if baseline.get("meta") != current.get("meta"):
        raise ComparabilityError(
            f"{name}: run meta mismatch "
            f"(baseline {baseline.get('meta')!r}, "
            f"current {current.get('meta')!r}) --- different run "
            f"configurations are not comparable"
        )


def extract_metrics(payload: dict, path: str) -> dict[str, tuple]:
    """``{metric: (value, direction[, tolerance_scale])}`` for one payload.

    Table-1 rows contribute their measured primitive times
    (lower-better); NUMA scale-out rows contribute per-node-count
    throughput (higher-better) and completion time (lower-better); the
    fault-path microbenchmark contributes wall-clock throughput and
    allocation pressure (widened tolerance --- machine-dependent) plus
    simulated per-fault service costs (tight --- deterministic).
    """
    kind = payload.get("benchmark") or payload.get("experiment")
    metrics: dict[str, tuple] = {}
    if kind == "table1_primitives":
        for row in payload.get("rows", []):
            metrics[row["name"]] = (float(row["measured"]), "lower")
    elif kind == "numa_scaleout":
        for row in payload.get("results", []):
            n = row["n_nodes"]
            metrics[f"{n}-node throughput (faults/s)"] = (
                float(row["throughput_faults_per_s"]),
                "higher",
            )
            metrics[f"{n}-node completion (us)"] = (
                float(row["completion_us"]),
                "lower",
            )
    elif kind == "fault_path_micro":
        thr = payload.get("throughput", {})
        alloc = payload.get("allocations", {})
        cost = payload.get("service_cost_us", {})
        # wall clock: varies with the host, gate at 5x the tolerance
        metrics["throughput (faults/s)"] = (
            float(thr["faults_per_sec"]), "higher", 5.0,
        )
        # allocator behavior: stable per interpreter version, 2x
        metrics["allocations (blocks/fault)"] = (
            float(alloc["blocks_per_fault"]), "lower", 2.0,
        )
        metrics["alloc peak (KiB)"] = (
            float(alloc["peak_kib"]), "lower", 2.0,
        )
        # simulated service cost: deterministic, full-strength gate
        metrics["service cost p50 (us)"] = (float(cost["p50"]), "lower")
        metrics["service cost p99 (us)"] = (float(cost["p99"]), "lower")
        metrics["service cost mean (us)"] = (float(cost["mean"]), "lower")
    elif kind == "serve":
        # fully simulated and seeded: every metric gates at full strength
        for row in payload.get("results", []):
            n = row["n_tenants"]
            metrics[f"{n}-tenant throughput (req/sim-s)"] = (
                float(row["throughput_per_sim_s"]),
                "higher",
            )
            metrics[f"{n}-tenant worst p99 (us)"] = (
                float(row["tenant_p99_us_worst"]),
                "lower",
            )
            metrics[f"{n}-tenant fairness index"] = (
                float(row["fairness_index"]),
                "higher",
            )
            metrics[f"{n}-tenant admitted rate"] = (
                float(row["admitted_rate"]),
                "higher",
            )
    else:
        raise ComparabilityError(f"{path}: unknown payload kind {kind!r}")
    return metrics


def compare(
    baseline: dict, current: dict, name: str
) -> list[MetricDelta]:
    """Direction-aware deltas for every baseline metric.

    A metric present in the baseline but missing from the current payload
    is a comparability error (a silently dropped benchmark row must not
    pass the gate).
    """
    check_comparable(baseline, current, name)
    base_metrics = extract_metrics(baseline, name)
    cur_metrics = extract_metrics(current, name)
    deltas: list[MetricDelta] = []
    for metric, info in base_metrics.items():
        if metric not in cur_metrics:
            raise ComparabilityError(
                f"{name}: metric {metric!r} missing from current payload"
            )
        base_value, direction = float(info[0]), info[1]
        scale = float(info[2]) if len(info) > 2 else 1.0
        cur_value = cur_metrics[metric][0]
        if base_value == 0.0:
            regression = 0.0 if cur_value == 0.0 else float("inf")
            if direction == "higher" and cur_value > 0.0:
                regression = 0.0
        elif direction == "lower":
            regression = (cur_value - base_value) / base_value
        else:
            regression = (base_value - cur_value) / base_value
        deltas.append(
            MetricDelta(
                metric, direction, base_value, cur_value, regression,
                tolerance_scale=scale,
            )
        )
    return deltas


def render_deltas(
    name: str, deltas: list[MetricDelta], tolerance: float
) -> str:
    """One aligned table per payload.

    ``change`` is the signed move of the value itself,
    ``(current - baseline) / baseline``: a throughput drop prints
    negative, a latency rise positive, whichever way is worse.  ``tol``
    is the effective gate for the row (``tolerance * tolerance_scale``).
    """
    width = max((len(d.name) for d in deltas), default=6)
    lines = [f"{name} (tolerance {tolerance:.0%}):"]
    lines.append(
        f"  {'metric'.ljust(width)}  {'baseline':>12}  {'current':>12}"
        f"  {'change':>8}  {'tol':>5}  status"
    )
    for d in deltas:
        if d.baseline == 0.0:
            change = math.copysign(math.inf, d.current) if d.current else 0.0
        else:
            change = (d.current - d.baseline) / d.baseline
        lines.append(
            f"  {d.name.ljust(width)}  {d.baseline:>12.1f}"
            f"  {d.current:>12.1f}"
            f"  {100.0 * change:+7.1f}%"
            f"  {tolerance * d.tolerance_scale:>5.0%}"
            f"  {d.status(tolerance)}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro bench diff``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench diff",
        description=(
            "Compare current BENCH_*.json payloads against committed "
            "baselines; non-zero exit on regression."
        ),
    )
    parser.add_argument(
        "--baseline-dir",
        default=DEFAULT_BASELINE_DIR,
        help=f"committed baselines (default {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--current-dir",
        default=".",
        help="where the freshly generated payloads live (default .)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"relative tolerance (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--files",
        default=",".join(DEFAULT_BENCH_FILES),
        help="comma-separated payload filenames to diff",
    )
    args = parser.parse_args(argv)

    files = [f for f in args.files.split(",") if f]
    regressed = False
    for filename in files:
        try:
            baseline = load_payload(
                os.path.join(args.baseline_dir, filename)
            )
            current = load_payload(
                os.path.join(args.current_dir, filename)
            )
            deltas = compare(baseline, current, filename)
        except ComparabilityError as exc:
            print(f"bench diff: {exc}", file=sys.stderr)
            return 2
        print(render_deltas(filename, deltas, args.tolerance))
        bad = [d for d in deltas if d.status(args.tolerance) == "REGRESSED"]
        if bad:
            regressed = True
            print(
                f"  -> {len(bad)} metric(s) regressed beyond "
                f"{args.tolerance:.0%}"
            )
        print()
    if regressed:
        print("bench diff: REGRESSION detected", file=sys.stderr)
        return 1
    print("bench diff: all metrics within tolerance")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
