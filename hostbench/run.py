"""End-to-end host-time benchmark with per-layer attribution.

Run one workload and seed from the root of a checkout:

    python3 hostbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table from a traced replay of the fixed window.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--self-test`` runs the workload-shape and
determinism self-test on the default and the held-out seed.  See
README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_STEPS_PER_S, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hostbench_out"

WORKLOADS = ("serve-hot", "serve-thrash", "paging-mix")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: fresh interpreters timed per run for ``setup_s``
SETUP_SAMPLES = 5
#: host seconds per throughput window
WINDOW_S = 0.2
#: ``refs_per_host_s`` is the mean rate of this fastest share of windows
FASTEST_SHARE = 0.1

#: kernel cost-meter category -> simulated-time bucket (rest: kernel)
SIM_BUCKETS = {
    "fault_ipc": "ipc",
    "manager_alloc": "manager",
    "manager_copy": "manager",
    "manager_timeout": "manager",
    "recovery_replay": "manager",
    "file_server": "disk",
    "io_retry": "disk",
    "zero_fill": "zeroing",
}


def _import_workloads():
    """The workloads module, importing the program from ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters through import, boot, admission, warm-up
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int) -> int:
    """Child side: build and warm up, say ``ready``; then, untimed, the
    calibration scale of this process and its digest after warm-up."""
    workloads = _import_workloads()
    w = workloads.make(workload, seed)
    w.warm_up()
    print("ready", flush=True)
    from repro.verify.digest import state_digest

    print(Calibrator().scale(), state_digest(w.system), flush=True)
    return 0


def time_setups(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Wall time from spawn to ``ready`` of fresh interpreters, and the
    digest each one reached after warm-up.

    Each time is scaled to the reference host by a calibration the child
    takes right after ``ready``, on whichever CPU it ran.
    """
    times, digests = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready = child.stdout.readline()
            t1 = time.perf_counter()
            scale, _, digest = child.stdout.readline().strip().partition(" ")
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append((t1 - t0) / float(scale))
        digests.append(digest)
    return times, digests


# ---------------------------------------------------------------------------
# the runs
# ---------------------------------------------------------------------------


def run_window(w) -> float:
    """Run the fixed window; returns its host seconds (digest excluded)."""
    w.open_window()
    t0 = time.perf_counter()
    while not w.window_full():
        w.step()
    elapsed = time.perf_counter() - t0
    w.close_window()
    return elapsed


def host_rates(w, cal, seconds: float) -> tuple[list[float], list[float]]:
    """References per host second in consecutive windows of WINDOW_S,
    each followed by one calibration burst."""
    rates, cal_rates = [], []
    clock = time.perf_counter
    begin = clock()
    while not rates or clock() - begin < seconds:
        t0 = clock()
        refs = 0
        while True:
            refs += w.step()
            elapsed = clock() - t0
            if elapsed >= WINDOW_S:
                break
        rates.append(refs / elapsed)
        cal_rates.append(cal.rate())
    return rates, cal_rates


def fastest_mean(rates: list[float]) -> float:
    """Mean of the fastest FASTEST_SHARE of the window rates.

    Other processes on the machine only ever slow a window down, so the
    fastest windows estimate the undisturbed speed; averaging several of
    them keeps one lucky window from setting the result.
    """
    k = max(1, round(len(rates) * FASTEST_SHARE))
    return statistics.fmean(sorted(rates)[-k:])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric."""
    setup_times, child_digests = time_setups(workload, seed)
    workloads = _import_workloads()
    from repro.verify.digest import state_digest

    w = workloads.make(workload, seed)
    w.warm_up()
    warm_digest = state_digest(w.system)
    for i, digest in enumerate(child_digests):
        if digest != warm_digest:
            w.failures.append(
                f"determinism: set-up process {i} reached digest "
                f"{digest[:12]} after warm-up, this process {warm_digest[:12]}"
            )
    run_window(w)
    # peak RSS through set-up and the fixed window only: the host phase
    # keeps growing the program's latency tallies, and a faster program
    # would otherwise read as a larger one
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates, cal_rates = host_rates(w, Calibrator(), seconds)
    host_scale = REFERENCE_STEPS_PER_S / fastest_mean(cal_rates)
    w.finish()
    fp = w.fingerprint
    failed = len(w.failures)
    metrics = {
        "refs_per_host_s": metric(fastest_mean(rates) * host_scale, "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "sim_latency_p50_us": metric(fp["sim_latency_p50_us"], "us"),
        "sim_latency_p99_us": metric(fp["sim_latency_p99_us"], "us"),
        "sim_refs_per_s": metric(fp["sim_refs_per_s"], "1/s"),
        "admitted_rate": metric(fp["admitted_rate"], "ratio"),
        "fairness_jain": metric(fp["fairness_jain"], "ratio"),
        "ok_rate": metric(max(0.0, 1.0 - failed / w.attempted), "ratio"),
    }
    print(f"# {workload} seed={seed}: {len(rates)} windows of {WINDOW_S}s, "
          "unscaled refs/s min/median/max "
          f"{min(rates):.0f}/{statistics.median(rates):.0f}/{max(rates):.0f}"
          f"; fastest-decile {fastest_mean(rates):.0f} refs/s and "
          f"{fastest_mean(cal_rates):.0f} calibration steps/s, scale "
          f"{host_scale:.3f}")
    print("# set-up s (scaled) " + " ".join(f"{t:.3f}" for t in setup_times))
    print_fingerprint(fp)
    return _result(w, metrics)


def _result(w, metrics: dict) -> dict:
    for failure in w.failures[:20]:
        print(f"# FAILURE: {failure}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    return {
        "correct": not w.failures,
        "attempted": w.attempted,
        "failed": len(w.failures),
        "metrics": metrics,
    }


def print_fingerprint(fp: dict) -> None:
    """The fixed window's simulated metrics, sample count and digest."""
    print("fingerprint " + json.dumps(fp, sort_keys=True))


# ---------------------------------------------------------------------------
# traced run: per-layer table
# ---------------------------------------------------------------------------


def _counters(w) -> dict:
    """The program's own counters that the per-layer table reads."""
    system = w.system
    kernel = system.kernel
    stats = kernel.stats
    managers = [system.default_manager]
    serving = getattr(w, "serving", None)
    if serving is not None:
        managers += [s.manager for s in w.sessions]
    out = {
        "references": stats.references,
        "faults": stats.faults,
        "manager_calls": sum(stats.manager_calls.values()),
        "migrate_calls": stats.migrate_calls,
        "migrate_batches": stats.migrate_batches,
        "zero_fills": stats.zero_fills,
        "granted_frames": system.spcm.granted_frames,
        "quota_deferrals": system.spcm.quota_deferrals,
        "reclaimed": sum(m.pages_reclaimed for m in managers),
        "writebacks": sum(m.writebacks for m in managers),
        "fast_reclaims": sum(m.fast_reclaims for m in managers),
        "faults_handled": sum(m.faults_handled for m in managers),
        "disk_reads": system.disk.stats.reads,
        "disk_writes": system.disk.stats.writes,
        "tlb_hits": kernel.tlb.stats.hits,
        "tlb_lookups": kernel.tlb.stats.lookups,
        "meter": dict(kernel.meter.by_category),
        "events": getattr(w, "events", 0),
    }
    if serving is not None:
        out["items_serviced"] = serving.scheduler.items_serviced
    return out


def _delta(before: dict, after: dict) -> dict:
    out = {}
    for key, value in after.items():
        if key == "meter":
            out[key] = {
                cat: us - before[key].get(cat, 0.0) for cat, us in value.items()
            }
        else:
            out[key] = value - before.get(key, 0)
    return out


#: (span, counter, where the counter is incremented) pairs that must agree
SPAN_COUNTER_CHECKS = (
    ("core.reference", "references", "Kernel._reference"),
    ("core.dispatch_fault", "faults", "Kernel._dispatch_fault"),
    ("managers.handle_fault", "manager_calls", "Kernel._dispatch_fault"),
    ("core.migrate_pages_batch", "migrate_batches",
     "Kernel.migrate_pages_batch"),
    ("core.fetch_page", "disk_reads", "Disk.read_range"),
    ("core.store_page", "disk_writes", "Disk.write_range"),
)


def check_consistency(spans, d: dict, failures: list[str]) -> None:
    """Span counts against program counters; name any bypassing path."""
    for span, counter, site in SPAN_COUNTER_CHECKS:
        if spans.n(span) != d[counter]:
            failures.append(
                f"trace: {span} was entered {spans.n(span)} times but the "
                f"'{counter}' counter grew by {d[counter]}: a call path "
                f"reaches {site} without going through the public entry "
                f"{span.split('.', 1)[1]}, so its host time is charged to "
                "its caller's layer"
            )
    granted = spans.observed["spcm.request_frames"][0]
    if granted != d["granted_frames"]:
        failures.append(
            f"trace: spcm.request_frames returned {granted} frames but "
            f"SystemPageCacheManager.granted_frames grew by "
            f"{d['granted_frames']}: frames are granted by a path that "
            "bypasses the public request_frames"
        )
    reclaimed = spans.observed["managers.reclaim_pages"][0]
    if reclaimed != d["reclaimed"]:
        failures.append(
            f"trace: managers.reclaim_pages reclaimed {reclaimed} pages but "
            f"the managers' pages_reclaimed grew by {d['reclaimed']}: a "
            "path calls reclaim_one without the public reclaim_pages"
        )


def check_shape(workload: str, spans, table: dict,
                failures: list[str]) -> None:
    """The workload still stresses the layers it was chosen for."""
    faults_per_ref = table["core.faults_per_ref"]
    if workload == "serve-hot" and not faults_per_ref <= 0.02:
        failures.append(
            f"shape: serve-hot faults per reference {faults_per_ref:.4f} "
            "> 0.02 (the working set no longer stays resident)"
        )
    if workload == "serve-thrash":
        if not faults_per_ref >= 0.3:
            failures.append(
                f"shape: serve-thrash faults per reference "
                f"{faults_per_ref:.4f} < 0.3 (the quota no longer thrashes)"
            )
        if not table["spcm.quota_deferrals"] > 0:
            failures.append("shape: serve-thrash saw no SPCM quota deferral")
    if workload == "paging-mix":
        for key in ("managers.reclaimed", "managers.writebacks"):
            if not table[key] > 0:
                failures.append(f"shape: paging-mix {key} is 0")
        busy = [
            name for name in ("serve.submit", "serve.flush", "sim.run",
                              "sim.schedule")
            if spans.n(name)
        ]
        if busy:
            failures.append(f"shape: paging-mix entered {', '.join(busy)}")


def per_layer_table(spans, d: dict, w) -> dict:
    refs = d["references"]
    faults = d["faults"]
    meter = d["meter"]
    sim_us = dict.fromkeys(("kernel", "ipc", "manager", "disk", "zeroing"),
                           0.0)
    for cat, us in meter.items():
        sim_us[SIM_BUCKETS.get(cat, "kernel")] += us
    fault_us = spans.durations_us("core.dispatch_fault")
    p = _import_workloads().percentile
    flushes = spans.n("serve.flush")
    events = d["events"]
    sim_self = spans.layer_self_s("sim")
    requests, granting = (
        spans.n("spcm.request_frames"),
        spans.observed["spcm.request_frames"][1],
    )
    table = {
        "serve.submit_calls": spans.n("serve.submit"),
        "serve.flush_calls": flushes,
        "serve.items_per_flush": (
            d.get("items_serviced", 0) / flushes if flushes else 0.0
        ),
        "serve.submit_self_s": spans.self_of("serve.submit"),
        "serve.flush_self_s": spans.self_of("serve.flush"),
        "serve.queue_wait_p99_us": p(getattr(w, "queue_waits", []), 99),
        "sim.events": events,
        "sim.engine_self_s": sim_self,
        "sim.host_us_per_event": sim_self * 1e6 / events if events else 0.0,
        "spcm.requests": requests,
        "spcm.frames_granted": d["granted_frames"],
        "spcm.quota_deferrals": d["quota_deferrals"],
        "spcm.grant_ratio": granting / requests if requests else 0.0,
        "spcm.self_s": spans.layer_self_s("spcm"),
        "core.references": refs,
        "core.faults": faults,
        "core.faults_per_ref": faults / refs if refs else 0.0,
        "core.fault_host_us_p50": p(fault_us, 50),
        "core.fault_host_us_p99": p(fault_us, 99),
        "core.reference_self_s": spans.self_of("core.reference"),
        "core.self_s": spans.layer_self_s("core"),
        "core.migrate_calls": d["migrate_calls"],
        "core.migrate_batches": d["migrate_batches"],
        "core.zero_fills": d["zero_fills"],
        "core.uio_calls": spans.n("core.uio_read") + spans.n("core.uio_write"),
        "core.uio_self_s": sum(
            spans.self_of(name)
            for name in ("core.uio_read", "core.uio_write",
                         "core.fetch_page", "core.store_page")
        ),
        "core.page_ins": spans.n("core.fetch_page"),
        "core.page_outs": spans.n("core.store_page"),
        "managers.calls": spans.n("managers.handle_fault"),
        "managers.self_s": spans.layer_self_s("managers"),
        "managers.reclaimed": d["reclaimed"],
        "managers.writebacks": d["writebacks"],
        "managers.reclaims_per_fault": (
            d["reclaimed"] / faults if faults else 0.0
        ),
        "managers.fast_reclaim_ratio": (
            d["fast_reclaims"] / d["faults_handled"]
            if d["faults_handled"] else 0.0
        ),
        "hw.disk_reads": d["disk_reads"],
        "hw.disk_writes": d["disk_writes"],
        "hw.tlb_hit_ratio": (
            d["tlb_hits"] / d["tlb_lookups"] if d["tlb_lookups"] else 0.0
        ),
    }
    for bucket, us in sim_us.items():
        table[f"sim_us.{bucket}"] = us
    table["bench.gen_self_s"] = spans.self_of("bench.gen")
    return table


def traced_run(workload: str, seed: int) -> dict:
    """The fixed window untraced, then replayed traced on a fresh system."""
    workloads = _import_workloads()
    from spans import SpanRecorder

    plain = workloads.make(workload, seed)
    plain.warm_up()
    plain_s = run_window(plain)
    plain.finish()

    spans = SpanRecorder()
    w = workloads.make(workload, seed, spans=spans)
    w.warm_up()
    before = _counters(w)
    spans.start()
    traced_s = run_window(w)
    spans.stop()
    d = _delta(before, _counters(w))
    w.finish()
    w.failures.extend(plain.failures)
    if plain.fingerprint != w.fingerprint:
        w.failures.append(
            "determinism: the traced replay of the fixed window differs "
            f"from the untraced run: {plain.fingerprint} vs {w.fingerprint}"
        )
    check_consistency(spans, d, w.failures)
    table = per_layer_table(spans, d, w)
    check_shape(workload, spans, table, w.failures)
    attributed = spans.total_self_s()
    unattributed = (traced_s - attributed) / traced_s
    if not 0.0 <= unattributed < 0.05:
        w.failures.append(
            f"trace: layer self times plus bench.gen account for "
            f"{attributed:.3f}s of the {traced_s:.3f}s traced window"
        )
    table["trace.unattributed_share"] = unattributed
    table["trace.overhead"] = traced_s / plain_s
    spans.write(OUT_DIR / f"spans-{workload}.tsv.gz")
    print(f"# {workload} seed={seed}: fixed window {plain_s:.3f}s untraced, "
          f"{traced_s:.3f}s traced, {len(spans.name)} spans")
    print_fingerprint(w.fingerprint)
    w.attempted += plain.attempted
    return _result(w, {
        name: metric(value, _unit(name)) for name, value in table.items()
    })


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us" in name or name.startswith("sim_us."):
        return "us"
    if name.endswith(("_ratio", "_share", "_per_ref", "_per_fault",
                      "_per_flush", ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def self_test() -> int:
    """Traced runs twice per workload on the default and held-out seed:
    every run correct (shape + consistency) and fingerprints identical."""
    ok = True
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in WORKLOADS:
            prints = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1"],
                    capture_output=True, text=True, cwd=ROOT, timeout=600,
                )
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1]) if lines else {}
                fps = [ln for ln in lines if ln.startswith("fingerprint ")]
                prints.append(fps[0] if fps else None)
                if proc.returncode != 0 or not result.get("correct"):
                    ok = False
                    print(f"FAIL {workload} seed={seed}:")
                    print("\n".join(ln for ln in lines if "FAILURE" in ln)
                          or proc.stderr[-2000:])
            same = prints[0] is not None and prints[0] == prints[1]
            ok = ok and same
            print(f"{'ok  ' if same else 'FAIL'} {workload} seed={seed}: "
                  f"{'identical' if same else 'different'} fingerprints "
                  "across processes")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = measured_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
