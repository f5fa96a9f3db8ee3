"""The three benchmark workloads, driven through the program's public API.

Every workload is built from ``seed`` by the benchmark's own generator
(``random.Random``); the program receives only the references it makes.
A workload has three phases:

* set-up: boot, admission or file creation (``__init__``) and warm-up
  (``warm_up``), the part ``setup_s`` times;
* a *fixed window* of simulated work right after warm-up, identical for a
  given seed on every host: the simulated metrics, the state digest and
  the traced per-layer table all come from it;
* as many further chunks as the host-time budget allows, which only feed
  ``refs_per_host_s``.

``step()`` runs one chunk and returns the references it completed.  A
chunk never straddles the end of the fixed window, so the window's state
can be fingerprinted exactly.
"""

from __future__ import annotations

import random

from repro import build_system
from repro.chaos.invariants import InvariantChecker
from repro.core.api import AdmitTenantRequest, RetryAfter, TenantQuota
from repro.errors import ReproError
from repro.serve.tenants import ServingSystem
from repro.verify.digest import state_digest

RETRY_REASONS = ("admission", "backpressure", "capacity")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def jain(values: list[float]) -> float:
    """Jain's fairness index over per-client counts."""
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * square_sum)


class Workload:
    """Shared driving logic; subclasses supply the system and the load."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.attempted = 0
        self.window_open = False
        self.window_done = False
        self.latencies: list[float] = []
        self.fingerprint: dict | None = None

    # subclasses provide: system, kernel, warm_up(), window_full(),
    # step(), _window_metrics() and finish()

    def open_window(self) -> None:
        self.window_open = True

    def close_window(self) -> None:
        """Freeze the fixed window: simulated metrics plus state digest."""
        self.window_open = False
        self.window_done = True
        metrics = self._window_metrics()
        metrics["state_digest"] = state_digest(self.system)
        self.fingerprint = metrics

    def check_invariants(self) -> None:
        """Global invariants and frame conservation, counted as failures."""
        try:
            InvariantChecker(self.kernel).check_all()
            self.kernel.check_frame_conservation()
        except ReproError as exc:
            self.failures.append(f"invariant: {exc}")


class ServeWorkload(Workload):
    """64 closed-loop tenants on the serving layer of a 2-node machine."""

    N_TENANTS = 64
    MEMORY_MB = 8
    N_NODES = 2
    WORKING_SET_PAGES = 16
    RATE_PER_S = 4_000.0
    BURST = 4.0
    MAX_BACKLOG = 256
    THINK_US_MEAN = 200.0
    FLUSH_US = 50.0
    WRITE_FRACTION = 0.25
    WARMUP_US = 20_000.0
    CHUNK_US = 1_000.0

    def __init__(self, seed: int, quota_frames: int, window_us: float,
                 spans=None) -> None:
        super().__init__()
        self.window_us = window_us
        self.system = build_system(
            memory_mb=self.MEMORY_MB, n_nodes=self.N_NODES, manager_frames=64
        )
        self.kernel = self.system.kernel
        self.serving = ServingSystem(
            self.system,
            seed=seed,
            rate_per_s=self.RATE_PER_S,
            burst=self.BURST,
            max_backlog=self.MAX_BACKLOG,
        )
        self.sessions = []
        for i in range(self.N_TENANTS):
            tenant = f"tenant-{i}"
            result = self.serving.admit(
                AdmitTenantRequest(
                    tenant,
                    working_set_pages=self.WORKING_SET_PAGES,
                    quota=TenantQuota(tenant, frames=quota_frames),
                )
            )
            if not result.admitted:
                raise RuntimeError(f"{tenant} was not admitted")
            self.sessions.append(self.serving.sessions[tenant])
        self.engine = self.serving.engine
        self.spans = spans
        self._run = self.engine.run
        if spans is not None:
            spans.install_serve(self.serving)
            spans.install_system(self.system)
            self._run = spans.wrap("sim.run", self._run)
        self.serving.on_tenant_fault(self._on_serviced)
        self.events = 0
        #: engine times of admitted, not yet flushed submits (traced only)
        self._pending_submits: list[float] = []
        self.queue_waits: list[float] = []
        self._start_load(seed)

    # -- the generator ------------------------------------------------------

    def _start_load(self, seed: int) -> None:
        engine = self.engine
        serving = self.serving
        schedule = engine.schedule
        if self.spans is not None:
            schedule = self.spans.wrap("sim.schedule", schedule)
        think_rate = 1.0 / self.THINK_US_MEAN
        write_fraction = self.WRITE_FRACTION
        record_waits = self.spans is not None
        pending = self._pending_submits

        def tenant_loop(session, rng):
            n_pages = session.segment.n_pages
            page_size = session.segment.page_size

            def arrive():
                self.events += 1
                vaddr = rng.randrange(n_pages) * page_size
                write = rng.random() < write_fraction
                shed = serving.submit(session, vaddr, write)
                if shed is None:
                    self.attempted += 1
                    if record_waits:
                        pending.append(engine.now)
                    schedule(rng.expovariate(think_rate), callback)
                    return
                if not (
                    isinstance(shed, RetryAfter)
                    and shed.retry_after_us > 0
                    and shed.reason in RETRY_REASONS
                ):
                    self.failures.append(f"untyped shed: {shed!r}")
                schedule(max(shed.retry_after_us, 1.0), callback)

            callback = self._gen_span(arrive)
            return callback

        def pump():
            self.events += 1
            if record_waits and self.window_open:
                now = engine.now
                self.queue_waits.extend(now - t for t in pending)
            pending.clear()
            serving.flush()
            schedule(self.FLUSH_US, pump_cb)

        pump_cb = self._gen_span(pump)
        for i, session in enumerate(self.sessions):
            rng = random.Random(f"serve:{seed}:{i}")
            # stagger first arrivals so the tenants do not share one slot
            schedule(float(i), tenant_loop(session, rng))
        schedule(self.FLUSH_US, pump_cb)

    def _gen_span(self, fn):
        if self.spans is None:
            return fn
        return self.spans.wrap("bench.gen", fn)

    def _on_serviced(self, tenant: str, latency_us: float) -> None:
        if self.window_open:
            self.latencies.append(latency_us)

    # -- phases -------------------------------------------------------------

    def warm_up(self) -> None:
        self.engine.run(until=self.WARMUP_US)
        self.attempted = 0
        self.window_end_us = self.WARMUP_US + self.window_us

    def open_window(self) -> None:
        super().open_window()
        self._window_start = self._counters()

    def window_full(self) -> bool:
        return self.engine.now >= self.window_end_us

    def step(self) -> int:
        before = self.serving.scheduler.items_serviced
        until = self.engine.now + self.CHUNK_US
        if not self.window_done:
            until = min(until, self.window_end_us)
        self._run(until=until)
        return self.serving.scheduler.items_serviced - before

    def _counters(self) -> dict:
        return {
            "serviced": [s.serviced for s in self.sessions],
            "submitted": sum(s.submitted for s in self.sessions),
            "shed": sum(s.shed for s in self.sessions),
        }

    def _window_metrics(self) -> dict:
        start, end = self._window_start, self._counters()
        serviced = [
            float(b - a) for a, b in zip(start["serviced"], end["serviced"])
        ]
        submitted = end["submitted"] - start["submitted"]
        shed = end["shed"] - start["shed"]
        return {
            "samples": len(self.latencies),
            "sim_latency_p50_us": percentile(self.latencies, 50),
            "sim_latency_p99_us": percentile(self.latencies, 99),
            "sim_refs_per_s": sum(serviced) / (self.window_us * 1e-6),
            "admitted_rate": (submitted - shed) / submitted,
            "fairness_jain": jain(serviced),
        }

    def finish(self) -> None:
        """Drain the queue, then run every correctness check."""
        self.serving.flush()
        errors = sum(s.service_errors for s in self.sessions)
        if errors or self.serving.scheduler.errors:
            self.failures.append(
                f"service errors: {errors} in sessions, "
                f"{self.serving.scheduler.errors} in the scheduler"
            )
        for s in self.sessions:
            if s.shed and not isinstance(s.last_retry_after, RetryAfter):
                self.failures.append(f"{s.tenant} shed without RetryAfter")
        self.check_invariants()


class PagingWorkload(Workload):
    """One client paging a cached file and an anonymous region through the
    default manager on a 1 MB machine."""

    MEMORY_MB = 1
    MANAGER_FRAMES = 64
    FILE_PAGES = 448  # 1.75x the 256-frame memory
    ANON_PAGES = 64
    HOT_FILE_PAGES = 96
    HOT_STRIDE = 4
    HOT_FRACTION = 0.85
    WARMUP_OPS = 4_000
    CHUNK_OPS = 250
    #: cumulative op mix: file read, file write, anonymous read, write
    MIX = (0.40, 0.60, 0.82, 1.0)

    def __init__(self, seed: int, window_ops: int, spans=None) -> None:
        super().__init__()
        self.window_ops = window_ops
        self.rng = random.Random(f"paging:{seed}")
        self.system = build_system(
            memory_mb=self.MEMORY_MB, manager_frames=self.MANAGER_FRAMES
        )
        self.kernel = self.system.kernel
        manager = self.system.default_manager
        page_size = self.kernel.memory.page_size
        self.page_size = page_size
        self.file_bytes = self.FILE_PAGES * page_size
        initial = self.rng.randbytes(self.file_bytes)
        #: the last write (or initial contents) of every file byte
        self.shadow = bytearray(initial)
        self.file = self.kernel.create_segment(
            0, name="data-file", manager=manager, auto_grow=True
        )
        self.system.file_server.create_file(self.file, data=initial)
        self.anon = self.kernel.create_segment(
            self.ANON_PAGES, name="anon", manager=manager
        )
        # every HOT_STRIDE-th page from a seeded start: a read that crosses
        # a page boundary then always lands on a cold page, so the fault
        # rate does not depend on how many hot pages a seed happens to
        # place side by side
        start = self.rng.randrange(
            self.FILE_PAGES - self.HOT_STRIDE * (self.HOT_FILE_PAGES - 1)
        )
        self.hot_pages = list(
            range(start, start + self.HOT_STRIDE * self.HOT_FILE_PAGES,
                  self.HOT_STRIDE)
        )
        self.ops_done = 0
        self.spans = spans
        self._ops = self._run_ops
        if spans is not None:
            spans.install_system(self.system)
            self._ops = spans.wrap("bench.gen", self._run_ops)

    def _op(self) -> None:
        rng = self.rng
        page_size = self.page_size
        r = rng.random()
        if r >= self.MIX[1]:
            vaddr = rng.randrange(self.ANON_PAGES * page_size)
            self.kernel.reference(self.anon, vaddr, r >= self.MIX[2])
            return
        if rng.random() < self.HOT_FRACTION:
            page = rng.choice(self.hot_pages)
        else:
            page = rng.randrange(self.FILE_PAGES)
        offset = page * page_size + rng.randrange(page_size)
        if r < self.MIX[0]:
            n = min(rng.randint(1, page_size), self.file_bytes - offset)
            data = self.system.uio.read(self.file, offset, n)
            if data != self.shadow[offset : offset + n]:
                self.failures.append(
                    f"file read at {offset} (+{n}) differs from the last write"
                )
        else:
            n = min(rng.randint(16, page_size // 2), self.file_bytes - offset)
            data = rng.randbytes(n)
            self.system.uio.write(self.file, offset, data)
            self.shadow[offset : offset + n] = data

    def warm_up(self) -> None:
        self._run_ops(self.WARMUP_OPS)

    def open_window(self) -> None:
        super().open_window()
        self.ops_done = 0
        self._meter_start = self.kernel.meter.total_us

    def window_full(self) -> bool:
        return self.ops_done >= self.window_ops

    def step(self) -> int:
        n = self.CHUNK_OPS
        if self.window_open:
            n = min(n, self.window_ops - self.ops_done)
        self._ops(n)
        self.ops_done += n
        self.attempted += n
        return n

    def _run_ops(self, n: int) -> None:
        op = self._op
        if not self.window_open:
            for _ in range(n):
                op()
            return
        meter = self.kernel.meter
        record = self.latencies.append
        for _ in range(n):
            before = meter.total_us
            op()
            record(meter.total_us - before)

    def _window_metrics(self) -> dict:
        sim_s = (self.kernel.meter.total_us - self._meter_start) * 1e-6
        return {
            "samples": len(self.latencies),
            "sim_latency_p50_us": percentile(self.latencies, 50),
            "sim_latency_p99_us": percentile(self.latencies, 99),
            "sim_refs_per_s": self.window_ops / sim_s,
            # one client and no admission layer: every op is admitted
            # and Jain's index over a single client is 1 by definition
            "admitted_rate": 1.0,
            "fairness_jain": 1.0,
        }

    def finish(self) -> None:
        # a full read-back of the file checks pages that were paged out,
        # written back and faulted in again, not just the ones read lately
        for offset in range(0, self.file_bytes, self.page_size):
            data = self.system.uio.read(self.file, offset, self.page_size)
            if data != self.shadow[offset : offset + self.page_size]:
                self.failures.append(f"final read-back differs at {offset}")
        self.check_invariants()


# ---------------------------------------------------------------------------
# the named workloads
# ---------------------------------------------------------------------------


def make(name: str, seed: int, spans=None) -> Workload:
    """A fresh, not yet warmed-up instance of workload ``name``."""
    if name == "serve-hot":
        w = ServeWorkload(seed, quota_frames=16, window_us=240_000.0,
                          spans=spans)
    elif name == "serve-thrash":
        w = ServeWorkload(seed, quota_frames=8, window_us=120_000.0,
                          spans=spans)
    elif name == "paging-mix":
        w = PagingWorkload(seed, window_ops=60_000, spans=spans)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w
