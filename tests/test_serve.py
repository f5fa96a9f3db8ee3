"""The multi-tenant serving layer: admission, batching, quotas.

Unit coverage for the token bucket, the admission controller's three
shed reasons (every shed a typed :class:`~repro.core.api.RetryAfter`),
and the batch scheduler's one-refill-per-batch contract and its
conservation when an unexpected error escapes a flush; segment-owned
tenant billing; integration coverage for the typed ``AdmitTenant``
entry, quota deferral (a tenant over quota thrashes its own residents,
it is never refused), and the closed-loop load generator; and a
hypothesis property driving randomized admit/run/shed/crash
interleavings twice each, asserting frame and dram-quota conservation
(the invariant checker's quota sweep), ``admitted == serviced +
backlog`` after every flush, per-tenant billing of exactly the outermost
faults on each tenant's segment, and bit-identical serving digests.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.injector import Injector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.plan import ChaosPlan
from repro.core.api import AdmitTenantRequest, RetryAfter, TenantQuota
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.loadgen import admit_fleet, run_load
from repro.serve.tenants import ServingSystem
from repro.verify.workloads import build_workload_system


def build_serving(seed=0, **kwargs):
    """A small 2-node machine with a serving layer over it."""
    system = build_workload_system(n_nodes=2)
    return system, ServingSystem(system, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        wait = bucket.try_take(0.0)
        # one token at 1000/s is 1000 us away
        assert wait == pytest.approx(1000.0)

    def test_refills_from_simulated_time(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=1.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        # 1 ms later the single token has accrued again
        assert bucket.try_take(1000.0) == 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3.0)
        bucket.try_take(0.0)
        # an hour of idle accrues at most `burst` tokens
        for _ in range(3):
            assert bucket.try_take(3.6e9) == 0.0
        assert bucket.try_take(3.6e9) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# admission controller: three shed reasons, all typed
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_admission_shed_is_typed_with_horizon(self):
        ac = AdmissionController(rate_per_s=1000.0, burst=1.0)
        assert ac.admit_tenant("t") is None
        assert ac.try_admit("t", 0.0) is None
        shed = ac.try_admit("t", 0.0)
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "admission"
        assert shed.tenant == "t"
        assert shed.retry_after_us > 0.0
        assert ac.shed_by_reason == {"admission": 1}

    def test_backpressure_shed(self):
        ac = AdmissionController(
            rate_per_s=1000.0,
            burst=8.0,
            max_backlog=4,
            backlog_fn=lambda: 10,
        )
        ac.admit_tenant("t")
        shed = ac.try_admit("t", 0.0)
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "backpressure"
        # horizon covers draining the excess at the token rate
        assert shed.retry_after_us == pytest.approx(7 / 1000.0 * 1e6)

    def test_capacity_shed(self):
        ac = AdmissionController(max_tenants=1)
        assert ac.admit_tenant("a") is None
        shed = ac.admit_tenant("b")
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "capacity"
        # re-admitting a registered tenant is idempotent, not capacity
        assert ac.admit_tenant("a") is None

    def test_counters(self):
        ac = AdmissionController(rate_per_s=1000.0, burst=1.0)
        ac.admit_tenant("t")
        ac.try_admit("t", 0.0)
        ac.try_admit("t", 0.0)
        assert ac.admitted == 1
        assert ac.shed == 1
        stats = ac.stats_dict()
        assert stats["admitted"] == 1.0
        assert stats["shed.admission"] == 1.0


# ---------------------------------------------------------------------------
# batch scheduler
# ---------------------------------------------------------------------------


class TestBatchScheduler:
    def test_one_batch_per_manager_node(self):
        _system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        b = serving.sessions["tenant-1"]
        page = a.segment.page_size
        for i in range(4):
            assert serving.submit(a, i * page, False) is None
            assert serving.submit(b, i * page, True) is None
        assert serving.scheduler.backlog == 8
        serviced = serving.flush()
        assert serviced == 8
        assert serving.scheduler.backlog == 0
        # two tenants on two home nodes: exactly two batches
        assert serving.scheduler.batches_flushed == 2

    def test_batched_refill_uses_typed_kernel_entry(self):
        from repro.core.api import BatchMigratePagesRequest

        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        kernel = system.kernel
        typed_batches = []
        original = kernel.migrate_pages_batch

        def spy(requests):
            if isinstance(requests, BatchMigratePagesRequest):
                typed_batches.append(requests.n_requests)
            return original(requests)

        kernel.migrate_pages_batch = spy
        try:
            page = session.segment.page_size
            for i in range(6):
                serving.submit(session, i * page, False)
            serving.flush()
        finally:
            kernel.migrate_pages_batch = original
        assert session.serviced == 6
        # the whole flush pre-refilled through typed batched entries
        # (one per shard touched), never per-fault refill churn
        assert typed_batches
        assert sum(typed_batches) >= 1

    def test_tenant_attribution_books_per_tenant_faults(self):
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        page = a.segment.page_size
        for i in range(3):
            serving.submit(a, i * page, False)
        serving.flush()
        stats = system.kernel.stats
        assert stats.tenant_faults.get("tenant-0", 0) == 3
        assert stats.tenant_fault_us["tenant-0"] > 0.0
        assert "tenant-1" not in stats.tenant_faults

    def test_latency_includes_queue_wait(self):
        _system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        serving.submit(session, 0, False)
        # advance the engine 500 us before the flush happens
        serving.engine.schedule(500.0, serving.flush)
        serving.engine.run()
        assert session.latency.count == 1
        assert session.latency.percentile(50) >= 500.0


    def test_at_quota_flush_skips_the_doomed_pre_refill(self):
        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=4)
        session = serving.sessions["tenant-0"]
        spcm = system.spcm
        page = session.segment.page_size
        for i in range(4):
            serving.submit(session, i * page, False)
        serving.flush()
        assert spcm.held_by(session.account) == 4
        assert session.manager.free_frames == 0
        deferred = spcm.deferred_requests
        quota_deferrals = spcm.quota_deferrals
        calls = []
        original = spcm.request_frames

        def spy(manager, request, dst_segment):
            calls.append(request.n_frames)
            return original(manager, request, dst_segment)

        spcm.request_frames = spy
        try:
            # the same four pages again: resident, so nothing faults, and
            # the at-quota tenant is not asked for a pre-refill either
            for i in range(4):
                serving.submit(session, i * page, True)
            assert serving.flush() == 4
        finally:
            del spcm.request_frames
        assert calls == []
        assert spcm.deferred_requests == deferred
        assert spcm.quota_deferrals == quota_deferrals
        assert session.service_errors == 0

    def test_below_quota_flush_pre_refills_the_whole_batch(self):
        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        spcm = system.spcm
        sizes = []
        original = spcm.request_frames

        def spy(manager, request, dst_segment):
            sizes.append(request.n_frames)
            return original(manager, request, dst_segment)

        spcm.request_frames = spy
        try:
            page = session.segment.page_size
            for i in range(6):
                serving.submit(session, i * page, False)
            serving.flush()
        finally:
            del spcm.request_frames
        # one request sized to the batch, granted in full below the cap
        assert sizes[0] == 6
        assert spcm.held_by(session.account) >= 6
        assert session.serviced == 6

    def test_unexpected_error_leaves_unreached_batches_queued(self):
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        b = serving.sessions["tenant-1"]
        page = a.segment.page_size
        for i in range(3):
            serving.submit(a, i * page, False)
            serving.submit(b, i * page, False)
        kernel = system.kernel

        def boom(segment, vaddr, write=False):
            raise RuntimeError("not a ReproError")

        kernel.reference = boom
        try:
            with pytest.raises(RuntimeError):
                serving.flush()
        finally:
            del kernel.reference
        scheduler = serving.scheduler
        # tenant-0's first request raised and is the one the caller saw;
        # the rest of its batch went back to the head of its queue, and
        # tenant-1's batch was never reached
        assert scheduler.backlog == 5
        assert scheduler.batches_flushed == 1
        assert scheduler.items_serviced == 0
        assert a.serviced == 0
        assert serving.flush() == 5
        assert a.serviced == 2
        assert b.serviced == 3
        assert scheduler.backlog == 0
        assert scheduler.items_serviced == 5

    def test_mid_batch_error_requeues_the_tail_ahead_of_newer_work(self):
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        b = serving.sessions["tenant-1"]
        page = a.segment.page_size
        for i in range(3):
            serving.submit(a, i * page, False)
            serving.submit(b, i * page, False)
        kernel = system.kernel
        original = kernel.reference
        seen = []
        calls = [0]

        def boom_on_second(segment, vaddr, write=False):
            seen.append((segment.tenant, vaddr))
            calls[0] += 1
            if calls[0] == 2:
                raise RuntimeError("not a ReproError")
            return original(segment, vaddr, write)

        kernel.reference = boom_on_second
        try:
            with pytest.raises(RuntimeError):
                serving.flush()
            # tenant-0's first request was serviced, its second raised,
            # its third is back at the head of its queue
            assert a.serviced == 1
            assert serving.scheduler.backlog == 4
            serving.submit(a, 5 * page, False)
            seen.clear()
            assert serving.flush() == 5
        finally:
            del kernel.reference
        assert seen == [
            ("tenant-0", 2 * page),
            ("tenant-0", 5 * page),
            ("tenant-1", 0),
            ("tenant-1", page),
            ("tenant-1", 2 * page),
        ]
        assert a.serviced == 3
        assert b.serviced == 3
        # only the raising request is neither serviced nor queued
        assert serving.admission.admitted == (
            serving.scheduler.items_serviced + serving.scheduler.backlog + 1
        )

    def test_flush_looks_up_kernel_reference_at_flush_time(self):
        # a wrapper installed on the instance after the serving system is
        # built (as the host-time benchmark does) must see every request
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        kernel = system.kernel
        calls = []
        original = kernel.reference

        def counting(segment, vaddr, write=False):
            calls.append(segment.tenant)
            return original(segment, vaddr, write)

        kernel.reference = counting
        try:
            page = kernel.memory.page_size
            for session in serving.sessions.values():
                for i in range(3):
                    serving.submit(session, i * page, i == 1)
            assert serving.flush() == 6
        finally:
            del kernel.reference
        assert len(calls) == 6
        assert sorted(calls) == ["tenant-0"] * 3 + ["tenant-1"] * 3


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["grant", "return", "quota"]),
            st.integers(min_value=0, max_value=24),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_at_quota_request_grants_nothing(ops):
    """The scheduler's skip rule matches the SPCM clamp: whenever
    ``held_by(account) >= quota``, ``request_frames`` returns 0 and
    grants nothing, so skipping that pre-refill changes no grant."""
    system, serving = build_serving()
    admit_fleet(serving, 1, working_set_pages=8)
    manager = serving.sessions["tenant-0"].manager
    spcm = system.spcm
    account = spcm.account_of(manager)
    for op, n in ops:
        if op == "quota":
            spcm.set_tenant_quota(TenantQuota(account, frames=n))
        elif op == "return":
            manager.return_frames(n)
        elif n > 0:
            quota = spcm.arbiter.quota_of(account)
            held = spcm.held_by(account)
            granted_before = spcm.granted_frames
            free_before = manager.free_frames
            got = manager.request_frames(n)
            if quota is not None and held >= quota:
                assert got == 0
                assert spcm.held_by(account) == held
                assert spcm.granted_frames == granted_before
                assert manager.free_frames == free_before
            else:
                assert spcm.held_by(account) == held + got


# ---------------------------------------------------------------------------
# segment-owned tenant billing
# ---------------------------------------------------------------------------


class TestTenantBilling:
    def test_flush_and_direct_references_bill_alike(self):
        def bill(through_flush):
            system, serving = build_serving()
            admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
            session = serving.sessions["tenant-1"]
            page = session.segment.page_size
            for i in range(4):
                if through_flush:
                    serving.submit(session, i * page, False)
                    serving.flush()
                else:
                    # no serving scope at all: the segment decides the bill
                    system.kernel.reference(session.segment, i * page, False)
            stats = system.kernel.stats
            assert stats.tenant_fault_us["tenant-1"] > 0.0
            # the fault latencies differ (a flush pre-refills the frame
            # stock outside the fault), the count of billed faults not
            return dict(stats.tenant_faults)

        assert bill(True) == bill(False) == {"tenant-1": 4}

    def test_default_manager_fault_is_billed_to_no_tenant(self):
        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        kernel = system.kernel
        faults = kernel.stats.faults
        plain = kernel.create_segment(4, manager=system.default_manager)
        assert plain.tenant is None
        kernel.reference(plain, 0, True)
        assert kernel.stats.faults > faults
        assert kernel.stats.tenant_faults == {}
        assert kernel.stats.tenant_fault_us == {}

    def test_nested_fault_is_billed_once_to_the_outermost_tenant(self):
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        kernel = system.kernel
        outer = serving.sessions["tenant-0"]
        inner = serving.sessions["tenant-1"]
        original = outer.manager.handle_fault
        nested = []

        def fill_touching_another_tenant(fault):
            # the fill itself faults on tenant-1's segment
            faults = kernel.stats.faults
            kernel.reference(inner.segment, 0, True)
            nested.append(kernel.stats.faults - faults)
            return original(fault)

        outer.manager.handle_fault = fill_touching_another_tenant
        serving.submit(outer, 0, True)
        serving.flush()
        del outer.manager.handle_fault
        assert nested == [1]
        assert kernel.stats.tenant_faults == {"tenant-0": 1}
        assert "tenant-1" not in kernel.stats.tenant_fault_us
        # the outermost service's latency covers the nested fault too
        assert kernel.stats.tenant_fault_us["tenant-0"] == pytest.approx(
            outer.latency.total
        )


# ---------------------------------------------------------------------------
# the typed AdmitTenant entry
# ---------------------------------------------------------------------------


class TestAdmit:
    def test_admit_creates_manager_segment_and_quota(self):
        system, serving = build_serving()
        result = serving.admit(
            AdmitTenantRequest(
                "alpha",
                working_set_pages=8,
                quota=TenantQuota("alpha", frames=12),
            )
        )
        assert result.admitted
        assert result.tenant == "alpha"
        assert result.home_node == 0
        session = serving.sessions["alpha"]
        assert session.manager.name == "alpha"
        assert session.segment.n_pages == 8
        assert session.segment.tenant == "alpha"
        assert system.spcm.arbiter.quota_of(session.account) == 12
        assert result.account == session.account
        assert result.retry_after is None

    def test_home_nodes_round_robin(self):
        _system, serving = build_serving()
        admit_fleet(serving, 4, working_set_pages=4)
        nodes = [
            serving.sessions[f"tenant-{i}"].home_node for i in range(4)
        ]
        assert nodes == [0, 1, 0, 1]

    def test_duplicate_admission_raises(self):
        _system, serving = build_serving()
        serving.admit(AdmitTenantRequest("dup"))
        with pytest.raises(ValueError):
            serving.admit(AdmitTenantRequest("dup"))

    def test_capacity_shed_result(self):
        _system, serving = build_serving(max_tenants=1)
        assert serving.admit(AdmitTenantRequest("a")).admitted
        result = serving.admit(AdmitTenantRequest("b"))
        assert not result.admitted
        assert result.retry_after is not None
        assert result.retry_after.reason == "capacity"
        assert "b" not in serving.sessions


# ---------------------------------------------------------------------------
# quotas: defer, never refuse
# ---------------------------------------------------------------------------


class TestQuotaEnforcement:
    def test_over_quota_tenant_thrashes_but_completes(self):
        system, serving = build_serving()
        # working set twice the quota: every steady-state fault needs a
        # self-recycle, never an outright refusal
        admit_fleet(serving, 2, working_set_pages=16, quota_frames=8)
        serviced = run_load(serving, duration_us=10_000.0)
        assert serviced > 0
        assert system.spcm.quota_deferrals > 0
        for tenant in ("tenant-0", "tenant-1"):
            session = serving.sessions[tenant]
            assert session.serviced > 0, "quota starved a tenant outright"
            assert system.spcm.held_by(session.account) <= 8
        InvariantChecker(system.kernel).check_all()

    def test_every_shed_carries_retry_after(self):
        _system, serving = build_serving(rate_per_s=2_000.0, burst=1.0)
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        run_load(serving, duration_us=10_000.0)
        total_shed = 0
        for session in serving.sessions.values():
            total_shed += session.shed
            if session.shed:
                assert isinstance(session.last_retry_after, RetryAfter)
                assert session.last_retry_after.retry_after_us >= 0.0
        # the 2k/s rate against ~5k/s offered load must actually shed
        assert total_shed > 0


# ---------------------------------------------------------------------------
# determinism + conservation under randomized interleavings
# ---------------------------------------------------------------------------


def _serve_run(
    seed: int,
    n_tenants: int,
    quota_frames: int | None,
    duration_us: float,
    chaos_seed: int | None,
):
    """One full serving run; returns (digest rows, conservation report)."""
    system = build_workload_system(n_nodes=2)
    if chaos_seed is not None:
        injector = Injector(
            ChaosPlan(
                manager_crash_rate=0.15,
                manager_hang_rate=0.1,
                frame_ecc_rate=0.01,
                seed=chaos_seed,
                target_managers=tuple(
                    f"tenant-{i}" for i in range(n_tenants)
                ),
            ),
            tracer=system.tracer,
        )
        injector.install(system)
    serving = ServingSystem(system, seed=seed, rate_per_s=8_000.0)
    admit_fleet(
        serving, n_tenants, working_set_pages=8, quota_frames=quota_frames
    )
    kernel = system.kernel
    scheduler = serving.scheduler
    # an independent count of outermost faults per tenant segment: slow
    # path entries not nested inside another slow path entry
    outermost: dict[str, int] = {}
    depth = [0]
    slow_reference = kernel._slow_reference

    def counting_slow_reference(space, vpn, write):
        depth[0] += 1
        try:
            return slow_reference(space, vpn, write)
        finally:
            depth[0] -= 1
            if depth[0] == 0 and space.tenant is not None:
                outermost[space.tenant] = outermost.get(space.tenant, 0) + 1

    kernel._slow_reference = counting_slow_reference
    flush = serving.flush

    def conserving_flush():
        serviced = flush()
        # every admitted request is serviced or still queued
        assert serving.admission.admitted == (
            scheduler.items_serviced + scheduler.backlog
        )
        assert sum(s.serviced for s in serving.sessions.values()) == (
            scheduler.items_serviced
        )
        return serviced

    serving.flush = conserving_flush
    run_load(serving, duration_us)
    assert kernel.stats.tenant_faults == outermost
    checker = InvariantChecker(kernel)
    checker.check_all()  # frame + dram-quota conservation, or it raises
    rows = serving.digest_rows()
    rows.extend(system.spcm.digest_rows())
    rows.extend(system.spcm.arbiter.digest_rows())
    return rows


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_tenants=st.integers(min_value=1, max_value=4),
    quota_frames=st.one_of(st.none(), st.integers(min_value=2, max_value=16)),
    duration_us=st.sampled_from([2_000.0, 5_000.0]),
    chaos_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
def test_serving_interleavings_conserve_and_repeat(
    seed, n_tenants, quota_frames, duration_us, chaos_seed
):
    """Any admit/run/shed/crash interleaving: quota + frame conservation
    holds (the checker would raise), every flush leaves ``admitted ==
    serviced + backlog``, each tenant is billed exactly its outermost
    faults on its own segment, and two identical runs produce
    bit-identical serving/SPCM/arbiter digests."""
    first = _serve_run(seed, n_tenants, quota_frames, duration_us, chaos_seed)
    second = _serve_run(seed, n_tenants, quota_frames, duration_us, chaos_seed)
    assert first == second


class TestServingObservability:
    def test_telemetry_binds_serving_gauges(self):
        from repro.obs.telemetry import install_telemetry

        system, serving = build_serving()
        collector = install_telemetry(system, interval_us=500.0)
        collector.bind_serving(serving)
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        run_load(serving, duration_us=5_000.0)
        sample = collector.sample_now()
        assert sample.values["serve.tenants"] == 2.0
        assert sample.values["serve.admitted"] > 0.0
        assert sample.values["tenant.tenant-0.serviced"] > 0.0
        assert sample.values["tenant.tenant-0.held_frames"] <= 8.0

    def test_slo_watchdog_judges_per_tenant_p99(self):
        from repro.obs.slo import SLOPolicy, SLOWatchdog

        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        # an absurdly tight objective so the excursion definitely fires,
        # but only once per tenant (edge-triggered)
        policy = SLOPolicy(tenant_p99_us=0.001, min_tenant_samples=3)
        watchdog = SLOWatchdog(system, policy).watch_serving(serving)
        run_load(serving, duration_us=5_000.0)
        fired = {
            alert.name
            for alert in watchdog.alerts
            if alert.name.startswith("tenant_p99_latency:")
        }
        assert fired == {
            "tenant_p99_latency:tenant-0",
            "tenant_p99_latency:tenant-1",
        }
        assert len(watchdog.alerts) == 2

    def test_slo_watch_serving_disabled_by_default(self):
        from repro.obs.slo import SLOWatchdog

        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8)
        watchdog = SLOWatchdog(system).watch_serving(serving)
        run_load(serving, duration_us=2_000.0)
        assert watchdog.tenant_latency == {}
        assert watchdog.alerts == []


def test_bench_serve_cli_writes_payload_to_output(tmp_path, capsys):
    """``bench serve --output`` names the payload path, like its siblings."""
    import json

    from repro.serve import bench

    out = tmp_path / "serve.json"
    assert bench.main(["--output", str(out), "--duration-us", "2000"]) == 0
    report = json.loads(out.read_text())
    assert [row["n_tenants"] for row in report["results"]] == list(
        bench.TENANT_SWEEP
    )
    assert f"wrote {out}" in capsys.readouterr().out
