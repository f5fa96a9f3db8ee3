"""The closed-loop load generator over the serving layer.

Each tenant runs a closed loop on the discrete-event engine: issue a
reference, then think (exponential, from the tenant's own seeded RNG
substream) before the next --- a shed reschedules the *same* reference at
exactly the shed's ``retry_after_us`` horizon, so backpressure shapes the
offered load the way a real client obeying Retry-After would.  A periodic
pump flushes the batch scheduler.  Everything is a pure function of the
serving seed: the serving workloads of :mod:`repro.verify.workloads`
drive it unchanged under the run-twice determinism gate.
"""

from __future__ import annotations

from repro.core.api import AdmitTenantRequest, TenantQuota
from repro.serve.tenants import ServingSystem, TenantSession


def run_load(
    serving: ServingSystem,
    duration_us: float,
    think_us_mean: float = 200.0,
    flush_interval_us: float = 50.0,
    write_fraction: float = 0.25,
) -> int:
    """Drive every admitted tenant closed-loop for ``duration_us``.

    Returns the number of requests serviced.  Page picks, think times
    and read/write mix come from per-tenant substreams of the serving
    system's seeded RNG; arrivals past ``duration_us`` stop, then one
    final flush drains the scheduler.
    """
    engine = serving.engine
    end = engine.now + duration_us

    def arrive(session: TenantSession) -> None:
        if engine.now >= end:
            return
        rng = rngs[session.tenant]
        vaddr = (
            rng.randint(0, session.segment.n_pages - 1)
            * session.segment.page_size
        )
        write = rng.bernoulli(write_fraction)
        shed = serving.submit(session, vaddr, write)
        if shed is not None:
            # obey the typed Retry-After: same tenant, new arrival at
            # exactly the shed horizon (clamped to stay schedulable)
            engine.schedule(
                max(shed.retry_after_us, 1.0),
                lambda s=session: arrive(s),
            )
            return
        engine.schedule(
            rng.exponential(think_us_mean), lambda s=session: arrive(s)
        )

    def pump() -> None:
        serving.flush()
        if engine.now < end:
            engine.schedule(flush_interval_us, pump)

    rngs = {
        tenant: serving.rng.substream(f"tenant:{tenant}")
        for tenant in sorted(serving.sessions)
    }
    for i, tenant in enumerate(sorted(serving.sessions)):
        session = serving.sessions[tenant]
        # stagger first arrivals so 64 tenants do not trample one event slot
        engine.schedule(float(i), lambda s=session: arrive(s))
    engine.schedule(flush_interval_us, pump)
    engine.run(until=end)
    serving.flush()
    return serving.scheduler.items_serviced


def admit_fleet(
    serving: ServingSystem,
    n_tenants: int,
    working_set_pages: int = 16,
    quota_frames: int | None = None,
) -> list[TenantSession]:
    """Admit ``n_tenants`` uniform tenants (round-robin home nodes)."""
    sessions = []
    for i in range(n_tenants):
        tenant = f"tenant-{i}"
        quota = (
            TenantQuota(tenant, frames=quota_frames)
            if quota_frames is not None
            else None
        )
        result = serving.admit(
            AdmitTenantRequest(
                tenant,
                working_set_pages=working_set_pages,
                quota=quota,
            )
        )
        if result.admitted:
            sessions.append(serving.sessions[tenant])
    return sessions
