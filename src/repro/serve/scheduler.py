"""Batched fault-service scheduling per (manager, node).

Admitted references queue here instead of trapping one by one; on each
flush the scheduler walks the queues that got work in sorted key order
and, per batch, pre-refills the owning manager's frame stock with **one**
SPCM request sized to the batch --- which the sharded SPCM turns into one
batched ``MigratePages`` kernel entry
(:class:`~repro.core.api.BatchMigratePagesRequest`, full entry cost once,
marginal cost per further run) --- then drives the queued references
through ``kernel.reference``.  No per-request attribution is needed: each
tenant's working-set segment carries its tenant
(:attr:`~repro.core.segment.Segment.tenant`), so the kernel bills the
shared fault pipeline per tenant by itself.  A tenant already at its
frame quota is not asked: the SPCM's quota clamp would grant it nothing
(S2.4 defer), so the batch goes straight to the references and the
tenant's manager recycles its own residents.  A request's reported
latency is its queue wait (engine time) plus the metered cost of its own
service; the flush books it on the session (counters and latency tally)
and hands it to the serving system's fault hooks.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.serve.tenants import TenantSession

#: one admitted reference waiting for the next flush:
#: (session, vaddr, write, t_submit_us)
Queued = tuple["TenantSession", int, bool, float]


class BatchScheduler:
    """Coalesces outstanding fault-service work into batched flushes."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        # (manager name, home node) -> FIFO of queued requests, holding
        # only the keys with work; walked in sorted key order at flush so
        # the service order is deterministic
        self._queues: dict[tuple[str, int], list[Queued]] = {}
        self.backlog = 0
        self.batches_flushed = 0
        self.items_serviced = 0
        self.errors = 0

    def submit(
        self,
        session: "TenantSession",
        vaddr: int,
        write: bool,
        t_submit_us: float,
    ) -> None:
        """Queue one admitted reference for the next flush."""
        item = (session, vaddr, write, t_submit_us)
        queue = self._queues.get(session.queue_key)
        if queue is None:
            self._queues[session.queue_key] = [item]
        else:
            queue.append(item)
        self.backlog += 1

    def flush(
        self,
        now_us: float,
        hooks: Sequence[Callable[[str, float], None]] = (),
    ) -> int:
        """Service every queued request; returns the number serviced.

        Each request's queue wait + metered service latency is booked on
        its session (``serviced``, ``service_errors``, ``latency``) and
        then passed to every ``hook(tenant, latency_us)``, in order.  A
        reference raising a :class:`~repro.errors.ReproError` is counted
        as a service error, not propagated --- one tenant's out-of-frames
        must not stall the batch.  Should anything else escape, that
        request is the one the caller hears about; every request after
        it stays queued (the rest of its batch ahead of newer work on its
        key), so ``admitted == serviced + backlog`` still holds for all
        the others.
        """
        queues = self._queues
        if not queues:
            return 0
        kernel = self.kernel
        meter = kernel.meter
        # looked up per flush, not cached: wrappers installed on the
        # instance after construction must see every reference
        reference = kernel.reference
        serviced = 0
        try:
            for key in sorted(queues):
                items = queues.pop(key)
                reached = 0
                self.backlog -= len(items)
                self.batches_flushed += 1
                manager = items[0][0].manager
                # one batched refill for the whole batch: the SPCM turns
                # this into a single BatchMigratePagesRequest kernel entry
                # instead of per-fault refill churn inside each reference
                # below --- unless the tenant is at its quota, where the
                # SPCM's clamp would defer it for nothing
                missing = len(items) - manager.free_frames
                if missing > 0:
                    spcm = manager.spcm
                    account = spcm.account_of(manager)
                    quota = spcm.arbiter.quota_of(account)
                    if quota is None or spcm.held_by(account) < quota:
                        manager.request_frames(missing)
                for session, vaddr, write, t_submit_us in items:
                    reached += 1
                    before = meter.total_us
                    try:
                        reference(session.segment, vaddr, write)
                    except ReproError:
                        session.service_errors += 1
                        self.errors += 1
                    latency = (now_us - t_submit_us) + (meter.total_us - before)
                    serviced += 1
                    session.serviced += 1
                    session.latency.record(latency)
                    for hook in hooks:
                        hook(session.tenant, latency)
        except BaseException:
            tail = items[reached:]
            if tail:
                tail.extend(queues.pop(key, ()))
                queues[key] = tail
                self.backlog += len(tail)
            raise
        finally:
            self.items_serviced += serviced
        return serviced

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a metrics-registry provider."""
        return {
            "backlog": float(self.backlog),
            "batches_flushed": float(self.batches_flushed),
            "items_serviced": float(self.items_serviced),
            "errors": float(self.errors),
        }
