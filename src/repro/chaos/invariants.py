"""System-wide invariants, asserted after every injected event.

The invariants are the correctness claims the paper's design rests on:

* **Frame conservation** --- every physical frame is owned by exactly one
  segment (the boot segment counts as "the free pool"), or has been
  retired after an ECC failure.  ``MigratePages`` being the only
  ownership-transfer mechanism is what makes this checkable at all.
* **SPCM accounting** --- the SPCM free pool is exactly the boot
  segment's resident pages (both directions, no repeats, ascending), and
  per-account holding counts are non-negative.
* **Market conservation** --- drams are conserved: each shard market's
  balances plus its system sink sum to the net drams the arbiter
  transferred in, those transfers sum to zero across the machine, and
  each account's balance equals its income minus its charges plus its
  transfers.
* **Shard conservation** --- on a sharded (NUMA) SPCM, every node's
  frames are fully accounted: frames physically on the node equal the
  node's free frames plus the frames its shard has granted out plus the
  frames retired there.  A manager crash on one node must not leak
  frames into another node's books.
* **Translation coherence** --- every cached TLB / page-table entry maps
  to the frame the segment structures resolve to, and writable entries
  imply write permission.
* **Binding sanity** --- no segment's bound regions overlap, and no
  binding targets a deleted segment.
* **Manager bookkeeping** --- for every generic segment manager reachable
  from a live segment or the SPCM registry: its free and empty slots are
  disjoint, free slots hold a frame and empty slots do not, and the two
  migrate-back maps agree and name only free slots.

The checker raises :class:`~repro.errors.InvariantViolationError` listing
every violation found, so a chaos run fails loudly at the first injected
event that corrupts state rather than at end-of-run.  It is the one
system auditor: property tests and long simulations call it too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.flags import WRITE_I
from repro.errors import InvariantViolationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel


class InvariantChecker:
    """Checks global invariants over a kernel (and its SPCM/market)."""

    def __init__(self, kernel: "Kernel", spcm=None, market=None) -> None:
        self.kernel = kernel
        self.spcm = spcm if spcm is not None else getattr(kernel, "spcm", None)
        if market is not None:
            self.market = market
        else:
            self.market = getattr(self.spcm, "market", None)
        self.checks_run = 0
        #: absolute dram-conservation tolerance (floating-point slack)
        self.dram_tolerance = 1e-6

    def __call__(self, _event=None) -> None:
        """Observer-callback form: check after each injected event."""
        self.check_all()

    def check_all(self) -> None:
        """Run every invariant; raise listing all violations found."""
        violations = self.violations()
        if violations:
            raise InvariantViolationError(
                f"{len(violations)} invariant violation(s): "
                + "; ".join(violations)
            )

    def violations(self) -> list[str]:
        """Non-raising form: every violation message (empty when clean)."""
        self.checks_run += 1
        violations: list[str] = []
        self._check_frames(violations)
        self._check_spcm(violations)
        self._check_shards(violations)
        self._check_translations(violations)
        self._check_bindings(violations)
        self._check_managers(violations)
        self._check_market(violations)
        self._check_quotas(violations)
        return violations

    # -- frame conservation ------------------------------------------------

    def _check_frames(self, violations: list[str]) -> None:
        kernel = self.kernel
        retired = getattr(kernel, "retired_frames", set())
        census: dict[int, tuple[int, int]] = {}
        for segment in kernel.segments():
            for page, frame in segment.pages.items():
                if frame.pfn in census:
                    other_seg, other_page = census[frame.pfn]
                    violations.append(
                        f"frame pfn={frame.pfn} owned twice: segment "
                        f"{other_seg} page {other_page} and segment "
                        f"{segment.seg_id} page {page}"
                    )
                    continue
                census[frame.pfn] = (segment.seg_id, page)
                if frame.owner_segment_id != segment.seg_id:
                    violations.append(
                        f"frame pfn={frame.pfn} back-pointer names segment "
                        f"{frame.owner_segment_id}, but segment "
                        f"{segment.seg_id} holds it"
                    )
                if frame.page_index != page:
                    violations.append(
                        f"frame pfn={frame.pfn} back-pointer names page "
                        f"{frame.page_index}, but it sits at page {page}"
                    )
                if frame.pfn in retired:
                    violations.append(
                        f"retired frame pfn={frame.pfn} still in service "
                        f"in segment {segment.seg_id}"
                    )
        for frame in kernel.memory.frames():
            if frame.pfn not in census and frame.pfn not in retired:
                violations.append(
                    f"frame pfn={frame.pfn} lost: owned by no segment and "
                    "not retired"
                )

    # -- SPCM accounting ---------------------------------------------------

    def _check_spcm(self, violations: list[str]) -> None:
        spcm = self.spcm
        if spcm is None:
            return
        for size, free_pages in spcm._free.items():
            boot = self.kernel.boot_segments.get(size)
            if boot is None:
                violations.append(f"SPCM free list for unknown size {size}")
                continue
            pool = list(free_pages)
            seen: set[int] = set()
            for page in pool:
                if page in seen:
                    violations.append(
                        f"SPCM free list repeats boot page {page} "
                        f"(size {size})"
                    )
                seen.add(page)
                if page not in boot.pages:
                    violations.append(
                        f"SPCM free list names boot page {page} "
                        f"(size {size}) which holds no frame"
                    )
            for page in sorted(boot.pages.keys() - seen):
                violations.append(
                    f"boot page {page} (size {size}) holds a frame the "
                    "SPCM free list does not name"
                )
            if pool != sorted(pool):
                violations.append(f"SPCM free list (size {size}) is not sorted")
        for account, held in spcm.frames_held.items():
            if held < 0:
                violations.append(
                    f"SPCM holds negative frame count for {account}: {held}"
                )

    # -- per-shard frame conservation ----------------------------------------

    def _check_shards(self, violations: list[str]) -> None:
        spcm = self.spcm
        if spcm is None or getattr(spcm, "n_shards", 1) <= 1:
            return
        totals = {shard.node: 0 for shard in spcm.shards}
        for frame in self.kernel.memory.frames():
            totals[spcm.shard_of(frame.phys_addr).node] += 1
        free_by_node = {shard.node: 0 for shard in spcm.shards}
        for size, free_pages in spcm._free.items():
            boot = self.kernel.boot_segments.get(size)
            if boot is None:
                continue
            for page in free_pages:
                frame = boot.pages.get(page)
                if frame is None:
                    continue
                free_by_node[spcm.shard_of(frame.phys_addr).node] += 1
        for shard in spcm.shards:
            for account, held in shard.frames_held.items():
                if held < 0:
                    violations.append(
                        f"shard {shard.node} holds negative frame count "
                        f"for {account}: {held}"
                    )
            held = sum(shard.frames_held.values())
            free = free_by_node[shard.node]
            expected = totals[shard.node]
            got = free + held + shard.retired_frames
            if got != expected:
                violations.append(
                    f"shard {shard.node} does not conserve frames: "
                    f"{free} free + {held} held + {shard.retired_frames} "
                    f"retired = {got} != {expected} frames on node"
                )

    # -- translation coherence ---------------------------------------------

    def _check_translations(self, violations: list[str]) -> None:
        kernel = self.kernel
        for (space_id, vpn), payload in kernel.tlb.entries():
            if not (isinstance(payload, tuple) and len(payload) == 2):
                violations.append(
                    f"TLB entry space {space_id} vpn {vpn} caches "
                    f"{payload!r}, not a (pfn, writable) pair"
                )
                continue
            pfn, writable = payload
            self._check_one_translation(
                violations, "TLB", space_id, vpn, pfn, bool(writable)
            )
        for entry in kernel.page_table.entries():
            writable = bool(entry.prot & WRITE_I)
            self._check_one_translation(
                violations,
                "page table",
                entry.space_id,
                entry.vpn,
                entry.pfn,
                writable,
            )

    def _check_one_translation(
        self,
        violations: list[str],
        where: str,
        space_id: int,
        vpn: int,
        pfn: int,
        writable: bool,
    ) -> None:
        space = self.kernel._segments.get(space_id)
        if space is None:
            violations.append(
                f"{where} entry for deleted space {space_id} vpn {vpn}"
            )
            return
        try:
            res = space.resolve(vpn, for_write=False)
        except ReproError as exc:
            violations.append(
                f"{where} entry space {space_id} vpn {vpn} no longer "
                f"resolves: {exc}"
            )
            return
        if res.frame is None or res.frame.pfn != pfn:
            got = "nothing" if res.frame is None else f"pfn={res.frame.pfn}"
            violations.append(
                f"{where} entry space {space_id} vpn {vpn} caches "
                f"pfn={pfn} but the segment structures resolve to {got}"
            )
            return
        if writable and not res.prot_i & WRITE_I:
            violations.append(
                f"{where} entry space {space_id} vpn {vpn} is writable "
                "but the page is not write-permitted"
            )

    # -- binding sanity ----------------------------------------------------

    def _check_bindings(self, violations: list[str]) -> None:
        for segment in self.kernel.segments():
            ordered = sorted(segment.bindings, key=lambda b: b.start_page)
            prev_end = None
            prev_start = None
            for binding in ordered:
                if prev_end is not None and binding.start_page < prev_end:
                    violations.append(
                        f"segment {segment.seg_id} bound regions overlap: "
                        f"[{prev_start}, {prev_end}) and "
                        f"[{binding.start_page}, "
                        f"{binding.start_page + binding.n_pages})"
                    )
                prev_start = binding.start_page
                prev_end = binding.start_page + binding.n_pages
                if binding.target.deleted:
                    violations.append(
                        f"segment {segment.seg_id} binds deleted segment "
                        f"{binding.target.seg_id}"
                    )

    # -- manager slot bookkeeping -------------------------------------------

    def _check_managers(self, violations: list[str]) -> None:
        reachable = [segment.manager for segment in self.kernel.segments()]
        reachable.extend(getattr(self.spcm, "managers", {}).values())
        seen: set[int] = set()
        for manager in reachable:
            # generic segment managers keep free-slot bookkeeping; others
            # (and segments with no manager) have nothing to check here
            if id(manager) in seen or not hasattr(manager, "_free_slots"):
                continue
            seen.add(id(manager))
            self._check_manager(violations, manager)

    def _check_manager(self, violations: list[str], manager) -> None:
        name = manager.name
        backed = manager.free_segment.pages
        free = set(manager._free_slots)
        empty = set(manager._empty_slots)
        for slot in sorted(free & empty):
            violations.append(
                f"manager {name}: slot {slot} is both free and empty"
            )
        for slot in sorted(free - backed.keys()):
            violations.append(
                f"manager {name}: free slot {slot} holds no frame"
            )
        for slot in sorted(empty & backed.keys()):
            violations.append(
                f"manager {name}: empty slot {slot} still holds a frame"
            )
        for slot, origin in manager._stale_origin.items():
            if slot not in free:
                violations.append(
                    f"manager {name}: migrate-back cache names slot "
                    f"{slot}, which is not free"
                )
            if manager._stale_slot.get(origin) != slot:
                violations.append(
                    f"manager {name}: migrate-back maps disagree at "
                    f"{origin}"
                )
        if len(manager._stale_slot) != len(manager._stale_origin):
            violations.append(
                f"manager {name}: migrate-back maps differ in size "
                f"({len(manager._stale_slot)} origins, "
                f"{len(manager._stale_origin)} slots)"
            )

    # -- market conservation -----------------------------------------------

    def _check_market(self, violations: list[str]) -> None:
        markets = list(getattr(self.spcm, "markets", []) or [])
        if not markets and self.market is not None:
            markets = [self.market]
        if not markets:
            return
        net_transfer = 0.0
        for i, market in enumerate(markets):
            net_transfer += market.transfer_balance
            total = market.total_drams()
            if abs(total - market.transfer_balance) > self.dram_tolerance:
                violations.append(
                    f"market {i} does not conserve drams: total {total!r} "
                    f"!= net transfers {market.transfer_balance!r}"
                )
            for name, account in market.accounts.items():
                expected = (
                    account.total_income
                    - account.total_memory_charges
                    - account.total_io_charges
                    - account.total_tax
                    + account.total_transfers
                )
                if abs(account.balance - expected) > self.dram_tolerance:
                    violations.append(
                        f"market {i} account {name!r} balance "
                        f"{account.balance!r} != income - charges - tax "
                        f"+ transfers = {expected!r}"
                    )
        if abs(net_transfer) > self.dram_tolerance:
            violations.append(
                "arbiter transfers are not zero-sum across shard markets: "
                f"net {net_transfer!r}"
            )

    # -- per-tenant quota conservation ---------------------------------------

    def _check_quotas(self, violations: list[str]) -> None:
        """Quota-capped holdings stay within cap and sum to the pool total.

        Only runs when quotas are installed (the serving layer); a plain
        chaos run over unlimited managers is untouched.  Checks, per
        quota-capped account: machine-wide frames held <= cap, the SPCM's
        machine-wide count equals the sum of per-shard counts, and the
        summed dram-market holdings stay under the advisory MB ceiling.
        Machine-wide: every quota-capped holding plus unassigned frames
        (free + uncapped holdings + retired) equals the frame pool.
        """
        spcm = self.spcm
        arbiter = getattr(spcm, "arbiter", None)
        quotas = getattr(arbiter, "quotas", None)
        if not quotas:
            return
        page_mb = self.kernel.memory.page_size / (1024 * 1024)
        capped_total = 0
        for account in sorted(quotas):
            cap = quotas[account]
            held = spcm.frames_held.get(account, 0)
            capped_total += held
            if held > cap:
                violations.append(
                    f"account {account!r} holds {held} frames over its "
                    f"quota of {cap}"
                )
            shard_sum = sum(
                shard.frames_held.get(account, 0) for shard in spcm.shards
            )
            if shard_sum != held:
                violations.append(
                    f"account {account!r} shard holdings sum to "
                    f"{shard_sum}, but the SPCM books {held} machine-wide"
                )
            holding_mb = 0.0
            quota_mb = None
            for market in getattr(spcm, "markets", []):
                acct = market.accounts.get(account)
                if acct is None:
                    continue
                holding_mb += acct.holding_mb
                if acct.quota_mb is not None:
                    quota_mb = acct.quota_mb
            if (
                quota_mb is not None
                and holding_mb > quota_mb + self.dram_tolerance
            ):
                violations.append(
                    f"account {account!r} dram holdings {holding_mb:.6f} MB "
                    f"exceed the {quota_mb:.6f} MB quota ceiling"
                )
            if quota_mb is not None:
                expected_mb = held * page_mb
                if abs(holding_mb - expected_mb) > self.dram_tolerance:
                    violations.append(
                        f"account {account!r} market holdings "
                        f"{holding_mb:.6f} MB disagree with {held} frames "
                        f"held ({expected_mb:.6f} MB)"
                    )
        uncapped_total = sum(
            held
            for account, held in spcm.frames_held.items()
            if account not in quotas
        )
        free_total = sum(len(free) for free in spcm._free.values())
        retired = len(getattr(self.kernel, "retired_frames", ()))
        n_frames = sum(1 for _ in self.kernel.memory.frames())
        got = capped_total + uncapped_total + free_total + retired
        if got != n_frames:
            violations.append(
                "quota sweep does not conserve the frame pool: "
                f"{capped_total} capped + {uncapped_total} uncapped + "
                f"{free_total} free + {retired} retired = {got} != "
                f"{n_frames} frames"
            )
