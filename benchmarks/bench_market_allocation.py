"""The memory market (S2.4): stability and fair shares.

The paper reports no table for the market but claims it "results in a
stable, efficient global memory allocation" and that "if each user
account receives equal income, its programs also receive an equal share
of the machine over time".  This bench drives competing managers through
many market rounds on a machine too small for everyone and checks both
claims; it also checks that balances stay bounded (the savings tax stops
hoarding, forced release stops debt spirals).
"""

from __future__ import annotations

import pytest

from repro.core.api import FrameDemand
from repro.core.kernel import Kernel
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.base import GenericSegmentManager
from repro.spcm.market import MarketConfig, MemoryMarket
from repro.spcm.policy import MarketPolicy
from repro.spcm.spcm import SystemPageCacheManager

MB = 1024 * 1024
#: every job wants 8 MB on a 16 MB machine: genuine contention
WANT_FRAMES = 2048


def build_market_world(incomes):
    kernel = Kernel(PhysicalMemory(16 * MB))
    market = MemoryMarket(
        MarketConfig(
            price_per_mb_second=1.0,
            savings_tax_rate=0.01,
            savings_tax_threshold=50.0,
            free_when_uncontended=False,
        )
    )
    spcm = SystemPageCacheManager(
        kernel,
        policy=MarketPolicy(market, min_hold_seconds=1.0, reserve_frames=16),
        market=market,
    )
    managers = []
    for i, income in enumerate(incomes):
        manager = GenericSegmentManager(
            kernel, spcm, f"job{i}", initial_frames=0
        )
        market.account(manager.account).income_per_second = income
        managers.append(manager)
    market.demand_outstanding = True
    return market, spcm, managers


def market_rounds(market, spcm, managers, rounds=200):
    now = 0.0
    for _ in range(rounds):
        now += 1.0
        spcm.advance_market(now)
        for manager in managers:
            if market.is_broke(manager.account):
                manager.release_frames(FrameDemand(manager.total_frames))
                continue
            shortfall = WANT_FRAMES - manager.total_frames
            if shortfall > 0:
                manager.request_frames(shortfall)
    return now


def test_equal_incomes_get_equal_shares(benchmark):
    def run():
        market, spcm, managers = build_market_world([8.0, 8.0])
        market_rounds(market, spcm, managers)
        return market, managers

    market, managers = benchmark.pedantic(run, rounds=1, iterations=1)
    a = market.account(managers[0].account)
    b = market.account(managers[1].account)
    assert a.holding_mb_seconds > 0
    assert a.holding_mb_seconds == pytest.approx(
        b.holding_mb_seconds, rel=0.25
    )
    benchmark.extra_info["share_a_mb_s"] = round(a.holding_mb_seconds, 1)
    benchmark.extra_info["share_b_mb_s"] = round(b.holding_mb_seconds, 1)


def test_double_income_gets_a_larger_share(benchmark):
    def run():
        market, spcm, managers = build_market_world([4.0, 8.0])
        market_rounds(market, spcm, managers)
        return market, managers

    market, managers = benchmark.pedantic(run, rounds=1, iterations=1)
    poor = market.account(managers[0].account).holding_mb_seconds
    rich = market.account(managers[1].account).holding_mb_seconds
    assert rich > 1.4 * poor
    benchmark.extra_info["poor_mb_s"] = round(poor, 1)
    benchmark.extra_info["rich_mb_s"] = round(rich, 1)


def test_market_is_stable_no_account_diverges(benchmark):
    def run():
        market, spcm, managers = build_market_world([8.0, 8.0, 8.0])
        market_rounds(market, spcm, managers, rounds=300)
        return market

    market = benchmark.pedantic(run, rounds=1, iterations=1)
    config = market.config
    for account in market.accounts.values():
        # the savings tax bounds balances near
        # threshold + income / tax_rate; forced release bounds debt
        tax_equilibrium = (
            config.savings_tax_threshold
            + account.income_per_second / config.savings_tax_rate
        )
        assert -50.0 < account.balance < 1.1 * tax_equilibrium
    assert abs(market.total_drams()) < 1e-6
