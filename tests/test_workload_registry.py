"""One registry of named workloads: every gate resolves the same names.

Each registry entry must run through the determinism gate and the
recovery gate by name; declarative entries must also load through the
differential oracle, and imperative ones must be refused there with a
typed error.  Every chaos scenario's workload (bar the kernel-less
``dbms`` run) must be a registry name.

Every entry's digest-chain head is pinned, so a change that moves any
workload's simulated state fails here rather than only in a comparison
of two runs of the same commit.
"""

from __future__ import annotations

import pytest

from repro.chaos.harness import SCENARIOS
from repro.errors import VerificationError
from repro.verify.determinism import run_twice
from repro.verify.oracle import check_equivalence
from repro.verify.recovery import run_recovery_gate
from repro.verify.workloads import REGISTRY, resolve

pytestmark = pytest.mark.verify

#: name -> (nodes, first 16 hex digits of the run-A chain head)
PINNED_HEADS = {
    "apps": (None, "b45601db8e51e63e"),
    "disk": (None, "b4f8839282b33bb7"),
    "ecc": (None, "506bf3a7fa41224b"),
    "figure2": (None, "1d14f56d0c37430f"),
    "figure2-victim": (None, "23e16752303b8437"),
    "serve": (None, "8d5d2d0d99847a5f"),
    "serve-64x2": (2, "f5923fa38dca6b6d"),
    "serve-smoke": (None, "9e7d3341aa65a8ea"),
    "serve-thrash": (None, "b276af72591d7817"),
    "table1": (None, "d3ff7838649733e3"),
}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_every_gate_resolves_the_name(name):
    entry = resolve(name)
    assert entry is REGISTRY[name] and entry.name == name

    report = run_twice(name)
    assert report.ok, report.render()
    assert report.workload == name
    assert len(report.runs[0].chain.steps) >= 1

    gate = run_recovery_gate(name)
    assert gate.workload == name
    assert gate.ok, gate.render()

    if entry.schedule is None:
        with pytest.raises(VerificationError, match="imperative"):
            entry.oracle_schedule()
    else:
        oracle = check_equivalence(entry.oracle_schedule())
        assert oracle.ok, oracle.render()


def test_every_chaos_scenario_runs_a_registry_workload():
    workloads = {spec.workload for spec in SCENARIOS.values()} - {"dbms"}
    assert workloads <= set(REGISTRY)


def test_every_registry_name_has_a_pinned_head():
    assert set(PINNED_HEADS) == set(REGISTRY)


@pytest.mark.parametrize("name", sorted(PINNED_HEADS))
def test_registry_head_is_pinned(name):
    nodes, head = PINNED_HEADS[name]
    report = run_twice(name, nodes=nodes)
    assert report.ok, report.render()
    assert report.runs[0].chain.head[:16] == head
