"""One registry of named workloads: every gate resolves the same names.

Each registry entry must run through the determinism gate and the
recovery gate by name; declarative entries must also load through the
differential oracle, and imperative ones must be refused there with a
typed error.  Every chaos scenario's workload (bar the kernel-less
``dbms`` run) must be a registry name.
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
