"""The differential oracle: V++ vs the ULTRIX and Unix-retrofit baselines.

Green paths run the reference schedules under every manager kind; red
paths substitute deliberately broken executors and demand each contract
clause catches its own class of divergence.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import VerificationError
from repro.verify.oracle import (
    EXECUTORS,
    ExecutionResult,
    check_equivalence,
    run_vpp,
)
from repro.verify.schedule import MANAGER_KINDS
from repro.verify.workloads import resolve

pytestmark = pytest.mark.verify


@pytest.mark.parametrize("manager", MANAGER_KINDS)
@pytest.mark.parametrize("name", ["figure2", "table1"])
def test_reference_schedules_pass_for_every_manager(name, manager):
    report = check_equivalence(resolve(name).oracle_schedule(manager))
    assert report.ok, report.render()
    # all three executors actually ran and are in the report
    assert set(report.results) == set(EXECUTORS)
    assert "PASS" in report.render()


def test_unknown_schedule_name_raises():
    with pytest.raises(VerificationError, match="unknown workload"):
        resolve("figure99")


def _broken(transform):
    """An executor that runs V++ for real, then corrupts one field."""

    def run(schedule) -> ExecutionResult:
        result = run_vpp(schedule)
        result.label = "broken"
        transform(result)
        return result

    return run


def _check_broken(transform) -> list[str]:
    schedule = resolve("figure2").oracle_schedule()
    report = check_equivalence(
        schedule, executors={"vpp": run_vpp, "broken": _broken(transform)}
    )
    assert not report.ok
    assert "FAIL" in report.render()
    return [m.clause for m in report.mismatches]


class TestContractClauses:
    def test_written_bytes_divergence_is_caught(self):
        def corrupt(result):
            key = next(iter(result.written_bytes))
            result.written_bytes[key] = b"\x00" * len(
                result.written_bytes[key]
            )

        assert _check_broken(corrupt) == ["written-bytes"]

    def test_file_bytes_divergence_is_caught(self):
        def corrupt(result):
            index = next(iter(result.file_bytes))
            result.file_bytes[index] = result.file_bytes[index] + b"JUNK"

        assert _check_broken(corrupt) == ["file-bytes"]

    def test_anon_page_in_divergence_is_caught(self):
        def corrupt(result):
            result.anon_pages_in += 1

        assert "anon-page-ins" in _check_broken(corrupt)

    def test_fault_count_beyond_tolerance_is_caught(self):
        schedule = resolve("figure2").oracle_schedule()
        tolerance = schedule.fault_tolerance()

        def corrupt(result):
            result.faults += tolerance + 1

        assert "fault-count" in _check_broken(corrupt)

    def test_fault_count_within_tolerance_is_accepted(self):
        def nudge(result):
            result.faults += 1

        schedule = resolve("figure2").oracle_schedule()
        report = check_equivalence(
            schedule, executors={"vpp": run_vpp, "broken": _broken(nudge)}
        )
        assert report.ok, report.render()

    def test_reclamation_flags_the_regime_clause(self):
        def corrupt(result):
            result.reclaimed = 3

        assert _check_broken(corrupt) == ["regime"]

    def test_first_divergence_only_is_reported(self):
        """A written-bytes corruption also corrupts downstream clauses;
        only the first (causal) clause may be reported."""

        def corrupt(result):
            for key in result.written_bytes:
                result.written_bytes[key] = b"x"
            result.anon_pages_in += 5

        clauses = _check_broken(corrupt)
        assert clauses == ["written-bytes"]


def test_invalid_schedule_is_rejected_before_running():
    schedule = resolve("figure2").oracle_schedule()
    bad = replace(schedule, manager="no-such-manager")
    with pytest.raises(VerificationError, match="manager"):
        check_equivalence(bad)
