"""``python -m repro verify``: the conformance harness front door.

Subcommands:

* ``determinism`` --- run a workload twice from identical seeds and diff
  the digest chains; the first divergent step is printed on failure;
* ``oracle`` --- drive a schedule through V++, ULTRIX, and the Unix
  retrofit and check the equivalence contract;
* ``fuzz`` --- a seeded coverage-guided campaign over both gates,
  writing minimized failing schedules to the corpus;
* ``replay`` --- re-run recorded corpus schedules through the oracle;
* ``recovery`` --- the warm-restart equivalence gate: a crash-free run
  and a crashed-and-warm-restarted run must reach the same
  authoritative state.

Exit codes follow the ``repro bench diff`` contract: 0 all checks
passed, 1 a divergence or mismatch was found, 2 the inputs are not
comparable (schedule/chain recorded under another ``DIGEST_VERSION``,
or malformed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import VerificationError
from repro.verify.workloads import REGISTRY

#: the not-comparable exit code (mirrors repro bench diff)
EXIT_INCOMPARABLE = 2

#: the registry names, for the ``--workload`` / ``--schedule`` help
_NAMES = ", ".join(REGISTRY)
_DECLARATIVE = ", ".join(name for name, w in REGISTRY.items() if w.schedule)


def _add_determinism(sub) -> None:
    p = sub.add_parser(
        "determinism",
        help="run a workload twice and diff the digest chains",
    )
    p.add_argument(
        "--workload",
        default="figure2-victim",
        help=f"registry workload ({_NAMES}) or a corpus schedule JSON path",
    )
    p.add_argument(
        "--nodes", type=int, default=None,
        help="NUMA nodes (default: flat UMA)",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=None,
        help="run under the verify chaos plan reseeded with this",
    )
    p.set_defaults(fn=_cmd_determinism)


def _cmd_determinism(args) -> int:
    from repro.verify.determinism import run_twice

    report = run_twice(
        args.workload, nodes=args.nodes, chaos_seed=args.chaos_seed
    )
    print(report.render())
    return 0 if report.ok else 1


def _add_oracle(sub) -> None:
    p = sub.add_parser(
        "oracle",
        help="check V++/ULTRIX/retrofit equivalence on a schedule",
    )
    p.add_argument(
        "--schedule",
        default="figure2",
        help=f"declarative workload ({_DECLARATIVE}) or a schedule JSON path",
    )
    p.add_argument(
        "--manager",
        default="all",
        help="manager kind for the V++ run: default, clock, dbms, or all",
    )
    p.set_defaults(fn=_cmd_oracle)


def _cmd_oracle(args) -> int:
    from repro.verify.oracle import check_equivalence
    from repro.verify.schedule import MANAGER_KINDS
    from repro.verify.workloads import resolve

    entry = resolve(args.schedule)
    managers = MANAGER_KINDS if args.manager == "all" else (args.manager,)
    failed = False
    for manager in managers:
        report = check_equivalence(entry.oracle_schedule(manager))
        print(report.render())
        failed = failed or not report.ok
    return 1 if failed else 0


def _add_fuzz(sub) -> None:
    p = sub.add_parser(
        "fuzz", help="seeded coverage-guided campaign over both gates"
    )
    p.add_argument("--schedules", type=int, default=50)
    p.add_argument("--budget-s", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--corpus",
        default="tests/corpus",
        help="directory minimized failing schedules are written to",
    )
    p.set_defaults(fn=_cmd_fuzz)


def _cmd_fuzz(args) -> int:
    from repro.verify.fuzz import fuzz

    report = fuzz(
        n_schedules=args.schedules,
        budget_s=args.budget_s,
        seed=args.seed,
        corpus_dir=args.corpus,
    )
    print(report.render())
    return 0 if report.ok else 1


def _add_replay(sub) -> None:
    p = sub.add_parser(
        "replay", help="re-run recorded corpus schedules through the oracle"
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="schedule JSON files (default: every entry in tests/corpus)",
    )
    p.set_defaults(fn=_cmd_replay)


def _cmd_replay(args) -> int:
    from repro.verify.oracle import check_equivalence
    from repro.verify.schedule import WorkloadSchedule

    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = sorted(Path("tests/corpus").glob("*.json"))
    if not paths:
        print("replay: no corpus entries found", file=sys.stderr)
        return EXIT_INCOMPARABLE
    failed = False
    for path in paths:
        schedule = WorkloadSchedule.load(str(path))
        report = check_equivalence(schedule)
        print(f"{path}:")
        print(report.render())
        failed = failed or not report.ok
    return 1 if failed else 0


def _add_recovery(sub) -> None:
    p = sub.add_parser(
        "recovery",
        help="check crashed-and-recovered runs reach the crash-free state",
    )
    p.add_argument(
        "--workload",
        default="all",
        help=f"registry workload ({_NAMES}; default: all)",
    )
    p.add_argument(
        "--nodes", type=int, default=None,
        help="NUMA nodes (default: flat UMA)",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the crash-only injection plan (default 0)",
    )
    p.set_defaults(fn=_cmd_recovery)


def _cmd_recovery(args) -> int:
    from repro.verify.recovery import run_recovery_gate

    names = list(REGISTRY) if args.workload == "all" else [args.workload]
    reports = [
        run_recovery_gate(name, nodes=args.nodes, chaos_seed=args.chaos_seed)
        for name in names
    ]
    for report in reports:
        print(report.render())
    return 0 if all(r.ok for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch one verify subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="conformance and determinism harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_determinism(sub)
    _add_oracle(sub)
    _add_fuzz(sub)
    _add_replay(sub)
    _add_recovery(sub)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as exc:
        # DigestVersionError / ScheduleFormatError land here: the inputs
        # are not comparable with this tree, which is its own exit code
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_INCOMPARABLE


if __name__ == "__main__":
    raise SystemExit(main())
