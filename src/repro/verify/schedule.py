"""Portable workload schedules for the differential oracle.

A :class:`WorkloadSchedule` is the one trace all three executors (V++
external management, the ULTRIX baseline, the Unix retrofit) can drive:
*regions* of anonymous memory plus *files* reached through each system's
file API, and a flat list of operations over them.  Schedules serialize
to JSON (corpus entries under ``tests/corpus/``) carrying the
``DIGEST_VERSION`` they were recorded under, so stale entries fail
loudly instead of replaying against an incomparable encoding.

Operations:

* ``("touch", region, page, write, k)`` --- one CPU reference to a page
  of an anonymous region; a write stores :func:`fill_bytes` pattern
  ``k`` at the start of the page.
* ``("file_write", region, page, k)`` --- write one page of pattern
  ``k`` through the file API (UIO / the ``write`` system call).
* ``("file_read", region, page)`` --- read one page through the file
  API.

Pattern bytes are a pure function of ``(region, page, k)`` so every
executor writes the identical data without sharing any state.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ScheduleFormatError
from repro.verify.digest import DIGEST_VERSION, require_digest_version

#: bytes of pattern stored per write (compared verbatim by the oracle)
FILL_LEN = 32

#: manager kinds the V++ executor can drive a schedule through
MANAGER_KINDS = ("default", "clock", "dbms")

#: region kinds
ANON, FILE = "anon", "file"

_OP_ARITY = {"touch": 5, "file_write": 4, "file_read": 3}


@functools.lru_cache(maxsize=4096)
def fill_bytes(region: int, page: int, k: int, length: int = FILL_LEN) -> bytes:
    """The deterministic pattern write ``k`` stores to ``(region, page)``.

    Memoized: the oracle, fuzzer, and microbenchmark regenerate the same
    patterns across repeated drives, and the bytes are immutable.
    """
    seed = f"fill:{region}:{page}:{k}".encode()
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


@dataclass(frozen=True)
class Region:
    """One address range the schedule operates on."""

    name: str
    kind: str  # ANON | FILE
    pages: int
    #: initial file contents pattern index (FILE regions; -1 = empty file)
    initial_k: int = -1


@dataclass
class WorkloadSchedule:
    """One executable trace, portable across all three executors."""

    name: str
    seed: int = 0
    nodes: int | None = None
    manager: str = "default"
    regions: list[Region] = field(default_factory=list)
    ops: list[tuple] = field(default_factory=list)

    def validate(self) -> "WorkloadSchedule":
        """Shape-check; raises :class:`ScheduleFormatError` when invalid."""
        if self.manager not in MANAGER_KINDS:
            raise ScheduleFormatError(
                f"{self.name}: unknown manager kind {self.manager!r}"
            )
        if not self.regions:
            raise ScheduleFormatError(f"{self.name}: no regions")
        for region in self.regions:
            if region.kind not in (ANON, FILE):
                raise ScheduleFormatError(
                    f"{self.name}: region {region.name!r} has unknown kind "
                    f"{region.kind!r}"
                )
            if region.pages <= 0:
                raise ScheduleFormatError(
                    f"{self.name}: region {region.name!r} has no pages"
                )
        for op in self.ops:
            if not op or op[0] not in _OP_ARITY:
                raise ScheduleFormatError(f"{self.name}: bad op {op!r}")
            if len(op) != _OP_ARITY[op[0]]:
                raise ScheduleFormatError(
                    f"{self.name}: op {op!r} has wrong arity"
                )
            region = int(op[1])
            if not 0 <= region < len(self.regions):
                raise ScheduleFormatError(
                    f"{self.name}: op {op!r} names unknown region {region}"
                )
            spec = self.regions[region]
            wants_file = op[0].startswith("file_")
            if wants_file != (spec.kind == FILE):
                raise ScheduleFormatError(
                    f"{self.name}: op {op!r} targets a {spec.kind} region"
                )
            page = int(op[2])
            if not 0 <= page < spec.pages:
                raise ScheduleFormatError(
                    f"{self.name}: op {op!r} page outside region "
                    f"{spec.name!r} ({spec.pages} pages)"
                )
        return self

    # -- derived views the executors and the contract share ----------------

    def written_ranges(self) -> dict[tuple[int, int], int]:
        """``(region, page) -> last pattern k`` for every anon write."""
        last: dict[tuple[int, int], int] = {}
        for op in self.ops:
            if op[0] == "touch" and op[3]:
                last[(int(op[1]), int(op[2]))] = int(op[4])
        return last

    def anon_pages_touched(self) -> int:
        """Distinct anonymous pages the schedule references at all."""
        return len(
            {(int(op[1]), int(op[2])) for op in self.ops if op[0] == "touch"}
        )

    def file_pages_touched(self) -> int:
        """Distinct file pages reached through the file API."""
        return len(
            {
                (int(op[1]), int(op[2]))
                for op in self.ops
                if op[0] in ("file_read", "file_write")
            }
        )

    def fault_tolerance(self) -> int:
        """Documented allowance for total-fault-count deltas.

        File traffic faults differently by construction --- V++ pages
        file data in through manager faults where ULTRIX's ``read``/
        ``write`` system calls never fault --- so total fault counts may
        differ by up to the number of distinct file pages touched (plus
        the append-unit rounding of the default manager's 16 KB
        allocations).  Anonymous first-touch counts are compared exactly.
        """
        return 4 * (self.file_pages_touched() + 1)

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-ready dict (carries ``digest_version``)."""
        return {
            "digest_version": DIGEST_VERSION,
            "schedule": {
                "name": self.name,
                "seed": self.seed,
                "nodes": self.nodes,
                "manager": self.manager,
                "regions": [
                    [r.name, r.kind, r.pages, r.initial_k]
                    for r in self.regions
                ],
                "ops": [list(op) for op in self.ops],
            },
        }

    @classmethod
    def from_payload(
        cls, payload: dict, source: str = "<schedule>"
    ) -> "WorkloadSchedule":
        """Load a schedule payload; version-checked, shape-checked."""
        if not isinstance(payload, dict):
            raise ScheduleFormatError(f"{source}: payload is not an object")
        require_digest_version(payload, source)
        body = payload.get("schedule")
        if not isinstance(body, dict):
            raise ScheduleFormatError(f"{source}: no schedule body")
        try:
            regions = [
                Region(str(n), str(kind), int(pages), int(k))
                for n, kind, pages, k in body.get("regions", [])
            ]
            schedule = cls(
                name=str(body["name"]),
                seed=int(body.get("seed", 0)),
                nodes=(
                    None if body.get("nodes") is None else int(body["nodes"])
                ),
                manager=str(body.get("manager", "default")),
                regions=regions,
                ops=[tuple(op) for op in body.get("ops", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScheduleFormatError(f"{source}: malformed ({exc})") from None
        return schedule.validate()

    def save(self, path: str) -> None:
        """Write the schedule as sorted, indented corpus JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "WorkloadSchedule":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ScheduleFormatError(f"no such schedule: {path}") from None
        except json.JSONDecodeError as exc:
            raise ScheduleFormatError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_payload(payload, source=path)


# ---------------------------------------------------------------------------
# the reference schedules (registered in repro.verify.workloads)
# ---------------------------------------------------------------------------


def figure2_schedule(manager: str = "default", nodes: int | None = None):
    """The Figure-2 shape: fault a cached file's pages in, then rescan.

    A file region is read page by page through the file API, an
    anonymous region is written then partially re-read --- the paper's
    sequential fault-in pattern with a working set that fits memory.
    """
    regions = [
        Region("fig2-anon", ANON, 8),
        Region("fig2-file", FILE, 6, initial_k=1),
    ]
    ops: list[tuple] = []
    for page in range(6):
        ops.append(("file_read", 1, page))
    for page in range(8):
        ops.append(("touch", 0, page, 1, page + 2))
    for page in range(0, 8, 2):
        ops.append(("touch", 0, page, 0, 0))
    ops.append(("file_write", 1, 2, 9))
    ops.append(("file_read", 1, 2))
    return WorkloadSchedule(
        "figure2", manager=manager, nodes=nodes, regions=regions, ops=ops
    ).validate()


def table1_schedule(manager: str = "default", nodes: int | None = None):
    """The Table-1 shape: the primitive mix, exercised back to back.

    Anonymous first-touch reads and writes (GetPage / allocation), page
    re-writes (dirty transitions), and 4 KB file reads and writes ---
    one schedule covering every primitive row the paper times.
    """
    regions = [
        Region("t1-anon-a", ANON, 6),
        Region("t1-anon-b", ANON, 4),
        Region("t1-file", FILE, 4, initial_k=3),
    ]
    ops: list[tuple] = []
    for page in range(6):
        ops.append(("touch", 0, page, 0, 0))       # read faults (GetPage)
    for page in range(6):
        ops.append(("touch", 0, page, 1, page))    # first stores (dirty)
    for page in range(4):
        ops.append(("touch", 1, page, 1, page + 7))  # write faults
    for page in range(4):
        ops.append(("file_read", 2, page))         # 4 KB cached reads
    ops.append(("file_write", 2, 1, 5))            # 4 KB write
    ops.append(("file_write", 2, 3, 6))
    for page in range(4):
        ops.append(("touch", 1, page, 1, page + 11))  # re-writes, no fault
    ops.append(("file_read", 2, 1))
    return WorkloadSchedule(
        "table1", manager=manager, nodes=nodes, regions=regions, ops=ops
    ).validate()
