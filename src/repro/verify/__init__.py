"""The conformance and determinism harness.

Four layers, each usable on its own:

* :mod:`repro.verify.digest` --- canonical state digests and per-fault
  digest chains (versioned; cross-version comparison fails loudly);
* :mod:`repro.verify.determinism` --- the run-twice gate: same seeds,
  same chain, or the first divergent step is reported;
* :mod:`repro.verify.oracle` --- the differential oracle driving one
  workload schedule through V++, ULTRIX, and the Unix retrofit under a
  documented equivalence contract;
* :mod:`repro.verify.fuzz` --- a seeded coverage-guided schedule fuzzer
  over both gates, with shrinking and a replayable corpus.

CLI: ``python -m repro verify {determinism,oracle,fuzz,replay}``.
"""

from repro.verify.digest import (
    DIGEST_VERSION,
    DigestChain,
    Divergence,
    digest_payload,
    require_digest_version,
    snapshot_state,
    state_digest,
)
from repro.verify.schedule import (
    NAMED_SCHEDULES,
    Region,
    WorkloadSchedule,
    fill_bytes,
)

__all__ = [
    "DIGEST_VERSION",
    "DigestChain",
    "Divergence",
    "NAMED_SCHEDULES",
    "Region",
    "WorkloadSchedule",
    "digest_payload",
    "fill_bytes",
    "require_digest_version",
    "snapshot_state",
    "state_digest",
]
