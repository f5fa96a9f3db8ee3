"""The conformance and determinism harness.

Five layers, each usable on its own:

* :mod:`repro.verify.workloads` --- the one registry of named workloads
  every gate (and every chaos scenario) resolves;
* :mod:`repro.verify.digest` --- canonical state digests and per-fault
  digest chains (versioned; cross-version comparison fails loudly);
* :mod:`repro.verify.determinism` --- the run-twice gate: same seeds,
  same chain, or the first divergent step is reported;
* :mod:`repro.verify.oracle` --- the differential oracle driving one
  workload schedule through V++, ULTRIX, and the Unix retrofit under a
  documented equivalence contract;
* :mod:`repro.verify.fuzz` --- a seeded coverage-guided schedule fuzzer
  over both gates, with shrinking and a replayable corpus.

CLI: ``python -m repro verify {determinism,oracle,fuzz,replay,recovery}``.
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
    Region,
    WorkloadSchedule,
    fill_bytes,
)

__all__ = [
    "DIGEST_VERSION",
    "DigestChain",
    "Divergence",
    "Region",
    "WorkloadSchedule",
    "digest_payload",
    "fill_bytes",
    "require_digest_version",
    "snapshot_state",
    "state_digest",
]
