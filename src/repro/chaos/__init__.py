"""repro.chaos: deterministic fault injection and invariant checking.

Three mechanism modules rank beside ``managers``, above the SPCM, and
import nothing from the layers above them:

* :mod:`repro.chaos.plan` --- declarative, frozen fault schedules
  (:class:`ChaosPlan`): per-choke-point injection rates plus a seed.
* :mod:`repro.chaos.injector` --- the :class:`Injector` that executes a
  plan at the stack's choke points (disk transfers, frame ECC, manager
  invocation and allocation, manager IPC).  The zero-overhead
  :data:`~repro.contracts.NULL_INJECTOR` every component holds by
  default, and the failure-mode enums, live in :mod:`repro.contracts`.
* :mod:`repro.chaos.invariants` --- the :class:`InvariantChecker`
  asserting the paper's global correctness claims (frame conservation,
  SPCM pool and market accounting, translation coherence, binding
  sanity, manager slot bookkeeping) after every injected event.

The scenario driver, :mod:`repro.chaos.harness`, pairs plans with real
workloads (:func:`~repro.chaos.harness.run_schedule`, ``python -m repro
chaos``).  It boots whole systems, so it sits at the top of the stack
and is imported from its own module, never re-exported here.

Faults the kernel and SPCM *survive* (see DESIGN.md, "Robustness
model"): manager crash/hang/byzantine behavior fails the manager's
segments over to the default manager; transient disk errors are retried
with backoff; dropped IPC is redelivered; ECC failures retire the frame;
only a fault no manager can resolve suspends (only) the faulting
process.
"""

from repro.chaos.injector import Injector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.plan import ChaosPlan, InjectedFault

__all__ = [
    "ChaosPlan",
    "InjectedFault",
    "Injector",
    "InvariantChecker",
]
