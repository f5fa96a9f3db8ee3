"""Off-mode contracts every layer shares: null objects, failure modes, encoding.

The kernel, devices, SPCM and managers hold a fault injector and a
recovery journal from birth, but the chaos and recovery subsystems that
implement them live above those layers.  This module holds what the
lower layers need from them and nothing more:

* :data:`NULL_INJECTOR` --- the disabled fault injector, the same
  zero-overhead null-object pattern as :data:`repro.obs.trace.NULL_TRACER`.
  Every injection site is guarded by ``injector.enabled``.
* :class:`ManagerFailureMode` / :class:`IPCFailureMode` --- what a live
  injector (:class:`repro.chaos.injector.Injector`) can tell the kernel
  about a manager invocation or an IPC delivery.
* :data:`NULL_JOURNAL` --- the disabled recovery journal; every append
  site guards on ``journal.enabled``, so an un-instrumented run
  allocates nothing.
* :func:`canonical_encode` --- the one deterministic encoding of plain
  data, shared by state digests, journal records and checkpoints.

It imports only the standard library, so any module may import it;
``tests/test_layering.py`` keeps it at the bottom rank with
:mod:`repro.errors`.
"""

from __future__ import annotations

import json
from enum import Enum, auto


class ManagerFailureMode(Enum):
    """How an injected manager failure manifests to the kernel."""

    #: the manager process dies before replying (kernel sees a dead peer)
    CRASH = auto()
    #: the manager never replies; the kernel's per-fault timeout expires
    HANG = auto()
    #: the manager replies promptly but did not resolve the fault
    BYZANTINE = auto()


class IPCFailureMode(Enum):
    """What happens to one kernel->manager fault message."""

    #: the message is lost; the kernel times out and redelivers
    DROP = auto()
    #: the message is delivered twice (at-least-once semantics)
    DUPLICATE = auto()


class NullInjector:
    """Zero-overhead stand-in used when fault injection is disabled."""

    __slots__ = ()

    enabled = False

    def disk_io(self, op: str, block_no: int) -> float:
        """No injection: service time is unscaled."""
        return 1.0

    def frame_ecc(self, pfn: int) -> bool:
        """No injection: the frame is healthy."""
        return False

    def manager_invocation(self, name: str) -> None:
        """No injection: the manager behaves."""
        return None

    def manager_alloc(self, name: str) -> None:
        """No injection: the allocator survives."""

    def ipc_delivery(self, name: str) -> None:
        """No injection: the message is delivered exactly once."""
        return None

    def journal_tear(self, journal) -> None:
        """No injection: the recovery journal tail is intact."""

    def checkpoint_corrupt(self, name: str) -> bool:
        """No injection: the checkpoint is readable."""
        return False


#: The shared disabled injector; identity-comparable (``is NULL_INJECTOR``).
NULL_INJECTOR = NullInjector()


class NullJournal:
    """The do-nothing journal installed when recovery is off."""

    __slots__ = ()

    enabled = False
    position = 0

    def append(self, kind: str, manager: str | None = None, **fields) -> int:
        """Discard the record (recovery is off); always position 0."""
        return 0

    def on_append(self, hook) -> None:
        """Ignore the hook --- nothing is ever appended."""


#: the shared no-op instance (kernel/SPCM/manager default)
NULL_JOURNAL = NullJournal()


def canonical_encode(value) -> str:
    """A deterministic string encoding of nested plain data.

    dicts are key-sorted, floats repr-encoded, bytes hex-encoded; tuples
    and lists are equivalent.  Raises ``TypeError`` for types without a
    canonical form (sets, arbitrary objects) --- digest payloads must be
    built from plain data on purpose.
    """
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


def _canonical(value):
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, (bytes, bytearray)):
        return f"b:{bytes(value).hex()}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical encoding for {type(value).__name__}")
