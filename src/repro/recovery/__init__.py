"""Crash-consistent manager recovery.

Write-ahead journal (:mod:`repro.recovery.journal`), replay-bounding
checkpoints (:mod:`repro.recovery.checkpoint`), the warm-restart
coordinator (:mod:`repro.recovery.restart`), and the fsck-style recovery
auditor (:mod:`repro.recovery.auditor`).
"""

from repro.recovery.auditor import Discrepancy, RecoveryAuditor
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.journal import RecoveryJournal
from repro.recovery.restart import (
    RecoveryCoordinator,
    RestartReport,
    install_recovery,
)

__all__ = [
    "RecoveryJournal",
    "Checkpoint",
    "CheckpointStore",
    "Discrepancy",
    "RecoveryAuditor",
    "RecoveryCoordinator",
    "RestartReport",
    "install_recovery",
]
