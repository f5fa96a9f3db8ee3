"""The host benchmark's fixed windows, pinned across commits.

``hostbench/run.py --self-test`` checks that two processes of one commit
reach the same fixed-window fingerprint.  This module pins the
fingerprint itself: every workload in ``hostbench/workloads.py`` is built
for both benchmark seeds and run through its fixed window, and the state
digest and sample count must equal the values recorded here.  A change
meant only to speed the program up must leave them alone; a change that
moves them must say why and update the pins.

The benchmark module is loaded from its file, unmodified, exactly as the
benchmark runner loads it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.verify

_ROOT = Path(__file__).resolve().parents[1]
_WORKLOADS_PY = _ROOT / "hostbench" / "workloads.py"
_BENCHMARK_JSON = _ROOT / "BENCHMARK.json"

#: (workload, seed) -> (first 16 hex digits of the state digest, samples)
PINNED_WINDOWS = {
    ("serve-hot", 1): ("c9a1069d46bbe6a7", 59475),
    ("serve-thrash", 1): ("b81a7f814c529b43", 29672),
    ("paging-mix", 1): ("ae396d7573b90259", 60000),
    ("serve-hot", 7919): ("c0051a25b858aec1", 59643),
    ("serve-thrash", 7919): ("8228ac60fc70f924", 29862),
    ("paging-mix", 7919): ("8ac6d69b7aee2b86", 60000),
}


@pytest.fixture(scope="module")
def hostbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "hostbench_workloads", _WORKLOADS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixed_window(workloads, name: str, seed: int) -> dict:
    """Warm up, run the fixed window, return its fingerprint."""
    w = workloads.make(name, seed)
    w.warm_up()
    w.open_window()
    while not w.window_full():
        w.step()
    w.close_window()
    assert not w.failures, w.failures
    return w.fingerprint


@pytest.mark.parametrize(("name", "seed"), sorted(PINNED_WINDOWS))
def test_fixed_window_fingerprint_is_pinned(hostbench_workloads, name, seed):
    fingerprint = _fixed_window(hostbench_workloads, name, seed)
    digest, samples = PINNED_WINDOWS[(name, seed)]
    assert (fingerprint["state_digest"][:16], fingerprint["samples"]) == (
        digest, samples
    )


def test_every_benchmark_workload_is_pinned_on_both_seeds():
    declared = json.loads(_BENCHMARK_JSON.read_text())["workloads"]
    names = {workload["name"] for workload in declared}
    assert set(PINNED_WINDOWS) == {
        (name, seed) for name in names for seed in (1, 7919)
    }
