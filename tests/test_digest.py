"""Canonical encoding, state digests, and digest-chain divergence."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.contracts import canonical_encode
from repro.errors import DigestVersionError
from repro.verify import (
    DIGEST_VERSION,
    DigestChain,
    digest_payload,
    require_digest_version,
    snapshot_state,
    state_digest,
)

pytestmark = pytest.mark.verify


class TestCanonicalEncode:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical_encode({"b": 1, "a": 2}) == canonical_encode(
            {"a": 2, "b": 1}
        )

    def test_tuples_and_lists_encode_identically(self):
        assert canonical_encode((1, "x", (2,))) == canonical_encode([1, "x", [2]])

    def test_distinct_values_encode_distinctly(self):
        values = [0, 1, -1, "1", True, None, [], {}, [0], {"0": 0}]
        encoded = {canonical_encode(v) for v in values}
        assert len(encoded) == len(values)

    def test_digest_is_stable_across_calls(self):
        payload = {"rows": [("frame", 3, "seg", 7)], "n": 2}
        assert digest_payload(payload) == digest_payload(payload)


class TestStateDigest:
    def test_identically_built_systems_digest_equal(self):
        a = build_system(memory_mb=4, manager_frames=32)
        b = build_system(memory_mb=4, manager_frames=32)
        assert state_digest(a) == state_digest(b)
        assert snapshot_state(a) == snapshot_state(b)

    def test_digest_moves_when_state_moves(self):
        a = build_system(memory_mb=4, manager_frames=32)
        b = build_system(memory_mb=4, manager_frames=32)
        space = b.kernel.create_segment(
            8, name="delta", manager=b.default_manager
        )
        b.kernel.reference(space, 0, write=True)
        assert state_digest(a) != state_digest(b)


class TestDigestChain:
    def _chain(self, payloads):
        chain = DigestChain()
        for i, payload in enumerate(payloads):
            chain.append(f"step:{i}", payload)
        return chain

    def test_identical_appends_identical_heads(self):
        a = self._chain([1, "two", {"three": 3}])
        b = self._chain([1, "two", {"three": 3}])
        assert a.head == b.head
        assert a.first_divergence(b) is None

    def test_first_divergence_is_first_differing_payload(self):
        a = self._chain([1, 2, 3, 4])
        b = self._chain([1, 2, 99, 4])
        div = a.first_divergence(b)
        assert div is not None
        assert div.step == 2
        assert "step 2" in div.describe()

    def test_length_mismatch_reports_the_absent_step(self):
        a = self._chain([1, 2])
        b = self._chain([1, 2, 3])
        div = a.first_divergence(b)
        assert div is not None
        assert div.step == 2
        assert div.digest_a == "<absent>"
        assert "length" in div.describe()
        # and symmetrically from the longer side
        rdiv = b.first_divergence(a)
        assert rdiv is not None and rdiv.digest_b == "<absent>"

    def test_roundtrip_through_payload(self):
        a = self._chain(["x", "y"])
        restored = DigestChain.from_payload(a.to_payload())
        assert restored.head == a.head
        assert a.first_divergence(restored) is None


class TestDigestVersioning:
    def test_version_mismatch_refuses_comparison(self):
        a = DigestChain()
        b = DigestChain(version=DIGEST_VERSION + 1)
        with pytest.raises(DigestVersionError):
            a.first_divergence(b)

    def test_old_payload_fails_loudly(self):
        stale = {"digest_version": 0, "steps": []}
        with pytest.raises(DigestVersionError, match="not comparable"):
            require_digest_version(stale, "stale.json")
        with pytest.raises(DigestVersionError):
            DigestChain.from_payload(stale, source="stale.json")

    def test_missing_version_fails_loudly(self):
        with pytest.raises(DigestVersionError):
            require_digest_version({"steps": []}, "<memory>")
