"""Exit-code contract of ``python -m repro verify``.

0: all checks passed.  1: a real divergence or mismatch.  2: the inputs
are not comparable with this tree (foreign ``DIGEST_VERSION``, malformed
schedule) --- distinct so CI can tell "broken" from "stale".
"""

from __future__ import annotations

import json

import pytest

from repro.verify.cli import EXIT_INCOMPARABLE, main
from repro.verify.digest import DIGEST_VERSION
from repro.verify.workloads import resolve

pytestmark = pytest.mark.verify


def test_determinism_subcommand_passes(capsys):
    code = main(["determinism", "--workload", "figure2-victim"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_determinism_accepts_a_schedule_json(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    resolve("figure2").oracle_schedule().save(str(path))
    code = main(["determinism", "--workload", str(path), "--chaos-seed", "3"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_subcommand_single_manager(capsys):
    code = main(["oracle", "--schedule", "table1", "--manager", "dbms"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "'dbms'" in out


def test_fuzz_subcommand_small_campaign(tmp_path, capsys):
    code = main(
        ["fuzz", "--schedules", "4", "--seed", "42",
         "--corpus", str(tmp_path)]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    # a green campaign writes nothing to the corpus
    assert not list(tmp_path.glob("*.json"))


def test_replay_of_an_explicit_green_entry(tmp_path, capsys):
    path = tmp_path / "entry.json"
    resolve("table1").oracle_schedule("clock").save(str(path))
    code = main(["replay", str(path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_replay_with_no_entries_is_incomparable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no tests/corpus here
    code = main(["replay"])
    assert code == EXIT_INCOMPARABLE
    assert "no corpus entries" in capsys.readouterr().err


def test_unknown_workload_is_incomparable(capsys):
    code = main(["determinism", "--workload", "no-such"])
    assert code == EXIT_INCOMPARABLE
    assert "verify:" in capsys.readouterr().err


class TestDigestVersionGate:
    def _stale_entry(self, tmp_path):
        path = tmp_path / "stale.json"
        payload = resolve("figure2").oracle_schedule().to_payload()
        assert payload["digest_version"] == DIGEST_VERSION
        payload["digest_version"] = DIGEST_VERSION - 1
        path.write_text(json.dumps(payload))
        return path

    def test_stale_digest_version_exits_2_on_replay(self, tmp_path, capsys):
        path = self._stale_entry(tmp_path)
        code = main(["replay", str(path)])
        assert code == EXIT_INCOMPARABLE
        err = capsys.readouterr().err
        assert "digest version" in err and "not comparable" in err

    def test_stale_digest_version_exits_2_on_determinism(
        self, tmp_path, capsys
    ):
        path = self._stale_entry(tmp_path)
        code = main(["determinism", "--workload", str(path)])
        assert code == EXIT_INCOMPARABLE
        assert "digest version" in capsys.readouterr().err

    def test_malformed_schedule_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text(json.dumps({"digest_version": DIGEST_VERSION}))
        code = main(["replay", str(path)])
        assert code == EXIT_INCOMPARABLE
        assert "verify:" in capsys.readouterr().err
