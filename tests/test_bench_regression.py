"""The CI benchmark-regression gate (`benchmarks/check_regression.py`).

Imported by path (the benchmarks directory is not a package) so the
comparison logic is unit-tested without spawning subprocesses.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _payload(wall_s: float, updates: int = 5) -> dict:
    return {"results": {"arm": {"wall_s": wall_s, "server_updates": updates}}}


class TestCompare:
    def test_within_threshold_passes(self):
        failures, lines = check_regression.compare(
            _payload(10.9), _payload(10.0), "wall_s", 0.15)
        assert failures == []
        assert any("+9.0%" in line for line in lines)

    def test_regression_beyond_threshold_fails(self):
        failures, _ = check_regression.compare(
            _payload(12.0), _payload(10.0), "wall_s", 0.15)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_improvement_never_fails(self):
        failures, lines = check_regression.compare(
            _payload(5.0), _payload(10.0), "wall_s", 0.15)
        assert failures == []
        assert any("refreshing the baseline" in line for line in lines)

    def test_missing_arm_fails(self):
        failures, _ = check_regression.compare(
            {"results": {}}, _payload(10.0), "wall_s", 0.15)
        assert any("missing" in f for f in failures)

    def test_unbaselined_artifact_arm_fails(self):
        """The gate is symmetric: a new benchmark arm without a
        committed baseline entry must not ship ungated."""
        artifact = {"results": {"arm": {"wall_s": 10.0, "server_updates": 5},
                                "new-arm": {"wall_s": 1.0,
                                            "server_updates": 5}}}
        failures, _ = check_regression.compare(
            artifact, _payload(10.0), "wall_s", 0.15)
        assert any("no baseline entry" in f for f in failures)

    def test_changed_server_updates_fails(self):
        failures, _ = check_regression.compare(
            _payload(10.0, updates=7), _payload(10.0, updates=5),
            "wall_s", 0.15)
        assert any("server_updates" in f for f in failures)

    def test_zero_baseline_never_disables_the_gate(self):
        failures, _ = check_regression.compare(
            _payload(1000.0), _payload(0.0), "wall_s", 0.15)
        assert any("zero baseline" in f for f in failures)
        # Both zero is a legitimate no-op.
        failures, _ = check_regression.compare(
            _payload(0.0), _payload(0.0), "wall_s", 0.15)
        assert failures == []

    def test_empty_baseline_fails(self):
        failures, _ = check_regression.compare(
            _payload(10.0), {"results": {}}, "wall_s", 0.15)
        assert failures == ["baseline has no results"]


def _row(threshold: float = 0.15, artifact: str = "arm_bench") -> dict:
    return {"artifact": artifact, "metric": "wall_s", "threshold": threshold}


class TestMain:
    def _gates(self, tmp_path: Path, rows: list[dict],
               artifacts: dict[str, dict],
               baselines: dict[str, dict]) -> Path:
        """A manifest in ``tmp_path`` with ``artifacts/`` and
        ``baselines/`` beside it, laid out like ``benchmarks/``."""
        for sub, payloads in (("artifacts", artifacts),
                              ("baselines", baselines)):
            (tmp_path / sub).mkdir()
            for name, payload in payloads.items():
                (tmp_path / sub / f"{name}.json").write_text(
                    json.dumps(payload))
        manifest = tmp_path / "gates.json"
        manifest.write_text(json.dumps(rows))
        return manifest

    def _one(self, tmp_path: Path, new: float, old: float,
             threshold: float = 0.15) -> Path:
        return self._gates(tmp_path, [_row(threshold)],
                           {"arm_bench": _payload(new)},
                           {"arm_bench": _payload(old)})

    def test_exit_zero_on_match(self, tmp_path, capsys):
        manifest = self._one(tmp_path, 10.0, 10.0)
        assert check_regression.main([str(manifest)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        manifest = self._one(tmp_path, 13.0, 10.0)
        assert check_regression.main([str(manifest)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        """A row's own threshold is the one applied: +30% passes a 0.5
        row and fails the default 0.15 row."""
        manifest = self._one(tmp_path, 13.0, 10.0, threshold=0.5)
        assert check_regression.main([str(manifest)]) == 0

    def test_every_row_is_checked(self, tmp_path, capsys):
        """Two rows over one artifact: the second row's metric gates
        even when the first passes."""
        rows = [_row(), dict(_row(), metric="bytes")]
        art = {"results": {"arm": {"wall_s": 10.0, "bytes": 20,
                                   "server_updates": 5}}}
        base = {"results": {"arm": {"wall_s": 10.0, "bytes": 10,
                                    "server_updates": 5}}}
        manifest = self._gates(tmp_path, rows, {"arm_bench": art},
                               {"arm_bench": base})
        assert check_regression.main([str(manifest)]) == 1
        assert "bytes regressed" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        manifest = self._gates(tmp_path, [_row()], {},
                               {"arm_bench": _payload(10.0)})
        assert check_regression.main([str(manifest)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_orphan_baseline_fails(self, tmp_path, capsys):
        """A baseline no row names gates nothing: it must be gated or
        deleted, not left to go stale."""
        manifest = self._gates(
            tmp_path, [_row()], {"arm_bench": _payload(10.0)},
            {"arm_bench": _payload(10.0), "stale": _payload(1.0)})
        assert check_regression.main([str(manifest)]) == 1
        assert "baselines/stale.json has no row" in capsys.readouterr().err

    def test_orphan_row_fails(self, tmp_path, capsys):
        """A row without a baseline would pass by gating nothing."""
        manifest = self._gates(
            tmp_path, [_row(), _row(artifact="new_bench")],
            {"arm_bench": _payload(10.0), "new_bench": _payload(1.0)},
            {"arm_bench": _payload(10.0)})
        assert check_regression.main([str(manifest)]) == 1
        assert "'new_bench' has no baselines/new_bench.json" in \
            capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, tmp_path):
        for i, threshold in enumerate([0, -0.1, float("nan"), "0.15"]):
            (tmp_path / str(i)).mkdir()
            manifest = self._one(tmp_path / str(i), 10.0, 10.0,
                                 threshold=threshold)
            with pytest.raises(SystemExit) as exc:
                check_regression.main([str(manifest)])
            assert exc.value.code == 2, threshold

    def test_malformed_manifest_is_usage_error(self, tmp_path):
        """Bad JSON, and an artifact or metric that is not a plain
        name, stop the run before any file is read."""
        texts = ["[{", json.dumps([_row(artifact=1)]),
                 json.dumps([_row(artifact="../arm_bench")]),
                 json.dumps([dict(_row(), metric="")])]
        for i, text in enumerate(texts):
            (tmp_path / str(i)).mkdir()
            manifest = self._one(tmp_path / str(i), 10.0, 10.0)
            manifest.write_text(text)
            with pytest.raises(SystemExit) as exc:
                check_regression.main([str(manifest)])
            assert exc.value.code == 2, text

    def test_committed_baselines_are_valid(self):
        """The committed manifest and baselines map one to one, and
        every baseline arm carries each metric its rows gate."""
        root = Path(__file__).parent.parent / "benchmarks"
        rows = json.loads((root / "gates.json").read_text())
        baselines = {path.stem: path
                     for path in (root / "baselines").glob("*.json")}
        assert {row["artifact"] for row in rows} == set(baselines)
        for row in rows:
            assert (root / f"bench_{row['artifact']}.py").is_file(), row
            assert row["threshold"] > 0, row
            payload = json.loads(baselines[row["artifact"]].read_text())
            assert payload["results"], row
            for arm in payload["results"].values():
                assert row["metric"] in arm and "server_updates" in arm, row
