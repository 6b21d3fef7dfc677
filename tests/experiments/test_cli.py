"""CLI smoke: list, run and smoke commands through the real entry point."""

import json

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm41-proposal-sweep" in out
        assert "smoke" in out

    def test_smoke_writes_canonical_json(self, tmp_path, capsys):
        out_file = tmp_path / "smoke.json"
        assert main(["smoke", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro.experiments/v2"
        assert payload["suite"] == "smoke"
        assert payload["ok"] is True
        summary = capsys.readouterr().err
        assert "smoke-mis-petersen" in summary

    def test_run_stdout_is_pure_json(self, capsys):
        assert main(["run", "--suite", "ruling_sets"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["suite"] == "ruling_sets"

    def test_run_same_seed_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["run", "--suite", "ruling_sets", "--out", str(first),
                     "--seed", "0"]) == 0
        assert main(["run", "--suite", "ruling_sets", "--out", str(second),
                     "--seed", "0"]) == 0
        assert first.read_text() == second.read_text()

    def test_run_seed_changes_randomized_output(self, tmp_path):
        def luby_seeds(path):
            payload = json.loads(path.read_text())
            return [
                record["luby_seed"]
                for block in payload["scenarios"]
                for record in block["records"]
                if "luby_seed" in record
            ]

        first = tmp_path / "seed0.json"
        second = tmp_path / "seed1.json"
        assert main(["run", "--suite", "mis", "--out", str(first),
                     "--seed", "0"]) == 0
        assert main(["run", "--suite", "mis", "--out", str(second),
                     "--seed", "1"]) == 0
        assert luby_seeds(first) and luby_seeds(first) != luby_seeds(second)

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--suite", "nope"])
