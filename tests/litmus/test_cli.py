"""The ``repro litmus`` CLI: selection, formats, and gate exit codes."""

import json

import pytest

from repro.cli import main
from repro.report import SARIF_SCHEMA, SARIF_VERSION


class TestLitmusCli:
    def test_list_enumerates_corpus(self, capsys):
        assert main(["litmus", "--list"]) == 0
        out = capsys.readouterr().out
        assert "flush_ofence" in out
        assert "families: mp, sb, flush, epoch, rand" in out

    def test_no_selection_is_an_error(self, capsys):
        assert main(["litmus"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_conflicting_selection_is_an_error(self, capsys):
        assert main(["litmus", "--smoke", "--all"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        assert main(["litmus", "mp_fenced", "--smoke"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_unknown_test_is_an_error(self, capsys):
        assert main(["litmus", "nope"]) == 2
        assert "unknown litmus test" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "selection", [["--smoke"], ["mp_fenced"]], ids=["smoke", "named"]
    )
    @pytest.mark.parametrize("points", ["0", "-4"])
    def test_points_below_one_is_an_error(self, capsys, selection, points):
        with pytest.raises(SystemExit) as exit_info:
            main(["litmus", *selection, "--points", points])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--points" in captured.err and "at least 1" in captured.err
        assert captured.out == ""

    def test_single_test_passes_gate(self, capsys):
        assert main(["litmus", "flush_ofence", "--points", "6"]) == 0
        out = capsys.readouterr().out
        assert "flush_ofence/asap: OK" in out

    def test_family_selection_and_model_filter(self, capsys):
        assert main([
            "litmus", "--family", "flush", "--points", "6",
            "--models", "baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "flush_none/baseline" in out
        assert "/asap" not in out

    def test_fail_on_any_trips_on_unobserved(self, capsys):
        # bounded sampling always leaves axiomatic slack somewhere
        assert main([
            "litmus", "--family", "sb", "--points", "6",
            "--fail-on", "any",
        ]) == 1
        assert "--fail-on=any" in capsys.readouterr().err

    def test_fail_on_never_always_passes(self):
        assert main([
            "litmus", "--family", "sb", "--points", "6",
            "--fail-on", "never",
        ]) == 0

    def test_json_and_disagreement_outputs(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        diff_path = tmp_path / "disagreements.json"
        assert main([
            "litmus", "flush_ofence", "--points", "6",
            "--format", "json", "--out", str(out_path),
            "--save-disagreements", str(diff_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["kind"] == "litmus-report"
        assert report["totals"]["forbidden"] == 0
        doc = json.loads(diff_path.read_text())
        assert doc["kind"] == "litmus-disagreements"
        assert set(doc["cells"]) == {
            f"flush_ofence/{m}" for m in ("asap", "baseline", "eadr", "hops")
        }

    def test_sarif_output_is_schema_shaped(self, capsys):
        assert main([
            "litmus", "flush_ofence", "--points", "6", "--format", "sarif",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["$schema"] == SARIF_SCHEMA
        assert doc["version"] == SARIF_VERSION
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-litmus"
        assert {r["id"] for r in driver["rules"]} == {"LT001", "LT002"}
