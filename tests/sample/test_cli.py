"""The ``repro sample`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_sample_cli_reports_estimates(capsys, tmp_path):
    out_path = tmp_path / "sample.json"
    code = main([
        "sample", "queue", "--model", "asap_rp", "--ops", "800",
        "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "representatives of" in out
    assert "cycles" in out
    doc = json.loads(out_path.read_text())
    assert doc["workload"] == "queue"
    assert doc["ops_simulated"] < doc["ops_total"]
    assert "errors" not in doc  # no full run without --validate


def test_sample_cli_validate_prints_errors(capsys):
    code = main([
        "sample", "queue", "--model", "baseline", "--ops", "800",
        "--validate",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "actual-error" in out
    assert "geomean error" in out


def test_sample_cli_rejects_bad_config(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "queue", "--clusters", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--clusters" in err and "at least 1, got 0" in err
