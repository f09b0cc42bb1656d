"""The ``repro sample`` CLI surface."""

from __future__ import annotations

import json

from repro.cli import main


def test_sample_cli_reports_estimates(capsys, tmp_path):
    out_path = tmp_path / "sample.json"
    code = main([
        "sample", "queue", "--model", "asap_rp", "--ops", "800",
        "--interval-ops", "50", "--out", str(out_path),
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
        "--interval-ops", "50", "--validate",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "actual-error" in out
    assert "geomean error" in out


def test_sample_cli_rejects_bad_config(capsys):
    code = main(["sample", "queue", "--interval-ops", "0"])
    assert code == 2
    assert "interval_ops" in capsys.readouterr().err
