"""The ``repro crashtest`` CLI: smoke campaign, report, replay.

Doubles as the PR-gating smoke sweep: a few crash points on two
workloads must come back clean (the full 50-point suite sweep is the
``-m crash`` job in ``test_full_sweep.py``).
"""

import json

import pytest

from repro.cli import main


def _run(capsys, *argv):
    code = main(["crashtest", *argv])
    return code, capsys.readouterr().out


def test_smoke_campaign_two_workloads(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = _run(
        capsys, "queue", "--models", "asap", "eadr",
        "--points", "6", "--ops", "8", "--jobs", "2",
        "--out", str(out_path),
    )
    assert code == 0
    assert "PASS" in out

    report = json.loads(out_path.read_text())
    assert report["kind"] == "crashtest-campaign"
    assert report["ok"] is True
    assert report["total_points"] == 12
    assert {c["model"] for c in report["cells"]} == {"asap", "eadr"}


def test_second_smoke_workload_is_clean(capsys):
    code, out = _run(
        capsys, "nstore", "--points", "6", "--ops", "8", "--jobs", "2",
        "--models", "baseline", "asap",
    )
    assert code == 0
    assert "PASS" in out


def test_cache_dir_round_trip(capsys, tmp_path):
    argv = (
        "queue", "--models", "asap", "--points", "5", "--ops", "8",
        "--cache-dir", str(tmp_path / "cache"),
    )
    code1, out1 = _run(capsys, *argv)
    code2, out2 = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_failing_campaign_exits_nonzero_and_replays(capsys, tmp_path):
    save_dir = tmp_path / "failures"
    code, out = _run(
        capsys, "xpub", "--models", "asap_no_undo",
        "--points", "40", "--jobs", "2", "--save-failures", str(save_dir),
    )
    assert code == 1
    assert "FAIL" in out
    assert "minimized failing state" in out
    (saved,) = list(save_dir.iterdir())

    code, out = _run(capsys, "--replay", str(saved))
    assert code == 0
    assert "reproduced" in out and "NOT reproduced" not in out


def test_missing_workload_argument_errors(capsys):
    assert main(["crashtest"]) == 2


def test_campaign_without_points_exits_2(capsys):
    for points in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            main(["crashtest", "queue", "--points", points, "--ops", "8"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--points" in captured.err and "at least 1" in captured.err
        assert "PASS" not in captured.out


@pytest.mark.parametrize("flag", ["--ops", "--threads", "--mcs"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_sizes_below_one_exit_2_before_any_point(capsys, flag, value):
    """A campaign of no ops (or on no cores) is a usage error, not an
    empty PASS."""
    with pytest.raises(SystemExit) as exit_info:
        main(["crashtest", "queue", "--models", "baseline",
              "--points", "2", flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "at least 1" in captured.err
    assert "PASS" not in captured.out
