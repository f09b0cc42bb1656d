"""The ``repro fabric`` CLI: grid byte-identity, worker, status."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _run(capsys, *argv):
    code = main(["fabric", *argv])
    return code, capsys.readouterr().out


GRID = ("--workloads", "queue", "--models", "baseline", "asap_rp",
        "--ops", "16", "--threads", "1")


def test_grid_serial_vs_fabric_chaos_byte_identical(capsys, tmp_path):
    """The CI fabric-gate in miniature: a chaos-killed fabric run must
    produce the exact bytes of the serial reference."""
    serial_out = tmp_path / "serial.json"
    fabric_out = tmp_path / "fabric.json"
    stream = tmp_path / "stream.jsonl"

    code, out = _run(capsys, "grid", *GRID, "--serial",
                     "--out", str(serial_out))
    assert code == 0
    assert "2 cell(s) via serial" in out

    code, out = _run(
        capsys, "grid", *GRID, "--jobs", "2", "--chaos-kill", "1",
        "--stream", str(stream), "--out", str(fabric_out),
    )
    assert code == 0
    assert "via fabric jobs=2" in out

    assert serial_out.read_bytes() == fabric_out.read_bytes()
    doc = json.loads(fabric_out.read_text())
    assert doc["kind"] == "fabric-grid"
    assert len(doc["cells"]) == 2
    lines = [
        json.loads(line) for line in stream.read_text().splitlines()
    ]
    assert len(lines) == 2 and all(line["ok"] for line in lines)


def test_grid_cache_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, first = _run(capsys, "grid", *GRID, "--jobs", "2",
                       "--cache-dir", cache)
    assert code == 0 and "misses 2" in first
    code, second = _run(capsys, "grid", *GRID, "--serial",
                        "--cache-dir", cache)
    assert code == 0 and "cache hits 2" in second


def test_worker_requires_queue_and_idles_out(capsys, tmp_path):
    code, _ = _run(capsys, "worker")
    assert code == 2
    code, out = _run(
        capsys, "worker", "--queue", str(tmp_path / "q"),
        "--max-idle", "0.2", "--worker-id", "w-test",
    )
    assert code == 0
    assert "exited after 0 task(s)" in out


def test_status_reports_queue_counts(capsys, tmp_path):
    code, _ = _run(capsys, "status")
    assert code == 2
    queue_dir = tmp_path / "q"
    code, out = _run(capsys, "grid", *GRID, "--jobs", "2",
                     "--queue", str(queue_dir))
    assert code == 0
    code, out = _run(capsys, "status", "--queue", str(queue_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["tasks"] == 2
    assert doc["results"] == 2
    assert doc["stopped"] is True  # the grid run stopped its workers


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["crashtest", "queue", "--models", "baseline", "--points", "2",
          "--ops", "4", "--chaos-kill", "1"], "--fabric"),
        (["litmus", "sb_relaxed", "--points", "2"], "--fabric"),
        (["fabric", "grid", *GRID, "--serial"], "--serial"),
    ],
    ids=["crashtest", "litmus", "fabric-grid"],
)
def test_fabric_only_flags_without_the_fabric_exit_2(
    capsys, tmp_path, argv, needs
):
    """``--queue``/``--stream``/``--chaos-kill`` only act on the fabric;
    given to a run without it, they are an error, not silently dropped."""
    stream = tmp_path / "stream.jsonl"
    code = main([*argv, "--stream", str(stream),
                 "--queue", str(tmp_path / "q")])
    err = capsys.readouterr().err
    assert code == 2
    assert needs in err and "--stream" in err and "--queue" in err
    assert not stream.exists()
