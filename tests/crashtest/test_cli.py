"""The ``repro crashtest`` CLI: smoke campaign, report, replay.

Doubles as the PR-gating smoke sweep: a few crash points on two
workloads must come back clean (the full 50-point suite sweep is the
``-m crash`` job in ``test_full_sweep.py``).
"""

import json

import pytest

from repro.cli import main
from repro.core.api import PMAllocator
from repro.core.crash import run_and_crash
from repro.core.models import resolve_model
from repro.crashtest.serialize import dumps_state
from repro.sim.config import MachineConfig
from repro.workloads import get_workload


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


@pytest.mark.parametrize("extra, named", [
    (["queue"], "the workload"),
    (["--all"], "--all"),
    (["--models", "baseline"], "--models"),
    (["--points", "3"], "--points"),
    (["--jobs", "4"], "--jobs"),
    (["--out", "{tmp}/replay.json"], "--out"),
    (["--save-failures", "{tmp}/sf"], "--save-failures"),
    (["--cache-dir", "{tmp}/cc"], "--cache-dir"),
    (["--threads", "2"], "--threads"),
    (["--mcs", "1"], "--mcs"),
    (["--ops", "8"], "--ops"),
    (["--seed", "3"], "--seed"),
    (["--fabric"], "--fabric"),
    (["--fabric", "--queue", "{tmp}/q"], "--queue"),
    (["--fabric", "--stream", "{tmp}/s.jsonl"], "--stream"),
    (["--fabric", "--chaos-kill", "2"], "--chaos-kill"),
])
def test_replay_rejects_every_sweep_argument(capsys, tmp_path, extra, named):
    """``--replay`` reads only the saved state: any other argument exits 2
    and is named, before the file is read (this one does not exist) and
    before anything is written."""
    argv = [arg.format(tmp=tmp_path) for arg in extra]
    code = main(["crashtest", "--replay", str(tmp_path / "absent.pkl"),
                 *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err and "--replay" in captured.err
    assert list(tmp_path.iterdir()) == []


def _saved_state(meta):
    """A well-formed crash state document carrying ``meta``."""
    machine = MachineConfig(num_cores=1)
    programs = get_workload("queue", ops_per_thread=2).programs(
        PMAllocator(), machine.num_cores)
    state = run_and_crash(
        machine, resolve_model("asap").run_config(seed=7), programs, 50)
    return dumps_state(state, meta)


@pytest.mark.parametrize("name, content", [
    ("absent.json", None),
    ("a_directory", "dir"),
    ("list.json", lambda: "[]"),
    ("no_state.json", lambda: '{"kind": "repro-crashstate", "schema": 1}'),
    ("list_meta.json", lambda: _saved_state([])),
    ("list_spec.json", lambda: _saved_state({"spec": []})),
    ("unknown_workload.json",
     lambda: _saved_state({"spec": {"workload": "nope"}})),
])
def test_replay_of_unreadable_or_malformed_file_exits_2(
    capsys, tmp_path, name, content
):
    """Exit 1 means "NOT reproduced"; a file that cannot be replayed at
    all is a usage error: exit 2 and one line naming the file."""
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_text(content())
    code = main(["crashtest", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    (line,) = captured.err.splitlines()
    assert line.startswith("crashtest:") and str(path) in line
    assert captured.out == ""
