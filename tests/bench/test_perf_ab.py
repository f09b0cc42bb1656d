"""The verdicts of ``scripts/perf_ab.py`` on synthetic run documents."""

from __future__ import annotations

import importlib.util
import os
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

#: the end-to-end metrics and bounds of ``BENCHMARK.json``.
END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "throughput", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]


def _runs(setup_s=None, throughput=None, correct=True, attempted=40,
          failed=0):
    """Run documents in ``perfbench/run.py``'s last-line shape: as many
    as the values given, else five."""
    count = len(setup_s or throughput or ()) or 5
    setup_s = setup_s or (0.2,) * count
    throughput = throughput or (100.0,) * count
    return [
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": {"value": s, "unit": "s"},
                "throughput": {"value": t, "unit": "1/s"},
                "peak_rss_mb": {"value": 50.0, "unit": "MB"},
            },
        }
        for s, t in zip(setup_s, throughput)
    ]


def _verdicts(rows):
    return {row.metric: row.verdict for row in rows}


def test_identical_runs_pass():
    rows, problems = perf_ab.judge("grid", END_TO_END, _runs(), _runs())
    assert _verdicts(rows) == {
        "setup_s": "ok", "throughput": "ok", "peak_rss_mb": "ok"}
    assert [row.ratio for row in rows] == [1.0, 1.0, 1.0]
    assert problems == []


def test_throughput_drop_beyond_bound_with_tight_spread_is_worse():
    base = _runs(throughput=(99.0, 100.0, 100.0, 100.0, 101.0))
    change = _runs(throughput=(60.0,) * 5)
    rows, problems = perf_ab.judge("grid", END_TO_END, base, change)
    assert _verdicts(rows)["throughput"] == "worse"
    assert len(problems) == 1 and "throughput" in problems[0]


def test_gain_is_not_a_regression():
    rows, problems = perf_ab.judge(
        "grid", END_TO_END, _runs(), _runs(throughput=(140.0,) * 5))
    assert _verdicts(rows)["throughput"] == "better"
    assert problems == []


#: ten base throughputs: median 100, quartiles 97.5 / 102.5.
BASE_TEN = (95.0, 96.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 104.0, 105.0)


def test_gain_in_eight_of_ten_pairs_is_only_ok():
    """A median gain beyond the spread still needs nine winning pairs;
    the two unchanged pairs are ties, which count for neither side."""
    change = tuple(b + 20.0 for b in BASE_TEN[:8]) + BASE_TEN[8:]
    rows, problems = perf_ab.judge(
        "grid", END_TO_END, _runs(throughput=BASE_TEN),
        _runs(throughput=change))
    assert _verdicts(rows)["throughput"] == "ok"
    assert problems == []
    # a ninth win makes it a claimed gain
    change = tuple(b + 20.0 for b in BASE_TEN[:9]) + BASE_TEN[9:]
    rows, _ = perf_ab.judge("grid", END_TO_END, _runs(throughput=BASE_TEN),
                            _runs(throughput=change))
    assert _verdicts(rows)["throughput"] == "better"


def test_gain_inside_the_base_spread_is_only_ok():
    """Ten winning pairs whose median gain (3) is within the base's
    quartile distance (5) do not claim a gain."""
    change = tuple(b + 3.0 for b in BASE_TEN)
    rows, problems = perf_ab.judge(
        "grid", END_TO_END, _runs(throughput=BASE_TEN),
        _runs(throughput=change))
    row = next(row for row in rows if row.metric == "throughput")
    assert row.verdict == "ok"
    assert round(row.spread, 6) == 0.05
    assert problems == []


#: setup_s runs whose quartiles 0.165 / 0.235 around a 0.2 median
#: spread 35%, beyond the 25% bound.
WIDE = (0.16, 0.17, 0.2, 0.23, 0.24)


def test_rise_within_the_base_spread_is_unresolved_and_passes():
    change = _runs(setup_s=(0.26,) * 5)  # 30% slower, bound 25%
    rows, problems = perf_ab.judge("grid", END_TO_END, _runs(setup_s=WIDE),
                                   change)
    row = next(row for row in rows if row.metric == "setup_s")
    assert row.verdict == "unresolved"
    assert round(row.ratio, 6) == 1.3
    assert round(row.spread, 6) == 0.35
    assert problems == []


def test_wide_base_spread_is_unresolved_even_within_the_bound():
    """Runs that spread wider than the bound cannot show a change is
    within it; only a change better in every run reads ok."""
    rows, _ = perf_ab.judge("grid", END_TO_END, _runs(setup_s=WIDE),
                            _runs(setup_s=(0.21,) * 5))
    assert _verdicts(rows)["setup_s"] == "unresolved"
    rows, _ = perf_ab.judge("grid", END_TO_END, _runs(setup_s=WIDE),
                            _runs(setup_s=(0.15,) * 5))
    assert _verdicts(rows)["setup_s"] == "ok"


def test_incorrect_change_run_fails():
    change = _runs()
    change[2]["correct"] = False
    rows, problems = perf_ab.judge("litmus", END_TO_END, _runs(), change)
    assert set(_verdicts(rows).values()) == {"ok"}
    assert problems == ["litmus: 1 of 5 change runs report correct: false"]


def test_more_failed_operations_fails():
    rows, problems = perf_ab.judge(
        "crash_sweep", END_TO_END, _runs(failed=0),
        _runs(correct=False, failed=1))
    assert any("fails 2.50% of its operations" in p for p in problems)
    # the same failure share on both sides is not a regression
    _, problems = perf_ab.judge(
        "crash_sweep", END_TO_END, _runs(failed=1), _runs(failed=1))
    assert problems == []


def test_render_has_one_line_per_metric():
    rows, _ = perf_ab.judge("grid", END_TO_END, _runs(), _runs())
    lines = perf_ab.render(rows).splitlines()
    assert lines[0].split() == [
        "workload", "metric", "base", "change", "ratio", "spread", "bound",
        "verdict"]
    assert len(lines) == 1 + len(END_TO_END)
    assert lines[2].split()[:2] == ["grid", "throughput"]


def test_each_side_gets_its_own_filled_bytecode_cache(tmp_path, monkeypatch):
    """Both sides start from a cache compiled before the first pair,
    each in its own prefix, even where the host forbids writing
    bytecode."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    scratch = tmp_path / "scratch"
    envs = {side: perf_ab.side_env(str(scratch), side)
            for side in ("base", "change")}
    assert envs["base"]["PYTHONPYCACHEPREFIX"] != (
        envs["change"]["PYTHONPYCACHEPREFIX"])
    for side, env in envs.items():
        assert env["PYTHONPYCACHEPREFIX"].startswith(str(scratch))
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        tree = tmp_path / side
        for package in ("src", "perfbench"):
            (tree / package).mkdir(parents=True)
            (tree / package / "mod.py").write_text("VALUE = 1\n")
        perf_ab.fill_bytecode_cache(str(tree), env)
        cached = sorted(
            name for _dir, _subdirs, names in os.walk(
                env["PYTHONPYCACHEPREFIX"])
            for name in names)
        assert len(cached) == 2 and all(
            name.startswith("mod.") and name.endswith(".pyc")
            for name in cached), cached
        assert not list(tree.rglob("__pycache__"))
