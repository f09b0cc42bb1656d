"""Campaign driver: smoke sweep, spec identity, caching."""

import json

import pytest

from repro.crashtest import CrashCellSpec, adjudicate, run_campaign
from repro.exp import ResultCache, execute_spec


def _smoke(**kwargs):
    defaults = dict(
        workloads=["queue"], models=["asap"], points=8,
        ops_per_thread=6,
    )
    defaults.update(kwargs)
    return run_campaign(**defaults)


# -- spec identity ----------------------------------------------------------

def test_spec_key_is_stable_and_content_addressed():
    a = CrashCellSpec("queue", "asap_rp", points=8, seed=7)
    b = CrashCellSpec("queue", "asap_rp", points=8, seed=7)
    assert a.key() == b.key()
    assert a.key() != CrashCellSpec("queue", "asap_rp", 9, seed=7).key()
    assert a.key() != CrashCellSpec("queue", "asap_rp", 8, seed=8).key()
    assert a.key() != CrashCellSpec("queue", "eadr", 8, seed=7).key()


def test_spec_describe_is_json_and_versioned():
    spec = CrashCellSpec("queue", "asap", points=42)
    doc = json.loads(json.dumps(spec.describe()))
    assert doc["schema"] == 1
    assert doc["kind"] == "crashtest-cell"
    assert doc["points"] == 42
    assert "asap" in spec.label() and "42" in spec.label()


def test_unknown_workload_or_model_raises_early():
    with pytest.raises(KeyError, match="unknown workload"):
        CrashCellSpec("nope", "asap_rp", 10)
    with pytest.raises(KeyError, match="unknown model"):
        CrashCellSpec("queue", "nope", 10)


def test_execute_crash_point_is_deterministic():
    """Executing a cell twice gives every crash point the same verdict."""
    spec = CrashCellSpec("queue", "asap_rp", points=6, ops_per_thread=6)
    assert execute_spec(spec) == execute_spec(spec)


def test_cell_points_match_fresh_single_point_runs():
    """Each point of the one-pass cell is the verdict a fresh run
    crashed at that cycle alone would get."""
    spec = CrashCellSpec("queue", "asap_rp", points=6, ops_per_thread=6)
    reference, results = spec.execute()
    assert [r.crash_cycle for r in results] == spec.crash_cycles(reference)
    for result in results:
        state = spec.simulate(result.crash_cycle)
        generic, oracle = adjudicate(state, spec.build_workload())
        assert (result.generic_violations, result.oracle_violations) == (
            tuple(generic), tuple(oracle)
        )
        assert result.surviving_lines == len(state.media)
        assert result.writes_logged == len(state.log.writes)


@pytest.mark.parametrize("points", [0, -3])
def test_campaign_without_points_is_rejected(points):
    with pytest.raises(ValueError, match="at least 1 point"):
        _smoke(points=points)


# -- smoke campaign ---------------------------------------------------------

def test_smoke_campaign_is_clean_and_deterministic():
    first = _smoke()
    second = _smoke()
    assert first.ok
    assert first.total_points == 8
    assert first.to_json() == second.to_json()
    # bookkeeping is excluded from the canonical report
    assert "cache_hits" not in first.to_json()


def test_campaign_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = _smoke(cache=cache)
    # the cache counts cells: this campaign has one
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    second = _smoke(cache=cache)
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert first.to_json() == second.to_json()


def test_report_shape():
    report = _smoke()
    doc = report.to_dict()
    assert doc["kind"] == "crashtest-campaign"
    assert doc["ok"] is True
    (cell,) = doc["cells"]
    assert cell["workload"] == "queue"
    assert cell["model"] == "asap"
    assert cell["failure"] is None
    assert len(cell["points"]) == 8
    for point in cell["points"]:
        assert point["ok"] is True
        assert point["generic_violations"] == []
        assert point["oracle_violations"] == []
