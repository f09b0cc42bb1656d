"""Campaign driver: smoke sweep, spec identity, caching, events."""

import json

import pytest

from repro.crashtest import CrashPointSpec, run_campaign
from repro.exp import ResultCache, execute_spec
from repro.obs.events import EventType


def _smoke(**kwargs):
    defaults = dict(
        workloads=["queue"], models=["asap"], points=8,
        ops_per_thread=6, jobs=1,
    )
    defaults.update(kwargs)
    return run_campaign(**defaults)


# -- spec identity ----------------------------------------------------------

def test_spec_key_is_stable_and_content_addressed():
    a = CrashPointSpec("queue", "asap_rp", crash_cycle=100, seed=7)
    b = CrashPointSpec("queue", "asap_rp", crash_cycle=100, seed=7)
    assert a.key() == b.key()
    assert a.key() != CrashPointSpec("queue", "asap_rp", 101, seed=7).key()
    assert a.key() != CrashPointSpec("queue", "asap_rp", 100, seed=8).key()
    assert a.key() != CrashPointSpec("queue", "eadr", 100, seed=7).key()


def test_spec_describe_is_json_and_versioned():
    spec = CrashPointSpec("queue", "asap", crash_cycle=42)
    doc = json.loads(json.dumps(spec.describe()))
    assert doc["schema"] == 1
    assert doc["kind"] == "crashtest-point"
    assert doc["crash_cycle"] == 42
    assert "asap" in spec.label() and "42" in spec.label()


def test_unknown_workload_or_model_raises_early():
    with pytest.raises(KeyError, match="unknown workload"):
        CrashPointSpec("nope", "asap_rp", 10)
    with pytest.raises(KeyError, match="unknown model"):
        CrashPointSpec("queue", "nope", 10)


def test_execute_crash_point_is_deterministic():
    spec = CrashPointSpec("queue", "asap_rp", crash_cycle=300,
                          ops_per_thread=6)
    assert execute_spec(spec) == execute_spec(spec)


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
    assert first.cache_misses == first.total_points
    second = _smoke(cache=cache)
    assert second.cache_hits == second.total_points
    assert second.cache_misses == 0
    assert first.to_json() == second.to_json()


def test_campaign_emits_one_event_per_point():
    class Collector:
        def __init__(self):
            self.events = []

        def handle(self, event):
            self.events.append(event)

        def close(self):
            pass

    sink = Collector()
    report = _smoke(sinks=[sink])
    assert len(sink.events) == report.total_points
    for event in sink.events:
        assert event.type is EventType.CRASH_POINT
        assert event.comp == "crashtest"
        assert event.kind == "queue/asap:ok"
        assert event.value is None  # ok points carry no violation count


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
