"""Golden tests pinning the two serialized trace formats.

The JSONL event schema and the Chrome-trace export are consumed outside
this repo (scripts, Perfetto), so their shape is contract: short stable
keys for JSONL, and the required ``ph``/``ts``/``pid``/``tid`` fields
with monotonic timestamps for the Chrome Trace Event Format.
"""

import json

import pytest

from repro.obs import JSONLSink, RingBufferSink
from repro.obs.chrome import PID_CORES, PID_MCS, chrome_trace
from repro.sim.config import MachineConfig
from repro.workloads import get_workload
from repro.workloads.base import run_workload

from repro.core.models import resolve_model

#: every key the JSONL schema may emit; additions require a golden bump.
JSONL_KEYS = {"t", "ev", "comp", "core", "mc", "epoch", "line",
              "reason", "dur", "kind", "value"}
JSONL_REQUIRED = {"t", "ev", "comp"}

CHROME_PHASES = {"M", "X", "C", "i"}


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One small traced ASAP run shared by every golden check."""
    ring = RingBufferSink()
    path = tmp_path_factory.mktemp("schema") / "events.jsonl"
    jsonl = JSONLSink(path)
    run_workload(
        get_workload("queue", ops_per_thread=40, seed=7),
        MachineConfig(num_cores=2, pb_entries=4, wpq_entries=4),
        resolve_model("asap_rp").run_config(seed=7),
        num_threads=2,
        sinks=[ring, jsonl],
    )
    jsonl.close()
    return ring, path.read_text()


class TestJSONLSchema:
    def test_every_line_is_valid_json_with_known_keys(self, traced_run):
        _ring, text = traced_run
        lines = text.splitlines()
        assert lines, "a traced run must produce events"
        for line in lines:
            d = json.loads(line)
            assert JSONL_REQUIRED <= set(d) <= JSONL_KEYS
            assert isinstance(d["t"], int) and d["t"] >= 0
            assert isinstance(d["ev"], str)
            assert isinstance(d["comp"], str)

    def test_cycles_are_monotonic(self, traced_run):
        _ring, text = traced_run
        cycles = [json.loads(line)["t"] for line in text.splitlines()]
        assert cycles == sorted(cycles)

    def test_keys_are_sorted_for_byte_determinism(self, traced_run):
        _ring, text = traced_run
        for line in text.splitlines():
            d = json.loads(line)
            assert list(d) == sorted(d)

    def test_stall_ends_carry_reason_and_duration(self, traced_run):
        _ring, text = traced_run
        ends = [json.loads(line) for line in text.splitlines()
                if json.loads(line)["ev"] == "stall_end"]
        assert ends, "the tiny-buffer config must produce stalls"
        for d in ends:
            assert "reason" in d
            assert d.get("dur", 0) >= 0


class TestChromeTraceGolden:
    def test_required_fields_on_every_event(self, traced_run):
        ring, _text = traced_run
        doc = chrome_trace(ring.events)
        assert "traceEvents" in doc
        for entry in doc["traceEvents"]:
            assert entry["ph"] in CHROME_PHASES
            assert isinstance(entry["ts"], float)
            assert entry["ts"] >= 0.0
            assert isinstance(entry["pid"], int)
            assert isinstance(entry["tid"], int)
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0
                assert entry["name"].startswith("stall:")

    def test_timestamps_are_monotonic_within_the_body(self, traced_run):
        ring, _text = traced_run
        doc = chrome_trace(ring.events)
        body_ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert body_ts == sorted(body_ts)

    def test_metadata_names_cores_and_mcs(self, traced_run):
        ring, _text = traced_run
        doc = chrome_trace(ring.events)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["pid"], e["name"], e["args"]["name"]) for e in meta}
        assert (PID_CORES, "process_name", "cores") in names
        assert (PID_MCS, "process_name", "memory controllers") in names
        assert (PID_CORES, "thread_name", "core0") in names

    def test_document_round_trips_through_json(self, traced_run):
        ring, _text = traced_run
        doc = chrome_trace(ring.events)
        again = json.loads(json.dumps(doc))
        assert again["displayTimeUnit"] == "ns"
        assert len(again["traceEvents"]) == len(doc["traceEvents"])

    def test_timestamps_convert_at_the_simulated_clock(self):
        from repro.obs.events import Event, EventType, StallReason

        end = Event(cycle=4000, type=EventType.STALL_END, comp="core",
                    core=0, mc=None, epoch=1, line=None,
                    reason=StallReason.DFENCE, dur=2000, kind=None,
                    value=None)
        doc = chrome_trace([end])
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # 2 GHz => 2000 cycles per microsecond.
        assert slices[0]["ts"] == pytest.approx(1.0)
        assert slices[0]["dur"] == pytest.approx(1.0)
