"""Unit tests for the event model and the built-in sinks."""

import json

from repro.obs import (
    Event,
    EventType,
    JSONLSink,
    RingBufferSink,
    StallProfiler,
    StallReason,
    Tracer,
)
from repro.sim.engine import Engine


def ev(cycle=0, type=EventType.OP_RETIRED, comp="core", **kw):
    fields = dict(core=None, mc=None, epoch=None, line=None,
                  reason=None, dur=None, kind=None, value=None)
    fields.update(kw)
    return Event(cycle=cycle, type=type, comp=comp, **fields)


class TestEvent:
    def test_to_dict_drops_none_fields(self):
        d = ev(cycle=5, core=1).to_dict()
        assert d == {"t": 5, "ev": "op_retired", "comp": "core", "core": 1}

    def test_to_dict_serializes_reason_enum_as_value(self):
        d = ev(type=EventType.STALL_END, reason=StallReason.PB_FULL,
               dur=12).to_dict()
        assert d["reason"] == "pb_full"
        assert d["dur"] == 12

    def test_events_are_slotted(self):
        assert not hasattr(ev(), "__dict__")


class TestTracer:
    def test_stamps_engine_cycle_and_fans_out(self):
        engine = Engine()
        a, b = RingBufferSink(), RingBufferSink()
        tracer = Tracer(engine, [a, b])
        engine.schedule(17, lambda: tracer.emit(
            EventType.PB_ENQUEUE, "pb", core=0, value=1))
        engine.run()
        assert len(a) == len(b) == 1
        assert a.events[0].cycle == 17
        assert a.events[0].type is EventType.PB_ENQUEUE


class TestRingBufferSink:
    def test_unbounded_keeps_everything(self):
        sink = RingBufferSink()
        for i in range(100):
            sink.handle(ev(cycle=i))
        assert len(sink) == 100
        assert [e.cycle for e in sink.events] == list(range(100))


class TestJSONLSink:
    def test_writes_one_sorted_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        sink.handle(ev(cycle=3, core=1, epoch=2))
        sink.handle(ev(cycle=4, type=EventType.STALL_END,
                       reason=StallReason.DFENCE, dur=7))
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.lines_written == len(lines) == 2
        for line in lines:
            d = json.loads(line)
            assert list(d) == sorted(d)

    def test_owns_and_closes_path_targets(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        sink.handle(ev())
        sink.close()
        assert len(path.read_text().splitlines()) == 1


class TestStallProfiler:
    def test_attributes_stall_end_durations(self):
        prof = StallProfiler()
        prof.handle(ev(type=EventType.STALL_BEGIN, core=0, epoch=1,
                       reason=StallReason.PB_FULL))
        prof.handle(ev(type=EventType.STALL_END, core=0, epoch=1,
                       reason=StallReason.PB_FULL, dur=10))
        prof.handle(ev(type=EventType.STALL_END, core=1, epoch=2,
                       reason=StallReason.DFENCE, dur=4))
        assert prof.total(StallReason.PB_FULL) == 10
        assert prof.total(StallReason.DFENCE) == 4
        assert prof.total(StallReason.SFENCE) == 0
        assert prof.core_total(0, StallReason.PB_FULL) == 10
        assert prof.epoch_totals()[(0, 1)] == {"pb_full": 10}

    def test_counts_every_event_type(self):
        prof = StallProfiler()
        prof.handle(ev())
        prof.handle(ev())
        prof.handle(ev(type=EventType.PB_ACK))
        assert prof.counts[EventType.OP_RETIRED] == 2
        assert prof.counts[EventType.PB_ACK] == 1
        assert prof.events_seen == 3

    def test_summary_is_plain_json(self):
        prof = StallProfiler()
        prof.handle(ev(type=EventType.STALL_END, core=0, epoch=1,
                       reason=StallReason.PB_BLOCKED, dur=5, comp="pb"))
        summary = prof.summary()
        json.dumps(summary)  # must not raise
        assert summary["totals"] == {"pb_blocked": 5}
        assert summary["by_epoch"] == {"0:1": {"pb_blocked": 5}}
        assert summary["by_component"] == {"pb": {"pb_blocked": 5}}
