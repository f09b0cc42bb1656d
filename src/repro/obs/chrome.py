"""Chrome Trace Event Format export.

Converts a captured event stream into the JSON the Chrome tracing UI
(``chrome://tracing``) and Perfetto (https://ui.perfetto.dev) load
directly: a ``{"traceEvents": [...]}`` object whose entries carry the
required ``ph`` (phase), ``ts`` (microsecond timestamp), ``pid`` and
``tid`` fields.

Mapping:

- ``STALL_END`` intervals become complete slices (``ph: "X"``) named
  ``stall:<reason>`` spanning the stalled cycles;
- persist-buffer / WPQ occupancy samples become counter tracks
  (``ph: "C"``) so buffer pressure is visible as an area chart;
- everything else becomes an instant event (``ph: "i"``);
- process/thread naming metadata (``ph: "M"``) labels cores as threads
  of the "cores" process and controllers as threads of the "memory
  controllers" process.

Timestamps convert cycles to microseconds at the simulated clock
(2 GHz => 2000 cycles per us) and the output is sorted by ``ts``, so
timestamps are monotonic -- both golden-tested.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from repro.obs.events import Event, EventType
from repro.sim.engine import CPU_FREQ_GHZ

#: process ids for the three lanes of the trace.
PID_CORES = 0
PID_MCS = 1
PID_SYSTEM = 2

#: event types rendered as counter tracks (buffer occupancy levels).
_COUNTER_EVENTS = {
    EventType.PB_ENQUEUE,
    EventType.PB_ACK,
    EventType.WPQ_DRAIN,
}


def _ts_us(cycle: int) -> float:
    """Simulated cycle -> trace timestamp in microseconds."""
    return cycle / (CPU_FREQ_GHZ * 1000.0)


def _pid_tid(event: Event) -> tuple:
    if event.core is not None:
        return PID_CORES, event.core
    if event.mc is not None:
        return PID_MCS, event.mc
    return PID_SYSTEM, 0


def _args(event: Event) -> Dict[str, object]:
    args: Dict[str, object] = {"comp": event.comp}
    if event.epoch is not None:
        args["epoch"] = event.epoch
    if event.line is not None:
        args["line"] = event.line
    if event.kind is not None:
        args["kind"] = event.kind
    if event.value is not None:
        args["value"] = event.value
    return args


def chrome_trace(events: Iterable[Event]) -> Dict[str, object]:
    """Build the Chrome-trace JSON object for an event stream."""
    trace: List[Dict[str, object]] = []
    seen_pids: Dict[int, set] = {}

    for event in events:
        pid, tid = _pid_tid(event)
        seen_pids.setdefault(pid, set()).add(tid)
        if event.type is EventType.STALL_BEGIN:
            # The matching STALL_END renders the whole interval.
            continue
        if event.type is EventType.STALL_END:
            dur = event.dur or 0
            trace.append({
                "name": f"stall:{event.reason.value}",
                "cat": "stall",
                "ph": "X",
                "ts": _ts_us(event.cycle - dur),
                "dur": _ts_us(dur) if dur else 0.0,
                "pid": pid,
                "tid": tid,
                "args": _args(event),
            })
        elif event.type in _COUNTER_EVENTS and event.value is not None:
            name = (
                f"pb{event.core} occupancy"
                if event.core is not None
                else f"wpq{event.mc} occupancy"
            )
            trace.append({
                "name": name,
                "cat": "occupancy",
                "ph": "C",
                "ts": _ts_us(event.cycle),
                "pid": pid,
                "tid": tid,
                "args": {"occupancy": event.value},
            })
        else:
            trace.append({
                "name": event.type.value,
                "cat": event.comp,
                "ph": "i",
                "s": "t",
                "ts": _ts_us(event.cycle),
                "pid": pid,
                "tid": tid,
                "args": _args(event),
            })

    trace.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))

    meta: List[Dict[str, object]] = []
    process_names = {
        PID_CORES: "cores",
        PID_MCS: "memory controllers",
        PID_SYSTEM: "system",
    }
    for pid in sorted(seen_pids):
        meta.append({
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": 0,
            "args": {"name": process_names.get(pid, f"pid{pid}")},
        })
        prefix = {PID_CORES: "core", PID_MCS: "mc"}.get(pid, "lane")
        for tid in sorted(seen_pids[pid]):
            meta.append({
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{prefix}{tid}"},
            })

    return {
        "traceEvents": meta + trace,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "repro.obs", "cpu_freq_ghz": CPU_FREQ_GHZ},
    }


def write_chrome_trace(
    events: Iterable[Event], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the Chrome-trace JSON for ``events``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(events), indent=1))
    return path


__all__ = ["chrome_trace", "write_chrome_trace", "PID_CORES", "PID_MCS",
           "PID_SYSTEM"]
