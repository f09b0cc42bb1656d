"""`repro.obs` -- structured event tracing for the simulator.

The paper's evaluation is an exercise in *cycle attribution*: Figure 3
splits execution into persist-buffer stalls, dfence stalls, and blocked
flushes; Figures 11 and 12 need to know which epoch and which component
was responsible.  The aggregate counters in :mod:`repro.sim.stats` can
answer "how many cycles were lost" but not "where" -- this package adds
the missing layer.

Components emit typed :class:`~repro.obs.events.Event` objects through a
:class:`~repro.obs.tracer.Tracer` into pluggable
:class:`~repro.obs.sinks.EventSink` implementations:

- :class:`~repro.obs.sinks.JSONLSink` -- one JSON object per line, the
  stable on-disk schema (golden-tested);
- :class:`~repro.obs.sinks.RingBufferSink` -- in-memory capture of
  every event, for programmatic inspection and timeline export;
- :class:`~repro.obs.sinks.StallProfiler` -- rolls stall cycles up per
  reason / per core / per epoch / per component.  Its per-reason totals
  are *conserved*: they sum exactly to the registry's ``cyclesStalled``,
  ``dfenceStalled``, ``sfenceStalled`` and ``cyclesBlocked`` counters,
  because one call closes each stall and writes both the counter and
  the ``STALL_END`` event (a hypothesis property test locks this down).

**Zero-overhead-when-off contract**: the machine hands its tracer to
each component at construction, so a machine built without sinks has
``tracer is None`` everywhere; every emission site is guarded by a
single ``is not None`` check, and tracing never touches the statistics
registry or schedules engine events -- so a traced run produces
byte-identical stats to an untraced one (see DESIGN.md).

Timeline export (:func:`~repro.obs.chrome.chrome_trace`) converts a
captured event stream into Chrome Trace Event Format, viewable in
``chrome://tracing`` or https://ui.perfetto.dev; the CLI surfaces it as
``repro timeline <workload> --model <model>``.
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.events import (
    Event,
    EventType,
    REASON_COUNTERS,
    StallReason,
)
from repro.obs.sinks import (
    EventSink,
    JSONLSink,
    RingBufferSink,
    StallProfiler,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Event",
    "EventSink",
    "EventType",
    "JSONLSink",
    "REASON_COUNTERS",
    "RingBufferSink",
    "StallProfiler",
    "StallReason",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
]
