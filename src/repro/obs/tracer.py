"""The Tracer: the one object components emit events through.

A :class:`Tracer` binds the simulation engine (for timestamps) to a list
of sinks.  Components take an *optional* tracer at construction --
``None`` by default -- and guard every emission with a single
``is not None`` check; that check
is the entire cost of the observability layer when tracing is off (the
zero-overhead-when-off contract, see DESIGN.md).

The tracer itself never schedules engine events, never touches the
statistics registry, and never mutates component state: it is a pure
observer, which is what makes the tracing on/off determinism guarantee
(byte-identical stats files) hold by construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.obs.events import Event, EventType, StallReason
from repro.obs.sinks import EventSink
from repro.sim.engine import Engine


class Tracer:
    """Stamps events with the current cycle and fans them out to sinks."""

    __slots__ = ("engine", "sinks")

    def __init__(self, engine: Engine, sinks: Iterable[EventSink]) -> None:
        self.engine = engine
        self.sinks: List[EventSink] = list(sinks)

    def emit(
        self,
        type: EventType,
        comp: str,
        *,
        core: Optional[int] = None,
        mc: Optional[int] = None,
        epoch: Optional[int] = None,
        line: Optional[int] = None,
        reason: Optional[StallReason] = None,
        dur: Optional[int] = None,
        kind: Optional[str] = None,
        value: Optional[int] = None,
    ) -> None:
        """Deliver one event, stamped at ``engine.now``, to every sink."""
        event = Event(
            cycle=self.engine.now,
            type=type,
            comp=comp,
            core=core,
            mc=mc,
            epoch=epoch,
            line=line,
            reason=reason,
            dur=dur,
            kind=kind,
            value=value,
        )
        for sink in self.sinks:
            sink.handle(event)

    def close(self) -> None:
        """Close every sink (flush files, finalize summaries)."""
        for sink in self.sinks:
            sink.close()


__all__ = ["Tracer"]
