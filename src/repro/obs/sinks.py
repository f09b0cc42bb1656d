"""Built-in event sinks.

A sink receives every :class:`~repro.obs.events.Event` the tracer emits.
Sinks must be passive: they may record, count, and serialize, but they
must never call back into simulator components or the engine -- the
determinism guarantee (traced and untraced runs produce byte-identical
statistics) depends on it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.events import Event, EventType, StallReason


class EventSink:
    """Interface every sink implements."""

    def handle(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize; called once at the end of a traced run."""


class RingBufferSink(EventSink):
    """Keep every event in memory, in emission order (the capture buffer
    for timeline export)."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def handle(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JSONLSink(EventSink):
    """Write each event as one JSON object per line to the file at
    ``path`` (opened here, closed by :meth:`close`).  Keys are emitted
    sorted so the output is byte-deterministic for a deterministic
    simulation.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._fh = open(path, "w", encoding="utf-8")
        self.lines_written = 0

    def handle(self, event: Event) -> None:
        json.dump(event.to_dict(), self._fh, sort_keys=True,
                  separators=(",", ":"))
        self._fh.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        self._fh.close()


class StallProfiler(EventSink):
    """Roll stall cycles up per reason / core / epoch / component.

    Attribution happens on ``STALL_END`` events, whose ``dur`` carries
    the interval length in cycles.  Because the call that emits such an
    event also adds the same amount to the registry's stall counter, the
    per-reason totals here are conserved against the registry --
    ``total(PB_FULL) == stats.total("cyclesStalled")`` and so on per
    :data:`~repro.obs.events.REASON_COUNTERS`.  The property suite
    enforces this for every model.
    """

    def __init__(self) -> None:
        #: reason -> total attributed cycles.
        self.by_reason: Dict[StallReason, int] = {}
        #: (core, reason) -> cycles.
        self.by_core: Dict[Tuple[Optional[int], StallReason], int] = {}
        #: (core, epoch, reason) -> cycles.
        self.by_epoch: Dict[
            Tuple[Optional[int], Optional[int], StallReason], int
        ] = {}
        #: (component, reason) -> cycles.
        self.by_component: Dict[Tuple[str, StallReason], int] = {}
        #: event type -> occurrence count (every event, not just stalls).
        self.counts: Dict[EventType, int] = {}
        self.events_seen = 0

    def handle(self, event: Event) -> None:
        self.events_seen += 1
        self.counts[event.type] = self.counts.get(event.type, 0) + 1
        if event.type is not EventType.STALL_END:
            return
        dur = event.dur or 0
        reason = event.reason
        assert reason is not None, "STALL_END must carry a reason"
        self.by_reason[reason] = self.by_reason.get(reason, 0) + dur
        core_key = (event.core, reason)
        self.by_core[core_key] = self.by_core.get(core_key, 0) + dur
        epoch_key = (event.core, event.epoch, reason)
        self.by_epoch[epoch_key] = self.by_epoch.get(epoch_key, 0) + dur
        comp_key = (event.comp, reason)
        self.by_component[comp_key] = self.by_component.get(comp_key, 0) + dur

    # -- queries ------------------------------------------------------------

    def total(self, reason: StallReason) -> int:
        """Total cycles attributed to ``reason`` across the machine."""
        return self.by_reason.get(reason, 0)

    def core_total(self, core: int, reason: StallReason) -> int:
        return self.by_core.get((core, reason), 0)

    def epoch_totals(self) -> Dict[Tuple[int, int], Dict[str, int]]:
        """(core, epoch) -> {reason value: cycles}, for the breakdown."""
        out: Dict[Tuple[int, int], Dict[str, int]] = {}
        for (core, epoch, reason), cycles in self.by_epoch.items():
            key = (core if core is not None else -1,
                   epoch if epoch is not None else -1)
            out.setdefault(key, {})[reason.value] = (
                out.get(key, {}).get(reason.value, 0) + cycles
            )
        return out

    def summary(self) -> Dict[str, object]:
        """Plain-JSON (and picklable) rollup of the attribution; what
        ``repro timeline`` prints as its stall breakdown."""
        return {
            "totals": {
                reason.value: cycles
                for reason, cycles in sorted(
                    self.by_reason.items(), key=lambda kv: kv[0].value
                )
            },
            "by_core": {
                f"{core}": {
                    reason.value: cycles
                    for (c, reason), cycles in sorted(
                        self.by_core.items(),
                        key=lambda kv: (str(kv[0][0]), kv[0][1].value),
                    )
                    if c == core
                }
                for core in sorted(
                    {c for (c, _r) in self.by_core}, key=lambda c: (c is None, c)
                )
            },
            "by_epoch": {
                f"{core}:{epoch}": {
                    reason.value: cycles
                    for (c, e, reason), cycles in sorted(
                        self.by_epoch.items(),
                        key=lambda kv: (
                            str(kv[0][0]), str(kv[0][1]), kv[0][2].value
                        ),
                    )
                    if c == core and e == epoch
                }
                for (core, epoch) in sorted(
                    {(c, e) for (c, e, _r) in self.by_epoch},
                    key=lambda ce: (str(ce[0]), str(ce[1])),
                )
            },
            "by_component": {
                comp: {
                    reason.value: cycles
                    for (cm, reason), cycles in sorted(
                        self.by_component.items(),
                        key=lambda kv: (kv[0][0], kv[0][1].value),
                    )
                    if cm == comp
                }
                for comp in sorted({cm for (cm, _r) in self.by_component})
            },
            "event_counts": {
                etype.value: n
                for etype, n in sorted(
                    self.counts.items(), key=lambda kv: kv[0].value
                )
            },
            "events_seen": self.events_seen,
        }


__all__ = ["EventSink", "JSONLSink", "RingBufferSink", "StallProfiler"]
