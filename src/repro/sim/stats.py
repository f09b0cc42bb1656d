"""Statistics collection.

Every hardware component registers its counters in a shared
:class:`StatsRegistry`.  The registry implements the seven statistics the
paper's artifact appendix documents (Table VI) plus the occupancy and
bandwidth instrumentation needed by Figures 3, 9, 11, 12 and 13:

===================  ==========================================================
``cyclesBlocked``    Cycles for which a persist buffer is unable to flush
``cyclesStalled``    CPU stall cycles because of a full persist buffer
``dfenceStalled``    CPU stall cycles because of a dfence
``entriesInserted``  Total number of writes enqueued in the persist buffers
``interTEpochConflict``  Number of cross-thread dependencies
``totSpecWrites``    Number of early (speculative) flushes
``totalUndo``        Number of undo records created
===================  ==========================================================
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram over small non-negative integers.

    Used for occupancy distributions (persist buffer / recovery table),
    where values are bounded by the structure's capacity.
    """

    def __init__(self, name: str, max_value: int) -> None:
        self.name = name
        self.max_value = max_value
        self.buckets = [0] * (max_value + 1)
        self.samples = 0

    def record(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            return
        value = min(max(0, value), self.max_value)
        self.buckets[value] += weight
        self.samples += weight

    def mean(self) -> float:
        if self.samples == 0:
            return 0.0
        total = sum(v * c for v, c in enumerate(self.buckets))
        return total / self.samples

    def percentile(self, p: float) -> int:
        """Return the smallest value at or below which ``p`` percent of
        the (weighted) samples fall.  ``p`` is in [0, 100]."""
        if self.samples == 0:
            return 0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        threshold = math.ceil(self.samples * p / 100.0)
        running = 0
        for value, count in enumerate(self.buckets):
            running += count
            if running >= threshold:
                return value
        return self.max_value

    def max_observed(self) -> int:
        for value in range(self.max_value, -1, -1):
            if self.buckets[value]:
                return value
        return 0


class TimeWeightedStat:
    """Tracks a level (e.g. buffer occupancy) weighted by how long it held.

    Call :meth:`update` whenever the level changes, passing the current
    simulated time; the time since the previous update is credited to the
    previous level.  Call :meth:`finish` at the end of the run.
    """

    def __init__(self, name: str, max_value: int) -> None:
        self.name = name
        self.histogram = Histogram(name, max_value)
        self._level = 0
        self._last_time = 0

    @property
    def level(self) -> int:
        return self._level

    def update(self, now: int, new_level: int) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards in TimeWeightedStat")
        # inlined Histogram.record -- occupancy updates happen on every
        # enqueue/dequeue of every buffer, so the extra call was hot.
        weight = now - self._last_time
        if weight > 0:
            histogram = self.histogram
            level = self._level
            if level < 0:
                level = 0
            elif level > histogram.max_value:
                level = histogram.max_value
            histogram.buckets[level] += weight
            histogram.samples += weight
        self._level = new_level
        self._last_time = now

    def finish(self, now: int) -> None:
        """Credit the final interval; safe to call more than once."""
        if now > self._last_time:
            self.histogram.record(self._level, now - self._last_time)
            self._last_time = now

    def mean(self) -> float:
        return self.histogram.mean()

    def p99(self) -> int:
        return self.histogram.percentile(99.0)

    def max_observed(self) -> int:
        return max(self.histogram.max_observed(), self._level)


#: Table VI counter names, used to pre-register the canonical stats.
TABLE_VI_COUNTERS = (
    "cyclesBlocked",
    "cyclesStalled",
    "dfenceStalled",
    "entriesInserted",
    "interTEpochConflict",
    "totSpecWrites",
    "totalUndo",
)


class StatsRegistry:
    """All statistics for one simulation run.

    Counters are created lazily by name; scoped counters (per core, per MC)
    use a ``scope`` argument and can be summed across scopes with
    :meth:`total`.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Optional[str]], Counter] = {}
        self._weighted: Dict[Tuple[str, Optional[str]], TimeWeightedStat] = {}
        for name in TABLE_VI_COUNTERS:
            self.counter(name)

    # -- counters ---------------------------------------------------------

    def counter(self, name: str, scope: Optional[str] = None) -> Counter:
        key = (name, scope)
        counter = self._counters.get(key)
        if counter is None:
            label = name if scope is None else f"{name}[{scope}]"
            counter = Counter(label)
            self._counters[key] = counter
        return counter

    def inc(self, name: str, amount: int = 1, scope: Optional[str] = None) -> None:
        self.counter(name, scope).inc(amount)

    def get(self, name: str, scope: Optional[str] = None) -> int:
        key = (name, scope)
        counter = self._counters.get(key)
        return counter.value if counter is not None else 0

    def total(self, name: str) -> int:
        """Sum of a counter over all scopes (including the unscoped one)."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def scopes(self, name: str) -> List[str]:
        return sorted(
            scope
            for (n, scope) in self._counters
            if n == name and scope is not None
        )

    # -- time-weighted levels ---------------------------------------------

    def weighted(
        self, name: str, max_value: int, scope: Optional[str] = None
    ) -> TimeWeightedStat:
        key = (name, scope)
        stat = self._weighted.get(key)
        if stat is None:
            label = name if scope is None else f"{name}[{scope}]"
            stat = TimeWeightedStat(label, max_value)
            self._weighted[key] = stat
        return stat

    def weighted_stats(self, name: str) -> List[TimeWeightedStat]:
        return [s for (n, _), s in self._weighted.items() if n == name]

    def finish(self, now: int) -> None:
        for stat in self._weighted.values():
            stat.finish(now)

    # -- reporting ---------------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        """Flatten all counters (summed over scopes) into a plain dict."""
        out: Dict[str, int] = {}
        for (name, _scope), counter in self._counters.items():
            out[name] = out.get(name, 0) + counter.value
        return out

    def table_vi(self) -> Dict[str, int]:
        """The seven artifact-appendix statistics, summed over scopes."""
        return {name: self.total(name) for name in TABLE_VI_COUNTERS}

    def dump(self, names: Optional[Iterable[str]] = None) -> str:
        """Human-readable stat dump, one ``name = value`` line per counter."""
        data = self.as_dict()
        keys = sorted(data) if names is None else list(names)
        return "\n".join(f"{k} = {data.get(k, 0)}" for k in keys)


__all__ = [
    "Counter",
    "Histogram",
    "StatsRegistry",
    "TABLE_VI_COUNTERS",
    "TimeWeightedStat",
]
