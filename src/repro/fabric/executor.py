"""FabricExecutor: the fabric behind the `repro.exp` executor protocol.

Anything that fans specs out through ``executor.map(execute_spec,
specs)`` -- :func:`repro.exp.plan.run_plan`, :func:`repro.crashtest.
campaign.run_campaign`, :func:`repro.litmus.runner.run_litmus` -- can
swap its process pool for the fault-tolerant fabric by passing one of
these instead.  Results come back in input order, so it is a drop-in
replacement: same campaign document bytes, different execution
substrate.  Any other map function is a ``TypeError``.

Two ownership modes:

- **ephemeral** (default): each ``map()`` call spins a scheduler up,
  runs the batch, and tears the pool down -- the campaign-CLI shape.
- **attached**: constructed with a live :class:`~repro.fabric.
  scheduler.FabricScheduler`, ``map()`` multiplexes onto it and leaves
  its lifecycle alone -- the ``repro serve`` shape.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.fabric.scheduler import FabricScheduler

T = TypeVar("T")
R = TypeVar("R")


class FabricExecutor:
    """Map work over the distributed fabric (drop-in for the exp pool)."""

    def __init__(
        self,
        jobs: int = 2,
        queue_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        cache_dir: Optional[str] = None,
        stream_path: Optional[str] = None,
        sinks: Optional[List[Any]] = None,
        chaos_kill_after: Optional[int] = None,
        lease_timeout: float = 120.0,
        scheduler: Optional[FabricScheduler] = None,
    ) -> None:
        self.jobs = scheduler.jobs if scheduler is not None else jobs
        self._attached = scheduler
        self._queue_dir = queue_dir
        self._cache_dir = cache_dir
        self._stream_path = stream_path
        self._sinks = sinks
        self._chaos_kill_after = chaos_kill_after
        self._lease_timeout = lease_timeout
        #: counters of the last completed map() (ephemeral mode), for
        #: reporting without keeping the scheduler alive.
        self.last_counters: Dict[str, int] = {}

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        if self._attached is not None:
            return self._attached.map(fn, items)
        with FabricScheduler(
            jobs=self.jobs,
            queue_dir=self._queue_dir,
            cache_dir=self._cache_dir,
            stream_path=self._stream_path,
            sinks=self._sinks,
            chaos_kill_after=self._chaos_kill_after,
            lease_timeout=self._lease_timeout,
        ) as scheduler:
            results = scheduler.map(fn, items)
            self.last_counters = scheduler.counters_snapshot()
            return results

    def __repr__(self) -> str:
        mode = "attached" if self._attached is not None else "ephemeral"
        return f"FabricExecutor(jobs={self.jobs}, {mode})"


__all__ = ["FabricExecutor"]
