"""FabricExecutor: the fabric behind the `repro.exp` executor protocol.

Anything that fans specs out through ``executor.map(execute_spec,
specs)`` -- :func:`repro.exp.plan.run_plan`, :func:`repro.crashtest.
campaign.run_campaign`, :func:`repro.litmus.runner.run_litmus` -- can
swap its process pool for the fault-tolerant fabric by passing one of
these instead.  Results come back in input order, so it is a drop-in
replacement: same campaign document bytes, different execution
substrate.  Any other map function is a ``TypeError``.

Each ``map()`` call spins a scheduler up, runs the batch, and tears the
pool down -- the campaign-CLI shape.  To multiplex many batches onto one
long-lived pool (the ``repro serve`` shape), pass a
:class:`~repro.fabric.scheduler.FabricScheduler` itself as the executor.

A ``FabricExecutor`` has no result cache.  Its drivers serve cache hits
through :func:`repro.exp.spec.run_specs` before mapping and store the
fresh results after, so its workers would only ever miss.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.fabric.scheduler import FabricScheduler

T = TypeVar("T")
R = TypeVar("R")


class FabricExecutor:
    """Map work over the distributed fabric (drop-in for the exp pool)."""

    def __init__(
        self,
        jobs: int = 2,
        queue_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        stream_path: Optional[str] = None,
        chaos_kill_after: Optional[int] = None,
    ) -> None:
        self.jobs = jobs
        self._queue_dir = queue_dir
        self._stream_path = stream_path
        self._chaos_kill_after = chaos_kill_after
        #: counters of the last completed map(), for reporting without
        #: keeping the scheduler alive.
        self.last_counters: Dict[str, int] = {}

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        with FabricScheduler(
            jobs=self.jobs,
            queue_dir=self._queue_dir,
            stream_path=self._stream_path,
            chaos_kill_after=self._chaos_kill_after,
        ) as scheduler:
            results = scheduler.map(fn, items)
            self.last_counters = scheduler.counters_snapshot()
            return results

    def __repr__(self) -> str:
        return f"FabricExecutor(jobs={self.jobs})"


__all__ = ["FabricExecutor"]
