"""The fabric worker loop.

A worker is one process that repeatedly claims a task from the
directory queue, executes it, and writes the outcome back, polling every
:data:`POLL_INTERVAL_S` while there is nothing to claim.  Workers are
intentionally dumb: all fault-tolerance policy (lease reaping, retry
budgets, respawn, chaos injection) lives in the scheduler, so a worker
can be SIGKILLed at any instant without corrupting shared state --
the worst it leaves behind is a lease the scheduler will steal.

Workers are normally spawned by :class:`repro.fabric.scheduler.
FabricScheduler`, but ``repro fabric worker --queue DIR`` attaches an
extra one from any process (or any machine sharing the filesystem) --
that is the horizontal-scaling path.

A task that *raises* is not retried: the exception is deterministic
(simulation is), so the error string is written as the task's outcome
and surfaces at ``map()`` as a :class:`~repro.fabric.tasks.
FabricTaskError`.  Only worker *death* triggers the lease-steal retry
path.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Union

from repro.fabric.queue import FabricQueue
from repro.fabric.tasks import TaskOutcome, execute_envelope

#: seconds an idle worker sleeps between claim attempts; the
#: scheduler's pump ticks at the same rate.
POLL_INTERVAL_S = 0.02


def worker_loop(
    queue_dir: Union[str, "os.PathLike[str]"],
    worker_id: str,
    cache_dir: Optional[str] = None,
    max_idle_s: Optional[float] = None,
) -> int:
    """Claim-execute-report until the queue's STOP sentinel appears.

    ``cache_dir`` makes the shared :class:`repro.exp.cache.ResultCache`
    available to every task (hit = skip simulation; fresh results
    are written back for every future tenant).  ``max_idle_s`` bounds
    how long an externally attached worker lingers with nothing to do.
    Returns the number of tasks this worker completed.
    """
    queue = FabricQueue(queue_dir)
    cache = None
    if cache_dir is not None:
        from repro.exp.cache import ResultCache

        cache = ResultCache(cache_dir)
    completed = 0
    idle_since: Optional[float] = None
    while not queue.stopped():
        env = queue.claim_next(worker_id, ts=time.time())
        if env is None:
            now = time.time()
            if idle_since is None:
                idle_since = now
            elif max_idle_s is not None and now - idle_since > max_idle_s:
                break
            time.sleep(POLL_INTERVAL_S)
            continue
        idle_since = None
        try:
            value, cached = execute_envelope(env, cache=cache)
            outcome = TaskOutcome(
                task_id=env.task_id, ok=True, value=value,
                worker=worker_id, cached=cached,
            )
        except BaseException as exc:  # noqa: BLE001 -- report, don't die
            outcome = TaskOutcome(
                task_id=env.task_id, ok=False,
                error=f"{type(exc).__name__}: {exc}", worker=worker_id,
            )
        queue.write_result(outcome)
        completed += 1
    return completed


__all__ = ["worker_loop"]
