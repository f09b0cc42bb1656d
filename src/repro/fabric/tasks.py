"""Fabric tasks: the unit of work the scheduler ships to workers.

A :class:`TaskEnvelope` wraps one :class:`repro.exp.spec.Spec` (a grid
cell, a crash point, a litmus cell, ...) into a picklable record the
directory queue can persist and any worker process can execute.  The
payload is the pickled spec, so unpickling it imports the spec's own
module and the worker runs it with no dispatch table; an externally
attached worker (``repro fabric worker``) only needs the same source
tree.

Two properties carry the fabric's exactly-once-results guarantee:

1. **Content-addressed identity.**  A task's id is the spec's own
   :meth:`~repro.exp.spec.Spec.key`, so re-enqueueing the same cell --
   from a retry, a second campaign, or a concurrent ``repro serve``
   submission -- collapses onto the same task, and two workers racing
   on it write byte-identical results.
2. **Determinism.**  Simulation is deterministic given a spec, so a
   retried or duplicated execution always reproduces the same result --
   "at-least-once execution, exactly-once results".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.exp.executors import SerialExecutor
from repro.exp.spec import Spec, digest, run_specs

#: bump when envelope encoding or dispatch semantics change.
FABRIC_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class TaskEnvelope:
    """One schedulable unit: id, the spec to run, display label."""

    task_id: str
    payload: Spec
    label: str


@dataclass(frozen=True)
class TaskOutcome:
    """What a worker wrote back for one task."""

    task_id: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    worker: str = ""
    cached: bool = False


class FabricTaskError(RuntimeError):
    """A task raised (or repeatedly killed its worker); the fabric
    completed the campaign but this task has no usable result."""


def envelope_for(spec: Spec) -> TaskEnvelope:
    """Wrap one spec into an envelope addressed by its content key."""
    return TaskEnvelope(task_id=spec.key(), payload=spec, label=spec.label())


def execute_envelope(env: TaskEnvelope, cache: Optional[Any] = None) -> Tuple[Any, bool]:
    """Run one envelope in the current process.

    Returns ``(result, cached)``.  The spec goes through
    :func:`repro.exp.spec.run_specs` with ``cache`` (a
    :class:`repro.exp.cache.ResultCache` or None) -- the cache directory
    is the fabric's shared store, so any worker's completed cell is
    every future campaign's cache hit.
    """
    [result], hits = run_specs([env.payload], SerialExecutor(), cache)
    return result, hits == 1


def fingerprint_sha(result: Any) -> str:
    """Stable hex digest of a WorkloadResult fingerprint.

    Used by the grid document and the serve results payload so two runs
    of the same cell can be compared without shipping the whole stats
    registry over the wire.
    """
    return digest(result.fingerprint())


__all__ = [
    "FABRIC_SCHEMA_VERSION",
    "FabricTaskError",
    "TaskEnvelope",
    "TaskOutcome",
    "envelope_for",
    "execute_envelope",
    "fingerprint_sha",
]
