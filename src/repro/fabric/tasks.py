"""Fabric tasks: the unit of work the scheduler ships to workers.

A :class:`TaskEnvelope` wraps one piece of work into a picklable record
the directory queue can persist and any worker process can execute.
There are two kinds:

- ``spec`` -- the map function is :func:`repro.exp.spec.execute_spec`
  and the item is a :class:`repro.exp.spec.Spec` (a grid cell, a crash
  point, a litmus cell, ...).  The payload is the pickled spec, so
  unpickling it imports the spec's own module and the worker runs it
  with no dispatch table; an externally attached worker (``repro fabric
  worker``) only needs the same source tree.
- ``call`` -- any other (module-level) function, pickled together with
  its item.  The bench suites use it, addressing cases by name.

Two properties carry the fabric's exactly-once-results guarantee:

1. **Content-addressed identity.**  A ``spec`` task's id is the spec's
   own :meth:`~repro.exp.spec.Spec.key`, so re-enqueueing the same cell
   -- from a retry, a second campaign, or a concurrent ``repro serve``
   submission -- collapses onto the same task, and two workers racing
   on it write byte-identical results.
2. **Determinism.**  Simulation is deterministic given a spec, so a
   retried or duplicated execution always reproduces the same result --
   "at-least-once execution, exactly-once results".
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.exp.executors import SerialExecutor
from repro.exp.spec import digest, execute_spec, run_specs

#: bump when envelope encoding or dispatch semantics change.
FABRIC_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TaskEnvelope:
    """One schedulable unit: id, dispatch kind, payload, display label."""

    task_id: str
    kind: str
    payload: Any
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


def _qualname(fn: Callable[..., Any]) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def envelope_for(fn: Callable[[Any], Any], item: Any) -> TaskEnvelope:
    """Wrap one ``executor.map`` item into an envelope.

    Specs are addressed by their content key; generic calls by the hash
    of the function's qualname plus the pickled item (stable within one
    scheduler run, which is all retry needs).
    """
    if fn is execute_spec:
        return TaskEnvelope(task_id=item.key(), kind="spec", payload=item,
                            label=str(item.label()))
    blob = pickle.dumps((_qualname(fn), item), protocol=4)
    task_id = hashlib.sha256(b"call:" + blob).hexdigest()
    return TaskEnvelope(
        task_id=task_id,
        kind="call",
        payload=(fn, item),
        label=f"call:{fn.__qualname__}",
    )


def execute_envelope(env: TaskEnvelope, cache: Optional[Any] = None) -> Tuple[Any, bool]:
    """Run one envelope in the current process.

    Returns ``(result, cached)``.  A ``spec`` task goes through
    :func:`repro.exp.spec.run_specs` with ``cache`` (a
    :class:`repro.exp.cache.ResultCache` or None) -- the cache directory
    is the fabric's shared store, so any worker's completed cell is
    every future campaign's cache hit.
    """
    if env.kind == "spec":
        [result], hits = run_specs([env.payload], SerialExecutor(), cache)
        return result, hits == 1
    if env.kind == "call":
        fn, item = env.payload
        return fn(item), False
    raise FabricTaskError(f"unknown task kind {env.kind!r}")


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
