"""repro.fabric: a fault-tolerant experiment fabric.

Shards :mod:`repro.exp` plans, crash-sweep campaigns and litmus
enumerations -- every task is a :class:`repro.exp.spec.Spec` -- across
worker processes through a crash-safe directory queue; streams results
incrementally as JSONL; dedupes via the content-hash
:class:`repro.exp.cache.ResultCache` used as a shared store; and
survives worker death (SIGKILL mid-task) through lease-based work
stealing with zero lost or duplicated results.  A
:class:`FabricExecutor` runs each batch on a scheduler of its own; a
:class:`FabricScheduler` is itself an executor that keeps one worker
pool and one deduped task set across batches.

See ``docs/fabric.md`` for the architecture and the exactly-once
argument.
"""

from repro.fabric.executor import FabricExecutor
from repro.fabric.queue import FabricQueue, LeaseInfo
from repro.fabric.scheduler import FabricJob, FabricScheduler, FabricStalledError
from repro.fabric.tasks import (
    FabricTaskError,
    TaskEnvelope,
    TaskOutcome,
    envelope_for,
    execute_envelope,
    fingerprint_sha,
)
from repro.fabric.worker import worker_loop

__all__ = [
    "FabricExecutor",
    "FabricJob",
    "FabricQueue",
    "FabricScheduler",
    "FabricStalledError",
    "FabricTaskError",
    "LeaseInfo",
    "TaskEnvelope",
    "TaskOutcome",
    "envelope_for",
    "execute_envelope",
    "fingerprint_sha",
    "worker_loop",
]
