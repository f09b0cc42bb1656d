"""The fabric scheduler: shard, lease, steal, survive.

:class:`FabricScheduler` owns a :class:`~repro.fabric.queue.FabricQueue`
and a pool of worker *processes*, and runs an asynchronous pump thread
that turns the queue's files into campaign results:

- **submit** -- :meth:`submit` persists every task envelope (idempotent
  by content hash) and returns a :class:`FabricJob` handle; many jobs
  can be in flight at once (``repro serve`` multiplexes its HTTP
  submissions exactly this way).
- **collect** -- each pump tick sweeps new result files into memory,
  appends one JSONL line per completed task to the incremental stream
  (``results.jsonl``), and releases finished jobs.
- **steal** -- a lease whose owner pid is dead (SIGKILL, OOM) or whose
  age exceeds :data:`LEASE_TIMEOUT_S` is reaped: the lease file is
  deleted, the task becomes claimable again, and some worker re-runs
  it.  Determinism makes the retry byte-identical, so nothing is lost
  and nothing is duplicated.
- **respawn** -- a dead worker is replaced (up to :data:`MAX_RESPAWNS`
  per scheduler) while work is pending, so the fabric keeps its width.
- **budget** -- a task whose lease is stolen more than
  :data:`MAX_RETRIES` times is failed *by the scheduler* with a clear
  error instead of looping forever.

A scheduler is itself an executor (``jobs`` plus ``map``): pass it to
``run_plan``/``run_campaign``/``run_litmus`` to multiplex many batches
onto one worker pool and one deduped task set.  The pump thread never
executes simulation work itself, so the scheduler stays responsive
regardless of cell runtimes.  ``chaos_kill_after`` is the
fault-injection hook the CI ``fabric-gate`` uses: after N collected
results the scheduler SIGKILLs one of its own workers and the campaign
must still converge byte-identically.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Union

from repro.exp.spec import execute_spec
from repro.fabric.queue import FabricQueue
from repro.fabric.tasks import (
    FabricTaskError,
    TaskEnvelope,
    TaskOutcome,
    envelope_for,
)
from repro.fabric.worker import POLL_INTERVAL_S, worker_loop

#: a lease older than this (seconds) is stolen even if its owner lives.
LEASE_TIMEOUT_S = 120.0
#: dead workers one scheduler replaces while work is pending.
MAX_RESPAWNS = 8
#: lease steals after which a task is failed instead of re-run.
MAX_RETRIES = 3


class FabricStalledError(RuntimeError):
    """Every worker died and respawn could not restore the pool."""


@dataclass
class _TaskMeta:
    label: str
    retries: int = 0


@dataclass
class _WorkerRecord:
    worker_id: str
    process: BaseProcess
    dead: bool = False


@dataclass
class FabricJob:
    """Handle on one submitted batch; results come back in input order."""

    job_id: str
    task_ids: List[str]
    _scheduler: "FabricScheduler"
    _done: threading.Event = field(default_factory=threading.Event)

    @property
    def total(self) -> int:
        return len(self.task_ids)

    @property
    def completed(self) -> int:
        outcomes = self._scheduler._outcomes
        return sum(1 for tid in self.task_ids if tid in outcomes)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def outcomes(self) -> List[Optional[TaskOutcome]]:
        """Current per-task outcomes (None where still pending)."""
        outcomes = self._scheduler._outcomes
        return [outcomes.get(tid) for tid in self.task_ids]

    def wait(self, timeout: Optional[float] = None) -> List[Any]:
        """Block until every task finished; return values in input order.

        Raises :class:`FabricTaskError` if any task errored and
        :class:`FabricStalledError` if the worker pool died for good.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done.wait(timeout=0.05):
            self._scheduler._check_health()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"fabric job {self.job_id} incomplete after {timeout}s "
                    f"({self.completed}/{self.total} tasks)"
                )
        values: List[Any] = []
        for tid in self.task_ids:
            outcome = self._scheduler._outcomes[tid]
            if not outcome.ok:
                raise FabricTaskError(
                    f"task {self._scheduler._meta[tid].label} failed: "
                    f"{outcome.error}"
                )
            values.append(outcome.value)
        return values


class FabricScheduler:
    """Shard tasks over worker processes with lease-based retry."""

    def __init__(
        self,
        jobs: int = 2,
        queue_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        cache_dir: Optional[str] = None,
        stream_path: Optional[str] = None,
        chaos_kill_after: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if queue_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
            queue_dir = self._tmpdir.name
        self.queue = FabricQueue(queue_dir)
        self.queue.resume()  # a reused persistent queue may carry STOP
        self.cache_dir = cache_dir
        self.chaos_kill_after = chaos_kill_after

        self._lock = threading.RLock()
        self._meta: Dict[str, _TaskMeta] = {}
        self._outcomes: Dict[str, TaskOutcome] = {}
        self._jobs: List[FabricJob] = []
        self._workers: List[_WorkerRecord] = []
        self._worker_seq = 0
        self._respawns = 0
        self._job_seq = 0
        self._chaos_done = False
        self._stream: Optional[IO[str]] = None
        self._stream_path = stream_path
        self._pump: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stalled: Optional[str] = None
        self.counters: Dict[str, int] = {
            "tasks_submitted": 0,
            "tasks_deduped": 0,
            "tasks_completed": 0,
            "tasks_failed": 0,
            "tasks_cached": 0,
            "tasks_retried": 0,
            "leases_stolen": 0,
            "workers_spawned": 0,
            "workers_died": 0,
            "workers_respawned": 0,
            "chaos_kills": 0,
            "jobs_submitted": 0,
            "jobs_completed": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool and the pump thread (idempotent)."""
        with self._lock:
            if self._pump is not None:
                return
            for _ in range(self.jobs):
                self._spawn_worker()
            self._pump = threading.Thread(
                target=self._pump_loop, name="fabric-pump", daemon=True
            )
            self._pump.start()

    def close(self) -> None:
        """Stop workers, drain the pump, flush the stream.

        With every task finished the workers are terminated (the queue
        survives SIGKILL at any instant); else they finish their task.
        """
        self.queue.stop()
        self._stop.set()
        if self._pump is not None:
            self._pump.join(timeout=10.0)
            self._pump = None
        with self._lock:
            finished = len(self._outcomes) == len(self._meta)
        for record in self._workers:
            if finished:
                record.process.terminate()
            record.process.join(timeout=5.0)
            if record.process.is_alive():
                record.process.terminate()
                record.process.join(timeout=2.0)
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "FabricScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(self, envelopes: Sequence[TaskEnvelope]) -> FabricJob:
        """Persist ``envelopes``, start the pool if it is not running,
        and return a handle on their results.

        Content-identical envelopes (within or across jobs) collapse
        onto one task; every position still receives its result.  The
        tasks are on disk before a worker is spawned, so a fresh
        worker's first claim finds one instead of sleeping a poll
        interval on an empty queue.
        """
        with self._lock:
            self._job_seq += 1
            job = FabricJob(
                job_id=f"job-{self._job_seq}",
                task_ids=[env.task_id for env in envelopes],
                _scheduler=self,
            )
            fresh = 0
            for env in envelopes:
                if env.task_id in self._meta:
                    self.counters["tasks_deduped"] += 1
                    continue
                self._meta[env.task_id] = _TaskMeta(label=env.label)
                self.queue.add_task(env)
                fresh += 1
            self.counters["tasks_submitted"] += fresh
            self.counters["jobs_submitted"] += 1
            self._jobs.append(job)
            self._refresh_jobs_locked()
        self.start()
        return job

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """``executor.map`` semantics over the fabric (in input order).

        The fabric runs specs only: ``fn`` must be
        :func:`repro.exp.spec.execute_spec`, checked before any task is
        written.
        """
        if fn is not execute_spec:
            raise TypeError(
                f"the fabric maps execute_spec over specs, not {fn!r}"
            )
        items = list(items)
        if not items:
            return []
        job = self.submit([envelope_for(item) for item in items])
        return job.wait(timeout=timeout)

    # -- pump ---------------------------------------------------------------

    def _pump_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception as exc:  # pragma: no cover -- belt+braces
                with self._lock:
                    self._stalled = f"scheduler pump crashed: {exc!r}"
                return
            self._stop.wait(POLL_INTERVAL_S)

    def _tick(self) -> None:
        self._collect_results()
        self._check_workers()
        self._reap_leases()
        self._maybe_chaos()

    def _collect_results(self) -> None:
        for task_id in self.queue.result_ids():
            with self._lock:
                if task_id in self._outcomes or task_id not in self._meta:
                    continue
            outcome = self.queue.read_result(task_id)
            if outcome is None:  # torn write: task will be re-run
                continue
            with self._lock:
                meta = self._meta[task_id]
                self._outcomes[task_id] = outcome
                self.counters["tasks_completed"] += 1
                if outcome.cached:
                    self.counters["tasks_cached"] += 1
                if not outcome.ok:
                    self.counters["tasks_failed"] += 1
                self._stream_line(
                    {
                        "task": task_id[:16],
                        "label": meta.label,
                        "ok": outcome.ok,
                        "cached": outcome.cached,
                        "worker": outcome.worker,
                        "attempt": meta.retries + 1,
                        "error": outcome.error,
                    }
                )
                self._refresh_jobs_locked()

    def _check_workers(self) -> None:
        with self._lock:
            pending = len(self._meta) > len(self._outcomes)
            for record in self._workers:
                if record.dead or record.process.is_alive():
                    continue
                record.dead = True
                self.counters["workers_died"] += 1
                self._steal_worker_leases(record.worker_id)
                if pending and self._respawns < MAX_RESPAWNS:
                    self._respawns += 1
                    self._spawn_worker(respawned=True)

    def _reap_leases(self) -> None:
        now = time.time()
        for task_id in self.queue.lease_ids():
            with self._lock:
                if task_id in self._outcomes:
                    self.queue.release_lease(task_id)  # finished: tidy up
                    continue
            lease = self.queue.lease_info(task_id)
            if lease is None:
                continue
            expired = now - lease.ts > LEASE_TIMEOUT_S
            if not expired and _pid_alive(lease.pid):
                continue
            self._steal_lease(task_id)

    def _steal_worker_leases(self, worker_id: str) -> None:
        for task_id in self.queue.lease_ids():
            lease = self.queue.lease_info(task_id)
            if lease is None or lease.worker != worker_id:
                continue
            if task_id in self._outcomes:
                self.queue.release_lease(task_id)
                continue
            self._steal_lease(task_id)

    def _steal_lease(self, task_id: str) -> None:
        """Reap one dead/expired lease; enforce the retry budget."""
        with self._lock:
            meta = self._meta.get(task_id)
            if meta is None or task_id in self._outcomes:
                self.queue.release_lease(task_id)
                return
            meta.retries += 1
            self.counters["leases_stolen"] += 1
            if meta.retries > MAX_RETRIES:
                # the task keeps killing its workers: fail it cleanly
                # rather than looping forever.
                self.queue.write_result(
                    TaskOutcome(
                        task_id=task_id,
                        ok=False,
                        error=(
                            f"task killed its worker {meta.retries} "
                            f"times (retry budget {MAX_RETRIES})"
                        ),
                        worker="scheduler",
                    )
                )
            else:
                self.counters["tasks_retried"] += 1
        self.queue.release_lease(task_id)

    def _maybe_chaos(self) -> None:
        if self.chaos_kill_after is None or self._chaos_done:
            return
        with self._lock:
            if self.counters["tasks_completed"] < self.chaos_kill_after:
                return
            victim = next(
                (r for r in self._workers
                 if not r.dead and r.process.is_alive()),
                None,
            )
            if victim is None:
                return
            pid = victim.process.pid
            if pid is None:
                return
            self._chaos_done = True
            self.counters["chaos_kills"] += 1
        os.kill(pid, signal.SIGKILL)

    # -- internals ----------------------------------------------------------

    def _spawn_worker(self, respawned: bool = False) -> None:
        self._worker_seq += 1
        worker_id = f"w{self._worker_seq}"
        ctx = multiprocessing.get_context()
        process = ctx.Process(
            target=worker_loop,
            args=(str(self.queue.root), worker_id),
            kwargs={"cache_dir": self.cache_dir},
            name=f"fabric-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers.append(_WorkerRecord(worker_id=worker_id,
                                           process=process))
        self.counters["workers_spawned"] += 1
        if respawned:
            self.counters["workers_respawned"] += 1

    def _refresh_jobs_locked(self) -> None:
        for job in self._jobs:
            if job.done:
                continue
            if all(tid in self._outcomes for tid in job.task_ids):
                job._done.set()
                self.counters["jobs_completed"] += 1

    def _check_health(self) -> None:
        with self._lock:
            if self._stalled is not None:
                raise FabricStalledError(self._stalled)
            pending = len(self._meta) > len(self._outcomes)
            alive = any(
                not r.dead and r.process.is_alive() for r in self._workers
            )
            can_respawn = self._respawns < MAX_RESPAWNS
        if pending and not alive and not can_respawn:
            raise FabricStalledError(
                "every fabric worker died and the respawn budget is "
                "exhausted; pending tasks cannot complete"
            )

    def _stream_line(self, doc: Dict[str, Any]) -> None:
        if self._stream is None:
            path = self._stream_path or str(self.queue.stream_path)
            self._stream = open(path, "a")
        doc = {k: v for k, v in doc.items() if v is not None}
        self._stream.write(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._stream.flush()

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


__all__ = ["FabricJob", "FabricScheduler", "FabricStalledError"]
