"""The directory queue: crash-safe shared state of one fabric.

Layout under the queue root::

    tasks/<task_id>.task     pickled TaskEnvelope (written once, atomic)
    leases/<task_id>.lease   JSON {worker, pid, ts} -- exclusive claim token
    results/<task_id>.pkl    pickled TaskOutcome (atomic tmp + rename)
    results.jsonl            scheduler-appended incremental progress
    STOP                     sentinel: workers drain and exit

Every mutation is either an atomic rename or an exclusive hard link of
a fully written file, so the queue tolerates SIGKILL at any instant on
either side:

- a killed **writer** leaves at worst a ``.tmp-*`` orphan, never a
  truncated entry (readers treat an unreadable pickle as absent and
  evict it);
- a killed **worker** leaves a lease with a dead pid; the scheduler
  reaps it and the task becomes claimable again (work stealing);
- two workers racing on the same task -- possible only after a lease
  was stolen from a slow-but-alive worker -- both write byte-identical
  results (tasks are deterministic), so the rename race is harmless.

The queue is plain files on purpose: any process that can see the
directory (including ``repro fabric worker`` started by hand on a
shared filesystem) can join the fabric.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.fabric.tasks import TaskEnvelope, TaskOutcome


@dataclass(frozen=True)
class LeaseInfo:
    """The claim token one worker holds on one task."""

    task_id: str
    worker: str
    pid: int
    ts: float


class FabricQueue:
    """Filesystem-backed task queue shared by scheduler and workers."""

    def __init__(self, root: Union[str, "os.PathLike[str]"], create: bool = True) -> None:
        self.root = pathlib.Path(root)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        if create:
            for directory in (self.tasks_dir, self.leases_dir,
                              self.results_dir):
                directory.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------

    def _task_path(self, task_id: str) -> pathlib.Path:
        return self.tasks_dir / f"{task_id}.task"

    def _lease_path(self, task_id: str) -> pathlib.Path:
        return self.leases_dir / f"{task_id}.lease"

    def _result_path(self, task_id: str) -> pathlib.Path:
        return self.results_dir / f"{task_id}.pkl"

    @property
    def stream_path(self) -> pathlib.Path:
        return self.root / "results.jsonl"

    @property
    def stop_path(self) -> pathlib.Path:
        return self.root / "STOP"

    # -- tasks --------------------------------------------------------------

    def add_task(self, env: TaskEnvelope) -> None:
        """Persist one envelope (idempotent: same id, same bytes)."""
        path = self._task_path(env.task_id)
        if path.exists():
            return
        self._atomic_write(path, pickle.dumps(env, protocol=4))

    def read_task(self, task_id: str) -> Optional[TaskEnvelope]:
        return self._read_pickle(self._task_path(task_id))

    def task_ids(self) -> List[str]:
        return sorted(p.stem for p in self.tasks_dir.glob("*.task"))

    # -- leases -------------------------------------------------------------

    def try_claim(self, task_id: str, worker: str, ts: float) -> bool:
        """Atomically claim ``task_id``; False if someone else holds it.

        The lease is written in full to a temporary file and then
        hard-linked into place, which fails if the lease exists.  A
        worker killed at any instant therefore leaves no lease or a
        complete one -- never an empty lease that no one can read, and
        so no one can steal.
        """
        fd, tmp = tempfile.mkstemp(dir=self.leases_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(
                    {"worker": worker, "pid": os.getpid(), "ts": ts}, fh
                )
            os.link(tmp, self._lease_path(task_id))
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        return True

    def claim_next(self, worker: str, ts: float) -> Optional[TaskEnvelope]:
        """Claim the first unleased, unfinished task (None when idle)."""
        for task_id in self.task_ids():
            if self._result_path(task_id).exists():
                continue
            if self._lease_path(task_id).exists():
                continue
            if not self.try_claim(task_id, worker, ts):
                continue  # lost the race; move on
            env = self.read_task(task_id)
            if env is None:  # unreadable task file: give the claim back
                self.release_lease(task_id)
                continue
            return env
        return None

    def lease_info(self, task_id: str) -> Optional[LeaseInfo]:
        path = self._lease_path(task_id)
        try:
            with path.open() as fh:
                doc = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        try:
            return LeaseInfo(
                task_id=task_id,
                worker=str(doc["worker"]),
                pid=int(doc["pid"]),
                ts=float(doc["ts"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def lease_ids(self) -> List[str]:
        return sorted(p.stem for p in self.leases_dir.glob("*.lease"))

    def release_lease(self, task_id: str) -> None:
        try:
            self._lease_path(task_id).unlink()
        except FileNotFoundError:
            pass

    # -- results ------------------------------------------------------------

    def write_result(self, outcome: TaskOutcome) -> None:
        self._atomic_write(
            self._result_path(outcome.task_id),
            pickle.dumps(outcome, protocol=4),
        )

    def read_result(self, task_id: str) -> Optional[TaskOutcome]:
        """The outcome for ``task_id``; unreadable entries are evicted
        (the task becomes claimable again)."""
        outcome = self._read_pickle(self._result_path(task_id))
        if outcome is not None and not isinstance(outcome, TaskOutcome):
            self._result_path(task_id).unlink(missing_ok=True)
            return None
        return outcome

    def result_ids(self) -> List[str]:
        return sorted(p.stem for p in self.results_dir.glob("*.pkl"))

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        """Ask every worker polling this queue to drain and exit."""
        if not self.stop_path.exists():
            self._atomic_write(self.stop_path, b"stop\n")

    def stopped(self) -> bool:
        return self.stop_path.exists()

    def resume(self) -> None:
        """Clear a STOP sentinel (a persistent queue being reused)."""
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    # -- plumbing -----------------------------------------------------------

    def _read_pickle(self, path: pathlib.Path) -> Optional[Any]:
        try:
            with path.open("rb") as fh:
                data = fh.read()
        except (FileNotFoundError, OSError):
            return None
        try:
            return pickle.loads(data)
        except Exception:
            # garbage from a non-atomic filesystem or a torn writer:
            # evict so the producer side runs (or re-runs) the task.
            path.unlink(missing_ok=True)
            return None

    def _atomic_write(self, path: pathlib.Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


__all__ = ["FabricQueue", "LeaseInfo"]
