"""``repro serve``: the fabric as a long-running HTTP service.

A thin stdlib-only (``http.server``) front end over one shared
:class:`~repro.fabric.scheduler.FabricScheduler`.  Clients POST
experiment specs; the service expands them into content-addressed
cells, answers anything already in the shared
:class:`~repro.exp.cache.ResultCache` instantly, and multiplexes the
misses onto the fabric -- concurrent submissions of overlapping grids
collapse onto the same tasks.

API (all JSON)::

    GET  /v1/healthz        liveness probe
    GET  /v1/stats          service + scheduler + cache counters
    GET  /v1/jobs/<id>      job status, progress, per-cell results
    POST /v1/experiments    submit a grid spec, returns a job document
    POST /v1/shutdown       drain and stop the server

An experiment spec is the JSON shape of the CLI grid flags::

    {"workloads": ["queue", "heap"], "models": ["baseline", "asap"],
     "ops": 200, "threads": 2, "seed": 7}

Completed cells carry a ``fingerprint_sha`` -- the SHA-256 of the
cell's deterministic result fingerprint -- so clients can compare runs
without shipping the whole stats registry over the wire.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.exp.cache import ResultCache
from repro.exp.spec import RunSpec, cached_results, execute_spec
from repro.fabric.scheduler import FabricJob, FabricScheduler
from repro.fabric.tasks import envelope_for, fingerprint_sha


class SpecError(ValueError):
    """A submitted experiment document is malformed (HTTP 400)."""


class _ServiceJob:
    """One submitted experiment: cached cells + a fabric job for misses."""

    def __init__(
        self,
        job_id: str,
        specs: List[RunSpec],
        cached: Dict[int, Any],
        fabric_job: Optional[FabricJob],
        pending_index: List[int],
    ) -> None:
        self.job_id = job_id
        self.specs = specs
        self.cached = cached  # plan index -> WorkloadResult (cache hits)
        self.fabric_job = fabric_job
        self.pending_index = pending_index  # plan index of each fabric task

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def completed(self) -> int:
        done = len(self.cached)
        if self.fabric_job is not None:
            done += self.fabric_job.completed
        return done

    def state(self) -> str:
        if self.fabric_job is None or self.fabric_job.done:
            if any(
                outcome is not None and not outcome.ok
                for outcome in (
                    self.fabric_job.outcomes() if self.fabric_job else []
                )
            ):
                return "failed"
            return "done"
        return "running"

    def cells(self) -> List[Dict[str, Any]]:
        """Per-cell status documents, in plan order."""
        by_index: Dict[int, Any] = dict(self.cached)
        errors: Dict[int, str] = {}
        if self.fabric_job is not None:
            for position, outcome in enumerate(self.fabric_job.outcomes()):
                if outcome is None:
                    continue
                index = self.pending_index[position]
                if outcome.ok:
                    by_index[index] = outcome.value
                else:
                    errors[index] = outcome.error or "task failed"
        docs: List[Dict[str, Any]] = []
        for index, spec in enumerate(self.specs):
            cell: Dict[str, Any] = {
                "workload": spec.workload,
                "model": spec.model.name,
                "seed": spec.seed,
                "cached": index in self.cached,
            }
            if index in by_index:
                cell["fingerprint_sha"] = fingerprint_sha(by_index[index])
            elif index in errors:
                cell["error"] = errors[index]
            else:
                cell["pending"] = True
            docs.append(cell)
        return docs


class FabricService:
    """The serve-side brain: spec parsing, cache pre-check, job registry."""

    def __init__(
        self,
        scheduler: FabricScheduler,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.scheduler = scheduler
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self._lock = threading.Lock()
        self._jobs: Dict[str, _ServiceJob] = {}
        self._job_seq = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "experiments_submitted": 0,
            "cells_submitted": 0,
            "cells_cache_hit": 0,
        }

    # -- submission ----------------------------------------------------------

    def submit(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Expand ``doc`` into cells, serve hits, fan out misses."""
        specs = self._parse_spec(doc)
        cached = cached_results(specs, self.cache)
        pending = [index for index in range(len(specs)) if index not in cached]
        fabric_job: Optional[FabricJob] = None
        if pending:
            fabric_job = self.scheduler.submit(
                [envelope_for(execute_spec, specs[index]) for index in pending]
            )
        with self._lock:
            self._job_seq += 1
            job = _ServiceJob(
                job_id=f"exp-{self._job_seq}",
                specs=specs,
                cached=cached,
                fabric_job=fabric_job,
                pending_index=pending,
            )
            self._jobs[job.job_id] = job
            self.counters["experiments_submitted"] += 1
            self.counters["cells_submitted"] += len(specs)
            self.counters["cells_cache_hit"] += len(cached)
        return self.job_doc(job.job_id)

    def _parse_spec(self, doc: Dict[str, Any]) -> List[RunSpec]:
        if not isinstance(doc, dict):
            raise SpecError("experiment spec must be a JSON object")
        workloads = doc.get("workloads")
        models = doc.get("models")
        if not isinstance(workloads, list) or not workloads:
            raise SpecError('spec needs a non-empty "workloads" list')
        if not isinstance(models, list) or not models:
            raise SpecError('spec needs a non-empty "models" list')
        ops = doc.get("ops")
        threads = doc.get("threads")
        seed = doc.get("seed", 7)
        unknown = set(doc) - {"workloads", "models", "ops", "threads", "seed"}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        try:
            return [
                RunSpec(
                    workload,
                    model,
                    ops_per_thread=ops,
                    num_threads=threads,
                    seed=seed,
                )
                for workload in workloads
                for model in models
            ]
        except (KeyError, ValueError, TypeError) as exc:
            raise SpecError(str(exc)) from exc

    # -- documents -----------------------------------------------------------

    def job_doc(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return {
            "job": job.job_id,
            "state": job.state(),
            "total": job.total,
            "completed": job.completed,
            "cached": len(job.cached),
            "cells": job.cells(),
        }

    def stats_doc(self) -> Dict[str, Any]:
        with self._lock:
            service = dict(self.counters)
            jobs = len(self._jobs)
        doc: Dict[str, Any] = {
            "service": service,
            "jobs": jobs,
            "scheduler": self.scheduler.counters_snapshot(),
        }
        if self.cache is not None:
            doc["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        return doc


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the :class:`FabricService`."""

    server: "FabricHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"request body is not JSON: {exc}") from exc

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        service = self.server.service
        service.counters["requests"] += 1
        if self.path == "/v1/healthz":
            self._reply(200, {"ok": True})
        elif self.path == "/v1/stats":
            self._reply(200, service.stats_doc())
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            try:
                self._reply(200, service.job_doc(job_id))
            except KeyError:
                self._reply(404, {"error": f"unknown job {job_id!r}"})
        else:
            self._reply(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        service = self.server.service
        service.counters["requests"] += 1
        if self.path == "/v1/experiments":
            try:
                doc = service.submit(self._read_json())
            except SpecError as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(200, doc)
        elif self.path == "/v1/shutdown":
            self._reply(200, {"ok": True, "shutting_down": True})
            # shutdown() blocks until serve_forever returns, so it must
            # run outside this handler thread.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
        else:
            self._reply(404, {"error": f"no route {self.path!r}"})


class FabricHTTPServer(ThreadingHTTPServer):
    """HTTP front end bound to one :class:`FabricService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: FabricService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    jobs: int = 2,
    queue_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    verbose: bool = True,
) -> None:
    """Run the fabric service until SIGINT or POST /v1/shutdown."""
    with FabricScheduler(
        jobs=jobs, queue_dir=queue_dir, cache_dir=cache_dir
    ) as scheduler:
        service = FabricService(scheduler, cache_dir=cache_dir)
        server = FabricHTTPServer((host, port), service, verbose=verbose)
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()


__all__ = [
    "FabricHTTPServer",
    "FabricService",
    "SpecError",
    "serve",
]
