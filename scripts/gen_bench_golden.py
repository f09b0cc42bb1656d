#!/usr/bin/env python
"""Regenerate the golden determinism corpus under ``tests/bench/golden/``.

The corpus pins the simulator's observable output byte-for-byte:

- ``<workload>_<model>.stats.txt``   -- gem5-style stats file
  (:func:`repro.analysis.statsfile.format_stats`) of a small traced run;
- ``<workload>_<model>.events.jsonl`` -- the full JSONL event stream of
  the same run (tracing never alters results, so the stats of the traced
  run double as the untraced goldens);
- ``grid_fingerprints.json``          -- result fingerprints
  (:meth:`repro.workloads.base.WorkloadResult.fingerprint`) over a wider
  grid of workloads x every registered design, cheap enough to run in
  the tier-1 suite.

Run it ONLY when a PR intentionally changes simulation semantics; a
performance-only change must leave every file untouched (that is the
point of ``tests/bench/test_golden_determinism.py``).

Usage::

    PYTHONPATH=src python scripts/gen_bench_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.statsfile import format_stats  # noqa: E402
from repro.core.models import MODEL_REGISTRY  # noqa: E402
from repro.exp import RunSpec  # noqa: E402
from repro.obs import JSONLSink  # noqa: E402
from repro.sim.config import MachineConfig  # noqa: E402
from repro.workloads.base import run_workload  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "bench" / "golden"

#: the four release-persistency designs of Sections VII-B onward, plus
#: Vorpal's ordering queue and the no-undo ablation, whose admission
#: paths the RP designs never reach.
TRACED_MODEL_NAMES = (
    "baseline", "hops_rp", "asap_rp", "eadr", "vorpal", "asap_no_undo",
)

#: (workload, threads, ops) cells pinned byte-for-byte (stats + trace).
TRACED_CELLS = (
    ("bandwidth", 2, 24),
    ("queue", 2, 24),
)

#: wider grid pinned by result fingerprint only, over every design.
FINGERPRINT_MODEL_NAMES = tuple(MODEL_REGISTRY)
FINGERPRINT_WORKLOADS = (
    "bandwidth", "fence_latency", "coalescing",
    "nstore", "queue", "cceh", "echo", "heap",
)
FINGERPRINT_OPS = 16
FINGERPRINT_THREADS = 4
SEED = 7


def traced_cell(workload: str, model: str, threads: int, ops: int,
                events_path: pathlib.Path) -> str:
    """Run one traced cell; write its JSONL to ``events_path`` and return
    its stats text."""
    spec = RunSpec(workload, model, ops_per_thread=ops,
                   num_threads=threads, seed=SEED,
                   machine=MachineConfig(num_cores=threads))
    sink = JSONLSink(events_path)
    result = run_workload(
        spec.build_workload(), spec.machine, spec.run_config(),
        num_threads=threads, sinks=[sink],
    )
    sink.close()
    return format_stats(result.result)


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for workload, threads, ops in TRACED_CELLS:
        for model in TRACED_MODEL_NAMES:
            stem = f"{workload}_{model}"
            events_path = GOLDEN_DIR / f"{stem}.events.jsonl"
            stats_text = traced_cell(workload, model, threads, ops,
                                     events_path)
            (GOLDEN_DIR / f"{stem}.stats.txt").write_text(stats_text)
            print(f"wrote {stem}.stats.txt / .events.jsonl "
                  f"({len(events_path.read_text().splitlines())} events)")

    fingerprints = {}
    for workload in FINGERPRINT_WORKLOADS:
        for model in FINGERPRINT_MODEL_NAMES:
            spec = RunSpec(workload, model, ops_per_thread=FINGERPRINT_OPS,
                           num_threads=FINGERPRINT_THREADS, seed=SEED)
            result = spec.execute()
            fingerprints[f"{workload}/{model}"] = list(
                _jsonable(v) for v in result.fingerprint()
            )
    path = GOLDEN_DIR / "grid_fingerprints.json"
    path.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    print(f"wrote grid_fingerprints.json ({len(fingerprints)} cells)")
    return 0


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


if __name__ == "__main__":
    sys.exit(main())
