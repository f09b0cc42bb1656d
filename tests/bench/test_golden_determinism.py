"""Byte-identity of the simulator's observable output.

The optimization passes over the simulator (engine, machine dispatch,
persist buffer, WPQ, caches) must be *pure* performance changes: the
stats file and the JSONL event stream of every pinned run must stay
byte-for-byte identical to the committed goldens.  A legitimate
semantic change regenerates the corpus with
``PYTHONPATH=src python scripts/gen_bench_golden.py`` -- and says so in
the PR.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.statsfile import format_stats
from repro.core.models import MODEL_REGISTRY
from repro.exp import RunSpec
from repro.obs import JSONLSink
from repro.sim.config import MachineConfig
from repro.workloads.base import run_workload

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

TRACED_MODEL_NAMES = (
    "baseline", "hops_rp", "asap_rp", "eadr", "vorpal", "asap_no_undo",
)
FINGERPRINT_MODEL_NAMES = tuple(MODEL_REGISTRY)
TRACED_CELLS = (
    ("bandwidth", 2, 24),
    ("queue", 2, 24),
)
FINGERPRINT_WORKLOADS = (
    "bandwidth", "fence_latency", "coalescing",
    "nstore", "queue", "cceh", "echo", "heap",
)
FINGERPRINT_OPS = 16
FINGERPRINT_THREADS = 4
SEED = 7


def _traced_cell(workload: str, model: str, threads: int, ops: int,
                 events_path: pathlib.Path):
    spec = RunSpec(workload, model, ops_per_thread=ops,
                   num_threads=threads, seed=SEED,
                   machine=MachineConfig(num_cores=threads))
    sink = JSONLSink(events_path)
    result = run_workload(
        spec.build_workload(), spec.machine, spec.run_config(),
        num_threads=threads, sinks=[sink],
    )
    sink.close()
    return format_stats(result.result), events_path.read_text()


@pytest.mark.parametrize("workload,threads,ops", TRACED_CELLS)
@pytest.mark.parametrize("model", TRACED_MODEL_NAMES)
def test_stats_and_trace_byte_identical(workload, threads, ops, model,
                                        tmp_path):
    stats_path = GOLDEN_DIR / f"{workload}_{model}.stats.txt"
    events_path = GOLDEN_DIR / f"{workload}_{model}.events.jsonl"
    assert stats_path.exists(), (
        f"golden missing: {stats_path} "
        "(run scripts/gen_bench_golden.py and commit the corpus)"
    )
    stats_text, events_text = _traced_cell(
        workload, model, threads, ops, tmp_path / "events.jsonl"
    )
    assert stats_text == stats_path.read_text(), (
        f"{workload}/{model}: stats.txt drifted from the golden -- either "
        "a perf change altered semantics (a bug) or an intentional change "
        "needs scripts/gen_bench_golden.py re-run"
    )
    assert events_text == events_path.read_text(), (
        f"{workload}/{model}: JSONL event stream drifted from the golden"
    )


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def test_grid_fingerprints_match_golden():
    golden = json.loads((GOLDEN_DIR / "grid_fingerprints.json").read_text())
    for workload in FINGERPRINT_WORKLOADS:
        for model in FINGERPRINT_MODEL_NAMES:
            spec = RunSpec(workload, model, ops_per_thread=FINGERPRINT_OPS,
                           num_threads=FINGERPRINT_THREADS, seed=SEED)
            got = [_jsonable(v) for v in spec.execute().fingerprint()]
            assert got == golden[f"{workload}/{model}"], (
                f"{workload}/{model}: result fingerprint drifted"
            )
