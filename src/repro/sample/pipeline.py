"""Sampled execution: simulate representatives, extrapolate the rest.

The machine runs ONE pass with *skip-wrapper* generators: ops inside an
execution window (a representative interval plus its warm-up prefix) are
yielded to the machine as usual; ops outside are *functionally warmed* --
drawn from the underlying generator without full simulation, but still
applied to the cache hierarchy and the coherence directory so that
window-entry state (MESI ownership, line residency, first-touch sets)
matches the full run.  The wrapper itself signals window edges by
yielding :data:`repro.core.machine.PAUSE`; the machine halts -- without
draining in-flight persist state -- once every core parks, statistics
are snapshotted, and the delta between a window's two edges is the
representative's cost.  The full-run estimate is the anchor interval
(measured exactly: the cold start is a transient no phase represents)
plus the cluster-population-weighted sum of representative deltas plus a
measured tail (the end-of-run drain is global accumulation, equally
unsampleable).

Warm-up exists because a representative's first ops otherwise run
against the cache state the warming approximation left behind;
:data:`WARMUP_OPS` ops are fully simulated before measurement starts and
excluded from the delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.api import (
    Acquire,
    Compute,
    Load,
    Op,
    PMAllocator,
    Program,
    Release,
    Store,
)
from repro.core.machine import PAUSE, Machine
from repro.core.models import resolve_model
from repro.sample.fingerprint import INTERVAL_OPS, fingerprint_intervals
from repro.sample.phases import cluster_intervals
from repro.sim.config import MachineConfig
from repro.workloads.base import run_workload
from repro.workloads.registry import get_workload

#: counters whose extrapolated totals the report (and the golden gate)
#: tracks; anything absent from a run is reported as 0.  ``cycles`` is
#: synthetic (engine time), the rest are plain counters summed over
#: scopes -- including the Table VI stall counters.
TRACKED_METRICS = (
    "cycles",
    "cache_hits",
    "cache_misses",
    "pm_demand_reads",
    "dfenceStalled",
    "cyclesStalled",
)

#: members of :data:`TRACKED_METRICS` measured in stall *cycles* (not
#: event counts); validation judges them against total runtime.
STALL_CYCLE_METRICS = frozenset({"dfenceStalled", "cyclesStalled"})


#: ops fully simulated before each representative and excluded from its
#: delta.
WARMUP_OPS = 25

#: trailing intervals simulated exactly, plus the end-of-run drain.
TAIL_INTERVALS = 3


@dataclass(frozen=True)
class SampleConfig:
    """The sampling option.  Interval, warm-up and tail sizes are the
    constants :data:`~repro.sample.fingerprint.INTERVAL_OPS`,
    :data:`WARMUP_OPS` and :data:`TAIL_INTERVALS`, sized so a
    macro-scale run (a few thousand ops/thread) gets >=10x fewer
    simulated ops with a handful of phases.

    Two regions are always simulated exactly, not extrapolated:
    interval 0 (the *cold anchor* -- compulsory misses make the first
    interval unlike any phase representative) and the last
    ``TAIL_INTERVALS`` intervals plus the end-of-run drain (stall debt
    accumulates over the whole run and is repaid in the final drain;
    that is global accumulation, not phase behavior, so no phase-based
    extrapolation can recover it)."""

    #: interior phase count; None picks ``max(3, min(8, interior//20))``.
    clusters: Optional[int] = None

    def __post_init__(self) -> None:
        if self.clusters is not None and self.clusters < 1:
            raise ValueError("clusters must be positive")

    def interior_clusters(self, interior: int) -> int:
        k = self.clusters or max(3, min(8, interior // 20))
        return max(1, min(k, interior))


@dataclass
class SampleEstimate:
    """One extrapolated metric with a dispersion-based margin."""

    value: float
    #: relative confidence margin (heuristic: cluster dispersion weighted
    #: by population; validated empirically by the golden gate).
    margin: float

    def bounds(self) -> Tuple[float, float]:
        return (self.value * (1 - self.margin), self.value * (1 + self.margin))


@dataclass
class SampleReport:
    """Everything a sampled run produced."""

    workload: str
    model: str
    num_intervals: int
    interval_ops: int
    representatives: List[int]
    cluster_counts: List[int]
    #: metric -> extrapolated estimate.
    estimates: Dict[str, SampleEstimate]
    #: ops actually simulated / total ops (the speedup proxy: simulation
    #: cost is dominated by executed ops).
    ops_simulated: int
    ops_total: int
    #: filled by :func:`validate_sampled`: metric -> relative error vs a
    #: full run, plus the geomean.
    errors: Dict[str, float] = field(default_factory=dict)
    geomean_error: Optional[float] = None
    full_wall_s: Optional[float] = None
    sampled_wall_s: Optional[float] = None
    #: trailing intervals (plus drain) measured exactly, not extrapolated.
    tail_intervals: int = 0

    @property
    def ops_ratio(self) -> float:
        return self.ops_total / max(1, self.ops_simulated)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "workload": self.workload,
            "model": self.model,
            "num_intervals": self.num_intervals,
            "interval_ops": self.interval_ops,
            "representatives": list(self.representatives),
            "cluster_counts": list(self.cluster_counts),
            "estimates": {
                name: {"value": est.value, "margin": est.margin}
                for name, est in self.estimates.items()
            },
            "ops_simulated": self.ops_simulated,
            "ops_total": self.ops_total,
            "ops_ratio": self.ops_ratio,
            "tail_intervals": self.tail_intervals,
        }
        if self.errors:
            doc["errors"] = dict(self.errors)
            doc["geomean_error"] = self.geomean_error
        return doc


def _make_warmer(machine: Machine, thread: int):
    """Functional cache + coherence warming for fast-forwarded ops.

    Skipped memory ops still walk the cache hierarchy (state + LRU) and
    drive the MESI directory (a warmed store invalidates other cores'
    copies, exactly as a simulated one would) -- but schedule no events
    and touch no persist state.  Without the cache half, a
    representative interval pays the cold misses of everything skipped
    before it and miss-class statistics overshoot by an order of
    magnitude; without the coherence half, measured windows hit on
    stale private-cache lines the full run would have invalidated, and
    the same statistics undershoot to near zero.  Dependence payloads
    (``transition.source``) are deliberately ignored: warming must not
    open epochs or create cross-core persist ordering.  Counter noise
    from warming lands between a representative's end barrier and the
    next one's start barrier, so measured deltas never include it."""
    hierarchies = machine.hierarchies
    directory = machine.directory
    lines_of = machine.amap.lines_of
    access = hierarchies[thread].access_ex
    path = machine.paths[thread]

    def warm(op: Op) -> None:
        if isinstance(op, Store):
            for line in lines_of(op.addr, op.size):
                access(line, True)
                transition = directory.write(thread, line, path.current_ts)
                for victim in transition.invalidated:
                    hierarchies[victim].invalidate(line)
        elif isinstance(op, Load):
            for line in lines_of(op.addr, op.size):
                access(line, False)
                directory.read(thread, line)

    def end_gap() -> None:
        # The gap skipped this core's fences, so its current epoch has
        # been open since before the gap and now owns every warmed
        # write's dependence payload.  Close it: a measured-window
        # access on another core that picks up the payload must find a
        # *closed* epoch (in the full run the gap's fences long since
        # closed it) -- depending on a stale open epoch stalls commits
        # until this core's next fence, inflating measured cycles.
        path.split_epoch()

    return warm, end_gap


def _sampled_program(
    program: Program,
    segments: List[Tuple[int, int]],
    boundaries: List[int],
    warm,
    end_gap,
    warm_turns: List[int],
) -> Iterator[object]:
    """Yield only ops whose per-thread index falls in ``segments``;
    fast-forward the underlying generator through the gaps (warming the
    caches functionally as it goes), and yield :data:`PAUSE` each time
    the position crosses a measurement boundary.

    Generators sharing mutable state across threads diverge from the
    dry expansion that sized the windows, so the wrapper tracks lock
    depth over the *real* stream and defers every transition --
    skip<->execute AND pauses -- until the depth is zero: a skipped
    Acquire with an executed Release (or vice versa) must be
    impossible, and a core must never park while holding a lock
    (another core could be waiting on it, deadlocking the barrier).

    Every thread yields exactly ``len(boundaries)`` pauses -- trailing
    ones fire even if the generator is exhausted -- so pause rounds
    stay aligned across cores.  Every ``_WARM_CHUNK`` skipped ops,
    warming yields :data:`_WARM_TURN`, a ``Compute`` of one nominal
    cycle per warmed op: the other cores run meanwhile, so warming
    interleaves across cores instead of running each core's whole gap
    in one burst (which would skew shared-line MESI ownership toward
    the core that warmed last), and cycle-driven background machinery
    -- persist-buffer flush issue, epoch commits -- keeps running
    through the gap.  A warm turn retires as an op but simulates none,
    so each one is counted in ``warm_turns[0]``."""
    position = 0
    depth = 0
    k = 0
    npause = len(boundaries)
    executing = False
    chunk = 0
    seg_iter = iter(segments)
    seg = next(seg_iter, None)
    while True:
        if depth == 0:
            while k < npause and position >= boundaries[k]:
                k += 1
                yield PAUSE
            if executing and seg is not None and position >= seg[1]:
                seg = next(seg_iter, None)
                executing = False
            if not executing and seg is not None and position >= seg[0]:
                executing = True
                if position:  # no gap precedes the very first op
                    end_gap()
        try:
            op = next(program)
        except StopIteration:
            break
        position += 1
        if isinstance(op, Acquire):
            depth += 1
        elif isinstance(op, Release):
            depth -= 1
        if executing:
            yield op
        else:
            warm(op)
            chunk += 1
            if chunk >= _WARM_CHUNK:
                chunk = 0
                warm_turns[0] += 1
                yield _WARM_TURN
    while k < npause:
        k += 1
        yield PAUSE


#: open-ended window sentinel (the tail runs to the end of the stream).
_NO_END = 1 << 62

#: skipped ops warmed between warm turns (the cross-core interleaving
#: granularity of functional warming).
_WARM_CHUNK = 8

#: the op a skip-wrapper yields after every ``_WARM_CHUNK`` warmed ops.
_WARM_TURN = Compute(_WARM_CHUNK)


def _merge_segments(
    segments: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(segments):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def run_sampled(
    workload: str,
    model: str,
    ops_per_thread: Optional[int] = None,
    num_threads: int = 4,
    seed: int = 7,
    config: Optional[SampleConfig] = None,
    machine_config: Optional[MachineConfig] = None,
) -> SampleReport:
    """Run ``workload`` under ``model`` with sampled simulation."""
    cfg = config or SampleConfig()
    spec = resolve_model(model)
    mcfg = machine_config or MachineConfig()

    intervals = fingerprint_intervals(
        workload,
        ops_per_thread=ops_per_thread,
        num_threads=num_threads,
        seed=seed,
    )
    n = intervals.num_intervals
    if n == 0:
        raise ValueError(f"workload {workload!r} produced no ops")

    L = INTERVAL_OPS
    W = WARMUP_OPS
    # Partition: [anchor 0] [interior 1..tail_start-1] [tail + drain].
    tail_start = max(1, n - TAIL_INTERVALS)
    interior = list(range(1, tail_start))

    reps: List[int] = []
    counts: List[int] = []
    dispersion: List[float] = []
    if interior:
        plan = cluster_intervals(
            [intervals.vectors[i] for i in interior],
            cfg.interior_clusters(len(interior)),
        )
        reps = [interior[0] + r for r in plan.representatives]
        counts = list(plan.counts)
        dispersion = list(plan.dispersion)

    # The anchor runs without warm-up (the full run is genuinely cold
    # there); the tail window runs to the end of the stream and through
    # the final drain.
    windows = [(0, L)] + [
        (max(0, r * L - W), (r + 1) * L) for r in reps
    ] + [(max(0, tail_start * L - W), _NO_END)]
    segments = _merge_segments(windows)
    boundaries = sorted(
        {L} | {r * L for r in reps} | {(r + 1) * L for r in reps}
        | {tail_start * L}
    )

    programs = get_workload(
        workload, ops_per_thread=ops_per_thread, seed=seed
    ).programs(PMAllocator(), num_threads)
    machine = Machine(mcfg, run_config=spec.run_config(seed=seed))
    warm_turns = [0]
    wrapped = [
        _sampled_program(
            p, segments, boundaries, *_make_warmer(machine, t), warm_turns
        )
        for t, p in enumerate(programs)
    ]

    snapshots: Dict[int, Dict[str, float]] = {0: {}}
    started = False
    for boundary in boundaries:
        if not started:
            machine.run_to_pause(wrapped)
            started = True
        else:
            machine.continue_to_pause()
        snap: Dict[str, float] = dict(machine.stats.as_dict())
        # mean per-core arrival, not engine.now (= last arrival): the
        # straggler wait at each pause would otherwise inflate every
        # window's cycle delta (see Machine.mean_arrival_cycle).
        snap["cycles"] = machine.mean_arrival_cycle()
        snapshots[boundary] = snap
    # tail: run the remaining stream and the end-of-run drain for real.
    result = machine.continue_run()
    final: Dict[str, float] = dict(result.stats.as_dict())
    final["cycles"] = float(result.drain_cycles)

    def delta(lo: Dict[str, float], hi: Dict[str, float]) -> Dict[str, float]:
        return {
            key: hi.get(key, 0.0) - lo.get(key, 0.0)
            for key in set(lo) | set(hi)
        }

    anchor_delta = delta(snapshots[0], snapshots[L])
    tail_delta = delta(snapshots[tail_start * L], final)
    cluster_deltas = [
        delta(snapshots[r * L], snapshots[(r + 1) * L]) for r in reps
    ]

    estimates: Dict[str, SampleEstimate] = {}
    for metric in TRACKED_METRICS:
        # anchor and tail are measured exactly (weight 1, no dispersion)
        value = anchor_delta.get(metric, 0.0) + tail_delta.get(metric, 0.0)
        spread = 0.0
        for cluster, count in enumerate(counts):
            contribution = count * cluster_deltas[cluster].get(metric, 0.0)
            value += contribution
            spread += abs(contribution) * dispersion[cluster]
        margin = spread / abs(value) if value else 0.0
        # dispersion is in normalized feature units; damp it into a
        # relative margin (empirically calibrated by the golden gate).
        estimates[metric] = SampleEstimate(
            value=value, margin=min(1.0, 0.25 * margin)
        )

    ops_simulated = (
        sum(core.ops_executed for core in machine.cores) - warm_turns[0]
    )
    return SampleReport(
        workload=workload,
        model=spec.name,
        num_intervals=n,
        interval_ops=L,
        representatives=reps,
        cluster_counts=counts,
        estimates=estimates,
        ops_simulated=ops_simulated,
        ops_total=intervals.total_ops,
        tail_intervals=n - tail_start,
    )


def validate_sampled(
    workload: str,
    model: str,
    ops_per_thread: Optional[int] = None,
    num_threads: int = 4,
    seed: int = 7,
    config: Optional[SampleConfig] = None,
    machine_config: Optional[MachineConfig] = None,
) -> SampleReport:
    """Sampled run + full run; fills per-metric relative errors."""
    import time

    start = time.perf_counter()
    report = run_sampled(
        workload, model, ops_per_thread=ops_per_thread,
        num_threads=num_threads, seed=seed, config=config,
        machine_config=machine_config,
    )
    report.sampled_wall_s = time.perf_counter() - start

    run_config = resolve_model(model).run_config(seed=seed)
    start = time.perf_counter()
    result = run_workload(
        get_workload(workload, ops_per_thread=ops_per_thread, seed=seed),
        machine_config or MachineConfig(), run_config,
        num_threads=num_threads,
    ).result
    report.full_wall_s = time.perf_counter() - start

    full: Dict[str, float] = dict(result.stats.as_dict())
    full["cycles"] = float(result.drain_cycles)
    errors: Dict[str, float] = {}
    product = 1.0
    measured = 0
    total_cycles = full.get("cycles", 0.0)
    for metric in TRACKED_METRICS:
        actual = full.get(metric, 0.0)
        if actual < 100:
            # Relative error on sparse counters is noise, not signal: a
            # metric with <100 events over a ~200-interval run averages
            # well under one event per interval, which no phase-sampling
            # method can estimate from a dozen windows.
            continue
        if metric in STALL_CYCLE_METRICS and actual < 0.005 * total_cycles:
            # Stall counters are denominated in cycles; one that accounts
            # for under 0.5% of runtime is invisible in any bottom-line
            # conclusion, and its *relative* error is dominated by a
            # handful of end-of-run drain events.
            continue
        est = report.estimates[metric].value
        err = abs(est - actual) / actual
        errors[metric] = err
        product *= 1.0 + err
        measured += 1
    report.errors = errors
    report.geomean_error = (
        product ** (1.0 / measured) - 1.0 if measured else 0.0
    )
    return report


__all__ = [
    "SampleConfig",
    "SampleEstimate",
    "SampleReport",
    "TAIL_INTERVALS",
    "TRACKED_METRICS",
    "WARMUP_OPS",
    "run_sampled",
    "validate_sampled",
]
