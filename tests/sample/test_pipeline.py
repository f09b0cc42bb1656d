"""Fast unit coverage of the sampling pipeline's pieces."""

from __future__ import annotations

import pytest

from repro.core.api import Acquire, Release, Store
from repro.core.machine import PAUSE
from repro.sample import (
    FEATURE_NAMES,
    SampleConfig,
    cluster_intervals,
    fingerprint_intervals,
    run_sampled,
)
from repro.sample.pipeline import (
    _NO_END,
    _WARM_CHUNK,
    _WARM_TURN,
    _merge_segments,
    _sampled_program,
)

pytestmark = pytest.mark.sampled


def test_fingerprint_shape_and_determinism():
    a = fingerprint_intervals("queue", ops_per_thread=400)
    b = fingerprint_intervals("queue", ops_per_thread=400)
    assert a.vectors == b.vectors
    assert a.thread_ops == b.thread_ops
    assert all(len(v) == len(FEATURE_NAMES) for v in a.vectors)
    assert a.num_intervals >= 4


def test_fingerprint_novelty_decays():
    """First-touch density is highest at the start of the run."""
    iv = fingerprint_intervals("ctree", ops_per_thread=1000)
    novelty = FEATURE_NAMES.index("novelty")
    first = iv.vectors[0][novelty]
    steady = sum(v[novelty] for v in iv.vectors[-5:]) / 5
    assert first > steady


def test_cluster_intervals_deterministic_and_complete():
    iv = fingerprint_intervals("cceh", ops_per_thread=1200)
    plan_a = cluster_intervals(iv.vectors, 6)
    plan_b = cluster_intervals(iv.vectors, 6)
    assert plan_a.labels == plan_b.labels
    assert plan_a.representatives == plan_b.representatives
    assert sum(plan_a.counts) == iv.num_intervals
    for cluster, rep in enumerate(plan_a.representatives):
        assert plan_a.labels[rep] == cluster


def test_cluster_k_clamped():
    plan = cluster_intervals([[0.0], [1.0], [2.0]], 10)
    assert plan.num_phases <= 3


def test_merge_segments():
    assert _merge_segments([(0, 5), (3, 8), (10, 12)]) == [(0, 8), (10, 12)]
    assert _merge_segments([(5, 8), (0, 2)]) == [(0, 2), (5, 8)]


@pytest.mark.parametrize(
    "segments",
    [[(0, 7)], [(7, _NO_END)]],
    ids=["segment-ends-inside-lock", "segment-starts-inside-lock"],
)
def test_skip_wrapper_defers_transitions_until_no_lock_is_held(segments):
    """One thread: ops 5-8 run with lock 1 held (Acquire is op 4, Release
    op 8), and both the segment edge 7 and the pause boundary 6 fall
    there.  The wrapper must move the edge and the pause to the first
    op index with no lock held, and still yield one pause per boundary
    when the stream ends before a boundary (100)."""
    acquire, release = Acquire(1), Release(1)
    ops = ([Store(64 * i) for i in range(4)] + [acquire]
           + [Store(64 * i) for i in range(4, 7)] + [release]
           + [Store(64 * i) for i in range(7, 17)])
    boundaries = [6, 100]
    warmed, warm_turns = [], [0]
    yielded = list(_sampled_program(
        iter(ops), segments, boundaries, warmed.append, lambda: None,
        warm_turns,
    ))

    held = False
    for item in yielded:
        if item is acquire:
            held = True
        elif item is release:
            held = False
        assert not (item is PAUSE and held), "paused inside a lock"
    executed = [item for item in yielded if item is not PAUSE
                and item is not _WARM_TURN]
    assert (acquire in executed) == (release in executed)
    assert (acquire in warmed) == (release in warmed)
    assert executed + warmed == ops or warmed + executed == ops
    assert yielded.count(PAUSE) == len(boundaries)
    turns = sum(item is _WARM_TURN for item in yielded)
    assert turns == warm_turns[0] == len(warmed) // _WARM_CHUNK > 0


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(clusters=0)


def test_run_sampled_small_cell():
    """End-to-end sampled run: estimates exist and are positive where
    the full machine must have done work."""
    report = run_sampled("queue", "asap_rp", ops_per_thread=800)
    assert report.ops_simulated < report.ops_total
    assert report.estimates["cycles"].value > 0
    assert report.estimates["cache_hits"].value > 0
    assert 0 <= report.estimates["cycles"].margin <= 1
    doc = report.to_dict()
    assert doc["workload"] == "queue"
    assert doc["ops_ratio"] == report.ops_ratio


def test_run_sampled_deterministic():
    a = run_sampled("queue", "asap_rp", ops_per_thread=600)
    b = run_sampled("queue", "asap_rp", ops_per_thread=600)
    assert a.to_dict() == b.to_dict()
