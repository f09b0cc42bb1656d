"""Negative path: seeded bugs MUST be caught, minimized, and replayable.

Two true positives are pinned:

- ``buggy_demo`` (missing fence before a strand switch) violates its
  *semantic* recovery oracle under ASAP while the generic Theorem-2
  checker stays clean -- NewStrand legitimately relaxes the epoch DAG,
  so only the ordered-chain oracle sees the lost prefix.
- ``xpub`` under the ``asap_no_undo`` ablation (speculative persistence
  without undo logging) violates both checkers: an early-flushed
  dependent line survives while its cross-thread predecessor is lost.

Both failures must shrink to a single-line media delta and replay from
their serialized form.
"""

import pytest

from repro.crashtest import loads_state, replay_failure, run_campaign
from repro.exp import ParallelExecutor


@pytest.fixture(scope="module")
def buggy_report(tmp_path_factory):
    save_dir = tmp_path_factory.mktemp("buggy-failures")
    report = run_campaign(
        ["buggy_demo"], models=["asap_rp"], points=60,
        executor=ParallelExecutor(jobs=2),
        save_dir=str(save_dir),
    )
    return report


@pytest.fixture(scope="module")
def ablation_report(tmp_path_factory):
    save_dir = tmp_path_factory.mktemp("ablation-failures")
    report = run_campaign(
        ["xpub"], models=["asap_no_undo"], points=40,
        executor=ParallelExecutor(jobs=2),
        save_dir=str(save_dir),
    )
    return report


def test_buggy_demo_trips_the_semantic_oracle_only(buggy_report):
    (cell,) = buggy_report.cells
    assert not cell.ok, "the seeded bug must produce oracle violations"
    for result in cell.failures:
        assert result.oracle_violations, "violations must come from the oracle"
        assert not result.generic_violations, (
            "NewStrand relaxation keeps the generic checker clean; a "
            "generic violation here means the epoch DAG changed"
        )
    assert any(
        "chain 'buggy" in v
        for r in cell.failures for v in r.oracle_violations
    )


def test_buggy_demo_minimizes_to_single_line_delta(buggy_report):
    (cell,) = buggy_report.cells
    assert cell.failure is not None
    assert cell.failure["media_lines"] == 1
    assert cell.failure["media_lines"] < cell.failure["original_media_lines"]
    assert cell.failure["crash_cycle"] <= cell.failure["original_cycle"]
    assert cell.failure["violations"]


def test_ablation_trips_both_checkers(ablation_report):
    (cell,) = ablation_report.cells
    assert not cell.ok
    assert any(r.generic_violations for r in cell.failures)
    assert any(r.oracle_violations for r in cell.failures)
    assert cell.failure["media_lines"] == 1


def test_minimized_states_replay_exactly(buggy_report, ablation_report):
    for report in (buggy_report, ablation_report):
        assert report.saved_failures, "minimized state must be serialized"
        for path in report.saved_failures:
            replay = replay_failure(path)
            assert replay["reproduced"], path
            assert replay["media_lines"] == 1
            # the recorded verdict matches the fresh adjudication
            fresh = replay["generic_violations"] + replay["oracle_violations"]
            assert sorted(fresh) == sorted(replay["recorded_violations"])


def test_serialized_failure_carries_its_spec(ablation_report):
    (path,) = ablation_report.saved_failures
    with open(path) as handle:
        _, meta = loads_state(handle.read())
    assert meta["spec"]["workload"] == "xpub"
    assert meta["spec"]["hardware"] == "asap_no_undo"
    assert meta["violations"]
