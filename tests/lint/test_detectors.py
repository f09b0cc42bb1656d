"""Per-detector tests: one true positive and one true negative each.

True positives come from the ``buggy_demo`` fixture
(:class:`repro.workloads.buggy.BuggyDemo`), which seeds exactly one bug
per detector; true negatives come from stock workloads that are clean
for that detector by construction.
"""

import pytest

from repro.core.api import (
    CAS,
    Acquire,
    DFence,
    NewStrand,
    OFence,
    Release,
    Store,
)
from repro.lint import (
    DETECTORS,
    LintConfig,
    LintError,
    Severity,
    lint_trace,
    lint_workload,
)
from repro.lint.detectors import SELF_DEP_MIN_RUN


@pytest.fixture(scope="module")
def buggy_report():
    return lint_workload("buggy_demo", LintConfig(threads=4))


def _hits(report, detector):
    return report.by_detector(detector)


class TestUnfencedRelease:
    def test_true_positive(self, buggy_report):
        hits = _hits(buggy_report, "unfenced-release")
        assert hits, "buggy_demo must trip PL001"
        assert all(h.severity is Severity.ERROR for h in hits)
        assert hits[0].thread == 0

    def test_true_negative_echo(self):
        # echo fences inside every critical section before releasing.
        report = lint_workload("echo", LintConfig(threads=4))
        assert not _hits(report, "unfenced-release")

    def test_fence_before_release_is_clean(self):
        lock = 0x1000_0000
        ops = [Acquire(lock), Store(0x40, 8), OFence(), Release(lock),
               DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "unfenced-release")

    def test_store_outside_section_not_published(self):
        # the store precedes the acquire, so the release publishes nothing
        lock = 0x1000_0000
        ops = [Store(0x40, 8), Acquire(lock), Release(lock), DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "unfenced-release")


class TestUnpersistedTail:
    def test_true_positive(self, buggy_report):
        hits = _hits(buggy_report, "unpersisted-tail")
        assert len(hits) == 1
        assert hits[0].severity is Severity.WARNING
        # the tail store sits on the post-NewStrand strand
        assert hits[0].strand == 1

    def test_true_negative_vacation(self):
        # vacation drains its final transaction with a trailing DFence.
        report = lint_workload("vacation", LintConfig(threads=4))
        assert not _hits(report, "unpersisted-tail")

    def test_trailing_dfence_is_clean(self):
        report = lint_trace("t", [[Store(0x40, 8), DFence()]])
        assert not _hits(report, "unpersisted-tail")


class TestRedundantFence:
    def test_true_positive_both_kinds(self, buggy_report):
        hits = _hits(buggy_report, "redundant-fence")
        messages = " ".join(h.message for h in hits)
        assert "OFence" in messages and "DFence" in messages

    def test_true_negative_nstore(self):
        report = lint_workload("nstore", LintConfig(threads=4))
        assert not _hits(report, "redundant-fence")

    def test_dfence_after_ofence_with_no_new_store_is_flagged(self):
        # the ofence already ordered the store; the dfence still has a
        # non-empty durability-pending set, so only a *second* dfence
        # would be redundant.
        ops = [Store(0x40, 8), OFence(), DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "redundant-fence")
        ops = [Store(0x40, 8), OFence(), DFence(), DFence()]
        report = lint_trace("t", [ops])
        assert len(_hits(report, "redundant-fence")) == 1


class TestPersistRace:
    def test_true_positive(self, buggy_report):
        hits = _hits(buggy_report, "persist-race")
        assert len(hits) == 1
        assert hits[0].severity is Severity.ERROR

    def test_true_negative_p_clht(self):
        # per-bucket locks plus 16B in-bucket writes: all accesses to a
        # line share that bucket's lock.
        report = lint_workload("p_clht", LintConfig(threads=4))
        assert not _hits(report, "persist-race")

    def test_common_lock_serializes(self):
        lock = 0x1000_0000
        thread = [Acquire(lock), Store(0x40, 16), OFence(), Release(lock),
                  DFence()]
        report = lint_trace("t", [list(thread), list(thread)])
        assert not _hits(report, "persist-race")

    def test_atomic_publishes_exempt(self):
        # two unlocked single-word stores to one line: the lock-free
        # publish idiom, not a race.
        thread = [Store(0x40, 8), OFence(), DFence()]
        report = lint_trace("t", [list(thread), list(thread)])
        assert not _hits(report, "persist-race")

    def test_wide_unlocked_store_races(self):
        thread = [Store(0x40, 16), OFence(), DFence()]
        report = lint_trace("t", [list(thread), list(thread)])
        assert len(_hits(report, "persist-race")) == 1


class TestEpochShape:
    def test_true_positive_both_kinds(self, buggy_report):
        hits = _hits(buggy_report, "epoch-shape")
        messages = " ".join(h.message for h in hits)
        assert "consecutive epochs" in messages  # self-dependency chain
        assert "cache lines" in messages         # oversized epoch

    def test_true_negative_fence_latency(self):
        # one line per epoch, round-robin over 64 lines: no chains, no
        # oversized epochs.
        report = lint_workload("fence_latency", LintConfig(threads=4))
        assert not _hits(report, "epoch-shape")

    def test_short_run_below_threshold_is_clean(self):
        ops = []
        for _ in range(SELF_DEP_MIN_RUN - 1):
            ops += [Store(0x40, 8), OFence()]
        ops += [DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "epoch-shape")


class TestCasPublish:
    def test_true_positive(self, buggy_report):
        hits = _hits(buggy_report, "cas-publish")
        assert hits, "buggy_demo must trip PL006"
        assert all(h.rule_id == "PL006" for h in hits)
        assert all(h.severity is Severity.ERROR for h in hits)

    def test_unflushed_payload_before_cas(self):
        ops = [Store(0x40, 8), CAS(0x80, 8), DFence()]
        report = lint_trace("t", [ops])
        hits = _hits(report, "cas-publish")
        assert len(hits) == 1
        assert hits[0].rule_id == "PL006"

    def test_fence_before_cas_is_clean(self):
        # the payload store is persist-ordered before the publish.
        for fence in (OFence(), DFence()):
            ops = [Store(0x40, 8), fence, CAS(0x80, 8), DFence()]
            report = lint_trace("t", [ops])
            assert not _hits(report, "cas-publish")

    def test_cas_on_payload_line_is_not_a_publish(self):
        # CAS overwriting the same line it "publishes" is a same-line
        # update, not a pointer publish: per-line persist order already
        # protects it.
        ops = [Store(0x40, 8), CAS(0x40, 8), DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "cas-publish")

    def test_strand_cut_resets_tracking(self):
        # cross-strand ordering is PL004/SPA territory, not PL006's.
        ops = [Store(0x40, 8), NewStrand(), CAS(0x80, 8), DFence()]
        report = lint_trace("t", [ops])
        assert not _hits(report, "cas-publish")

    def test_chained_cas_carries_forward(self):
        # an unfenced CAS joins the pending set: a second CAS publishes it.
        ops = [Store(0x40, 8), OFence(), CAS(0x80, 8), CAS(0xC0, 8),
               DFence()]
        report = lint_trace("t", [ops])
        hits = _hits(report, "cas-publish")
        assert len(hits) == 1

    def test_true_negative_stock_workloads(self):
        # no stock workload publishes via CAS at all.
        for name in ("echo", "queue"):
            report = lint_workload(name, LintConfig(threads=4))
            assert not _hits(report, "cas-publish")


class TestUnusedSuppression:
    def test_stale_suppression_flagged(self):
        from repro.lint import expand_workload, lint_stream
        from repro.workloads.registry import get_workload

        workload = get_workload("echo")
        config = LintConfig(threads=4)
        stream = expand_workload(workload, config)
        report = lint_stream(
            stream, config, {"cas-publish": "stale (docs/lint.md)"}
        )
        hits = report.by_detector("unused-suppression")
        assert len(hits) == 1
        assert hits[0].rule_id == "PL000"
        assert hits[0].severity is Severity.NOTE
        assert "cas-publish" in hits[0].message

    def test_matching_suppression_not_flagged(self):
        from repro.lint import expand_workload, lint_stream
        from repro.workloads.registry import get_workload

        workload = get_workload("buggy_demo")
        config = LintConfig(threads=4)
        stream = expand_workload(workload, config)
        report = lint_stream(
            stream, config, {"cas-publish": "known (docs/lint.md)"}
        )
        assert not report.by_detector("unused-suppression")
        assert [f.detector for f, _ in report.suppressed] == ["cas-publish"]

    def test_suppression_for_disabled_detector_not_judged(self):
        from repro.lint import expand_workload, lint_stream
        from repro.workloads.registry import get_workload

        workload = get_workload("echo")
        config = LintConfig(threads=4, detectors=["unfenced-release"])
        stream = expand_workload(workload, config)
        report = lint_stream(
            stream, config, {"cas-publish": "not judged this pass"}
        )
        assert not report.by_detector("unused-suppression")


class TestDetectorSelection:
    def test_only_requested_detectors_run(self):
        config = LintConfig(threads=4, detectors=["unpersisted-tail"])
        report = lint_workload("buggy_demo", config)
        assert {f.detector for f in report.findings} == {"unpersisted-tail"}

    def test_unknown_detector_rejected(self):
        with pytest.raises(LintError, match="unknown detector"):
            lint_workload("buggy_demo", LintConfig(detectors=["nope"]))

    def test_registry_has_all_six(self):
        assert set(DETECTORS) == {
            "unfenced-release",
            "unpersisted-tail",
            "redundant-fence",
            "persist-race",
            "epoch-shape",
            "cas-publish",
        }
