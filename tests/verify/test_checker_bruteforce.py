"""Differential testing of the consistency checker against brute force.

The checker decides consistency by tainting descendants of damaged
epochs.  The brute-force oracle here re-derives the same verdict from
first principles: enumerate every ordered epoch pair (A precedes B via
any DAG path) and flag any pair where A lost a write while B owns a
surviving line value.  Hypothesis feeds both with random small logs and
crash images; the verdicts must agree exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochLog
from repro.verify.consistency import check_consistency
from repro.verify.dag import build_dag


def brute_force_consistent(log: EpochLog, media) -> bool:
    dag = build_dag(log)
    # full reachability, computed independently per node
    reach = {
        node: dag.descendants([node]) for node in dag.nodes
    }
    # classify writes per line
    damaged, survivors = set(), set()
    for line, order in log.line_order.items():
        recovered = media.get(line, 0)
        if recovered == 0:
            cut = 0
        else:
            if recovered not in order:
                return False  # unknown value: inconsistent by definition
            cut = order.index(recovered) + 1
            survivors.add(log.epoch_of_write(recovered))
        for write_id in order[cut:]:
            damaged.add(log.epoch_of_write(write_id))
    for a in damaged:
        for b in survivors:
            if b in reach.get(a, set()):
                return False
    return True


@st.composite
def random_scenario(draw):
    """A small random epoch log plus a random crash image."""
    num_cores = draw(st.integers(1, 3))
    writes_per_core = draw(st.integers(1, 6))
    log = EpochLog()
    write_id = 0
    lines = [64 * i for i in range(4)]
    for core in range(num_cores):
        ts = 1
        for _ in range(writes_per_core):
            write_id += 1
            line = draw(st.sampled_from(lines))
            log.record_write(write_id, line, core, ts)
            if draw(st.booleans()):
                ts += 1
    # random cross deps (forward in write-id order keeps them plausible;
    # the DAG builder tolerates anything acyclic)
    for _ in range(draw(st.integers(0, 3))):
        src_core = draw(st.integers(0, num_cores - 1))
        dst_core = draw(st.integers(0, num_cores - 1))
        if src_core == dst_core:
            continue
        src_ts = draw(st.integers(1, max(1, log.max_ts.get(src_core, 1))))
        dst_ts = draw(st.integers(1, max(1, log.max_ts.get(dst_core, 1))))
        log.record_dep((src_core, src_ts), (dst_core, dst_ts))
    # random media: for each written line pick one of its writes or 0
    media = {}
    for line, order in log.line_order.items():
        choice = draw(st.integers(0, len(order)))
        if choice > 0:
            media[line] = order[choice - 1]
    return log, media


class TestCheckerAgainstBruteForce:
    @given(scenario=random_scenario())
    @settings(max_examples=300, deadline=None)
    def test_verdicts_agree(self, scenario):
        log, media = scenario
        dag = build_dag(log)
        if not dag.is_acyclic():
            return  # random deps occasionally make cycles; out of scope
        report = check_consistency(log, media)
        assert report.consistent == brute_force_consistent(log, media)

    def test_known_violation_agrees(self):
        log = EpochLog()
        log.record_write(1, 0, 0, 1)
        log.record_write(2, 64, 0, 2)
        media = {64: 2}  # epoch 2 survived, epoch 1 lost
        assert not brute_force_consistent(log, media)
        assert not check_consistency(log, media).consistent

    def test_known_good_agrees(self):
        log = EpochLog()
        log.record_write(1, 0, 0, 1)
        log.record_write(2, 64, 0, 2)
        media = {0: 1}
        assert brute_force_consistent(log, media)
        assert check_consistency(log, media).consistent
