"""Operational vs axiomatic cross-validation.

The acceptance criterion of the whole subsystem: for every pinned
corpus test, the operational crash-state set is a subset of the
axiomatic allowed-set under all registered RP models -- and the
comparison has teeth, demonstrated by the ``asap_no_undo`` ablation
reaching a state the (execution-restricted) axioms forbid.
"""

import dataclasses

import pytest

from repro.axiom import (
    INIT,
    LitmusHeap,
    annotate_epochs,
    enumerate_executions,
    execution_allows,
    is_state_allowed,
    make_test,
    parse_state,
)
from repro.core.api import Acquire, Compute, DFence, Release, Store
from repro.core.crash import run_and_crash
from repro.core.models import RP_MODELS, resolve_model
from repro.litmus import (
    LitmusRunOptions,
    SMOKE_POINTS,
    build_corpus,
    run_litmus,
    smoke_corpus,
)
from repro.sim.config import MachineConfig


class TestSmokeSubset:
    @pytest.fixture(scope="class")
    def report(self):
        return run_litmus(
            smoke_corpus(), LitmusRunOptions(points=SMOKE_POINTS)
        )

    def test_observed_is_subset_of_allowed(self, report):
        for cell in report.cells:
            assert not cell.forbidden, (
                f"{cell.test}/{cell.model} reached axiomatically "
                f"forbidden state(s): {cell.forbidden}"
            )

    def test_every_rp_model_covered(self, report):
        models = {cell.model for cell in report.cells}
        assert models == {m.name for m in RP_MODELS}

    def test_gate_verdicts(self, report):
        assert report.ok("forbidden")
        assert report.ok("never")
        # bounded sampling always leaves some allowed states unobserved
        assert not report.ok("any")
        with pytest.raises(ValueError, match="unknown fail_on"):
            report.ok("sometimes")

    def test_pristine_image_observed_except_under_eadr(self, report):
        # crashing at cycle 1 exposes the all-init image -- except under
        # eADR, whose crash semantics flush whatever the caches already
        # hold, so early stores survive even the earliest crash.
        by_test = {t.name: t for t in smoke_corpus()}
        for cell in report.cells:
            if cell.model == "eadr":
                continue
            test = by_test[cell.test]
            init = " ".join(
                f"{s}={INIT}" for s, _ in sorted(test.locations)
            )
            assert init in set(cell.observed), f"{cell.test}/{cell.model}"


def _no_undo_shape():
    """Jam MC0 behind 16 writes, then publish cross-thread via a lock.

    Under correct RP hardware the lock handoff orders the jammed
    critical-section write ``x`` before the dependent write ``y`` (which
    lands on the idle MC1).  The ``asap_no_undo`` ablation flushes
    eagerly without recovery information, so a crash in the jam window
    exposes ``y`` without ``x``.
    """
    heap = LitmusHeap()
    lock = heap.lock("L")
    burst = [heap.loc_on_mc(f"j{i}", 0) for i in range(16)]
    x = heap.loc_on_mc("x", 0)
    y = heap.loc_on_mc("y", 1)
    t0 = [Store(addr, 64) for addr in burst] + [
        Acquire(lock), Store(x, 8), Release(lock), DFence(),
    ]
    t1 = [Compute(60), Acquire(lock), Store(y, 8), Release(lock), DFence()]
    return make_test("no_undo_teeth", "epoch", [t0, t1], heap, max_ops=64)


class TestCheckerHasTeeth:
    """The ablation must be caught; real designs must not be."""

    #: dense sweep across the jam window (x queued, y persisted).
    CRASH_CYCLES = range(150, 650, 10)

    @pytest.fixture(scope="class")
    def shape(self):
        test = _no_undo_shape()
        epochs = annotate_epochs(test)
        executions = enumerate_executions(test).executions
        # the Compute stagger makes thread 0 win the lock operationally,
        # so only writer-first candidate executions describe these runs.
        writer_first = [
            e for e in executions
            if e.sync_pairs and e.sync_pairs[0][0][0] == 0
        ]
        assert writer_first
        return test, epochs, writer_first

    def _observed_states(self, test, model_name):
        run_config = resolve_model(model_name).run_config(seed=7)
        machine = MachineConfig()
        line_symbols = {
            (addr // 64) * 64: symbol for symbol, addr in test.locations
        }
        states = set()
        for cycle in self.CRASH_CYCLES:
            crash = run_and_crash(
                machine, run_config,
                [iter(list(ops)) for ops in test.threads],
                cycle,
            )
            values = {}
            for line, symbol in line_symbols.items():
                payload = crash.surviving_payload(line, INIT)
                values[symbol] = payload if isinstance(payload, str) else INIT
            states.add(tuple(sorted(values.items())))
        return states

    def _violations(self, shape, model_name):
        test, epochs, writer_first = shape
        return [
            state for state in self._observed_states(test, model_name)
            if not any(
                execution_allows(test, epochs, e, state)
                for e in writer_first
            )
        ]

    def test_restriction_is_what_gives_the_teeth(self, shape):
        # the union over lock orders admits y-without-x (the reader
        # could have won the lock); only the writer-first restriction
        # matches what the staggered runs actually did.
        test, epochs, writer_first = shape
        state = parse_state(
            "x=init y=t1s1 " + " ".join(f"j{i}=init" for i in range(16))
        )
        assert is_state_allowed(test, state)
        assert not any(
            execution_allows(test, epochs, e, state) for e in writer_first
        )

    def test_no_undo_ablation_reaches_forbidden_states(self, shape):
        violations = self._violations(shape, "asap_no_undo")
        assert violations, (
            "asap_no_undo must expose the dependent write without the "
            "jammed one somewhere in the sweep window"
        )

    @pytest.mark.parametrize(
        "model", [m.name for m in RP_MODELS]
    )
    def test_correct_models_stay_inside_the_allowed_set(self, shape, model):
        assert self._violations(shape, model) == []


def test_duplicate_test_names_are_rejected_before_simulating():
    """Cells are matched to allowed sets by test name, so two programs
    sharing one would diff a cell against the other's allowed set."""
    fenced, unfenced = build_corpus(names=["mp_fenced", "mp_unfenced"])
    renamed = dataclasses.replace(unfenced, name="mp_fenced")

    class RefusingExecutor:
        jobs = 1

        def map(self, fn, items):
            raise AssertionError("simulated despite duplicate test names")

    with pytest.raises(ValueError, match="mp_fenced"):
        run_litmus(
            [fenced, renamed],
            LitmusRunOptions(points=4, executor=RefusingExecutor()),
        )
