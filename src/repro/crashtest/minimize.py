"""Failure minimization: smallest crash cycle, smallest media delta.

When a campaign point violates its oracles, the raw artifact is noisy: a
crash state with hundreds of surviving lines, at a cycle deep into the
run.  Two delta-debugging passes shrink it to something a human can read:

1. **Cycle bisection** -- between the last known-passing probed cycle
   and the failing one, bisect crash images to a *locally minimal*
   failing cycle (its immediate bisection predecessor passes).  The
   campaign takes each image from one recording of the cell
   (:meth:`repro.core.crash.CrashRecording.crash_at_each`), so no step
   re-simulates.
   Crash failures need not be monotone in time, so this finds *a*
   boundary, not the global first failure -- which is exactly what a
   repro needs.
2. **Media shrinking** -- greedily drop surviving-line entries from the
   media image while the oracles still fire, looping to a fixpoint
   (1-minimal: removing any single remaining entry makes the failure
   vanish).  Adjudication is pure log+image analysis, so this pass needs
   no re-simulation.

The result is serialized via :mod:`repro.crashtest.serialize` for
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.crash import CrashState

#: judge(state) -> list of violation descriptions (empty = passing).
Judge = Callable[[CrashState], List[str]]
#: simulate(cycle) -> the crash state of the run crashed there, with an
#: epoch log of its own (a kept state must not change later).
Simulate = Callable[[int], CrashState]


@dataclass
class MinimizedFailure:
    """The shrunk artifact of one violating crash point."""

    state: CrashState
    violations: List[str]
    #: cycle of the original (unminimized) failing point.
    original_cycle: int
    #: surviving-media entries before shrinking.
    original_media_lines: int
    #: crash states taken while bisecting.
    simulations: int


def bisect_crash_cycle(
    simulate: Simulate,
    judge: Judge,
    failing_cycle: int,
    passing_cycle: int = 0,
) -> "tuple[int, CrashState, List[str], int]":
    """Shrink the failing cycle against a known passing lower bound.

    Maintains the invariant ``lo`` passes / ``hi`` fails; returns
    ``(cycle, state, violations, simulations)`` for the final ``hi``.
    """
    lo, hi = passing_cycle, failing_cycle
    best_state = simulate(hi)
    best_violations = judge(best_state)
    simulations = 1
    if not best_violations:
        raise ValueError(
            f"cycle {failing_cycle} does not fail when crashed again; "
            "crash reproduction is broken (non-deterministic workload?)"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        state = simulate(mid)
        simulations += 1
        violations = judge(state)
        if violations:
            hi, best_state, best_violations = mid, state, violations
        else:
            lo = mid
    return hi, best_state, best_violations, simulations


def shrink_media(state: CrashState, judge: Judge) -> CrashState:
    """Drop surviving-media entries while the failure persists (1-minimal)."""
    media = dict(state.media)
    shrinking = True
    while shrinking:
        shrinking = False
        for line in sorted(media):
            trial = dict(media)
            del trial[line]
            trial_state = CrashState(
                crash_cycle=state.crash_cycle,
                media=trial,
                log=state.log,
                run_config=state.run_config,
            )
            if judge(trial_state):
                media = trial
                shrinking = True
    return CrashState(
        crash_cycle=state.crash_cycle,
        media=media,
        log=state.log,
        run_config=state.run_config,
    )


def minimize_failure(
    simulate: Simulate,
    judge: Judge,
    failing_cycle: int,
    passing_cycle: int = 0,
) -> MinimizedFailure:
    """Full pipeline: bisect the cycle, then shrink the media image."""
    cycle, state, _, simulations = bisect_crash_cycle(
        simulate, judge, failing_cycle, passing_cycle
    )
    original_media_lines = len(state.media)
    shrunk = shrink_media(state, judge)
    return MinimizedFailure(
        state=shrunk,
        violations=judge(shrunk),
        original_cycle=failing_cycle,
        original_media_lines=original_media_lines,
        simulations=simulations,
    )


__all__ = [
    "Judge",
    "MinimizedFailure",
    "Simulate",
    "bisect_crash_cycle",
    "minimize_failure",
    "shrink_media",
]
