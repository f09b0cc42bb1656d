"""Crash-sweep campaign engine: systematic fault injection + recovery oracles.

For any registry workload and any hardware model, this package
enumerates crash points (every epoch-commit boundary plus
stratified-random mid-epoch cycles, deterministically seeded), crashes
one simulation of the cell at each in turn
(:func:`repro.core.crash.crash_at_each`), adjudicates every surviving
media image against the generic Theorem-2 checker *and* the workload's
semantic ``recovery_oracle()``, and -- on a violation -- minimizes the
failure to the smallest crash cycle and media delta, serialized to JSON
for replay.

Layout:

- :mod:`repro.crashtest.points` -- crash-point enumeration
- :mod:`repro.crashtest.campaign` -- cell specs, fan-out driver, reports
- :mod:`repro.crashtest.minimize` -- cycle bisection + media shrinking
- :mod:`repro.crashtest.serialize` -- exact CrashState <-> JSON

CLI entry point: ``repro crashtest`` (see :mod:`repro.cli`).
"""

from repro.crashtest.campaign import (
    CRASHTEST_SCHEMA_VERSION,
    CampaignReport,
    CellReport,
    CrashCellSpec,
    CrashPointResult,
    adjudicate,
    replay_failure,
    run_campaign,
)
from repro.crashtest.minimize import (
    MinimizedFailure,
    bisect_crash_cycle,
    minimize_failure,
    shrink_media,
)
from repro.crashtest.points import (
    CommitCollector,
    ReferenceRun,
    derive_rng,
    enumerate_crash_points,
    stratified_cycles,
    trace_reference,
)
from repro.crashtest.serialize import (
    STATE_KIND,
    STATE_SCHEMA_VERSION,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)

__all__ = [
    "CRASHTEST_SCHEMA_VERSION",
    "CampaignReport",
    "CellReport",
    "CommitCollector",
    "CrashCellSpec",
    "CrashPointResult",
    "MinimizedFailure",
    "ReferenceRun",
    "STATE_KIND",
    "STATE_SCHEMA_VERSION",
    "adjudicate",
    "bisect_crash_cycle",
    "derive_rng",
    "dumps_state",
    "enumerate_crash_points",
    "load_state",
    "loads_state",
    "minimize_failure",
    "replay_failure",
    "run_campaign",
    "save_state",
    "shrink_media",
    "stratified_cycles",
    "trace_reference",
]
