"""`repro.litmus` -- litmus generator/runner cross-validating the simulator.

The operational half of the cross-validation: build small litmus
programs (:mod:`repro.litmus.corpus`), run them through the
discrete-event simulator under every registered RP model while pulling
the plug at enumerated crash points (:mod:`repro.litmus.spec`), and
diff the observed crash states against the axiomatic allowed-sets of
:mod:`repro.axiom` (:mod:`repro.litmus.runner`,
:mod:`repro.litmus.report`).

CLI entry point: ``repro litmus`` (see :mod:`repro.cli`).
"""

from repro.litmus.corpus import (
    GOLDEN_RAND_COUNT,
    GOLDEN_SEED,
    NAMED_BUILDERS,
    SMOKE_POINTS,
    SMOKE_TESTS,
    build_corpus,
    families,
    random_test,
    smoke_corpus,
)
from repro.litmus.report import (
    CellDiff,
    FORBIDDEN_RULE,
    LITMUS_REPORT_SCHEMA,
    LitmusReport,
    UNOBSERVED_RULE,
)
from repro.litmus.runner import LitmusRunOptions, run_litmus
from repro.litmus.spec import (
    LITMUS_SCHEMA_VERSION,
    LitmusCellResult,
    LitmusSpec,
)

__all__ = [
    "CellDiff",
    "FORBIDDEN_RULE",
    "GOLDEN_RAND_COUNT",
    "GOLDEN_SEED",
    "LITMUS_REPORT_SCHEMA",
    "LITMUS_SCHEMA_VERSION",
    "LitmusCellResult",
    "LitmusReport",
    "LitmusRunOptions",
    "LitmusSpec",
    "NAMED_BUILDERS",
    "SMOKE_POINTS",
    "SMOKE_TESTS",
    "UNOBSERVED_RULE",
    "build_corpus",
    "families",
    "random_test",
    "run_litmus",
    "smoke_corpus",
]
