"""Orchestration: lint one workload, a trace, or the whole stock suite.

Suppressions: a workload class may declare

.. code-block:: python

    lint_suppressions = {
        "unfenced-release": "ATLAS undo-logging makes the release-"
        "published store recoverable; see docs/lint.md",
    }

Matching findings are moved to :attr:`LintReport.suppressed` (with the
reason) instead of failing the gate.  ``LintConfig(no_suppress=True)``
disables the mechanism so suppressed findings surface again -- a
suppression hides a finding from the gate, never from inspection.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.api import Op
from repro.lint.detectors import DETECTORS, UNUSED_SUPPRESSION
from repro.lint.model import Finding, LintConfig, LintError, LintReport
from repro.lint.stream import OpStream, expand_workload, stream_from_ops
from repro.workloads.base import Workload
from repro.workloads.registry import MICROBENCHES, SUITE, get_workload


def stock_workload_names() -> List[str]:
    """Every stock workload ``repro lint --all`` gates on: the Table III
    suite plus the microbenchmarks (lint fixtures are excluded)."""
    return [cls.name for cls in SUITE] + [cls.name for cls in MICROBENCHES]


def lint_stream(
    stream: OpStream,
    config: Optional[LintConfig] = None,
    suppressions: Optional[Mapping[str, str]] = None,
) -> LintReport:
    """Run the detector pipeline over an already-expanded stream."""
    config = config or LintConfig()
    enabled = config.detectors or list(DETECTORS)
    unknown = sorted(set(enabled) - set(DETECTORS))
    if unknown:
        raise LintError(
            f"unknown detector(s) {unknown}; available: {sorted(DETECTORS)}"
        )
    suppressions = dict(suppressions or {})
    report = LintReport(
        workload=stream.workload,
        threads=len(stream.threads),
        ops_scanned=stream.num_ops(),
    )
    for name in DETECTORS:
        if name not in enabled:
            continue
        for finding in DETECTORS[name](stream, config):
            reason = suppressions.get(name)
            if reason is not None and not config.no_suppress:
                report.suppressed.append((finding, reason))
            else:
                report.findings.append(finding)
    # PL000: a suppression whose detector ran but produced zero findings
    # (kept *or* suppressed) is stale and would otherwise rot silently.
    # Suppressions for detectors that did not run this pass are not
    # judged -- they had no chance to match.
    produced = {f.detector for f in report.findings}
    produced.update(f.detector for f, _ in report.suppressed)
    for name in sorted(suppressions):
        if name not in DETECTORS or name not in enabled:
            continue
        if name not in produced:
            report.findings.append(
                Finding(
                    rule_id=UNUSED_SUPPRESSION.id,
                    detector=UNUSED_SUPPRESSION.detector,
                    severity=UNUSED_SUPPRESSION.severity,
                    message=(
                        f"lint_suppressions entry for {name!r} matched "
                        f"no findings; delete it or fix the detector "
                        f"name"
                    ),
                    workload=stream.workload,
                    thread=0,
                    strand=0,
                    op_index=0,
                    fix_hint=UNUSED_SUPPRESSION.hint,
                )
            )
    return report


def lint_workload(
    workload: Union[str, Workload],
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Expand one workload (by name or instance) and lint it."""
    config = config or LintConfig()
    if isinstance(workload, str):
        workload = get_workload(
            workload,
            ops_per_thread=config.ops_per_thread,
            seed=config.seed,
        )
    stream = expand_workload(workload, config)
    return lint_stream(stream, config, workload.lint_suppressions)


def lint_trace(
    name: str,
    per_thread_ops: List[List[Op]],
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint raw per-thread op lists (e.g. ``Trace.threads``)."""
    stream = stream_from_ops(name, per_thread_ops)
    return lint_stream(stream, config)


def lint_all(
    names: Optional[List[str]] = None,
    config: Optional[LintConfig] = None,
) -> Tuple[List[LintReport], Dict[str, Tuple[Optional[str], Optional[int]]]]:
    """Lint a list of workloads (default: the stock gate set).

    Returns the reports plus a workload -> (source file, line) map for
    SARIF location rendering.
    """
    config = config or LintConfig()
    names = names if names is not None else stock_workload_names()
    reports: List[LintReport] = []
    sources: Dict[str, Tuple[Optional[str], Optional[int]]] = {}
    for name in names:
        workload = get_workload(
            name, ops_per_thread=config.ops_per_thread, seed=config.seed
        )
        stream = expand_workload(workload, config)
        sources[name] = (stream.source_file, stream.source_line)
        reports.append(lint_stream(stream, config, workload.lint_suppressions))
    return reports, sources


__all__ = [
    "lint_all",
    "lint_stream",
    "lint_trace",
    "lint_workload",
    "stock_workload_names",
]
