"""Data model for the persistency linter.

A *finding* is one static diagnosis against a workload's op stream:
which rule fired, how bad it is, where (thread / strand / op index /
cache line), and how to fix it.  Findings are plain, ordered,
JSON-friendly data so every renderer (text, JSON, SARIF) consumes the
same objects.

Severity levels map one-to-one onto SARIF result levels (``note`` /
``warning`` / ``error``); the CLI's ``--fail-on`` threshold compares
against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Finding severity, ordered so thresholds can compare."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.label for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Rule:
    """Static metadata for one detector (also the SARIF rule entry)."""

    id: str
    detector: str
    summary: str
    severity: Severity
    hint: str


@dataclass(frozen=True)
class Finding:
    """One diagnosis produced by a detector."""

    rule_id: str
    detector: str
    severity: Severity
    message: str
    workload: str
    thread: int
    #: strand index within the thread (0 unless NewStrand is used).
    strand: int
    #: index of the offending op in the thread's stream.
    op_index: int
    #: cache-line number the finding is about, if line-specific.
    line: Optional[int] = None
    fix_hint: str = ""

    def location(self) -> str:
        where = f"thread {self.thread}"
        if self.strand:
            where += f" strand {self.strand}"
        where += f" op {self.op_index}"
        if self.line is not None:
            where += f" line {self.line:#x}"
        return where

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "rule": self.rule_id,
            "detector": self.detector,
            "severity": self.severity.label,
            "message": self.message,
            "workload": self.workload,
            "thread": self.thread,
            "strand": self.strand,
            "op_index": self.op_index,
        }
        if self.line is not None:
            data["line"] = self.line
        if self.fix_hint:
            data["fix_hint"] = self.fix_hint
        return data


@dataclass
class LintConfig:
    """Tunable knobs for one lint run.

    The defaults define the CI gate: 4 threads, each workload's default
    ops-per-thread, seed 7.  The detectors' thresholds are constants of
    :mod:`repro.lint.detectors`, documented in ``docs/lint.md``.
    """

    threads: int = 4
    ops_per_thread: Optional[int] = None
    seed: int = 7
    #: detectors to run; None means all registered detectors.
    detectors: Optional[List[str]] = None
    #: ignore workload-declared suppressions (surface everything).
    no_suppress: bool = False
    #: safety valve for dry expansion of a misbehaving generator.
    max_ops_per_thread: int = 1_000_000


@dataclass
class LintReport:
    """All findings for one workload under one :class:`LintConfig`."""

    workload: str
    findings: List[Finding] = field(default_factory=list)
    #: findings matched by a workload-declared suppression, kept for
    #: transparency: (finding, reason).
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    ops_scanned: int = 0
    threads: int = 0

    def worst(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings), default=None)

    def ok(self, fail_on: Severity = Severity.WARNING) -> bool:
        return all(f.severity < fail_on for f in self.findings)

    def by_detector(self, detector: str) -> List[Finding]:
        return [f for f in self.findings if f.detector == detector]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "threads": self.threads,
            "ops_scanned": self.ops_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [
                {**f.to_dict(), "suppressed_reason": reason}
                for f, reason in self.suppressed
            ],
        }


class LintError(Exception):
    """A workload could not be expanded or linted."""


__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "Rule",
    "Severity",
]
