"""Shared SARIF 2.1.0 renderer.

SARIF is the one interchange format both our static tools emit (the
persistency linter and the litmus cross-validator), so the document
construction lives here rather than being copy-pasted per tool.  The
shape is the subset GitHub code scanning ingests:

- one ``run`` per document, with the tool ``driver`` carrying the full
  rule table (id, name, short description, help, default level);
- one ``result`` per diagnosis, with a physical location (artifact URI +
  start line) and a free-form ``properties`` bag for tool-specific
  context (thread / op index for lint, test / model / state for litmus).

Tools describe themselves with plain frozen dataclasses
(:class:`SarifRule`, :class:`SarifResult`); :func:`make_sarif` turns
them into the JSON document.  Levels are the three SARIF result levels
(``note`` / ``warning`` / ``error``) as strings -- each tool maps its
own severity enum onto them before reaching this module.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: the three SARIF result levels, in ascending severity.
LEVELS = ("note", "warning", "error")

#: the ``informationUri`` every tool driver reports.
INFORMATION_URI = "https://example.invalid/repro"


@dataclass(frozen=True)
class SarifRule:
    """Static metadata for one rule of a tool (the ``rules`` entry)."""

    id: str
    name: str
    summary: str
    #: default level: ``note`` / ``warning`` / ``error``.
    level: str
    help_text: str = ""

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(
                f"rule {self.id}: level {self.level!r} not in {LEVELS}"
            )


@dataclass(frozen=True)
class SarifResult:
    """One diagnosis to render as a SARIF ``result``."""

    rule_id: str
    level: str
    message: str
    #: repo-relative artifact URI (see :func:`relative_uri`).
    uri: str = "unknown"
    start_line: int = 1
    properties: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(
                f"result {self.rule_id}: level {self.level!r} not in {LEVELS}"
            )


def relative_uri(
    path: Optional[str], markers: Sequence[str] = ("src", "tests")
) -> str:
    """Reduce an absolute source path to a repo-relative URI.

    The path is cut at the first marker directory (``src`` by default),
    matching how the repo is laid out; unknown paths degrade to the
    file name and missing paths to ``"unknown"``.
    """
    if not path:
        return "unknown"
    p = pathlib.Path(path)
    for marker in markers:
        try:
            index = p.parts.index(marker)
        except ValueError:
            continue
        return "/".join(p.parts[index:])
    return p.name


def make_sarif(
    tool_name: str,
    tool_version: str,
    rules: Sequence[SarifRule],
    results: Sequence[SarifResult],
) -> Dict[str, Any]:
    """Build a SARIF 2.1.0 document with one run."""
    rule_ids = {rule.id for rule in rules}
    for result in results:
        if result.rule_id not in rule_ids:
            raise ValueError(
                f"result references unregistered rule {result.rule_id!r}"
            )
    rule_entries: List[Dict[str, Any]] = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "help": {"text": rule.help_text},
            "defaultConfiguration": {"level": rule.level},
        }
        for rule in rules
    ]
    result_entries: List[Dict[str, Any]] = [
        {
            "ruleId": result.rule_id,
            "level": result.level,
            "message": {"text": result.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": result.uri},
                        "region": {"startLine": max(1, result.start_line)},
                    }
                }
            ],
            "properties": dict(result.properties),
        }
        for result in results
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": tool_version,
                        "informationUri": INFORMATION_URI,
                        "rules": rule_entries,
                    }
                },
                "results": result_entries,
            }
        ],
    }


def dumps(document: Dict[str, Any]) -> str:
    """Serialize a report document (SARIF or plain JSON) for output."""
    return json.dumps(document, indent=2, sort_keys=False)


__all__ = [
    "INFORMATION_URI",
    "LEVELS",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "SarifResult",
    "SarifRule",
    "dumps",
    "make_sarif",
    "relative_uri",
]
