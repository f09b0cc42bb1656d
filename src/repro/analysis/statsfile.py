"""gem5-style ``stats.txt`` output (artifact-appendix parity).

The original artifact's simulations each produce a ``stats.txt`` whose
rows the paper's ``reproduce_results.py`` harvests.  This module writes
the same style of file -- ``name  value  # description`` -- for a run of
this simulator, leading with the seven Table VI statistics under their
artifact names.
"""

from __future__ import annotations

import pathlib
from typing import Union

from repro.core.machine import RunResult

#: Table VI: artifact stat name -> human description.
TABLE_VI_DESCRIPTIONS = {
    "cyclesBlocked": "Cycles for which PB is unable to flush",
    "cyclesStalled": "CPU stall cycles because of full PB",
    "dfenceStalled": "CPU stall cycles because of dfence",
    "entriesInserted": "Total number of writes enqueued in the PBs",
    "interTEpochConflict": "Number of cross-thread dependencies",
    "totSpecWrites": "Number of early flushes",
    "totalUndo": "Number of undo records created",
}

_EXTRA_DESCRIPTIONS = {
    "simTicks": "Simulated cycles until the last core retired",
    "drainTicks": "Simulated cycles until the system drained",
    "opsExecuted": "Workload operations executed",
    "pm_writes": "Writes serviced by the NVM media",
    "pm_reads": "Media reads (undo-record creation misses)",
    "sfenceStalled": "CPU stall cycles because of sfence",
    "flushes_nacked": "Early flushes rejected by a full recovery table",
    "epochs_committed": "Epochs committed across all cores",
}


def format_stats(result: RunResult) -> str:
    """Render a run's statistics in gem5's stats.txt style."""
    lines = ["---------- Begin Simulation Statistics ----------"]

    def emit(name: str, value: int, description: str = "") -> None:
        comment = f"# {description}" if description else ""
        lines.append(f"{name:<40} {value:>16} {comment}".rstrip())

    emit("simTicks", result.runtime_cycles, _EXTRA_DESCRIPTIONS["simTicks"])
    emit("drainTicks", result.drain_cycles, _EXTRA_DESCRIPTIONS["drainTicks"])
    emit("opsExecuted", result.ops_executed, _EXTRA_DESCRIPTIONS["opsExecuted"])
    for name, description in TABLE_VI_DESCRIPTIONS.items():
        emit(name, result.stats.total(name), description)
    for name, description in _EXTRA_DESCRIPTIONS.items():
        if name in ("simTicks", "drainTicks", "opsExecuted"):
            continue
        emit(name, result.stats.total(name), description)
    # remaining counters, alphabetically, summed over scopes
    emitted = set(TABLE_VI_DESCRIPTIONS) | set(_EXTRA_DESCRIPTIONS)
    for name, value in sorted(result.stats.as_dict().items()):
        if name not in emitted:
            emit(name, value)
    lines.append("---------- End Simulation Statistics   ----------")
    return "\n".join(lines) + "\n"


def write_stats(
    result: RunResult, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``stats.txt`` for a run; returns the path."""
    path = pathlib.Path(path)
    path.write_text(format_stats(result))
    return path


__all__ = ["TABLE_VI_DESCRIPTIONS", "format_stats", "write_stats"]
