"""Fully-specified litmus cells: one (test, model) operational run.

A :class:`repro.exp.spec.Spec` -- a frozen, content-addressed,
picklable description of everything that determines one result -- so
litmus cells reuse :func:`repro.exp.spec.run_specs`, the
:class:`repro.exp.cache.ResultCache` and the executors unchanged.  Ops
travel in their :mod:`repro.trace.ops` list encoding (JSON-friendly and
hashable), so the spec's identity covers the exact program, not just
its name.

Executing a cell:

1. simulate the cell once to completion, journaling every crash-visible
   change (:func:`repro.core.crash.record_run`), which also yields the
   drain horizon and the epoch-commit cycles;
2. enumerate crash cycles (commit boundaries + stratified random,
   seeded from the spec's content hash), plus cycle 1 and one
   past-drain cycle for the pristine and fully-drained images;
3. replay the crash image at each cycle in turn
   (:meth:`repro.core.crash.CrashRecording.crash_at_each`) and
   canonicalize each surviving media image into a symbolic state via
   the stores' payload labels.

The result records each distinct observed state with the first crash
cycle that exposed it, which is what the disagreement report prints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.axiom.program import INIT, LINE, LitmusTest, NVMState, format_state
from repro.core.api import Op
from repro.core.crash import CrashState, record_run
from repro.core.models import ModelSpec, resolve_model
from repro.crashtest.points import enumerate_crash_points
from repro.exp.spec import Spec, jsonable
from repro.sim.config import MachineConfig, RunConfig
from repro.trace.ops import decode_op, encode_op

#: bump to invalidate cached litmus results on semantic change.
LITMUS_SCHEMA_VERSION = 1

#: one op in trace encoding, as a hashable tuple.
EncodedOp = Tuple[Any, ...]


def encode_threads(test: LitmusTest) -> Tuple[Tuple[EncodedOp, ...], ...]:
    return tuple(
        tuple(tuple(encode_op(op)) for op in ops) for ops in test.threads
    )


@dataclass(frozen=True)
class LitmusSpec(Spec):
    """One (litmus test, model) operational cell."""

    test: str
    family: str
    threads: Tuple[Tuple[EncodedOp, ...], ...]
    locations: Tuple[Tuple[str, int], ...]
    model: ModelSpec
    machine: MachineConfig
    points: int = 24
    seed: int = 7

    def __init__(
        self,
        test: Union[str, LitmusTest],
        model: Union[str, ModelSpec],
        machine: Optional[MachineConfig] = None,
        points: int = 24,
        seed: int = 7,
    ) -> None:
        if not isinstance(test, LitmusTest):
            raise TypeError(
                "LitmusSpec wants the LitmusTest itself (its ops are part "
                f"of the cell identity), got {test!r}"
            )
        if points < 1:
            raise ValueError(
                f"a litmus cell needs at least 1 point, got {points}"
            )
        object.__setattr__(self, "test", test.name)
        object.__setattr__(self, "family", test.family)
        object.__setattr__(self, "threads", encode_threads(test))
        object.__setattr__(self, "locations", tuple(test.locations))
        object.__setattr__(self, "model", resolve_model(model))
        object.__setattr__(self, "machine", machine or MachineConfig())
        object.__setattr__(self, "points", int(points))
        object.__setattr__(self, "seed", int(seed))

    # -- construction helpers ----------------------------------------------

    def programs(self) -> List[List[Op]]:
        return [
            [decode_op(list(encoded)) for encoded in ops]
            for ops in self.threads
        ]

    def run_config(self) -> RunConfig:
        return self.model.run_config(seed=self.seed)

    # -- identity ------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "litmus-cell",
            "schema": LITMUS_SCHEMA_VERSION,
            "test": self.test,
            "family": self.family,
            "threads": jsonable(self.threads),
            "locations": jsonable(self.locations),
            "hardware": self.model.hardware.value,
            "persistency": self.model.persistency.value,
            "machine": jsonable(self.machine),
            "points": self.points,
            "seed": self.seed,
        }

    def label(self) -> str:
        return f"litmus/{self.test}/{self.model.name}@p{self.points}"

    # -- execution -----------------------------------------------------------

    def execute(self) -> "LitmusCellResult":
        recording = record_run(
            self.machine, self.run_config(),
            [iter(ops) for ops in self.programs()],
        )
        reference = recording.reference
        cycles = set(
            enumerate_crash_points(reference, self.points, self.describe())
        )
        cycles.add(1)  # the pristine image
        cycles.add(reference.drain_cycles + 2)  # the fully-drained image
        # The machine keys EpochLog/media by line-aligned *address*.
        line_symbols = {
            (addr // LINE) * LINE: symbol for symbol, addr in self.locations
        }

        def observe(crash: CrashState) -> str:
            values: Dict[str, str] = {}
            for line, symbol in line_symbols.items():
                payload = crash.surviving_payload(line, INIT)
                values[symbol] = payload if isinstance(payload, str) else INIT
            state: NVMState = tuple(sorted(values.items()))
            return format_state(state)

        ordered = sorted(cycles)
        observed = recording.crash_at_each(ordered, observe)
        first_cycle: Dict[str, int] = {}
        for cycle, state in zip(ordered, observed):
            first_cycle.setdefault(state, cycle)
        return LitmusCellResult(
            test=self.test,
            family=self.family,
            model=self.model.name,
            states=tuple(sorted(first_cycle)),
            first_cycle=dict(first_cycle),
            points_run=len(cycles),
            drain_cycles=reference.drain_cycles,
            commit_points=len(reference.commit_cycles),
        )


@dataclass(frozen=True)
class LitmusCellResult:
    """Observed crash states of one operational cell (picklable)."""

    test: str
    family: str
    model: str
    #: formatted canonical states, sorted.
    states: Tuple[str, ...]
    #: state -> first crash cycle that exposed it.
    first_cycle: Dict[str, int]
    points_run: int
    drain_cycles: int
    commit_points: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "test": self.test,
            "family": self.family,
            "model": self.model,
            "states": list(self.states),
            "first_cycle": {
                state: self.first_cycle[state] for state in self.states
            },
            "points_run": self.points_run,
            "drain_cycles": self.drain_cycles,
            "commit_points": self.commit_points,
        }


def _check_fields() -> None:
    # dataclasses with a custom __init__ must keep field order in sync.
    expected = (
        "test", "family", "threads", "locations", "model", "machine",
        "points", "seed",
    )
    actual = tuple(f.name for f in dataclasses.fields(LitmusSpec))
    assert actual == expected, actual


_check_fields()


__all__ = [
    "LITMUS_SCHEMA_VERSION",
    "LitmusCellResult",
    "LitmusSpec",
    "encode_threads",
]
