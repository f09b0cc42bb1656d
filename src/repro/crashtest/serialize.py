"""Exact JSON serialization of :class:`~repro.core.crash.CrashState`.

A failing crash state must be **replayable**: the minimizer writes it to
disk, a later ``repro crashtest --replay`` (or a golden regression test)
loads it back and re-adjudicates without re-simulating.  The format is
therefore exact -- ``load(dump(state))`` reproduces every field,
including the epoch log's write payloads -- and canonical: serializing
the same state twice yields identical bytes (sorted keys, no
wall-clock).

Payloads are restricted to what workloads actually store: JSON
primitives, tuples (ordered-chain tags), and the :mod:`repro.tx.undolog`
record dataclasses.  Anything else is a hard error at dump time --
better than a state that silently fails to round-trip.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Tuple

from repro.core.crash import CrashState
from repro.core.epoch import EpochLog, WriteRecord
from repro.sim.config import HardwareModel, PersistencyModel, RunConfig

#: bump when the on-disk layout changes incompatibly.
STATE_SCHEMA_VERSION = 1
STATE_KIND = "repro-crashstate"


def _payload_types() -> Dict[str, type]:
    # lazy: repro.tx pulls in the whole tx layer, which not every
    # campaign needs.
    from repro.tx.undolog import CommitPayload, DataPayload, PVar, UndoPayload

    return {
        "tx-undo": UndoPayload,
        "tx-data": DataPayload,
        "tx-commit": CommitPayload,
        "tx-pvar": PVar,
    }


def encode_payload(payload: object) -> object:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, tuple):
        return {
            "__kind__": "tuple",
            "items": [encode_payload(item) for item in payload],
        }
    if isinstance(payload, list):
        return {
            "__kind__": "list",
            "items": [encode_payload(item) for item in payload],
        }
    for tag, cls in _payload_types().items():
        if isinstance(payload, cls):
            return {
                "__kind__": tag,
                "fields": {
                    f.name: encode_payload(getattr(payload, f.name))
                    for f in dataclasses.fields(payload)
                },
            }
    raise TypeError(
        f"crash-state payload {payload!r} ({type(payload).__name__}) is "
        "not serializable; store plain values, tuples, or tx records as "
        "op payloads"
    )


def decode_payload(doc: object) -> object:
    if not isinstance(doc, dict):
        return doc
    kind = doc["__kind__"]
    if kind == "tuple":
        return tuple(decode_payload(item) for item in doc["items"])
    if kind == "list":
        return [decode_payload(item) for item in doc["items"]]
    cls = _payload_types()[kind]
    return cls(**{k: decode_payload(v) for k, v in doc["fields"].items()})


def log_to_dict(log: EpochLog) -> dict:
    return {
        "writes": [
            [r.write_id, r.line, r.core, r.epoch_ts]
            for _, r in sorted(log.writes.items())
        ],
        "line_order": {
            str(line): list(order)
            for line, order in sorted(log.line_order.items())
        },
        "dep_edges": [
            [list(source), list(dependent)]
            for source, dependent in log.dep_edges
        ],
        "strand_starts": [list(e) for e in sorted(log.strand_starts)],
        "max_ts": {str(core): ts for core, ts in sorted(log.max_ts.items())},
        "payloads": {
            str(wid): encode_payload(payload)
            for wid, payload in sorted(log.payloads.items())
        },
    }


def log_from_dict(doc: dict) -> EpochLog:
    log = EpochLog()
    for write_id, line, core, epoch_ts in doc["writes"]:
        log.writes[write_id] = WriteRecord(
            write_id=write_id, line=line, core=core, epoch_ts=epoch_ts
        )
    log.line_order = {
        int(line): list(order) for line, order in doc["line_order"].items()
    }
    log.dep_edges = [
        (tuple(source), tuple(dependent))
        for source, dependent in doc["dep_edges"]
    ]
    log.strand_starts = {tuple(e) for e in doc["strand_starts"]}
    log.max_ts = {int(core): ts for core, ts in doc["max_ts"].items()}
    log.payloads = {
        int(wid): decode_payload(payload)
        for wid, payload in doc["payloads"].items()
    }
    return log


def state_to_dict(state: CrashState) -> dict:
    rc = state.run_config
    return {
        "crash_cycle": state.crash_cycle,
        "media": {str(line): wid for line, wid in sorted(state.media.items())},
        "run_config": {
            "hardware": rc.hardware.value,
            "persistency": rc.persistency.value,
            "max_events": rc.max_events,
            "seed": rc.seed,
        },
        "log": log_to_dict(state.log),
    }


def state_from_dict(doc: dict) -> CrashState:
    rc = doc["run_config"]
    return CrashState(
        crash_cycle=doc["crash_cycle"],
        media={int(line): wid for line, wid in doc["media"].items()},
        log=log_from_dict(doc["log"]),
        run_config=RunConfig(
            hardware=HardwareModel(rc["hardware"]),
            persistency=PersistencyModel(rc["persistency"]),
            max_events=rc["max_events"],
            seed=rc["seed"],
        ),
    )


def dumps_state(state: CrashState, meta: dict) -> str:
    """Canonical envelope text for one crash state (+ campaign metadata).

    ``meta`` must itself be JSON-serializable plain data; it records how
    the state was produced (workload, model, machine, seed, violations)
    so a replay can rebuild the oracle context.
    """
    doc = {
        "schema": STATE_SCHEMA_VERSION,
        "kind": STATE_KIND,
        "meta": meta,
        "state": state_to_dict(state),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def loads_state(text: str) -> Tuple[CrashState, dict]:
    """Parse :func:`dumps_state` text; ``ValueError`` on anything else."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"not a {STATE_KIND} document (not a JSON object)")
    if doc.get("kind") != STATE_KIND:
        raise ValueError(
            f"not a {STATE_KIND} document (kind={doc.get('kind')!r})"
        )
    if doc.get("schema") != STATE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {STATE_KIND} schema {doc.get('schema')!r} "
            f"(supported: {STATE_SCHEMA_VERSION})"
        )
    try:
        state = state_from_dict(doc["state"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed {STATE_KIND} document: its state does not decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(
            f"malformed {STATE_KIND} document: its meta is not a JSON object"
        )
    return state, meta


def save_state(path: str, state: CrashState, meta: dict) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_state(state, meta))


def load_state(path: str) -> Tuple[CrashState, dict]:
    with open(path) as handle:
        return loads_state(handle.read())


__all__ = [
    "STATE_KIND",
    "STATE_SCHEMA_VERSION",
    "decode_payload",
    "dumps_state",
    "encode_payload",
    "load_state",
    "loads_state",
    "log_from_dict",
    "log_to_dict",
    "save_state",
    "state_from_dict",
    "state_to_dict",
]
