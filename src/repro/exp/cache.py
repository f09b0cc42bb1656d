"""Deterministic on-disk result cache.

Results are stored content-addressed: the filename is the
:meth:`~repro.exp.spec.Spec.key` SHA-256 of the spec, so a cache
entry can never be served for a spec it does not exactly match (any
change to the machine config, model, workload, knobs, or seed changes
the key).  Each entry is the pickled result plus a human-readable
``.json`` sidecar describing the spec that produced it.  Every spec type
keys the same way, so one directory can hold grid cells, crash points
and litmus cells alike -- the fabric uses it as its shared store.

Writes are atomic (tmp file + ``os.replace``), so concurrent workers
and concurrent *processes* may share one cache directory: the worst
case is two processes computing the same cell and one harmlessly
overwriting the other's identical entry.

Because every simulation is deterministic given its spec, a cache hit
is indistinguishable from a fresh run -- same ``runtime_cycles``, same
stats, same epoch log.  The determinism suite asserts this.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import tempfile
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:
    from repro.exp.spec import Spec


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``: a reader sees the old file or the whole
    new one, and a killed writer leaves at worst a ``.tmp-*`` orphan."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed store of completed experiment cells."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- paths --------------------------------------------------------------

    def _result_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def _meta_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def __contains__(self, spec: Spec) -> bool:
        return self._result_path(spec.key()).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    # -- access -------------------------------------------------------------

    def get(self, spec: Spec) -> Optional[Any]:
        """Return the cached result for ``spec``, or None on a miss.

        A corrupt/truncated entry (e.g. a killed writer on a filesystem
        without atomic replace) is treated as a miss and removed.
        """
        path = self._result_path(spec.key())
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # pickle.load raises opcode-dependent exceptions on garbage
            # bytes (ValueError, UnpicklingError, EOFError, ...); any
            # unreadable entry degrades to a miss and is evicted.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: Spec, result: Any) -> None:
        key = spec.key()
        atomic_write(self._result_path(key), pickle.dumps(result, protocol=4))
        meta = dict(spec.describe(), label=spec.label())
        atomic_write(
            self._meta_path(key),
            json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"),
        )

    def clear(self) -> int:
        """Drop every entry; returns the number of results removed."""
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
        return removed


__all__ = ["ResultCache", "atomic_write"]
