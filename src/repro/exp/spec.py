"""Content-addressed experiment cells: the one spec path.

Everything the experiment machinery caches or ships to a worker is a
:class:`Spec`: a grid cell (:class:`RunSpec`), a crash cell -- every
crash point of one (workload, model) pair, simulated once
(:class:`repro.crashtest.campaign.CrashCellSpec`) -- or a litmus cell
(:class:`repro.litmus.spec.LitmusSpec`).  Three decisions are made here
and nowhere else:

1. **Identity** -- :func:`digest` hashes canonical JSON, and
   :meth:`Spec.key` is the digest of :meth:`Spec.describe`, so an
   on-disk cache entry (see :mod:`repro.exp.cache`) is valid iff its key
   matches.
2. **Running a list of specs** -- :func:`run_specs` serves cache hits,
   maps only the misses through an executor and stores their results.
3. **Dispatch** -- :func:`execute_spec` is the one module-level
   trampoline; a spec is a frozen dataclass of plain values, so it
   pickles into any worker process, which then needs only the source
   tree to run it.

``RunSpec`` is *the* one way to build a run: it accepts a workload name
or class and a model name or spec, and it threads ``seed`` /
``ops_per_thread`` / ``num_threads`` uniformly into both the workload
RNG and the simulator's :class:`~repro.sim.config.RunConfig`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.core.models import ModelSpec, resolve_model
from repro.exp.executors import Executor
from repro.sim.config import MachineConfig, RunConfig
from repro.workloads.base import Workload, WorkloadResult, run_workload
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.exp.cache import ResultCache

#: Bump whenever the simulator's semantics change in a way that
#: invalidates previously cached results (it participates in the key).
SPEC_SCHEMA_VERSION = 1


def digest(doc: Any) -> str:
    """SHA-256 hex digest of ``doc`` as canonical JSON (sorted keys, no
    whitespace).  Never Python's ``hash()``, which varies per process."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def jsonable(value: Any) -> Any:
    """Reduce a config value to deterministic JSON-serializable form."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot key a spec containing {value!r}")


def _resolve_workload_name(workload: Union[str, Type[Workload]]) -> str:
    """Normalize a workload class or name to its canonical registry name."""
    if isinstance(workload, str):
        get_workload(workload)  # raises KeyError with the available names
        return workload
    if isinstance(workload, type) and issubclass(workload, Workload):
        name = workload.name
        registered = type(get_workload(name))
        if registered is not workload:
            raise ValueError(
                f"workload class {workload.__name__} is not the registered "
                f"implementation of {name!r}; register it in "
                "repro.workloads.registry before building a RunSpec"
            )
        return name
    raise TypeError(f"workload must be a name or Workload class: {workload!r}")


class Spec(Protocol):
    """A content-addressed, picklable unit of work.

    Spec types subclass this to inherit :meth:`key`, so a new kind of
    cell costs one :meth:`describe` and gets caching, fabric dispatch
    and dedupe unchanged.
    """

    def describe(self) -> Dict[str, Any]:
        """Deterministic, JSON-serializable identity: every input that
        can change the result, and nothing else."""
        ...

    def label(self) -> str:
        """Short human-readable name for logs and result streams."""
        ...

    def execute(self) -> Any:
        """Compute the result in the current process."""
        ...

    def key(self) -> str:
        """Content hash identifying the result this spec produces."""
        return digest(self.describe())


@dataclass(frozen=True)
class RunSpec(Spec):
    """One fully-specified cell of an experiment grid."""

    workload: str
    model: ModelSpec
    machine: MachineConfig = dataclasses.field(default_factory=MachineConfig)
    ops_per_thread: Optional[int] = None
    num_threads: Optional[int] = None
    seed: int = 7
    #: run with structured event tracing and attach a stall-attribution
    #: summary to the result (see :mod:`repro.obs`).  Participates in the
    #: cache key only when True, so every pre-existing untraced key is
    #: unchanged.
    events: bool = False

    def __init__(
        self,
        workload: Union[str, Type[Workload]],
        model: Union[str, ModelSpec],
        machine: Optional[MachineConfig] = None,
        ops_per_thread: Optional[int] = None,
        num_threads: Optional[int] = None,
        seed: int = 7,
        events: bool = False,
    ) -> None:
        object.__setattr__(self, "workload", _resolve_workload_name(workload))
        object.__setattr__(self, "model", resolve_model(model))
        object.__setattr__(self, "machine", machine or MachineConfig())
        object.__setattr__(self, "ops_per_thread", ops_per_thread)
        object.__setattr__(self, "num_threads", num_threads)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "events", bool(events))

    # -- construction helpers ---------------------------------------------

    def build_workload(self) -> Workload:
        return get_workload(
            self.workload, ops_per_thread=self.ops_per_thread, seed=self.seed
        )

    def run_config(self) -> RunConfig:
        # seed flows into the simulator too, so workload RNG and
        # simulator RNG always agree (the historical sweep() bug).
        return self.model.run_config(seed=self.seed)

    # -- identity -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Deterministic, JSON-serializable identity of this spec.

        The model's display name is deliberately excluded: ``hops`` and
        ``hops_rp`` are the same design and must share a cache entry.
        """
        d: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "workload": self.workload,
            "hardware": self.model.hardware.value,
            "persistency": self.model.persistency.value,
            "machine": jsonable(self.machine),
            "run_config": jsonable(self.run_config()),
            "ops_per_thread": self.ops_per_thread,
            "num_threads": self.num_threads,
            "seed": self.seed,
        }
        # Added conditionally so every untraced spec keeps the key it had
        # before tracing existed (cached results stay valid).
        if self.events:
            d["events"] = True
        return d

    def label(self) -> str:
        return f"{self.workload}/{self.model.name}@seed{self.seed}"

    # -- execution ----------------------------------------------------------

    def execute(self) -> WorkloadResult:
        """Run this cell to completion in the current process.

        When :attr:`events` is set, the run is traced through a
        :class:`repro.obs.StallProfiler` and the profiler's summary is
        attached as ``result.obs`` (a plain dict, so the result still
        pickles and caches).
        """
        if not self.events:
            return run_workload(
                self.build_workload(),
                self.machine,
                self.run_config(),
                num_threads=self.num_threads,
            )
        from repro.obs import StallProfiler

        profiler = StallProfiler()
        result = run_workload(
            self.build_workload(),
            self.machine,
            self.run_config(),
            num_threads=self.num_threads,
            sinks=[profiler],
        )
        result.obs = profiler.summary()
        return result


def execute_spec(spec: Spec) -> Any:
    """The one trampoline: executors and fabric workers run every spec
    through this module-level function, whatever its type."""
    return spec.execute()


def cached_results(
    specs: Sequence[Spec], cache: Optional[ResultCache]
) -> Dict[int, Any]:
    """Index -> stored result of every spec ``cache`` already holds."""
    found: Dict[int, Any] = {}
    if cache is not None:
        for index, spec in enumerate(specs):
            result = cache.get(spec)
            if result is not None:
                found[index] = result
    return found


def run_specs(
    specs: Sequence[Spec],
    executor: Executor,
    cache: Optional[ResultCache] = None,
) -> Tuple[List[Any], int]:
    """Results of ``specs`` in order, and how many came from ``cache``.

    Cache hits are served without touching the executor; only the misses
    are mapped through it (with :func:`execute_spec`), and their results
    are stored back into ``cache``.
    """
    results = cached_results(specs, cache)
    hits = len(results)
    missing = [index for index in range(len(specs)) if index not in results]
    fresh = executor.map(execute_spec, [specs[index] for index in missing])
    for index, result in zip(missing, fresh):
        results[index] = result
        if cache is not None:
            cache.put(specs[index], result)
    return [results[index] for index in range(len(specs))], hits


__all__ = [
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "Spec",
    "cached_results",
    "digest",
    "execute_spec",
    "jsonable",
    "run_specs",
]
