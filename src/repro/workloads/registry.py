"""The canonical workload suite (Table III).

Every figure in the evaluation runs over ``SUITE`` -- the same fifteen
workloads the paper draws its bars from:

=============  ===========================  ==========================
Benchmark      Data structures              Source
=============  ===========================  ==========================
nstore                                      WHISPER (PM-native DBMS)
echo                                        WHISPER (scalable KV store)
ctree          crit-bit tree                WHISPER (Mnemosyne)
vacation                                    WHISPER (PMDK, travel system)
memcached                                   WHISPER (PMDK, KV cache)
heap           binary heap                  ATLAS
queue          two-lock FIFO                ATLAS
skiplist       skip list                    ATLAS
cceh           extendible hashing           CCEH (FAST '19)
fast_fair      B+-tree                      FAST&FAIR (FAST '18)
dash_lh        level hashing                Dash (VLDB '20)
dash_eh        extendible hashing           Dash (VLDB '20)
p_art          radix tree                   RECIPE (SOSP '19)
p_clht         hash table                   RECIPE (SOSP '19)
p_masstree     masstree                     RECIPE (SOSP '19)
=============  ===========================  ==========================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.workloads.base import Workload
from repro.workloads.whisper import CTree, Echo, Memcached, Nstore, Vacation
from repro.workloads.adversarial import CrossThreadPublish
from repro.workloads.atlas import AtlasHeap, AtlasQueue, AtlasSkiplist
from repro.workloads.buggy import BuggyDemo
from repro.workloads.cceh import CCEH
from repro.workloads.fastfair import FastFair
from repro.workloads.dash import DashEH, DashLH
from repro.workloads.recipe import PART, PCLHT, PMasstree
from repro.workloads.microbench import (
    BandwidthMicrobench,
    CoalescingMicrobench,
    FenceLatencyMicrobench,
)

#: the suite, in the order the paper's figures present it.
SUITE: List[Type[Workload]] = [
    Nstore,
    Echo,
    CTree,
    Vacation,
    Memcached,
    AtlasHeap,
    AtlasQueue,
    AtlasSkiplist,
    CCEH,
    FastFair,
    DashLH,
    DashEH,
    PART,
    PCLHT,
    PMasstree,
]

MICROBENCHES: List[Type[Workload]] = [
    BandwidthMicrobench,
    FenceLatencyMicrobench,
    CoalescingMicrobench,
]

#: fixtures: resolvable by name, but never part of the stock suite
#: (``repro lint --all`` must stay zero-findings and ``repro crashtest
#: --all`` zero-violations; these seed true positives for the lint
#: detector tests and the crash-sweep negative-path tests -- see
#: docs/lint.md and docs/crashtest.md).
FIXTURES: List[Type[Workload]] = [
    BuggyDemo,
    CrossThreadPublish,
]

_BY_NAME: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in SUITE + MICROBENCHES + FIXTURES
}


def workload_names() -> List[str]:
    """Names of the Table III suite, in figure order."""
    return [cls.name for cls in SUITE]


def resolvable_names() -> List[str]:
    """Every name :func:`get_workload` resolves: the suite, the
    microbenchmarks and the fixtures."""
    return list(_BY_NAME)


def get_workload(
    name: str, ops_per_thread: Optional[int] = None, seed: int = 7
) -> Workload:
    """Instantiate a workload by its figure name."""
    try:
        cls = _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
    return cls(ops_per_thread=ops_per_thread, seed=seed)


__all__ = [
    "FIXTURES",
    "MICROBENCHES",
    "SUITE",
    "get_workload",
    "resolvable_names",
    "workload_names",
]
