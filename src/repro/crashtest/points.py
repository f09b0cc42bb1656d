"""Crash-point enumeration: where a campaign pulls the plug.

Following the systematic-enumeration methodology (crash points chosen by
*structure*, not uniform luck), a campaign crashes at two kinds of
instants:

1. **Epoch-commit boundaries** -- the cycle right after each epoch
   commit of the cell's recorded run (the
   :class:`~repro.core.crash.ReferenceRun` of
   :func:`repro.core.crash.record_run`).  Commits are where buffered
   designs change what recovery would see, so the instants just after
   them are the highest-value probes.  (Designs without an epoch table
   -- the Intel baseline, eADR -- contribute none.)
2. **Stratified-random mid-epoch cycles** -- the run's cycle span is cut
   into equal strata and one cycle drawn per stratum, so probes cover
   the whole execution instead of clustering.

Both sets are derived deterministically from the spec (the RNG is seeded
with a content hash), so the same campaign always crashes at the same
cycles -- a requirement for result caching and byte-identical reports.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.crash import ReferenceRun
from repro.exp.spec import digest


def derive_rng(identity: dict) -> random.Random:
    """A deterministic RNG keyed by a JSON-serializable identity dict.

    Never uses Python's ``hash()`` (randomized across processes); the
    seed is a content hash, so every process and every run agrees.
    """
    return random.Random(int(digest(identity)[:16], 16))


def stratified_cycles(horizon: int, count: int, rng: random.Random) -> List[int]:
    """One uniformly drawn cycle from each of ``count`` equal strata."""
    if horizon <= 2 or count <= 0:
        return []
    out = []
    span = horizon - 1  # usable cycles: [1, horizon - 1]
    for index in range(count):
        lo = 1 + index * span // count
        hi = 1 + (index + 1) * span // count
        out.append(rng.randrange(lo, max(lo + 1, hi)))
    return out


def enumerate_crash_points(
    reference: ReferenceRun,
    points: int,
    identity: dict,
) -> List[int]:
    """The campaign's crash cycles: commit boundaries + stratified fill.

    At most half the budget goes to commit boundaries (evenly subsampled
    when a run commits more epochs than that); the rest is stratified
    random over ``[1, drain_cycles)``.  Returns ascending, deduplicated
    cycles -- possibly fewer than ``points`` for very short runs.
    """
    horizon = max(2, reference.drain_cycles)
    rng = derive_rng(identity)

    boundaries = [
        c + 1 for c in reference.commit_cycles if 1 <= c + 1 < horizon
    ]
    budget = max(1, points // 2)
    if len(boundaries) > budget:
        step = len(boundaries) / budget
        boundaries = [boundaries[int(i * step)] for i in range(budget)]

    chosen = set(boundaries)
    chosen.update(stratified_cycles(horizon, points - len(boundaries), rng))
    # top up collisions (a stratified draw landing on a boundary)
    attempts = 0
    while len(chosen) < points and attempts < 10 * points and horizon > 2:
        chosen.add(rng.randrange(1, horizon))
        attempts += 1
    return sorted(chosen)


__all__ = [
    "ReferenceRun",
    "derive_rng",
    "enumerate_crash_points",
    "stratified_cycles",
]
