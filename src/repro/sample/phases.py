"""Phase detection: deterministic k-means over interval fingerprints.

Features are z-score normalized per column so no single feature's scale
dominates the distance metric.  Initialization is farthest-first
traversal -- start from the point farthest from the global mean, then
greedily add the point farthest from the chosen set -- which is both
fully deterministic (no RNG; determinism is a hard requirement, the
sampled-accuracy golden gate diffs exact values) and outlier-seeking:
transient phases (the cold-start compulsory-miss ramp, an end-of-run
shape change) are exactly the far points a random init tends to absorb
into a big steady-state cluster.  Iterations are bounded and ties break
by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: k-means iteration bound (iteration stops early once labels settle).
KMEANS_ITERS = 32


@dataclass
class PhasePlan:
    """Clustering result: which interval represents each phase."""

    #: cluster label per interval.
    labels: List[int]
    #: representative interval index per cluster (closest to centroid).
    representatives: List[int]
    #: interval population per cluster (weights for extrapolation).
    counts: List[int]
    #: normalized mean member-to-centroid distance per cluster -- the
    #: dispersion heuristic behind the confidence bounds.
    dispersion: List[float]

    @property
    def num_phases(self) -> int:
        return len(self.representatives)


def _normalize(matrix: np.ndarray) -> np.ndarray:
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std[std < 1e-12] = 1.0
    return (matrix - mean) / std


def _farthest_first(matrix: np.ndarray, k: int) -> np.ndarray:
    """Deterministic outlier-seeking seed selection (indices)."""
    mean = matrix.mean(axis=0)
    chosen = [int(np.linalg.norm(matrix - mean, axis=1).argmax())]
    min_dist = np.linalg.norm(matrix - matrix[chosen[0]], axis=1)
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        min_dist = np.minimum(
            min_dist, np.linalg.norm(matrix - matrix[nxt], axis=1)
        )
    return np.asarray(chosen)


def cluster_intervals(vectors: List[List[float]], k: int) -> PhasePlan:
    """Cluster interval fingerprints into (at most) ``k`` phases.

    Initialization is farthest-first traversal, so clustering needs no
    randomness and no seed."""
    if not vectors:
        raise ValueError("no intervals to cluster")
    matrix = _normalize(np.asarray(vectors, dtype=np.float64))
    n = matrix.shape[0]
    k = max(1, min(k, n))
    centroids = matrix[_farthest_first(matrix, k)]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        # pairwise distances: (n, k)
        dist = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :],
                              axis=2)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            members = matrix[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    # drop empty clusters, renumber by first-member order for stability
    order = []
    for label in labels:
        if label not in order:
            order.append(int(label))
    remap = {old: new for new, old in enumerate(order)}
    labels = np.asarray([remap[int(label)] for label in labels])
    centroids = centroids[order]
    reps: List[int] = []
    counts: List[int] = []
    dispersion: List[float] = []
    for c in range(len(order)):
        member_idx = np.flatnonzero(labels == c)
        member_dist = np.linalg.norm(
            matrix[member_idx] - centroids[c], axis=1
        )
        reps.append(int(member_idx[int(member_dist.argmin())]))
        counts.append(int(len(member_idx)))
        # mean distance, normalized by the global feature spread (~1 after
        # z-scoring); a tight cluster -> near-zero dispersion.
        dispersion.append(float(member_dist.mean()))
    return PhasePlan(
        labels=[int(label) for label in labels],
        representatives=reps,
        counts=counts,
        dispersion=dispersion,
    )


__all__ = ["PhasePlan", "cluster_intervals"]
