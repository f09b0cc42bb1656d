"""The epoch dependency DAG (Figure 7, Lemma 0.1, Theorem 1).

Epochs are nodes; two kinds of edges order them:

- intra-thread edges ``(c, t) -> (c, t+1)`` from persist barriers, and
- cross-thread edges recorded when a dependence was established.

The paper proves the graph is acyclic (new epochs are opened on *both*
sides of every cross-thread dependence) and uses the existence of a
topological order to argue forward progress: some epoch is always safe.
These utilities let the tests machine-check both claims on real runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.epoch import EpochId, EpochLog


@dataclass
class EpochDag:
    """Adjacency view over a run's epochs."""

    nodes: Set[EpochId]
    successors: Dict[EpochId, List[EpochId]]

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[EpochId],
        edges: Iterable[Tuple[EpochId, EpochId]],
    ) -> "EpochDag":
        """Build a DAG from an explicit node and edge list.

        This is how declarative clients (the axiomatic checker in
        :mod:`repro.axiom`) hand a candidate epoch-ordering graph to
        :func:`~repro.verify.consistency.check_consistency` without
        going through a simulated run's :class:`EpochLog`.  Duplicate
        edges are dropped; endpoints are added to the node set.
        """
        node_set: Set[EpochId] = set(nodes)
        successors: Dict[EpochId, List[EpochId]] = {}
        seen: Set[Tuple[EpochId, EpochId]] = set()
        for src, dst in edges:
            node_set.add(src)
            node_set.add(dst)
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
            successors.setdefault(src, []).append(dst)
        return cls(nodes=node_set, successors=successors)

    def descendants(self, roots: Iterable[EpochId]) -> Set[EpochId]:
        """Every epoch strictly reachable from ``roots`` (roots excluded
        unless reachable from another root)."""
        seen: Set[EpochId] = set()
        frontier = deque()
        for root in roots:
            for succ in self.successors.get(root, ()):  # strict: start at succs
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        while frontier:
            node = frontier.popleft()
            for succ in self.successors.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    def is_acyclic(self) -> bool:
        """Whether :meth:`topological_order` exists."""
        try:
            self.topological_order()
        except ValueError:
            return False
        return True

    def topological_order(self) -> List[EpochId]:
        """A topological order; raises ValueError on a cycle.

        The order witnesses Theorem 1: processed front to back, each epoch
        becomes safe once its predecessors complete."""
        indegree: Dict[EpochId, int] = {node: 0 for node in self.nodes}
        for node, succs in self.successors.items():
            for succ in succs:
                indegree[succ] = indegree.get(succ, 0) + 1
        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: List[EpochId] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for succ in self.successors.get(node, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(indegree):
            raise ValueError("epoch dependence graph has a cycle")
        return order


def build_dag(log: EpochLog) -> EpochDag:
    """Construct the epoch DAG for a finished (or crashed) run."""
    nodes: Set[EpochId] = set()
    successors: Dict[EpochId, List[EpochId]] = {}

    def add_edge(src: EpochId, dst: EpochId) -> None:
        nodes.add(src)
        nodes.add(dst)
        successors.setdefault(src, []).append(dst)

    for core, max_ts in log.max_ts.items():
        for ts in range(1, max_ts + 1):
            nodes.add((core, ts))
            if ts < max_ts and (core, ts + 1) not in log.strand_starts:
                # strand persistency: an epoch that begins a new strand
                # has no implicit intra-thread predecessor edge.
                add_edge((core, ts), (core, ts + 1))
    for source, dependent in log.dep_edges:
        add_edge(source, dependent)
    return EpochDag(nodes=nodes, successors=successors)


__all__ = ["EpochDag", "build_dag"]
