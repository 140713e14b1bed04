"""Update-sequence simulation (paper Section 9.4).

For every dataset the paper starts from an empty graph, inserts the ``m0``
original edges one by one, and then performs generated updates: with
probability ``η / (1 + η)`` a deletion of a uniformly random existing edge,
otherwise an insertion generated by one of three strategies:

* **RR** (random-random): a uniformly random absent edge;
* **DR** (degree-random): first endpoint chosen with probability
  proportional to its degree, second uniformly among non-neighbours;
* **DD** (degree-degree): both endpoints chosen proportionally to degree.

The generator below reproduces that pipeline deterministically from a seed.
It maintains its own adjacency mirror so generating a workload does not
require running any clustering algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Sequence, Set

from repro.core.dynelm import Update
from repro.graph.dynamic_graph import Edge, Vertex, canonical_edge


class InsertionStrategy(str, Enum):
    """Insertion-generation strategy of Section 9.4."""

    RANDOM_RANDOM = "RR"
    DEGREE_RANDOM = "DR"
    DEGREE_DEGREE = "DD"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class UpdateWorkload:
    """A fully materialised update scenario.

    Attributes
    ----------
    initial_edges:
        The ``m0`` original edges, inserted first (the hot start).
    updates:
        The generated updates that follow (mixture of insertions and
        deletions controlled by ``eta``).
    """

    initial_edges: List[Edge]
    updates: List[Update]

    @property
    def total_updates(self) -> int:
        """Total number of updates including the initial insertions."""
        return len(self.initial_edges) + len(self.updates)

    def all_updates(self) -> Iterator[Update]:
        """Iterate over the whole scenario as a single update stream."""
        for u, v in self.initial_edges:
            yield Update.insert(u, v)
        yield from self.updates


class _WorkloadState:
    """Adjacency mirror used while generating updates (degrees + edge set)."""

    def __init__(self, n: int, edges: Sequence[Edge]) -> None:
        self.n = n
        self.edges: Set[Edge] = set()
        self.edge_list: List[Edge] = []
        self.edge_pos: Dict[Edge, int] = {}
        self.adjacency: Dict[Vertex, Set[Vertex]] = {v: set() for v in range(n)}
        #: repeated-endpoint list for degree-proportional sampling
        self.endpoint_pool: List[Vertex] = []
        for u, v in edges:
            self.add(canonical_edge(u, v))

    def add(self, edge: Edge) -> None:
        u, v = edge
        self.edges.add(edge)
        self.edge_pos[edge] = len(self.edge_list)
        self.edge_list.append(edge)
        self.adjacency.setdefault(u, set()).add(v)
        self.adjacency.setdefault(v, set()).add(u)
        self.endpoint_pool.append(u)
        self.endpoint_pool.append(v)

    def remove(self, edge: Edge) -> None:
        u, v = edge
        self.edges.discard(edge)
        pos = self.edge_pos.pop(edge)
        last = self.edge_list.pop()
        if last != edge:
            self.edge_list[pos] = last
            self.edge_pos[last] = pos
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        # the endpoint pool is allowed to go slightly stale; sampling rejects
        # endpoints whose degree reached zero, which keeps DR/DD close to the
        # intended distribution without O(m) maintenance per deletion
        # (documented substitution for exact degree-proportional sampling)

    def degree(self, u: Vertex) -> int:
        return len(self.adjacency.get(u, ()))

    def random_existing_edge(self, rng: random.Random) -> Edge:
        return self.edge_list[rng.randrange(len(self.edge_list))]

    def sample_degree_proportional(self, rng: random.Random) -> Vertex:
        """Pick a vertex with probability roughly proportional to its degree."""
        for _ in range(64):
            candidate = self.endpoint_pool[rng.randrange(len(self.endpoint_pool))]
            if self.degree(candidate) > 0:
                return candidate
        return rng.randrange(self.n)


def generate_update_sequence(
    n: int,
    initial_edges: Sequence[Edge],
    num_updates: int,
    strategy: InsertionStrategy | str = InsertionStrategy.RANDOM_RANDOM,
    eta: float = 0.0,
    seed: int = 0,
) -> UpdateWorkload:
    """Generate an update scenario following the paper's simulation recipe.

    Parameters
    ----------
    n:
        Number of vertices (vertex identifiers are ``0 .. n-1``).
    initial_edges:
        The original dataset edges (inserted first).
    num_updates:
        Number of *generated* updates after the initial insertions (the
        paper uses ``9 · m0``; the benchmarks use a scaled-down multiple).
    strategy:
        Insertion strategy (RR, DR or DD).
    eta:
        Deletion-to-insertion frequency ratio; a generated update is a
        deletion with probability ``eta / (1 + eta)``.
    seed:
        RNG seed; the same arguments always produce the same workload.
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    strategy = InsertionStrategy(strategy)
    rng = random.Random(seed)
    state = _WorkloadState(n, [canonical_edge(u, v) for u, v in initial_edges])
    max_edges = n * (n - 1) // 2
    deletion_probability = eta / (1.0 + eta) if eta > 0 else 0.0

    updates: List[Update] = []
    for _ in range(num_updates):
        do_delete = state.edges and rng.random() < deletion_probability
        if do_delete:
            edge = state.random_existing_edge(rng)
            state.remove(edge)
            updates.append(Update.delete(*edge))
            continue
        if len(state.edges) >= max_edges:
            # graph is complete: fall back to a deletion to keep the stream going
            edge = state.random_existing_edge(rng)
            state.remove(edge)
            updates.append(Update.delete(*edge))
            continue
        edge = _generate_insertion(state, strategy, rng)
        state.add(edge)
        updates.append(Update.insert(*edge))
    return UpdateWorkload(initial_edges=list(initial_edges), updates=updates)


def _generate_insertion(
    state: _WorkloadState, strategy: InsertionStrategy, rng: random.Random
) -> Edge:
    """Draw one absent edge according to the configured strategy."""
    n = state.n
    while True:
        if strategy is InsertionStrategy.RANDOM_RANDOM:
            u = rng.randrange(n)
            v = rng.randrange(n)
        elif strategy is InsertionStrategy.DEGREE_RANDOM:
            u = _degree_endpoint(state, rng)
            v = rng.randrange(n)
        else:  # DEGREE_DEGREE
            u = _degree_endpoint(state, rng)
            v = _degree_endpoint(state, rng)
        if u == v:
            continue
        edge = canonical_edge(u, v)
        if edge in state.edges:
            continue
        return edge


def _degree_endpoint(state: _WorkloadState, rng: random.Random) -> Vertex:
    """Degree-proportional endpoint, re-drawn while it is adjacent to everything."""
    for _ in range(64):
        u = state.sample_degree_proportional(rng)
        if state.degree(u) < state.n - 1:
            return u
    return rng.randrange(state.n)
