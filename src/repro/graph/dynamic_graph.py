"""Dynamic undirected graph storage.

The paper maintains, for every vertex ``u``, its closed neighbourhood
``N[u]`` in a balanced binary search tree so that membership queries,
insertions and deletions each cost ``O(log n)``.  In Python a hash ``set``
provides the same operations in O(1) expected time, which only improves the
constants and does not change any amortized bound, so :class:`DynamicGraph`
stores a ``dict`` mapping each vertex to a ``set`` of its neighbours.

Edges are undirected and simple: no self loops, no parallel edges.  Vertex
identifiers may be any hashable object, though the experiment harness uses
consecutive integers (the paper relabels vertices to ``1..n``).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

_NO_NEIGHBOURS: FrozenSet[Vertex] = frozenset()


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) representation of the undirected edge.

    The two endpoints are ordered by ``repr`` as a total order fallback when
    the identifiers are not mutually comparable; integer identifiers order
    numerically.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class GraphError(ValueError):
    """Raised on invalid graph mutations (duplicate edge, missing edge, self loop)."""


class DynamicGraph:
    """An undirected simple graph supporting edge insertions and deletions.

    The structure is the substrate underneath every algorithm in this
    repository: DynELM/DynStrClu, the SCAN baseline and the pSCAN/hSCAN-style
    dynamic baselines all operate on a :class:`DynamicGraph`.

    Example
    -------
    >>> g = DynamicGraph()
    >>> g.insert_edge(1, 2)
    >>> g.insert_edge(2, 3)
    >>> sorted(g.neighbours(2))
    [1, 3]
    >>> g.degree(2)
    2
    >>> sorted(g.closed_neighbourhood(2))
    [1, 2, 3]
    """

    __slots__ = ("_adj", "_nbr_list", "_nbr_pos", "_num_edges")

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        # parallel array representation of each neighbour set so that a
        # uniformly random neighbour can be drawn in O(1) — required by the
        # sampling-based similarity estimator (paper Section 4, Remark)
        self._nbr_list: Dict[Vertex, List[Vertex]] = {}
        self._nbr_pos: Dict[Vertex, Dict[Vertex, int]] = {}
        self._num_edges = 0
        if edges is not None:
            for u, v in edges:
                self.insert_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently present (isolated vertices included)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, each reported once in canonical order."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                edge = canonical_edge(u, v)
                if edge[0] == u:
                    yield edge

    def has_vertex(self, u: Vertex) -> bool:
        """Return True if ``u`` is a vertex of the graph."""
        return u in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if the edge ``(u, v)`` is present."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, u: Vertex) -> int:
        """Return ``d[u]``, the number of neighbours of ``u`` (0 if absent)."""
        nbrs = self._adj.get(u)
        return 0 if nbrs is None else len(nbrs)

    def neighbours(self, u: Vertex) -> Set[Vertex]:
        """Return the (open) neighbour set of ``u``.

        The returned set is the live internal set; callers must not mutate
        it.  Use :meth:`closed_neighbourhood` for ``N[u]`` including ``u``.
        """
        return self._adj.get(u, set())

    @property
    def adjacency(self) -> Dict[Vertex, Set[Vertex]]:
        """The live map from each vertex to its neighbour set (read only).

        For hot loops that read many neighbourhoods: one ``dict.get`` per
        vertex instead of a :meth:`neighbours` call.
        """
        return self._adj

    def closed_neighbourhood(self, u: Vertex) -> Set[Vertex]:
        """Return ``N[u]``: the neighbours of ``u`` plus ``u`` itself (a copy)."""
        closed = set(self._adj.get(u, ()))
        closed.add(u)
        return closed

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_vertex(self, u: Vertex) -> None:
        """Ensure ``u`` exists (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = set()
            self._nbr_list[u] = []
            self._nbr_pos[u] = {}

    def _append_neighbour(self, u: Vertex, v: Vertex) -> None:
        self._nbr_pos[u][v] = len(self._nbr_list[u])
        self._nbr_list[u].append(v)

    def _pop_neighbour(self, u: Vertex, v: Vertex) -> None:
        lst = self._nbr_list[u]
        pos = self._nbr_pos[u].pop(v)
        last = lst.pop()
        if last != v:
            lst[pos] = last
            self._nbr_pos[u][last] = pos

    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert the undirected edge ``(u, v)``.

        Raises
        ------
        GraphError
            If ``u == v`` (self loop) or the edge already exists.
        """
        if u == v:
            raise GraphError(f"self loops are not allowed: ({u!r}, {v!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        u_nbrs = self._adj[u]
        if v in u_nbrs:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        u_nbrs.add(v)
        self._adj[v].add(u)
        self._append_neighbour(u, v)
        self._append_neighbour(v, u)
        self._num_edges += 1

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete the undirected edge ``(u, v)``.

        Endpoints remain as (possibly isolated) vertices.

        Raises
        ------
        GraphError
            If the edge does not exist.
        """
        u_nbrs = self._adj.get(u)
        if u_nbrs is None or v not in u_nbrs:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        u_nbrs.discard(v)
        self._adj[v].discard(u)
        self._pop_neighbour(u, v)
        self._pop_neighbour(v, u)
        self._num_edges -= 1

    def remove_vertex(self, u: Vertex) -> None:
        """Remove ``u`` and all incident edges (no-op if absent)."""
        nbrs = self._adj.pop(u, None)
        if nbrs is None:
            return
        for v in nbrs:
            self._adj[v].discard(u)
            self._pop_neighbour(v, u)
        self._nbr_list.pop(u, None)
        self._nbr_pos.pop(u, None)
        self._num_edges -= len(nbrs)

    # ------------------------------------------------------------------
    # random access (sampling estimator support)
    # ------------------------------------------------------------------
    def random_closed_neighbour(self, u: Vertex, rng: random.Random) -> Vertex:
        """Return a uniformly random member of the closed neighbourhood ``N[u]``.

        ``u`` itself is returned with probability ``1 / (d[u] + 1)``.  The
        draw costs O(1), which is what makes the paper's sampling estimator
        poly-logarithmic instead of linear.
        """
        lst = self._nbr_list.get(u)
        if not lst:
            return u
        index = rng.randrange(len(lst) + 1)
        return u if index == len(lst) else lst[index]

    # ------------------------------------------------------------------
    # derived quantities used throughout the paper
    # ------------------------------------------------------------------
    def common_closed_neighbours(self, u: Vertex, v: Vertex) -> int:
        """Return ``|N[u] ∩ N[v]|`` for adjacent or non-adjacent ``u, v``.

        Intersects the live open neighbour sets without copying them, so the
        cost is ``O(min(d[u], d[v]))`` set probes.  The closed sets add
        ``u`` and ``v`` themselves, which are common exactly when the two
        are adjacent.
        """
        nu = self._adj.get(u, _NO_NEIGHBOURS)
        if u == v:
            return len(nu) + 1
        nv = self._adj.get(v, _NO_NEIGHBOURS)
        common = len(nu & nv)
        return common + 2 if v in nu else common

    def union_closed_neighbours(self, u: Vertex, v: Vertex) -> int:
        """Return ``|N[u] ∪ N[v]|`` via inclusion–exclusion."""
        return self.degree(u) + self.degree(v) + 2 - self.common_closed_neighbours(u, v)

    def copy(self) -> "DynamicGraph":
        """Return a deep copy of the graph."""
        clone = DynamicGraph()
        clone._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        clone._nbr_list = {u: list(lst) for u, lst in self._nbr_list.items()}
        clone._nbr_pos = {u: dict(pos) for u, pos in self._nbr_pos.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, u: Vertex) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"
