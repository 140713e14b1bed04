"""Holm–de Lichtenberg–Thorup (HDT) fully dynamic connectivity.

This is the structure cited by Fact 2 of the paper: it maintains a spanning
forest of a graph under edge insertions and deletions with poly-logarithmic
amortized update cost and answers connectivity / ``FindCcID`` queries in
``O(log n)``.

Every edge carries a *level*; ``F_i`` denotes the spanning forest restricted
to edges of level at least ``i`` and is stored as an Euler-tour forest
(:class:`repro.connectivity.euler_tour.EulerTourForest`).  The invariants
maintained are

1. ``F_0 ⊇ F_1 ⊇ …`` as edge sets, and ``F_0`` is a spanning forest of the
   whole graph;
2. both endpoints of a level-``i`` edge lie in the same tree of ``F_i``;
3. every tree of ``F_i`` has at most ``n / 2^i`` vertices (which bounds the
   number of levels by ``log2 n``).

Edge levels only increase.  Deleting a non-tree edge is trivial; deleting a
tree edge of level ``ℓ`` cuts it out of ``F_0 … F_ℓ`` and searches for a
replacement from level ``ℓ`` down to 0, promoting the smaller side's level-i
tree edges and the scanned non-crossing level-i non-tree edges to level
``i + 1`` (which pays for the search amortized).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.connectivity.base import ConnectivityStructure, Vertex
from repro.connectivity.euler_tour import EulerTourForest
from repro.graph.dynamic_graph import canonical_edge

Edge = Tuple[Vertex, Vertex]


class HDTConnectivity(ConnectivityStructure):
    """Fully dynamic connectivity with the HDT level hierarchy."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._forests: List[EulerTourForest] = [EulerTourForest(seed=seed)]
        #: per level: non-tree adjacency (vertex -> set of neighbours at that level)
        self._nontree_adj: List[Dict[Vertex, Set[Vertex]]] = [{}]
        self._edge_level: Dict[Edge, int] = {}
        self._is_tree: Dict[Edge, bool] = {}
        self._degree: Dict[Vertex, int] = {}

    # ------------------------------------------------------------------
    # level helpers
    # ------------------------------------------------------------------
    def _ensure_level(self, level: int) -> None:
        while len(self._forests) <= level:
            self._forests.append(EulerTourForest(seed=self._seed + len(self._forests)))
            self._nontree_adj.append({})

    @property
    def max_level(self) -> int:
        """Highest level currently materialised (for tests and accounting)."""
        return len(self._forests) - 1

    def edge_level(self, u: Vertex, v: Vertex) -> Optional[int]:
        """Return the level of edge ``(u, v)`` or None if absent (testing aid)."""
        return self._edge_level.get(canonical_edge(u, v))

    # ------------------------------------------------------------------
    # non-tree bookkeeping
    # ------------------------------------------------------------------
    def _add_nontree(self, level: int, x: Vertex, y: Vertex) -> None:
        self._ensure_level(level)
        forest = self._forests[level]
        adj = self._nontree_adj[level]
        forest.add_vertex(x)
        forest.add_vertex(y)
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
        forest.set_vertex_mark(x, True)
        forest.set_vertex_mark(y, True)

    def _remove_nontree(self, level: int, x: Vertex, y: Vertex) -> None:
        adj = self._nontree_adj[level]
        forest = self._forests[level]
        adj[x].discard(y)
        adj[y].discard(x)
        if not adj[x]:
            forest.set_vertex_mark(x, False)
        if not adj[y]:
            forest.set_vertex_mark(y, False)

    # ------------------------------------------------------------------
    # vertex lifecycle
    # ------------------------------------------------------------------
    def add_vertex(self, u: Vertex) -> None:
        if u in self._degree:
            return
        self._degree[u] = 0
        self._forests[0].add_vertex(u)

    def remove_vertex(self, u: Vertex) -> None:
        if u not in self._degree:
            return
        if self._degree[u] != 0:
            raise ValueError(f"vertex {u!r} is not isolated")
        del self._degree[u]
        for forest in self._forests:
            if forest.has_vertex(u):
                forest.remove_vertex(u)
        for adj in self._nontree_adj:
            adj.pop(u, None)

    def has_vertex(self, u: Vertex) -> bool:
        return u in self._degree

    # ------------------------------------------------------------------
    # edge lifecycle
    # ------------------------------------------------------------------
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return canonical_edge(u, v) in self._edge_level

    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            raise ValueError("self loops are not supported")
        key = canonical_edge(u, v)
        if key in self._edge_level:
            raise ValueError(f"edge {key!r} already exists")
        self.add_vertex(u)
        self.add_vertex(v)
        self._edge_level[key] = 0
        self._degree[u] += 1
        self._degree[v] += 1
        forest0 = self._forests[0]
        if not forest0.connected(u, v):
            self._is_tree[key] = True
            forest0.link(u, v)
            forest0.set_edge_mark(u, v, True)
        else:
            self._is_tree[key] = False
            self._add_nontree(0, u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        key = canonical_edge(u, v)
        level = self._edge_level.pop(key, None)
        if level is None:
            raise ValueError(f"edge ({u!r}, {v!r}) does not exist")
        was_tree = self._is_tree.pop(key)
        self._degree[u] -= 1
        self._degree[v] -= 1
        if not was_tree:
            self._remove_nontree(level, u, v)
            return
        # tree edge: cut it out of every forest that contains it, then search
        # for a replacement from its level downwards
        for i in range(level, -1, -1):
            self._forests[i].cut(u, v)
        self._replace(u, v, level)

    # ------------------------------------------------------------------
    # replacement search
    # ------------------------------------------------------------------
    def _replace(self, u: Vertex, v: Vertex, level: int) -> None:
        for i in range(level, -1, -1):
            forest = self._forests[i]
            size_u = forest.tree_size(u)
            size_v = forest.tree_size(v)
            small, big = (u, v) if size_u <= size_v else (v, u)
            big_root = forest.tree_root_node(big)
            self._promote_tree_edges(i, small)
            replacement = self._scan_nontree(i, small, big_root)
            if replacement is not None:
                x, y = replacement
                self._attach_replacement(i, x, y)
                return
        # no replacement at any level: the component stays split

    def _promote_tree_edges(self, level: int, small: Vertex) -> None:
        """Promote every level-``level`` tree edge in ``small``'s tree to ``level + 1``."""
        forest = self._forests[level]
        self._ensure_level(level + 1)
        upper = self._forests[level + 1]
        while True:
            edge = forest.find_marked_edge(small)
            if edge is None:
                return
            x, y = edge
            forest.set_edge_mark(x, y, False)
            self._edge_level[edge] = level + 1
            upper.add_vertex(x)
            upper.add_vertex(y)
            upper.link(x, y)
            upper.set_edge_mark(x, y, True)

    def _scan_nontree(self, level: int, small: Vertex, big_root: object) -> Optional[Edge]:
        """Scan level-``level`` non-tree edges incident to ``small``'s tree.

        Edges whose endpoints both lie on the small side are promoted to
        ``level + 1``; the first edge found crossing to the big side is
        returned (already detached from the non-tree bookkeeping).
        """
        forest = self._forests[level]
        adj = self._nontree_adj[level]
        while True:
            x = forest.find_marked_vertex(small)
            if x is None:
                return None
            neighbours = list(adj.get(x, ()))
            if not neighbours:
                # defensive: stale mark with no non-tree edges left
                forest.set_vertex_mark(x, False)
                continue
            for y in neighbours:
                self._remove_nontree(level, x, y)
                if forest.tree_root_node(y) is big_root:
                    return canonical_edge(x, y)
                self._edge_level[canonical_edge(x, y)] = level + 1
                self._add_nontree(level + 1, x, y)

    def _attach_replacement(self, level: int, x: Vertex, y: Vertex) -> None:
        """Turn non-tree edge ``(x, y)`` into a tree edge of ``level`` in ``F_0 … F_level``."""
        key = canonical_edge(x, y)
        self._edge_level[key] = level
        self._is_tree[key] = True
        for j in range(level + 1):
            forest = self._forests[j]
            forest.add_vertex(x)
            forest.add_vertex(y)
            forest.link(x, y)
        self._forests[level].set_edge_mark(x, y, True)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def connected(self, u: Vertex, v: Vertex) -> bool:
        if u not in self._degree or v not in self._degree:
            return False
        return self._forests[0].connected(u, v)

    def component_id(self, u: Vertex) -> int:
        # FindCcID: the treap root of u's level-0 tour, reached in one loop
        # over the parent pointers rather than through the forest's methods
        node = self._forests[0]._vertex_nodes[u]
        while node.parent is not None:
            node = node.parent
        return id(node)

    def component_size(self, u: Vertex) -> int:
        return self._forests[0].tree_size(u)

    def num_vertices(self) -> int:
        return len(self._degree)

    def num_edges(self) -> int:
        return len(self._edge_level)

    def vertices(self) -> List[Vertex]:
        return list(self._degree)

    def memory_elements(self) -> Dict[str, int]:
        """Element counts for the Table 1 memory model."""
        tour_nodes = sum(f.num_vertices() + 2 * f.num_tree_edges() for f in self._forests)
        nontree_entries = sum(
            len(nbrs) for adj in self._nontree_adj for nbrs in adj.values()
        )
        return {"cc_node": tour_nodes + nontree_entries}
