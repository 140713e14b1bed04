"""Euler-tour trees over randomized treaps.

An Euler-tour tree (ETT) represents each tree of a dynamic forest as the
Euler tour of that tree stored in a balanced binary search tree (here a
treap keyed by position).  ``link``/``cut``/``reroot``/``find_root`` all run
in ``O(log n)`` expected time, which is what both the simple dynamic
connectivity backend (:class:`EulerTourConnectivity`) and the HDT structure
(:mod:`repro.connectivity.hdt`) are built on.

The tour of a tree rooted at ``r`` contains one *vertex node* per vertex and
two *edge nodes* per tree edge — ``(u, v)`` and ``(v, u)`` — arranged
recursively as ``r, (r, c1), tour(c1), (c1, r), (r, c2), ...``.  Any rotation
of a valid tour is a valid tour of the same tree rooted at the rotated-to
vertex, which makes ``reroot`` a split + swap.

For the HDT structure, ETT nodes additionally carry two boolean marks with
subtree counts:

* ``mark_vertex`` on vertex nodes — "this vertex has non-tree edges at this
  level", and
* ``mark_edge`` on edge nodes — "this tree edge's level equals this forest's
  level",

so that a marked node inside a given tree can be located in ``O(log n)``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.connectivity.base import ConnectivityStructure, Vertex
from repro.graph.dynamic_graph import canonical_edge

Edge = Tuple[Vertex, Vertex]


class _Node:
    """One treap node of an Euler tour (either a vertex visit or a directed edge)."""

    __slots__ = (
        "prio",
        "left",
        "right",
        "parent",
        "size",
        "vcount",
        "u",
        "v",
        "is_vertex",
        "mark_vertex",
        "mark_edge",
        "mv_count",
        "me_count",
    )

    def __init__(self, u: Vertex, v: Vertex, prio: float) -> None:
        self.prio = prio
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None
        self.u = u
        self.v = v
        self.is_vertex = u == v
        self.mark_vertex = False
        self.mark_edge = False
        self.size = 1
        self.vcount = 1 if self.is_vertex else 0
        self.mv_count = 0
        self.me_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "V" if self.is_vertex else "E"
        return f"<{kind} {self.u}->{self.v}>"


def _pull(node: _Node) -> None:
    """Recompute the subtree aggregates of ``node`` from its children."""
    size = 1
    vcount = 1 if node.is_vertex else 0
    mv = 1 if node.mark_vertex else 0
    me = 1 if node.mark_edge else 0
    left, right = node.left, node.right
    if left is not None:
        size += left.size
        vcount += left.vcount
        mv += left.mv_count
        me += left.me_count
    if right is not None:
        size += right.size
        vcount += right.vcount
        mv += right.mv_count
        me += right.me_count
    node.size = size
    node.vcount = vcount
    node.mv_count = mv
    node.me_count = me


def _merge(a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
    """Concatenate two tours (treap merge by priority)."""
    if a is None:
        return b
    if b is None:
        return a
    if a.prio < b.prio:
        merged = _merge(a.right, b)
        a.right = merged
        if merged is not None:
            merged.parent = a
        _pull(a)
        a.parent = None
        return a
    merged = _merge(a, b.left)
    b.left = merged
    if merged is not None:
        merged.parent = b
    _pull(b)
    b.parent = None
    return b


def _split(node: Optional[_Node], k: int) -> Tuple[Optional[_Node], Optional[_Node]]:
    """Split a tour into its first ``k`` nodes and the rest."""
    if node is None:
        return None, None
    left_size = node.left.size if node.left is not None else 0
    if k <= left_size:
        a, b = _split(node.left, k)
        node.left = b
        if b is not None:
            b.parent = node
        _pull(node)
        node.parent = None
        if a is not None:
            a.parent = None
        return a, node
    a, b = _split(node.right, k - left_size - 1)
    node.right = a
    if a is not None:
        a.parent = node
    _pull(node)
    node.parent = None
    if b is not None:
        b.parent = None
    return node, b


def _root_of(node: _Node) -> _Node:
    while node.parent is not None:
        node = node.parent
    return node


def _order(node: _Node) -> int:
    """Number of tour nodes strictly before ``node``."""
    idx = node.left.size if node.left is not None else 0
    current = node
    while current.parent is not None:
        parent = current.parent
        if current is parent.right:
            idx += (parent.left.size if parent.left is not None else 0) + 1
        current = parent
    return idx


def _update_path(node: _Node) -> None:
    """Recompute aggregates on the path from ``node`` up to its tour root."""
    current: Optional[_Node] = node
    while current is not None:
        _pull(current)
        current = current.parent


class EulerTourForest:
    """A forest of Euler-tour trees with link/cut/reroot and mark search."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._vertex_nodes: Dict[Vertex, _Node] = {}
        self._edge_nodes: Dict[Edge, Tuple[_Node, _Node]] = {}

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def has_vertex(self, v: Vertex) -> bool:
        return v in self._vertex_nodes

    def add_vertex(self, v: Vertex) -> None:
        """Add ``v`` as an isolated one-node tour (no-op if present)."""
        if v in self._vertex_nodes:
            return
        self._vertex_nodes[v] = _Node(v, v, self._rng.random())

    def remove_vertex(self, v: Vertex) -> None:
        """Remove an isolated vertex ``v``."""
        node = self._vertex_nodes.get(v)
        if node is None:
            return
        if _root_of(node).size != 1:
            raise ValueError(f"vertex {v!r} is not isolated")
        del self._vertex_nodes[v]

    def num_vertices(self) -> int:
        return len(self._vertex_nodes)

    def num_tree_edges(self) -> int:
        return len(self._edge_nodes)

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertex_nodes)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def tree_root_node(self, v: Vertex) -> _Node:
        """Return the treap root of the tour containing ``v`` (component handle)."""
        node = self._vertex_nodes[v]
        while node.parent is not None:
            node = node.parent
        return node

    def component_id(self, v: Vertex) -> int:
        """An identifier of the tree containing ``v``, stable between updates."""
        node = self._vertex_nodes[v]
        while node.parent is not None:
            node = node.parent
        return id(node)

    def connected(self, u: Vertex, v: Vertex) -> bool:
        """Return True when ``u`` and ``v`` are in the same tree."""
        if u not in self._vertex_nodes or v not in self._vertex_nodes:
            return False
        return self.tree_root_node(u) is self.tree_root_node(v)

    def tree_size(self, v: Vertex) -> int:
        """Number of vertices in the tree containing ``v``."""
        return self.tree_root_node(v).vcount

    def has_tree_edge(self, u: Vertex, v: Vertex) -> bool:
        return canonical_edge(u, v) in self._edge_nodes

    def tree_vertices(self, v: Vertex) -> List[Vertex]:
        """Return all vertices of the tree containing ``v`` (linear in tree size)."""
        out: List[Vertex] = []
        stack = [self.tree_root_node(v)]
        while stack:
            node = stack.pop()
            if node.is_vertex:
                out.append(node.u)
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return out

    # ------------------------------------------------------------------
    # reroot / link / cut
    # ------------------------------------------------------------------
    def _reroot(self, v: Vertex) -> _Node:
        """Rotate the tour of ``v``'s tree so that it starts at ``v``; return its root."""
        node = self._vertex_nodes[v]
        root = _root_of(node)
        k = _order(node)
        if k == 0:
            return root
        prefix, suffix = _split(root, k)
        merged = _merge(suffix, prefix)
        assert merged is not None
        return merged

    def link(self, u: Vertex, v: Vertex) -> None:
        """Add tree edge ``(u, v)``; ``u`` and ``v`` must be in different trees."""
        key = canonical_edge(u, v)
        if key in self._edge_nodes:
            raise ValueError(f"tree edge {key!r} already exists")
        self.add_vertex(u)
        self.add_vertex(v)
        if self.connected(u, v):
            raise ValueError(f"cannot link {u!r} and {v!r}: already connected")
        tour_u = self._reroot(u)
        tour_v = self._reroot(v)
        e_uv = _Node(u, v, self._rng.random())
        e_vu = _Node(v, u, self._rng.random())
        self._edge_nodes[key] = (e_uv, e_vu)
        _merge(_merge(tour_u, e_uv), _merge(tour_v, e_vu))

    def cut(self, u: Vertex, v: Vertex) -> None:
        """Remove tree edge ``(u, v)``, splitting its tree into two."""
        key = canonical_edge(u, v)
        pair = self._edge_nodes.pop(key, None)
        if pair is None:
            raise ValueError(f"tree edge {key!r} does not exist")
        e1, e2 = pair
        root = _root_of(e1)
        o1, o2 = _order(e1), _order(e2)
        if o1 > o2:
            e1, e2 = e2, e1
            o1, o2 = o2, o1
        prefix, rest = _split(root, o1)
        first_edge, rest = _split(rest, 1)
        middle, rest = _split(rest, o2 - o1 - 1)
        second_edge, tail = _split(rest, 1)
        assert first_edge is e1 and second_edge is e2
        _merge(prefix, tail)
        # ``middle`` is already a standalone valid tour of the detached subtree

    # ------------------------------------------------------------------
    # HDT mark support
    # ------------------------------------------------------------------
    def set_vertex_mark(self, v: Vertex, flag: bool) -> None:
        """Mark/unmark vertex ``v`` ("has non-tree edges at this level")."""
        node = self._vertex_nodes[v]
        if node.mark_vertex == flag:
            return
        node.mark_vertex = flag
        _update_path(node)

    def vertex_mark(self, v: Vertex) -> bool:
        return self._vertex_nodes[v].mark_vertex

    def set_edge_mark(self, u: Vertex, v: Vertex, flag: bool) -> None:
        """Mark/unmark tree edge ``(u, v)`` ("level of this edge equals this forest's level")."""
        pair = self._edge_nodes.get(canonical_edge(u, v))
        if pair is None:
            raise ValueError(f"tree edge ({u!r}, {v!r}) does not exist")
        node = pair[0]
        if node.mark_edge == flag:
            return
        node.mark_edge = flag
        _update_path(node)

    def find_marked_vertex(self, v: Vertex) -> Optional[Vertex]:
        """Return some marked vertex in the tree containing ``v`` (or None)."""
        node: Optional[_Node] = self.tree_root_node(v)
        if node is None or node.mv_count == 0:
            return None
        while node is not None:
            if node.left is not None and node.left.mv_count > 0:
                node = node.left
                continue
            if node.mark_vertex:
                return node.u
            node = node.right
        return None  # pragma: no cover - unreachable when mv_count > 0

    def find_marked_edge(self, v: Vertex) -> Optional[Edge]:
        """Return some marked tree edge in the tree containing ``v`` (or None)."""
        node: Optional[_Node] = self.tree_root_node(v)
        if node is None or node.me_count == 0:
            return None
        while node is not None:
            if node.left is not None and node.left.me_count > 0:
                node = node.left
                continue
            if node.mark_edge:
                return canonical_edge(node.u, node.v)
            node = node.right
        return None  # pragma: no cover - unreachable when me_count > 0

    # ------------------------------------------------------------------
    def check_invariant(self) -> bool:
        """Validate aggregate fields and parent pointers (testing aid, O(n) per tree)."""
        checked_roots = set()
        for node in self._vertex_nodes.values():
            root = _root_of(node)
            if id(root) in checked_roots:
                continue
            checked_roots.add(id(root))
            if not self._check_subtree(root, None):
                return False
        return True

    def _check_subtree(self, node: Optional[_Node], parent: Optional[_Node]) -> bool:
        if node is None:
            return True
        if node.parent is not parent:
            return False
        expected_size = 1
        expected_vcount = 1 if node.is_vertex else 0
        expected_mv = 1 if node.mark_vertex else 0
        expected_me = 1 if node.mark_edge else 0
        for child in (node.left, node.right):
            if child is not None:
                if not self._check_subtree(child, node):
                    return False
                expected_size += child.size
                expected_vcount += child.vcount
                expected_mv += child.mv_count
                expected_me += child.me_count
        return (
            node.size == expected_size
            and node.vcount == expected_vcount
            and node.mv_count == expected_mv
            and node.me_count == expected_me
        )


class EulerTourConnectivity(ConnectivityStructure):
    """Dynamic connectivity: ETT spanning forest plus a replacement-edge scan.

    Insertions are ``O(log n)``; deleting a tree edge scans the non-tree
    edges incident to the smaller side for a replacement, which is linear in
    that side's size in the worst case but fast in practice.  The HDT backend
    removes that worst case; this class is the intermediate ablation point
    between union-find-rebuild and full HDT.
    """

    def __init__(self, seed: int = 0) -> None:
        self._forest = EulerTourForest(seed=seed)
        #: non-tree edges, per endpoint
        self._nontree_adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_nontree = 0

    # ------------------------------------------------------------------
    def add_vertex(self, u: Vertex) -> None:
        self._forest.add_vertex(u)
        self._nontree_adj.setdefault(u, set())

    def remove_vertex(self, u: Vertex) -> None:
        if not self._forest.has_vertex(u):
            return
        if self._nontree_adj.get(u):
            raise ValueError(f"vertex {u!r} is not isolated")
        self._forest.remove_vertex(u)
        self._nontree_adj.pop(u, None)

    def has_vertex(self, u: Vertex) -> bool:
        return self._forest.has_vertex(u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if self._forest.has_tree_edge(u, v):
            return True
        return u in self._nontree_adj and v in self._nontree_adj[u]

    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            raise ValueError("self loops are not supported")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) already exists")
        self.add_vertex(u)
        self.add_vertex(v)
        if not self._forest.connected(u, v):
            self._forest.link(u, v)
        else:
            self._nontree_adj[u].add(v)
            self._nontree_adj[v].add(u)
            self._num_nontree += 1

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        if u in self._nontree_adj and v in self._nontree_adj[u]:
            self._nontree_adj[u].discard(v)
            self._nontree_adj[v].discard(u)
            self._num_nontree -= 1
            return
        if not self._forest.has_tree_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) does not exist")
        self._forest.cut(u, v)
        self._find_replacement(u, v)

    def _find_replacement(self, u: Vertex, v: Vertex) -> None:
        """After cutting tree edge ``(u, v)``, reconnect via a non-tree edge if one exists."""
        small, other = u, v
        if self._forest.tree_size(u) > self._forest.tree_size(v):
            small, other = v, u
        other_root = self._forest.tree_root_node(other)
        for x in self._forest.tree_vertices(small):
            for y in list(self._nontree_adj.get(x, ())):
                if self._forest.tree_root_node(y) is other_root:
                    self._nontree_adj[x].discard(y)
                    self._nontree_adj[y].discard(x)
                    self._num_nontree -= 1
                    self._forest.link(x, y)
                    return

    # ------------------------------------------------------------------
    def connected(self, u: Vertex, v: Vertex) -> bool:
        return self._forest.connected(u, v)

    def component_id(self, u: Vertex) -> int:
        return self._forest.component_id(u)

    def component_size(self, u: Vertex) -> int:
        return self._forest.tree_size(u)

    def num_vertices(self) -> int:
        return self._forest.num_vertices()

    def num_edges(self) -> int:
        return self._forest.num_tree_edges() + self._num_nontree

    def vertices(self) -> List[Vertex]:
        return list(self._forest.vertices())
