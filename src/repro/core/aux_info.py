"""vAuxInfo — per-vertex auxiliary information maintained by DynStrClu.

For every vertex ``u`` the paper maintains (Section 7):

* ``SimCnt(u)`` — the number of similar neighbours of ``u`` (which decides
  the core status against ``μ``), and
* a partition of ``u``'s neighbours into *sim-core*, *sim-non-core* and
  *dissimilar* neighbours.

Here the two similar categories are stored as explicit sets (dissimilar
neighbours are implicit: adjacent but in neither set), so that

* ``SimCnt`` is the sum of the two set sizes (O(1) to read),
* moving a neighbour between categories is O(1), and
* a non-core vertex can enumerate its sim-core neighbours directly, which is
  what the cluster-group-by query needs, and a core its sim-non-core
  neighbours, which is all the clustering retrieval reads.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Set

Vertex = Hashable

#: what a read returns for a vertex without neighbours in a category
_EMPTY: AbstractSet[Vertex] = frozenset()


class VertexAuxInfo:
    """SimCnt counters and similar-neighbour categories for every vertex."""

    def __init__(self) -> None:
        self._sim_core: Dict[Vertex, Set[Vertex]] = {}
        self._sim_noncore: Dict[Vertex, Set[Vertex]] = {}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def sim_count(self, u: Vertex) -> int:
        """``SimCnt(u)``: the number of similar neighbours of ``u``."""
        return len(self._sim_core.get(u, ())) + len(self._sim_noncore.get(u, ()))

    def similar_neighbours(self, u: Vertex) -> Set[Vertex]:
        """All similar neighbours of ``u`` (a fresh set)."""
        out = set(self._sim_core.get(u, ()))
        out.update(self._sim_noncore.get(u, ()))
        return out

    def sim_core_neighbours(self, u: Vertex) -> AbstractSet[Vertex]:
        """Similar neighbours of ``u`` that are currently core (live set; do not mutate)."""
        return self._sim_core.get(u, _EMPTY)

    def sim_noncore_neighbours(self, u: Vertex) -> AbstractSet[Vertex]:
        """Similar neighbours of ``u`` that are currently non-core (live set; do not mutate)."""
        return self._sim_noncore.get(u, _EMPTY)

    def is_similar_neighbour(self, u: Vertex, v: Vertex) -> bool:
        """True when ``v`` is recorded as a similar neighbour of ``u``."""
        return v in self._sim_core.get(u, ()) or v in self._sim_noncore.get(u, ())

    def vertices(self) -> Set[Vertex]:
        """Every vertex that currently has at least one similar neighbour."""
        out = {v for v, s in self._sim_core.items() if s}
        out.update(v for v, s in self._sim_noncore.items() if s)
        return out

    def num_entries(self) -> int:
        """Total number of (vertex, similar-neighbour) entries (memory accounting)."""
        return sum(len(s) for s in self._sim_core.values()) + sum(
            len(s) for s in self._sim_noncore.values()
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add_similar(self, u: Vertex, v: Vertex, v_is_core: bool) -> None:
        """Record ``v`` as a similar neighbour of ``u`` in the right category."""
        target = self._sim_core if v_is_core else self._sim_noncore
        target.setdefault(u, set()).add(v)

    def remove_similar(self, u: Vertex, v: Vertex) -> None:
        """Forget ``v`` as a similar neighbour of ``u`` (whatever its category)."""
        bucket = self._sim_core.get(u)
        if bucket is not None:
            bucket.discard(v)
        bucket = self._sim_noncore.get(u)
        if bucket is not None:
            bucket.discard(v)

    def set_neighbour_core_status(self, u: Vertex, v: Vertex, v_is_core: bool) -> None:
        """Move ``v`` between ``u``'s sim-core / sim-non-core categories."""
        if not self.is_similar_neighbour(u, v):
            return
        self.remove_similar(u, v)
        self.add_similar(u, v, v_is_core)

    def update_similar_edge(self, u: Vertex, v: Vertex, u_is_core: bool, v_is_core: bool) -> None:
        """Record the similar edge ``(u, v)`` in both endpoints' categories."""
        self.add_similar(u, v, v_is_core)
        self.add_similar(v, u, u_is_core)

    def remove_similar_edge(self, u: Vertex, v: Vertex) -> None:
        """Forget the similar edge ``(u, v)`` on both endpoints."""
        self.remove_similar(u, v)
        self.remove_similar(v, u)
