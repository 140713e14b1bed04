"""StrCluResult types and the O(n + m) retrieval of Fact 1.

Given a core threshold ``μ`` and an edge labelling ``L(G)`` the StrCluResult
is uniquely determined (Fact 1): core vertices are those with at least ``μ``
similar neighbours, the sim-core graph ``G_core`` consists of the similar
edges between two cores, and each StrClu cluster is a connected component of
``G_core`` together with every vertex similar to some core of that
component.  Non-core vertices belonging to two or more clusters are *hubs*;
non-core vertices belonging to none are *noise*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet, Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.connectivity.union_find import UnionFind
from repro.core.labelling import EdgeLabel
from repro.graph.dynamic_graph import DynamicGraph, Vertex, canonical_edge

Edge = Tuple[Vertex, Vertex]

#: :func:`group_by_clusters` intersects clusters instead of looking up query
#: vertices once ``|Q| >= CLUSTER_SCAN_RATIO * #clusters``.  Chosen from the
#: crossover of the two paths (CPython 3.11, 2-vCPU host), per-vertex
#: against per-cluster µs per query:
#:
#: * full-captured ``google`` view (n = 640, 20 clusters): |Q| = 8: 2.7 vs
#:   8.6; 32: 9.4 vs 13.3; 40: 11.4 vs 14.8; 64: 17.7 vs 18.0; 128: 35 vs
#:   21; 640: 168 vs 33 — crossover near 3 · #clusters;
#: * 500 disjoint triangles (n = 1500, 500 clusters): |Q| = 250: 72 vs 122;
#:   500: 139 vs 142; 1000: 280 vs 157 — crossover near 1 · #clusters.
#:
#: 2 loses at most a few µs on the first and keeps 32-vertex queries on 20
#: clusters on the per-vertex path.
CLUSTER_SCAN_RATIO = 2


def _vertex_sort_key(v: Vertex) -> Tuple[int, object]:
    """Deterministic total order over vertex ids ("smallest identifier" in the paper)."""
    if isinstance(v, int):
        return (0, v)
    return (1, repr(v))


@dataclass
class Clustering:
    """A complete StrCluResult: clusters plus vertex roles.

    Attributes
    ----------
    clusters:
        List of clusters; each cluster is a set of vertices.  Clusters may
        overlap (hubs belong to several).
    cores:
        The set of core vertices.
    hubs:
        Non-core vertices assigned to at least two clusters.
    noise:
        Non-core vertices assigned to no cluster.
    """

    clusters: List[Set[Vertex]] = field(default_factory=list)
    cores: Set[Vertex] = field(default_factory=set)
    hubs: Set[Vertex] = field(default_factory=set)
    noise: Set[Vertex] = field(default_factory=set)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    def membership(self) -> Dict[Vertex, Tuple[int, ...]]:
        """Map each clustered vertex to the ascending indices of its clusters.

        One pass over the clusters: every vertex of a single cluster maps to
        that cluster's one shared ``(index,)``; only hubs get a tuple of
        their own.
        """
        out: Dict[Vertex, Tuple[int, ...]] = {}
        for idx, cluster in enumerate(self.clusters):
            single = (idx,)
            for v in cluster:
                prior = out.get(v)
                out[v] = single if prior is None else prior + single
        return out

    def cluster_of_core(self, core: Vertex) -> Optional[int]:
        """Index of the (unique) cluster containing a core vertex, or None."""
        for idx, cluster in enumerate(self.clusters):
            if core in cluster:
                return idx
        return None

    def top_k(self, k: int) -> List[Set[Vertex]]:
        """The ``k`` largest clusters by size (ties broken deterministically)."""
        ranked = sorted(
            self.clusters, key=lambda c: (-len(c), tuple(sorted(map(repr, c))))
        )
        return ranked[:k]

    def as_frozen(self) -> FrozenSet[FrozenSet[Vertex]]:
        """A hashable, order-insensitive view used by equality assertions in tests."""
        return frozenset(frozenset(c) for c in self.clusters)

    def partition_assignment(
        self, graph: DynamicGraph, labels: Mapping[Edge, EdgeLabel]
    ) -> Dict[Vertex, int]:
        """Disjoint cluster assignment used by the ARI computation (Section 9.2).

        Each core belongs to exactly one cluster.  Each non-core clustered
        vertex is assigned only to the cluster containing its "smallest"
        similar core neighbour (smallest by identifier representation, as in
        the paper).  Noise vertices are omitted.
        """
        core_cluster: Dict[Vertex, int] = {}
        for idx, cluster in enumerate(self.clusters):
            for v in cluster:
                if v in self.cores:
                    core_cluster[v] = idx
        assignment: Dict[Vertex, int] = dict(core_cluster)
        clustered = set().union(*self.clusters) if self.clusters else set()
        for v in clustered:
            if v in self.cores:
                continue
            similar_cores = [
                w
                for w in graph.neighbours(v)
                if w in self.cores
                and labels.get(canonical_edge(v, w)) is EdgeLabel.SIMILAR
            ]
            if not similar_cores:
                continue
            smallest = min(similar_cores, key=_vertex_sort_key)
            assignment[v] = core_cluster[smallest]
        return assignment

    def summary(self) -> Dict[str, int]:
        """Small dictionary of headline statistics (used in reports and examples)."""
        return {
            "clusters": self.num_clusters,
            "cores": len(self.cores),
            "hubs": len(self.hubs),
            "noise": len(self.noise),
            "largest_cluster": max((len(c) for c in self.clusters), default=0),
        }


@dataclass(frozen=True)
class ViewDelta:
    """What one backend reports about a batch of updates, for view patching.

    The paper's cost argument is that an update perturbs only a small *flip
    set* of vertices.  A backend that tracks that set reports it here so the
    service layer can patch its published membership view instead of
    re-deriving it from scratch; a backend that cannot raises the
    ``full_rebuild`` flag and the view falls back to a full capture.

    Attributes
    ----------
    full_rebuild:
        True when the backend cannot (or chose not to) track the flip set
        for the drained window; ``flips`` is meaningless in that case.
    flips:
        Every vertex whose core status or cluster membership may have
        changed since the previous drain.  The set must be a *superset* of
        the truly changed vertices — over-reporting costs patch time,
        under-reporting would corrupt the view (the patcher re-checks the
        closure invariant and falls back to a full capture if violated).
    """

    full_rebuild: bool
    flips: FrozenSet = frozenset()

    @classmethod
    def full(cls) -> "ViewDelta":
        """The fallback delta: the whole clustering must be re-derived."""
        return cls(full_rebuild=True)

    @classmethod
    def of(cls, flips: Iterable[Vertex]) -> "ViewDelta":
        """A tracked delta covering exactly ``flips``."""
        return cls(full_rebuild=False, flips=frozenset(flips))


def clustering_from_membership(
    membership: Mapping[Vertex, Iterable[int]],
    cores: Set[Vertex],
    hubs: Set[Vertex],
    noise: Set[Vertex],
) -> Clustering:
    """Rebuild a :class:`Clustering` from a vertex→cluster-keys map.

    The inverse of :meth:`Clustering.membership`, used by the incremental
    views to materialise a full result object on demand.  Cluster keys are
    opaque; the rebuilt ``clusters`` list orders them by sorted key so the
    reconstruction is deterministic.
    """
    by_key: Dict[int, Set[Vertex]] = {}
    for v, keys in membership.items():
        for key in keys:
            by_key.setdefault(key, set()).add(v)
    clusters = [by_key[key] for key in sorted(by_key)]
    return Clustering(
        clusters=clusters, cores=set(cores), hubs=set(hubs), noise=set(noise)
    )


@dataclass
class GroupByResult:
    """Result of a cluster-group-by query (Definition 3.2).

    ``groups`` maps an opaque cluster identifier to the non-empty
    intersection of the query set with that cluster.
    """

    groups: Dict[int, Set[Vertex]] = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def as_sets(self) -> List[Set[Vertex]]:
        """The groups as a list of sets (identifier-free view)."""
        return list(self.groups.values())

    def group_of(self, v: Vertex) -> List[int]:
        """Identifiers of every group containing ``v`` (hubs may be in several)."""
        return [gid for gid, members in self.groups.items() if v in members]


def group_by_membership(
    membership: Mapping[Vertex, Iterable[int]], query: Iterable[Vertex]
) -> GroupByResult:
    """Cluster-group-by derived from a vertex→cluster-indices map.

    The grouping semantics, one lookup per query vertex: vertices absent
    from every cluster are omitted, hubs land in each of their groups.
    :func:`group_by_clusters` takes this path for small queries.
    """
    groups: Dict[int, Set[Vertex]] = {}
    for u in query:
        for idx in membership.get(u, ()):
            groups.setdefault(idx, set()).add(u)
    return GroupByResult(groups=groups)


def group_by_clusters(
    clusters: Mapping[int, AbstractSet[Vertex]],
    query: Iterable[Vertex],
    membership: Optional[Mapping[Vertex, Iterable[int]]] = None,
) -> GroupByResult:
    """Cluster-group-by over a materialised clustering, by the cheaper path.

    ``clusters`` maps a cluster key to its member set and ``membership`` is
    its inverse (vertex → keys), when the caller holds one.  Two paths give
    identical groups:

    * per vertex (:func:`group_by_membership`): O(|Q|) Python steps;
    * per cluster: ``wanted = set(Q)`` once (a ``set`` query is used as it
      is), then every non-empty ``members & wanted`` is a group — O(#clusters)
      Python steps plus Σ_C min(|C|, |Q|) C-level probes.

    The per-cluster path runs once ``|Q| >= CLUSTER_SCAN_RATIO · #clusters``,
    and always without a ``membership``.  Either way hubs land in each of
    their clusters and noise, unknown and duplicate vertices add nothing.
    """
    if membership is not None:
        if not isinstance(query, (list, tuple, set, frozenset)):
            query = list(query)
        if len(query) < CLUSTER_SCAN_RATIO * len(clusters):
            return group_by_membership(membership, query)
    wanted = query if type(query) is set else set(query)
    groups: Dict[int, Set[Vertex]] = {}
    for key, members in clusters.items():
        hit = wanted & members
        if hit:
            groups[key] = hit
    return GroupByResult(groups=groups)


def similar_neighbour_counts(
    graph: DynamicGraph, labels: Mapping[Edge, EdgeLabel]
) -> Dict[Vertex, int]:
    """SimCnt for every vertex: the number of similar edges incident on it."""
    counts: Dict[Vertex, int] = {v: 0 for v in graph.vertices()}
    for (u, v), label in labels.items():
        if label is EdgeLabel.SIMILAR and graph.has_edge(u, v):
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
    return counts


def compute_clusters(
    graph: DynamicGraph,
    labels: Mapping[Edge, EdgeLabel],
    mu: int,
) -> Clustering:
    """Fact 1: compute the unique StrCluResult of a labelling in O(n + m).

    Parameters
    ----------
    graph:
        The current graph.
    labels:
        An edge labelling covering every edge of ``graph`` (canonical keys).
    mu:
        The core threshold.
    """
    similar: Dict[Vertex, Set[Vertex]] = {}
    for (u, v), label in labels.items():
        if label is EdgeLabel.SIMILAR and graph.has_edge(u, v):
            similar.setdefault(u, set()).add(v)
            similar.setdefault(v, set()).add(u)
    return clustering_from_similar(similar, graph.vertices(), mu)


def clustering_from_similar(
    similar: Mapping[Vertex, Collection[Vertex]],
    vertices: Iterable[Vertex],
    mu: int,
) -> Clustering:
    """Fact 1 over a similar-neighbour map: the StrCluResult in O(n + m).

    ``similar`` maps a vertex to its similar neighbours (symmetric; a vertex
    with none may be absent) and ``vertices`` is the whole vertex set, the
    source of the noise.  The cores are the vertices with at least ``mu``
    similar neighbours; each cluster is a connected component of the
    sim-core graph plus every vertex similar to one of its cores.
    """
    cores = {v for v, neighbours in similar.items() if len(neighbours) >= mu}
    uf = UnionFind(cores)
    for core in cores:
        for v in similar[core]:
            if v in cores:
                uf.union(core, v)

    cluster_index: Dict[Vertex, int] = {}
    clusters: List[Set[Vertex]] = []
    assignments: Dict[Vertex, Set[int]] = {}
    for core in cores:
        root = uf.find(core)
        idx = cluster_index.get(root)
        if idx is None:
            idx = cluster_index[root] = len(clusters)
            clusters.append(set())
        cluster = clusters[idx]
        cluster.add(core)
        for v in similar[core]:
            cluster.add(v)
            if v not in cores:
                assignments.setdefault(v, set()).add(idx)

    hubs = set()
    noise = set()
    for v in vertices:
        if v in cores:
            continue
        assigned = assignments.get(v, ())
        if len(assigned) >= 2:
            hubs.add(v)
        elif not assigned:
            noise.add(v)
    return Clustering(clusters=clusters, cores=cores, hubs=hubs, noise=noise)


def clusterings_equal(a: Clustering, b: Clustering) -> bool:
    """True when two clusterings have identical clusters, cores, hubs and noise."""
    return (
        a.as_frozen() == b.as_frozen()
        and a.cores == b.cores
        and a.hubs == b.hubs
        and a.noise == b.noise
    )
