"""Cluster-level statistics of a structural clustering result.

These are the descriptive statistics a user of the library computes right
after clustering: per-cluster density and conductance, overall coverage
(which fraction of the graph the clusters explain), the size distribution,
and the Newman–Girvan modularity of the induced disjoint partition.  They
back both the visualisation substitution for Figures 4–6 (dense inside,
sparse between) and the example applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core.labelling import EdgeLabel
from repro.core.result import Clustering
from repro.graph.dynamic_graph import DynamicGraph, Vertex

Edge = tuple


@dataclass(frozen=True)
class ClusterStatistics:
    """Statistics of a single cluster within its host graph.

    Attributes
    ----------
    size:
        Number of vertices in the cluster.
    internal_edges:
        Number of graph edges with both endpoints inside the cluster.
    boundary_edges:
        Number of graph edges with exactly one endpoint inside the cluster.
    cores:
        Number of core vertices inside the cluster.
    """

    size: int
    internal_edges: int
    boundary_edges: int
    cores: int

    @property
    def density(self) -> float:
        """Internal edge density: internal edges over the possible pairs."""
        if self.size < 2:
            return 0.0
        possible = self.size * (self.size - 1) / 2
        return self.internal_edges / possible

    @property
    def conductance(self) -> float:
        """Boundary edges over total incident edge endpoints (lower is better)."""
        volume = 2 * self.internal_edges + self.boundary_edges
        if volume == 0:
            return 0.0
        return self.boundary_edges / volume

    @property
    def average_internal_degree(self) -> float:
        """Average number of intra-cluster neighbours per member."""
        if self.size == 0:
            return 0.0
        return 2.0 * self.internal_edges / self.size

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for report tables."""
        return {
            "size": self.size,
            "internal_edges": self.internal_edges,
            "boundary_edges": self.boundary_edges,
            "cores": self.cores,
            "density": self.density,
            "conductance": self.conductance,
            "avg_internal_degree": self.average_internal_degree,
        }


def cluster_statistics(
    cluster: Set[Vertex], graph: DynamicGraph, cores: Optional[Set[Vertex]] = None
) -> ClusterStatistics:
    """Compute :class:`ClusterStatistics` for one cluster.

    Example
    -------
    >>> from repro.graph.dynamic_graph import DynamicGraph
    >>> g = DynamicGraph()
    >>> for e in [(1, 2), (2, 3), (1, 3), (3, 4)]:
    ...     g.insert_edge(*e)
    >>> stats = cluster_statistics({1, 2, 3}, g)
    >>> stats.internal_edges, stats.boundary_edges
    (3, 1)
    """
    members = set(cluster)
    internal = 0
    boundary = 0
    for v in members:
        if not graph.has_vertex(v):
            continue
        for w in graph.neighbours(v):
            if w in members:
                internal += 1
            else:
                boundary += 1
    internal //= 2  # every internal edge was counted from both endpoints
    core_count = len(members & cores) if cores is not None else 0
    return ClusterStatistics(
        size=len(members), internal_edges=internal, boundary_edges=boundary, cores=core_count
    )


def clustering_statistics(
    clustering: Clustering, graph: DynamicGraph
) -> List[ClusterStatistics]:
    """Per-cluster statistics for every cluster, in cluster-index order."""
    return [
        cluster_statistics(cluster, graph, cores=clustering.cores)
        for cluster in clustering.clusters
    ]


def clustering_coverage(clustering: Clustering, graph: DynamicGraph) -> float:
    """Fraction of graph vertices assigned to at least one cluster."""
    n = graph.num_vertices
    if n == 0:
        return 0.0
    clustered: Set[Vertex] = set()
    for cluster in clustering.clusters:
        clustered.update(cluster)
    clustered = {v for v in clustered if graph.has_vertex(v)}
    return len(clustered) / n


def size_distribution(clustering: Clustering) -> Dict[int, int]:
    """Histogram mapping cluster size to the number of clusters of that size."""
    histogram: Dict[int, int] = {}
    for cluster in clustering.clusters:
        histogram[len(cluster)] = histogram.get(len(cluster), 0) + 1
    return dict(sorted(histogram.items()))


def modularity(
    assignment: Mapping[Vertex, int], graph: DynamicGraph
) -> float:
    """Newman–Girvan modularity of a disjoint vertex assignment.

    ``assignment`` maps vertices to community identifiers; vertices missing
    from the mapping are ignored (they contribute neither intra-community
    edges nor degree mass, matching how noise is dropped from the ARI
    computation in Section 9.2).

    Example
    -------
    >>> from repro.graph.dynamic_graph import DynamicGraph
    >>> g = DynamicGraph()
    >>> for e in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
    ...     g.insert_edge(*e)
    >>> round(modularity({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}, g), 3)
    0.357
    """
    m = graph.num_edges
    if m == 0:
        return 0.0
    intra = 0
    for u, v in graph.edges():
        cu = assignment.get(u)
        cv = assignment.get(v)
        if cu is not None and cu == cv:
            intra += 1
    degree_sums: Dict[int, int] = {}
    for v, community in assignment.items():
        if graph.has_vertex(v):
            degree_sums[community] = degree_sums.get(community, 0) + graph.degree(v)
    expectation = sum(d * d for d in degree_sums.values()) / (4.0 * m * m)
    return intra / m - expectation


def labelling_similarity_histogram(
    labels: Mapping[Edge, EdgeLabel], bins: Sequence[str] = ("similar", "dissimilar")
) -> Dict[str, int]:
    """Count similar vs dissimilar edges in an edge labelling."""
    histogram = {name: 0 for name in bins}
    for label in labels.values():
        key = "similar" if label is EdgeLabel.SIMILAR else "dissimilar"
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def clusters_intersecting(
    clustering: Clustering, vertices: Set[Vertex]
) -> List[int]:
    """Indices of clusters with a non-empty intersection with ``vertices``.

    The offline analogue of a cluster-group-by query; used by tests to
    cross-check :meth:`repro.core.dynstrclu.DynStrClu.group_by`.
    """
    return [
        idx
        for idx, cluster in enumerate(clustering.clusters)
        if cluster & vertices
    ]


def boundary_edges_between(
    clustering: Clustering, graph: DynamicGraph
) -> Dict[tuple, int]:
    """Count graph edges between each pair of distinct clusters.

    Hubs belong to several clusters; an edge is attributed to a pair of
    clusters when its endpoints' cluster sets differ and intersect those
    clusters.  The result is keyed by ``(i, j)`` with ``i < j``.
    """
    membership = clustering.membership()
    counts: Dict[tuple, int] = {}
    for u, v in graph.edges():
        cu = set(membership.get(u, []))
        cv = set(membership.get(v, []))
        for i in cu:
            for j in cv:
                if i == j:
                    continue
                key = (min(i, j), max(i, j))
                counts[key] = counts.get(key, 0) + 1
    return counts
