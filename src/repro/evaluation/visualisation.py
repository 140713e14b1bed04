"""Cluster-layout statistics — the substitution for the Gephi figures (4–6).

The paper's visualisations support one claim: with the chosen ε the top-20
clusters have intra-cluster edge density far above the inter-cluster
density, i.e. the clustering is "natural to human sensibility".  This module
computes exactly those statistics (per-cluster size, intra-density,
inter-density, and how the cluster count/size distribution reacts to ε), and
:func:`repro.graph.io.save_graphml` exports a coloured graph a user can load
into Gephi to reproduce the pictures themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.result import Clustering
from repro.graph.dynamic_graph import DynamicGraph, Vertex


@dataclass
class ClusterSummary:
    """Size and density statistics of one cluster."""

    index: int
    size: int
    intra_edges: int
    boundary_edges: int

    @property
    def intra_density(self) -> float:
        """Fraction of the cluster's possible internal edges that are present."""
        possible = self.size * (self.size - 1) / 2
        return self.intra_edges / possible if possible else 0.0

    @property
    def conductance_like(self) -> float:
        """Boundary edges per member — low values mean well-separated clusters."""
        return self.boundary_edges / self.size if self.size else 0.0


def top_k_cluster_summary(
    graph: DynamicGraph, clustering: Clustering, k: int = 20
) -> List[ClusterSummary]:
    """Summaries of the top-k largest clusters (by member count)."""
    summaries: List[ClusterSummary] = []
    for index, cluster in enumerate(clustering.top_k(k)):
        members = set(cluster)
        intra = 0
        boundary = 0
        for v in members:
            for w in graph.neighbours(v):
                if w in members:
                    intra += 1
                else:
                    boundary += 1
        summaries.append(
            ClusterSummary(
                index=index,
                size=len(members),
                intra_edges=intra // 2,
                boundary_edges=boundary,
            )
        )
    return summaries


def cluster_density_report(
    graph: DynamicGraph, clustering: Clustering, k: int = 20
) -> Dict[str, float]:
    """Aggregate statistics supporting the figures' density claim."""
    summaries = top_k_cluster_summary(graph, clustering, k)
    if not summaries:
        return {
            "clusters": 0,
            "avg_size": 0.0,
            "avg_intra_density": 0.0,
            "avg_boundary_per_member": 0.0,
        }
    return {
        "clusters": len(summaries),
        "avg_size": sum(s.size for s in summaries) / len(summaries),
        "avg_intra_density": sum(s.intra_density for s in summaries) / len(summaries),
        "avg_boundary_per_member": sum(s.conductance_like for s in summaries) / len(summaries),
    }


def hub_assignment_colouring(
    clustering: Clustering, graph: DynamicGraph
) -> Dict[Vertex, int]:
    """Single-cluster colouring used when exporting the figures' layouts.

    Following the paper, a hub is assigned to the cluster that contains its
    smallest similar core neighbour; here we approximate that rule with the
    smallest-index cluster containing the vertex, which is equivalent for the
    purpose of producing a deterministic colouring.  Noise vertices are
    omitted (the paper omits them from the figures as well).
    """
    colouring: Dict[Vertex, int] = {}
    for index, cluster in enumerate(
        sorted(clustering.clusters, key=lambda c: (-len(c), tuple(sorted(map(repr, c)))))
    ):
        for v in cluster:
            colouring.setdefault(v, index)
    return colouring


def epsilon_sweep_summaries(
    graph: DynamicGraph,
    clusterings: Dict[float, Clustering],
    k: int = 20,
) -> List[Dict[str, float]]:
    """Rows of the Figure 5 reproduction: how the top-k clusters react to ε."""
    rows: List[Dict[str, float]] = []
    for epsilon in sorted(clusterings):
        clustering = clusterings[epsilon]
        report = cluster_density_report(graph, clustering, k)
        rows.append(
            {
                "epsilon": epsilon,
                "num_clusters": clustering.num_clusters,
                "num_cores": len(clustering.cores),
                "num_noise": len(clustering.noise),
                "top_k_avg_size": report["avg_size"],
                "top_k_intra_density": report["avg_intra_density"],
            }
        )
    return rows
