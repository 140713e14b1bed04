"""Exact structural similarities between adjacent vertices.

The paper (Section 2.1 and Section 8) defines two structural similarities
on the closed neighbourhoods ``N[u]`` and ``N[v]`` of the endpoints of an
edge:

* **Jaccard similarity**  ``|N[u] ∩ N[v]| / |N[u] ∪ N[v]|``
* **Cosine similarity**   ``|N[u] ∩ N[v]| / sqrt(d[u] * d[v])``

For non-adjacent pairs both similarities are defined to be 0.  These exact
functions are used by the static SCAN baseline, the exact dynamic baselines
(pSCAN/hSCAN analogues) and by the evaluation module when comparing
approximate against exact clusterings.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import AbstractSet, Tuple

from repro.graph.dynamic_graph import DynamicGraph, Vertex


class SimilarityKind(str, Enum):
    """Which structural similarity an algorithm instance uses."""

    JACCARD = "jaccard"
    COSINE = "cosine"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def intersection_union_sizes(graph: DynamicGraph, u: Vertex, v: Vertex) -> Tuple[int, int]:
    """Return ``(a, b) = (|N[u] ∩ N[v]|, |N[u] ∪ N[v]|)`` for vertices of ``graph``.

    Works for adjacent and non-adjacent pairs; the caller decides whether a
    non-adjacent pair should be treated as similarity 0 (the paper's
    convention).
    """
    a = graph.common_closed_neighbours(u, v)
    return a, graph.degree(u) + graph.degree(v) + 2 - a


def jaccard_similarity(graph: DynamicGraph, u: Vertex, v: Vertex) -> float:
    """Exact Jaccard structural similarity ``σ(u, v)``.

    Returns 0.0 when ``(u, v)`` is not an edge of ``graph`` (the paper's
    convention for non-adjacent pairs).
    """
    if not graph.has_edge(u, v):
        return 0.0
    a, b = intersection_union_sizes(graph, u, v)
    return a / b if b else 0.0


def cosine_similarity(graph: DynamicGraph, u: Vertex, v: Vertex) -> float:
    """Exact cosine structural similarity ``σ_c(u, v)``.

    Returns 0.0 when ``(u, v)`` is not an edge of ``graph``.

    Note on the denominator: the paper writes ``sqrt(d[u] · d[v])`` with the
    *open* degrees, which for low-degree vertices exceeds 1 and contradicts
    both ``ε ∈ (0, 1]`` and the original SCAN definition it cites (Xu et al.,
    2007, which normalises by the closed neighbourhood sizes).  We follow the
    SCAN definition — ``|N[u] ∩ N[v]| / sqrt(|N[u]| · |N[v]|)`` — so the
    similarity is always in ``[0, 1]``.  This docstring is the record of
    the deviation; every other cosine formula in this library (estimator,
    affordability thresholds) consistently uses the closed sizes.
    """
    if not graph.has_edge(u, v):
        return 0.0
    a = graph.common_closed_neighbours(u, v)
    size_u = graph.degree(u) + 1
    size_v = graph.degree(v) + 1
    denom = math.sqrt(size_u * size_v)
    return a / denom if denom else 0.0


def structural_similarity(
    graph: DynamicGraph,
    u: Vertex,
    v: Vertex,
    kind: SimilarityKind = SimilarityKind.JACCARD,
) -> float:
    """Dispatch to the exact similarity of the requested ``kind``."""
    if kind is SimilarityKind.JACCARD:
        return jaccard_similarity(graph, u, v)
    if kind is SimilarityKind.COSINE:
        return cosine_similarity(graph, u, v)
    raise ValueError(f"unknown similarity kind: {kind!r}")


def pair_similarity(
    closed_u: AbstractSet[Vertex],
    closed_v: AbstractSet[Vertex],
    kind: SimilarityKind = SimilarityKind.JACCARD,
) -> float:
    """The same similarities, computed from two *closed* neighbourhoods.

    The set-based form of :func:`structural_similarity` for callers that
    hold ``N[u]`` / ``N[v]`` without a graph object — the sharded read
    path resolves boundary-edge similarities from the owner shards'
    exported neighbourhoods this way.  Kept in this module so the two
    forms cannot silently diverge (the cosine denominator follows the
    same closed-size convention documented on :func:`cosine_similarity`;
    the property suite pins agreement with the graph-based functions).
    The adjacency-of-the-pair convention is the caller's: this function
    does not check ``has_edge``.
    """
    inter = len(closed_u & closed_v)
    if kind is SimilarityKind.JACCARD:
        union = len(closed_u) + len(closed_v) - inter
        return inter / union if union else 0.0
    if kind is SimilarityKind.COSINE:
        denom = math.sqrt(len(closed_u) * len(closed_v))
        return inter / denom if denom else 0.0
    raise ValueError(f"unknown similarity kind: {kind!r}")
