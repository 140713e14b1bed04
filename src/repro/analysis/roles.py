"""Vertex role classification for structural clustering results.

Structural clustering assigns each vertex one of four roles (paper
Section 1):

* **core** — a vertex with at least μ similar neighbours; the seed of a
  cluster;
* **member** — a non-core vertex assigned to exactly one cluster;
* **hub** — a non-core vertex assigned to two or more clusters, bridging
  them;
* **outlier** (noise) — a non-core vertex assigned to no cluster.

The :class:`~repro.core.result.Clustering` object already records cores,
hubs and noise; this module turns that into a single per-vertex mapping and
a census, which is the form the downstream applications consume (e.g. the
blockchain fraud example flags the outliers, the community-detection
example reports the hubs).
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Collection, Dict, Iterable, Mapping, Optional

from repro.core.result import Clustering
from repro.graph.dynamic_graph import Vertex


class VertexRole(str, Enum):
    """The four structural-clustering roles of a vertex."""

    CORE = "core"
    MEMBER = "member"
    HUB = "hub"
    OUTLIER = "outlier"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def classify_roles(
    clustering: Clustering, vertices: Optional[Iterable[Vertex]] = None
) -> Dict[Vertex, VertexRole]:
    """Map every vertex to its role.

    Parameters
    ----------
    clustering:
        The StrCluResult to classify.
    vertices:
        Optional universe of vertices.  When given, vertices absent from the
        clustering (isolated vertices, vertices that only appear in the
        graph) are classified as outliers; when omitted the universe is the
        set of vertices mentioned by the clustering itself.

    Example
    -------
    >>> from repro.core.result import Clustering
    >>> c = Clustering(clusters=[{1, 2, 3}, {3, 4, 5}], cores={1, 4},
    ...                hubs={3}, noise={9})
    >>> roles = classify_roles(c, vertices=[1, 2, 3, 4, 5, 9])
    >>> roles[1] is VertexRole.CORE and roles[3] is VertexRole.HUB
    True
    >>> roles[2] is VertexRole.MEMBER and roles[9] is VertexRole.OUTLIER
    True
    """
    membership = clustering.membership()
    if vertices is None:
        universe = set(membership)
        universe.update(clustering.cores)
        universe.update(clustering.hubs)
        universe.update(clustering.noise)
    else:
        universe = set(vertices)

    roles: Dict[Vertex, VertexRole] = {}
    for v in universe:
        roles[v] = _role(v, clustering, membership)
    return roles


def role_of(
    v: Vertex,
    clustering: Clustering,
    membership: Optional[Mapping[Vertex, Collection[int]]] = None,
) -> VertexRole:
    """Role of a single vertex (convenience wrapper around :func:`classify_roles`)."""
    if membership is None:
        membership = clustering.membership()
    return _role(v, clustering, membership)


def _role(
    v: Vertex, clustering: Clustering, membership: Mapping[Vertex, Collection[int]]
) -> VertexRole:
    if v in clustering.cores:
        return VertexRole.CORE
    assigned = membership.get(v, [])
    if len(assigned) >= 2:
        return VertexRole.HUB
    if len(assigned) == 1:
        return VertexRole.MEMBER
    return VertexRole.OUTLIER


def role_census(
    clustering: Clustering, vertices: Optional[Iterable[Vertex]] = None
) -> Dict[str, int]:
    """Count of each role over the (optionally supplied) vertex universe.

    Returns a plain ``dict`` keyed by the role values (``"core"``,
    ``"member"``, ``"hub"``, ``"outlier"``) so it can be dumped straight
    into reports and JSON.
    """
    counts: Counter = Counter(role.value for role in classify_roles(clustering, vertices).values())
    return {role.value: counts.get(role.value, 0) for role in VertexRole}
