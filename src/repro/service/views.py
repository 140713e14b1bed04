"""Immutable, snapshot-consistent clustering views with incremental capture.

The maintainers in :mod:`repro.core` are single-writer data structures: a
reader that interleaves with an update observes torn state.  The service
layer solves this the way snapshot-isolated databases do — the writer
publishes an immutable :class:`ClusteringView` after each micro-batch, and
every read (``cluster_of``, ``group_by``, ``stats``) runs against whichever
view was current when the read started.  Publication is a single attribute
assignment (atomic under the GIL), so reads are lock-free and never block
the writer; a reader holding an old view simply sees a slightly stale but
fully self-consistent clustering — read-committed snapshot isolation at
micro-batch granularity.

A view is *self-contained*: it holds the vertex→cluster membership map (and
the role sets) independently of the live maintainer, so answering queries
never touches it.  Two capture strategies produce that state:

* :meth:`ClusteringView.capture` — the full O(n + m) retrieval used at
  startup, after recovery, and as the fallback;
* :meth:`ClusteringView.patched` — incremental capture: view N+1 is built
  from view N by re-deriving only the *dirty region* around the flip set
  ``F`` that the backend reported (:class:`~repro.core.result.ViewDelta`).
  The membership and role maps are :class:`PersistentMap` instances —
  hashed bucket arrays shared structurally between consecutive views, with
  only the buckets touched by the patch copied — so publication costs
  O(|F| log n)-ish instead of O(n + m).

``group_by`` over a view partitions the query set exactly as
:meth:`repro.core.dynstrclu.DynStrClu.group_by` does, because cluster
membership in the view is defined by exactly that relation.  Cluster
identifiers are opaque and not stable across views (matching the opaque
component identifiers of the live query path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.result import (
    Clustering,
    GroupByResult,
    clustering_from_membership,
    group_by_clusters,
)
from repro.graph.dynamic_graph import Vertex


class PersistentMap(Mapping):
    """An immutable hash map with copy-on-write buckets.

    Entries are spread over ``2^k`` dict buckets by key hash.
    :meth:`assign` produces a *new* map that shares every untouched bucket
    with its parent and copies only the buckets containing changed keys —
    so a patch of ``d`` entries costs ``O(d · load)`` instead of ``O(n)``,
    while lookups stay plain dict gets.

    The bucket count is fixed at construction (:meth:`build` sizes it for
    the expected population); when the population outgrows the geometry,
    :attr:`overloaded` turns true and the caller is expected to rebuild —
    the view layer folds that rebuild into its full-capture fallback, which
    amortises re-bucketing over geometric growth.
    """

    __slots__ = ("_buckets", "_mask", "_size")

    #: Average entries per bucket :meth:`build` aims for.
    TARGET_LOAD = 6
    #: Load factor beyond which :attr:`overloaded` asks for a rebuild.
    REBUILD_LOAD = 24

    def __init__(self, buckets: Tuple[Dict, ...], size: int) -> None:
        self._buckets = buckets
        self._mask = len(buckets) - 1
        self._size = size

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "PersistentMap":
        return cls(({},), 0)

    @classmethod
    def build(cls, items: Mapping, expect: Optional[int] = None) -> "PersistentMap":
        """Bulk-build a map sized for ``expect`` entries (default: len)."""
        population = max(len(items), expect or 0, 1)
        num_buckets = 1
        while num_buckets * cls.TARGET_LOAD < population:
            num_buckets <<= 1
        buckets: List[Dict] = [dict() for _ in range(num_buckets)]
        mask = num_buckets - 1
        for key, value in items.items():
            buckets[hash(key) & mask][key] = value
        return cls(tuple(buckets), len(items))

    def assign(self, changes: Mapping) -> "PersistentMap":
        """A new map with ``changes`` applied (value ``None`` deletes).

        Shares every bucket no changed key hashes into.
        """
        if not changes:
            return self
        touched: Dict[int, Dict] = {}
        size = self._size
        for key, value in changes.items():
            index = hash(key) & self._mask
            bucket = touched.get(index)
            if bucket is None:
                bucket = dict(self._buckets[index])
                touched[index] = bucket
            if value is None:
                if key in bucket:
                    del bucket[key]
                    size -= 1
            else:
                if key not in bucket:
                    size += 1
                bucket[key] = value
        buckets = list(self._buckets)
        for index, bucket in touched.items():
            buckets[index] = bucket
        return PersistentMap(tuple(buckets), size)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        return self._buckets[hash(key) & self._mask].get(key, default)

    def __getitem__(self, key):
        return self._buckets[hash(key) & self._mask][key]

    def __contains__(self, key) -> bool:
        return key in self._buckets[hash(key) & self._mask]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        for bucket in self._buckets:
            yield from bucket

    def items(self):
        for bucket in self._buckets:
            yield from bucket.items()

    def values(self):
        for bucket in self._buckets:
            yield from bucket.values()

    @property
    def overloaded(self) -> bool:
        """True when the population has outgrown the bucket geometry."""
        return self._size > self.REBUILD_LOAD * len(self._buckets)


@dataclass(frozen=True)
class ClusteringView:
    """One published snapshot of the maintained clustering.

    Attributes
    ----------
    version:
        Number of updates the maintainer had applied when this view was
        captured.  Views from one engine are totally ordered by version,
        and a view's content is exactly the clustering after the first
        ``version`` updates of the stream — the invariant the snapshot-
        consistency tests assert.
    num_vertices / num_edges:
        Graph size at capture time (for stats).
    published_at:
        Wall-clock publication time (``time.time()``) — an *event
        timestamp* for display and log correlation, never used in duration
        arithmetic (elapsed times in the service layer come from the
        monotonic clocks; see ``tests/service/test_time_sources.py``).
    """

    version: int
    num_vertices: int = 0
    num_edges: int = 0
    published_at: float = field(default_factory=time.time)
    #: vertex → ascending tuple of opaque cluster keys
    _membership: PersistentMap = field(default_factory=PersistentMap.empty, repr=False)
    #: cluster key → frozenset of member vertices
    _clusters: PersistentMap = field(default_factory=PersistentMap.empty, repr=False)
    #: role sets, stored as key-presence maps (value is always True)
    _cores: PersistentMap = field(default_factory=PersistentMap.empty, repr=False)
    _hubs: PersistentMap = field(default_factory=PersistentMap.empty, repr=False)
    _noise: PersistentMap = field(default_factory=PersistentMap.empty, repr=False)
    #: next cluster key to allocate (keys are engine-lifetime unique)
    _next_key: int = 0
    #: the exact retrieval this view was full-captured from, when it was
    _exact_clustering: Optional[Clustering] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, maintainer, version: int) -> "ClusteringView":
        """Full capture of a maintainer's state (any backend).

        Runs inside the writer thread, between batches, so it sees a
        quiescent maintainer.  Cost is one O(n + m) clustering retrieval
        plus the membership index — the fallback when no
        :class:`~repro.core.result.ViewDelta` is available, and the path
        that (re)sizes the persistent buckets for the current graph.
        """
        clustering = maintainer.clustering()
        graph = maintainer.graph
        n = graph.num_vertices
        membership = PersistentMap.build(clustering.membership(), expect=n)
        clusters = PersistentMap.build(
            {index: frozenset(c) for index, c in enumerate(clustering.clusters)}
        )
        return cls(
            version=version,
            num_vertices=n,
            num_edges=graph.num_edges,
            _membership=membership,
            _clusters=clusters,
            _cores=PersistentMap.build(dict.fromkeys(clustering.cores, True)),
            _hubs=PersistentMap.build(dict.fromkeys(clustering.hubs, True)),
            _noise=PersistentMap.build(dict.fromkeys(clustering.noise, True), expect=n),
            _next_key=clustering.num_clusters,
            _exact_clustering=clustering,
        )

    @classmethod
    def empty(cls) -> "ClusteringView":
        """The view an engine publishes before any update has been applied."""
        return cls(version=0)

    def patched(
        self,
        maintainer,
        flips: Iterable[Vertex],
        version: int,
        max_dirty: Optional[int] = None,
    ) -> Optional["ClusteringView"]:
        """Incremental capture: derive view N+1 from this view and ``F``.

        ``maintainer`` must be a delta-capable backend (``is_core`` /
        ``core_component`` / ``core_attachments`` probes — see
        :meth:`repro.core.api.Clusterer.drain_view_delta`); ``flips`` is
        the drained flip set.  Returns ``None`` when the caller should
        fall back to :meth:`capture` instead:

        * the dirty region exceeded ``max_dirty`` (a full retrieval is
          cheaper), or
        * the persistent buckets outgrew their geometry (the full capture
          re-sizes them), or
        * the flip set failed the closure invariant (a newly derived
          cluster reached outside the dirty region — over-cautious
          protection against an under-reporting backend).

        The patch is *sound* because the flip set is closed under cluster
        contamination once expanded one level: every old cluster touching a
        flipped vertex is entirely dirty, and any new cluster containing a
        dirty vertex lies entirely inside the dirty region (each path in
        the new ``G_core`` from a dirty core to another core crosses either
        an old-cluster co-membership or a freshly flipped edge endpoint).
        Untouched clusters keep their keys, members and roles verbatim.
        """
        membership = self._membership
        clusters = self._clusters
        graph = maintainer.graph

        # --- expand the flip set into the dirty region --------------------
        dirty: Set[Vertex] = set(flips)
        dirty_keys: Set[int] = set()
        for v in flips:
            dirty_keys.update(membership.get(v, ()))
        for key in dirty_keys:
            dirty.update(clusters.get(key, ()))
        if max_dirty is not None and len(dirty) > max_dirty:
            return None

        # --- re-derive the dirty region from the live structures ----------
        components: Dict[int, List[Vertex]] = {}
        for d in dirty:
            if maintainer.is_core(d):
                components.setdefault(maintainer.core_component(d), []).append(d)

        next_key = self._next_key
        cluster_changes: Dict[int, Optional[FrozenSet[Vertex]]] = {
            key: None for key in dirty_keys
        }
        gained: Dict[Vertex, List[int]] = {}
        for comp_id in sorted(components):
            comp_cores = components[comp_id]
            members: Set[Vertex] = set(comp_cores)
            for core in comp_cores:
                members.update(maintainer.core_attachments(core))
            if not members.issubset(dirty):
                return None  # closure invariant violated: refuse to patch
            key = next_key
            next_key += 1
            cluster_changes[key] = frozenset(members)
            for member in members:
                gained.setdefault(member, []).append(key)

        # --- per-vertex membership and role updates ------------------------
        membership_changes: Dict[Vertex, Optional[Tuple[int, ...]]] = {}
        core_changes: Dict[Vertex, Optional[bool]] = {}
        hub_changes: Dict[Vertex, Optional[bool]] = {}
        noise_changes: Dict[Vertex, Optional[bool]] = {}
        for d in dirty:
            kept = [k for k in membership.get(d, ()) if k not in dirty_keys]
            keys = tuple(sorted(kept + gained.get(d, [])))
            membership_changes[d] = keys if keys else None
            is_core = bool(maintainer.is_core(d))
            in_graph = graph.has_vertex(d)
            core_changes[d] = True if is_core else None
            hub_changes[d] = (
                True if (in_graph and not is_core and len(keys) >= 2) else None
            )
            noise_changes[d] = (
                True if (in_graph and not is_core and not keys) else None
            )

        new_maps = (
            membership.assign(membership_changes),
            clusters.assign(cluster_changes),
            self._cores.assign(core_changes),
            self._hubs.assign(hub_changes),
            self._noise.assign(noise_changes),
        )
        if any(pm.overloaded for pm in new_maps):
            return None  # let the full capture re-bucket for the new size
        return ClusteringView(
            version=version,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            _membership=new_maps[0],
            _clusters=new_maps[1],
            _cores=new_maps[2],
            _hubs=new_maps[3],
            _noise=new_maps[4],
            _next_key=next_key,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cluster_of(self, v: Vertex) -> Tuple[int, ...]:
        """Keys of every cluster containing ``v`` (empty for noise/unknown)."""
        return self._membership.get(v, ())

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        """Cluster-group-by (Definition 3.2) against this snapshot.

        Groups are keyed by the view's opaque cluster keys; identifiers are
        not stable across views (matching the opaque component identifiers
        of the live query path).  A large query intersects the clusters
        instead of looking up its vertices (:func:`group_by_clusters`).
        """
        return group_by_clusters(self._clusters, query, self._membership)

    @property
    def clustering(self) -> Clustering:
        """The full :class:`Clustering` of this snapshot.

        Full-captured views return the retrieval they were built from;
        incrementally patched views materialise it lazily (O(n), memoised)
        from the persistent maps — reads that only need ``cluster_of`` /
        ``group_by`` / ``stats`` never pay for it.
        """
        if self._exact_clustering is not None:
            return self._exact_clustering
        cached = self.__dict__.get("_lazy_clustering")
        if cached is None:
            cached = clustering_from_membership(
                dict(self._membership.items()),
                set(self._cores),
                set(self._hubs),
                set(self._noise),
            )
            object.__setattr__(self, "_lazy_clustering", cached)
        return cached

    def stats(self) -> Dict[str, object]:
        """Headline statistics of this snapshot (JSON-serialisable)."""
        return {
            "view_version": self.version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "published_at": self.published_at,
            "clusters": len(self._clusters),
            "cores": len(self._cores),
            "hubs": len(self._hubs),
            "noise": len(self._noise),
            "largest_cluster": self._largest_cluster(),
        }

    def _largest_cluster(self) -> int:
        cached = self.__dict__.get("_lazy_largest")
        if cached is None:
            cached = max((len(members) for members in self._clusters.values()), default=0)
            object.__setattr__(self, "_lazy_largest", cached)
        return cached
