"""Sharded clustering engine: hash-partitioned ingest with merged views.

A single :class:`~repro.service.engine.ClusteringEngine` is single-writer,
so its ingest throughput is bounded by what one writer can label per
second.  :class:`ShardedEngine` removes that bound by hash-partitioning the
vertex space across ``N`` inner engines:

* **Ownership.**  Every vertex belongs to exactly one shard —
  ``shard_of(v) = crc32(canonical token of v) % N`` — a *stable* hash (the
  WAL token format), so the placement survives process restarts and is
  identical in every client, test and recovery path.
* **Boundary-edge replication.**  An update ``(u, v)`` is routed to
  ``shard_of(u)`` and ``shard_of(v)``.  A cross-shard edge therefore lives
  in *both* endpoint shards, which keeps the closed neighbourhood ``N[w]``
  of every vertex **complete at its owner** — each shard maintains its
  induced subgraph plus the replicated boundary.
* **Scoped labelling.**  A shard labels only the edges it owns on both
  ends (:class:`repro.core.dynelm.DynELM`'s ``scope`` predicate); boundary
  edges are *graph-only* replicas: they keep the neighbourhoods (and hence
  the similarities of owned edges) exact, but their own similarity is
  resolved lazily by the merge below.  That is where the throughput gain
  comes from on any core count: each similar-or-not decision is made by
  exactly one shard, and boundary decisions leave the ingest hot path
  entirely.
* **Exports, not views.**  A shard's scoped labels leave its boundary
  edges undecided, so its own clustering answers no query.  After each
  batch a shard publishes only its :class:`ShardExport` (owned adjacency
  and same-shard similar neighbours), patched from the flip set.
* **Scatter-gather merged reads.**  A read grabs one immutable export per
  shard — the *export tuple* — and merges them: boundary-edge
  similarities are computed exactly from the owners' exported closed
  neighbourhoods, and the clustering is retrieved from the combined
  similar-neighbour map by the same Fact-1 retrieval a single maintainer
  uses (:func:`~repro.core.result.clustering_from_similar`), so
  cross-shard clusters merge exactly where they share boundary core
  similarity.  The merge is memoised per export tuple, so repeated
  ``group_by`` / ``cluster_of`` / ``stats`` calls on an unchanged system
  cost a dictionary lookup.

**Consistency caveat** (documented in docs/API.md): the merge combines each
shard's *latest published* export — a consistent prefix of that shard's
sub-stream — but the cut across shards is not globally serialised.  After a
``flush()`` (or any quiescent moment) the merged result is exactly the
sequential single-engine clustering of the whole stream; the property suite
locks that equivalence in for every exact backend and ``shards ∈ {2,3,4}``.

**Durability** is per shard: with a ``data_dir`` every shard keeps its own
WAL + snapshot under ``data_dir/shard-<i>/`` and recovers independently; a
``sharding.json`` manifest pins the shard count (re-sharding an existing
directory is refused loudly).  Because the two replicas of a boundary edge
are logged by two different WALs, a crash *between* the two appends can
leave the replicas inconsistent; recovery reconciles by re-inserting the
missing replica (the union of the shard graphs is the graph of record), at
the cost of possibly resurrecting an edge whose delete was mid-replication.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.config import StrCluParams
from repro.core.dynelm import Update, UpdateKind
from repro.core.result import (
    Clustering,
    GroupByResult,
    ViewDelta,
    clustering_from_similar,
    group_by_clusters,
)
from repro.graph.dynamic_graph import Vertex, canonical_edge
from repro.graph.similarity import pair_similarity
from repro.persistence.snapshot import write_durable
from repro.persistence.updatelog import format_vertex_token
from repro.service.engine import (
    SNAPSHOT_FILE,
    WAL_FILE,
    ClusteringEngine,
    EngineBackpressure,
    EngineClosed,
    EngineConfig,
    EngineError,
    EngineFenced,
    _Flush,
    _Stop,
    await_flush_marker,
    canonicalise_update,
    put_control,
    retry_hint_ms,
    take_batch,
)
from repro.service.metrics import ServiceMetrics
from repro.service.obs import (
    attach_context,
    get_tracer,
    stamp_enqueue,
    tag_update,
    update_context,
)
from repro.service.views import ClusteringView, PersistentMap

#: Sub-directory name of shard ``i`` under a sharded engine's data_dir.
SHARD_DIR_FORMAT = "shard-{index}"

#: Manifest file pinning the partitioning of a sharded data_dir.
MANIFEST_FILE = "sharding.json"
MANIFEST_FORMAT = "repro-sharding-manifest"
MANIFEST_VERSION = 1


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def shard_of(v: Vertex, num_shards: int) -> int:
    """Owning shard of a vertex: a *stable* hash of its canonical token.

    Python's built-in ``hash`` is salted per process for strings, so the
    partition is derived from ``crc32`` of the WAL token instead — the same
    canonical, lossless representation the persistence layer uses (the int
    ``123`` and the string ``"123"`` own different tokens and may land on
    different shards, which is exactly right).
    """
    if num_shards == 1:
        return 0
    token = format_vertex_token(v).encode("utf-8")
    return zlib.crc32(token) % num_shards


class _OwnerMap:
    """Memoised :func:`shard_of`: each vertex hashes its token only once.

    The partition function sits on every hot path (the per-update scope
    predicate, routing, export capture, the merge), so the crc32 of the
    canonical token is computed once per distinct vertex and remembered.
    Safe to share across threads: plain dict get/set are atomic under the
    GIL and a lost race merely recomputes the same value.

    Memory is bounded two ways: the router evicts a vertex when its last
    edge is deleted (best effort — a shard may re-memoise it while
    applying that very delete), and the cache is cleared outright when it
    exceeds :attr:`MAX_ENTRIES`, so a churning vertex space (fresh IDs
    forever) cannot grow it without bound; a clear merely costs cheap
    recomputation.
    """

    __slots__ = ("num_shards", "_cache")

    #: Hard cap on memoised vertices; the cache resets beyond it.
    MAX_ENTRIES = 1 << 20

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._cache: Dict[Vertex, int] = {}

    def __call__(self, v: Vertex) -> int:
        index = self._cache.get(v)
        if index is None:
            index = shard_of(v, self.num_shards)
            if len(self._cache) >= self.MAX_ENTRIES:
                self._cache.clear()
            self._cache[v] = index
        return index

    def evict(self, v: Vertex) -> None:
        """Best-effort drop of a vertex's memo when it leaves the graph."""
        self._cache.pop(v, None)


def make_label_scope(
    index: int,
    num_shards: int,
    owner: Optional[_OwnerMap] = None,
) -> Callable[[Vertex, Vertex], bool]:
    """The labelling scope of shard ``index``: both endpoints owned by it."""
    owner_of = owner if owner is not None else _OwnerMap(num_shards)

    def scope(u: Vertex, v: Vertex) -> bool:
        return owner_of(u) == index == owner_of(v)

    return scope


# ----------------------------------------------------------------------
# per-shard exports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardExport:
    """What one shard publishes: its contribution to the merge.

    Captured by the shard's writer thread at a batch boundary, covering
    only the shard's **owned** vertices:

    Attributes
    ----------
    shard:
        The shard index.
    version:
        The shard's applied position this export describes.
    num_vertices / num_edges:
        Size of the shard graph (owned vertices plus boundary replicas).
    adjacency:
        ``owned vertex → frozenset of all its neighbours`` — complete by
        the boundary-replication invariant, including neighbours owned by
        other shards.  A present-but-isolated vertex keeps an empty entry
        (it must still be counted as noise).
    similar:
        ``owned vertex → frozenset of its *same-shard* similar
        neighbours`` (entries omitted when empty).  Boundary similarities
        are deliberately absent — the merge derives them from the two
        owners' adjacencies.
    published_at:
        Wall-clock capture time (``time.time()``), an event timestamp.
    """

    shard: int
    version: int
    num_vertices: int
    num_edges: int
    adjacency: PersistentMap
    similar: PersistentMap
    published_at: float = field(default_factory=time.time)


def _closed(v: Vertex, neighbours: Optional[FrozenSet[Vertex]]) -> Set[Vertex]:
    """Closed neighbourhood from an exported adjacency entry (``None``: unseen)."""
    out = set(neighbours) if neighbours is not None else set()
    out.add(v)
    return out


def capture_similar_neighbours(
    maintainer: object,
    v: Vertex,
    shard_index: int,
    owner_of: Callable[[Vertex], int],
) -> Set[Vertex]:
    """Same-shard similar neighbours of an owned vertex.

    Delta-capable backends answer from their maintained structures
    (DynStrClu's vAuxInfo, already scoped to owned edges); fallback
    backends re-derive the decision from the graph with the exact
    similarity — both endpoints are owned, so their neighbourhoods in the
    shard graph are complete and the answer is exact.

    The probe's answer is filtered to same-shard neighbours anyway: a
    plugin backend that ignores the ``scope`` hook labels boundary
    replicas too (on truncated neighbourhoods), and those decisions must
    never leak into the export — the merge owns every boundary edge.
    """
    probe = getattr(maintainer, "core_attachments", None)
    if callable(probe):
        return {w for w in probe(v) if owner_of(w) == shard_index}
    from repro.graph.similarity import structural_similarity

    graph = maintainer.graph
    params = maintainer.params
    out: Set[Vertex] = set()
    for w in graph.neighbours(v):
        if owner_of(w) != shard_index:
            continue
        if structural_similarity(graph, v, w, params.similarity) >= params.epsilon:
            out.add(w)
    return out


def capture_shard_export(
    maintainer: object,
    shard_index: int,
    num_shards: int,
    version: int,
    owner: Optional[_OwnerMap] = None,
) -> ShardExport:
    """Full export of one shard maintainer: owned adjacency + similar maps.

    Works on *any* maintainer holding shard ``shard_index``'s state — a
    live shard's (the :class:`_ShardEngine` publication path) or one
    rebuilt from a retained snapshot + WAL replay (the time-travel path),
    which is what makes historical sharded reads reuse
    :func:`merge_shard_views` unchanged.
    """
    owner_of = owner if owner is not None else _OwnerMap(num_shards)
    graph = maintainer.graph
    adjacency: Dict[Vertex, FrozenSet[Vertex]] = {}
    similar: Dict[Vertex, FrozenSet[Vertex]] = {}
    for v in graph.vertices():
        if owner_of(v) != shard_index:
            continue
        adjacency[v] = frozenset(graph.neighbours(v))
        sim = capture_similar_neighbours(maintainer, v, shard_index, owner_of)
        if sim:
            similar[v] = frozenset(sim)
    return ShardExport(
        shard=shard_index,
        version=version,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        adjacency=PersistentMap.build(adjacency),
        similar=PersistentMap.build(similar),
    )


# ----------------------------------------------------------------------
# the merged view
# ----------------------------------------------------------------------
class ShardedView:
    """One merged, immutable snapshot across all shards.

    Duck-types the read surface of
    :class:`~repro.service.views.ClusteringView` (``version``,
    ``cluster_of``, ``group_by``, ``clustering``, ``stats``) so the HTTP
    layer and the manager serve sharded tenants unchanged.

    ``version`` is a monotonic *merge ordinal*: the sum of the per-shard
    export versions.  Unlike an unsharded tenant's ``view_version`` it is
    **not** the logical update-prefix count — every cross-shard update is
    applied by two shards and therefore contributes twice.  At any
    quiescent moment ``version == applied + cross_shard_updates`` (the
    invariant the unit suite pins); the exact per-shard prefixes are in
    :attr:`shard_versions`.
    """

    __slots__ = (
        "version",
        "shard_versions",
        "num_vertices",
        "num_edges",
        "published_at",
        "clustering",
        "_clusters",
        "_membership",
    )

    def __init__(
        self,
        version: int,
        shard_versions: Tuple[int, ...],
        num_vertices: int,
        num_edges: int,
        published_at: float,
        clustering: Clustering,
    ) -> None:
        self.version = version
        self.shard_versions = shard_versions
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.published_at = published_at
        self.clustering = clustering
        self._clusters: Dict[int, Set[Vertex]] = dict(enumerate(clustering.clusters))
        self._membership = clustering.membership()

    # -- queries (same semantics as ClusteringView) ---------------------
    def cluster_of(self, v: Vertex) -> Tuple[int, ...]:
        return self._membership.get(v, ())

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        return group_by_clusters(self._clusters, query, self._membership)

    def stats(self) -> Dict[str, object]:
        return {
            "view_version": self.version,
            "shard_versions": list(self.shard_versions),
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "published_at": self.published_at,
            **self.clustering.summary(),
        }


def merge_shard_views(
    exports: Tuple[ShardExport, ...],
    params: StrCluParams,
    num_shards: int,
    owner: Optional[_OwnerMap] = None,
) -> ShardedView:
    """The scatter-gather merge: per-shard exports → one global clustering.

    1. Seed every owned vertex's similar-neighbour set with its shard's
       same-shard decisions (exported straight from the shard's labelling).
    2. Resolve every **boundary edge** — discovered from both owners'
       adjacencies, deduplicated — by computing its exact similarity from
       the two exported closed neighbourhoods.
    3. Retrieve the clustering from the combined similar-neighbour map
       with Fact 1 (:func:`~repro.core.result.clustering_from_similar`).
    """
    epsilon = params.epsilon
    kind = params.similarity
    owner_of = owner if owner is not None else _OwnerMap(num_shards)

    # 1. same-shard similar neighbours
    sim: Dict[Vertex, Set[Vertex]] = {}
    for export in exports:
        for u, nbrs in export.similar.items():
            sim[u] = set(nbrs)

    # 2. boundary edges, each resolved once from both owners' exports
    resolved: Set[Tuple[Vertex, Vertex]] = set()
    closed_cache: Dict[Vertex, Set[Vertex]] = {}

    def closed_of(v: Vertex) -> Set[Vertex]:
        cached = closed_cache.get(v)
        if cached is None:
            cached = _closed(v, exports[owner_of(v)].adjacency.get(v))
            closed_cache[v] = cached
        return cached

    total_degree = 0
    for export in exports:
        for u, nbrs in export.adjacency.items():
            total_degree += len(nbrs)
            for w in nbrs:
                if owner_of(w) == export.shard:
                    continue  # same-shard edge: already decided by the shard
                edge = canonical_edge(u, w)
                if edge in resolved:
                    continue
                resolved.add(edge)
                sigma = pair_similarity(closed_of(u), closed_of(w), kind)
                if sigma >= epsilon:
                    sim.setdefault(u, set()).add(w)
                    sim.setdefault(w, set()).add(u)

    # 3. Fact 1 over every owned vertex
    vertices = [v for export in exports for v in export.adjacency]
    return ShardedView(
        version=sum(export.version for export in exports),
        shard_versions=tuple(export.version for export in exports),
        num_vertices=len(vertices),
        num_edges=total_degree // 2,
        published_at=max(export.published_at for export in exports),
        clustering=clustering_from_similar(sim, vertices, params.mu),
    )


# ----------------------------------------------------------------------
# the shard-local engine (inner engine + export capture)
# ----------------------------------------------------------------------
class _ShardEngine(ClusteringEngine):
    """One shard: a :class:`ClusteringEngine` that publishes an export.

    Its scoped labels leave every boundary edge undecided, so the shard's
    own clustering answers no query; what it publishes after each batch
    is its :class:`ShardExport`, and only the merge reads a clustering.
    The export is patched from the backend's flip set: only vertices in
    ``F`` can have changed adjacency, similar neighbours or presence.
    Backends that report full rebuilds — or export maps that outgrow their
    buckets — fall back to a full export rebuild.
    """

    _APPLY_SPAN_NAME = "shard.apply"

    def __init__(
        self,
        shard_index: int,
        num_shards: int,
        owner: Optional[_OwnerMap] = None,
        **kwargs: object,
    ) -> None:
        self.shard_index = shard_index
        self.num_shards = num_shards
        # shared with the owning ShardedEngine (one memo for the whole
        # engine, not N+1 copies); standalone construction gets its own
        self._owner = owner if owner is not None else _OwnerMap(num_shards)
        super().__init__(
            label_scope=make_label_scope(shard_index, num_shards, self._owner),
            **kwargs,
        )

    def export(self) -> ShardExport:
        """The latest published export, atomic under the GIL."""
        return self._export

    def view(self) -> ClusteringView:
        raise EngineError(
            "a shard publishes its export, not a view; read the "
            "ShardedEngine's merged view"
        )

    @property
    def published_at(self) -> float:
        return self._export.published_at

    # -- export publication (writer thread only) ------------------------
    def _publish(self, delta: ViewDelta) -> str:
        if not delta.full_rebuild:
            export = self._patched_export(delta.flips)
            if export is not None:
                self._export = export
                return "incremental"
        self._export = capture_shard_export(
            self.maintainer,
            self.shard_index,
            self.num_shards,
            self.applied,
            owner=self._owner,
        )
        return "full"

    def _patched_export(self, flips: Iterable[Vertex]) -> Optional[ShardExport]:
        previous = self._export
        maintainer = self.maintainer
        graph = maintainer.graph
        index, owner_of = self.shard_index, self._owner
        adjacency_changes: Dict[Vertex, Optional[FrozenSet[Vertex]]] = {}
        similar_changes: Dict[Vertex, Optional[FrozenSet[Vertex]]] = {}
        for v in flips:
            if owner_of(v) != index:
                continue
            if not graph.has_vertex(v):
                adjacency_changes[v] = None
                similar_changes[v] = None
                continue
            adjacency_changes[v] = frozenset(graph.neighbours(v))
            sim = capture_similar_neighbours(maintainer, v, index, owner_of)
            similar_changes[v] = frozenset(sim) if sim else None
        adjacency = previous.adjacency.assign(adjacency_changes)
        similar = previous.similar.assign(similar_changes)
        if adjacency.overloaded or similar.overloaded:
            return None  # let the full rebuild re-bucket for the new size
        return ShardExport(
            shard=index,
            version=self.applied,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            adjacency=adjacency,
            similar=similar,
        )


# ----------------------------------------------------------------------
# the sharded engine
# ----------------------------------------------------------------------
class ShardedEngine:
    """``N`` hash-partitioned inner engines behind one engine surface.

    Mirrors the public surface of :class:`ClusteringEngine` — ``submit`` /
    ``submit_many`` / ``flush`` / ``view`` / ``group_by`` / ``cluster_of``
    / ``stats`` / ``close`` / ``kill`` plus the ``applied`` /
    ``queue_depth`` / ``running`` properties — so the tenant manager, the
    HTTP server and the load generator drive both shapes identically.

    Ingest is a two-stage pipeline: producers enqueue into the router's
    bounded queue (the single admission point, so backpressure reports an
    exact accepted prefix), and one router thread replicates each update to
    its endpoint shards' queues, blocking — never dropping — when a shard
    is momentarily full.  The router also filters no-op updates against a
    global edge set so every shard's WAL stays an exact record of applied
    updates.
    """

    def __init__(
        self,
        params: Optional[StrCluParams] = None,
        config: Optional[EngineConfig] = None,
        data_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[ServiceMetrics] = None,
        backend: str = "dynstrclu",
        reconcile: bool = True,
    ) -> None:
        self.config = config if config is not None else EngineConfig(shards=2)
        if self.config.shards < 2:
            raise ValueError(
                "ShardedEngine needs config.shards >= 2; use ClusteringEngine "
                "(or make_engine) for the single-shard shape"
            )
        self.num_shards = self.config.shards
        self._owner = _OwnerMap(self.num_shards)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.backend = backend.strip().lower()
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._close_completed = False  # guarded-by: _close_lock
        self._close_lock = threading.Lock()
        self._failure: Optional[BaseException] = None
        self._merged_cache: Optional[
            Tuple[Tuple[ShardExport, ...], ShardedView]
        ] = None

        manifest_applied = 0
        self._manifest_created = False
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            manifest_applied = self._check_manifest()

        inner_config = replace(self.config, shards=1)
        self.shards: List[_ShardEngine] = []
        try:
            for index in range(self.num_shards):
                shard_dir = (
                    self.data_dir / SHARD_DIR_FORMAT.format(index=index)
                    if self.data_dir is not None
                    else None
                )
                self.shards.append(
                    _ShardEngine(
                        index,
                        self.num_shards,
                        owner=self._owner,
                        params=params,
                        config=inner_config,
                        data_dir=shard_dir,
                        backend=self.backend,
                    )
                )
        except BaseException:
            for shard in self.shards:
                shard.close(checkpoint=False)
            if self._manifest_created:
                # don't poison an empty data_dir against other shard
                # counts: the manifest this constructor just wrote pins a
                # partitioning that never came to exist
                (self.data_dir / MANIFEST_FILE).unlink(missing_ok=True)
            raise

        self.recovered_updates = sum(s.recovered_updates for s in self.shards)
        # cached fence flag: the admission check runs per submitted update
        # and must not iterate the shards on the hot path
        self._fenced = any(shard.fenced for shard in self.shards)
        # the logical count is exact after a clean close (manifest); after a
        # crash the manifest is stale, so fall back to the tightest lower
        # bound the shards can back: no shard applies a logical update twice
        self.applied = max(
            [manifest_applied] + [s.applied for s in self.shards]
        )
        self._rebuild_router_state()
        # a standby replays each shard's WAL verbatim — reconciliation
        # would splice extra (locally-logged) records into the shard
        # streams and break the position arithmetic, so it is skippable
        self._repairs = self._reconcile() if reconcile else []

    def _rebuild_router_state(self) -> None:
        """Recompute the no-op filter and degree bookkeeping from the shards.

        The graph of record for no-op filtering is the union of the shard
        graphs (every edge lives in at least its owners' shards); live
        degrees drive ``_OwnerMap`` eviction — a vertex whose last edge is
        deleted drops out of the shared memo with it.  Called at
        construction and again when a promoted standby re-arms the router
        after bypassing it during replay.
        """
        self._edges: Set[Tuple[Vertex, Vertex]] = set()
        for shard in self.shards:
            for u, v in shard.maintainer.graph.edges():
                self._edges.add(canonical_edge(u, v))
        self._degrees: Dict[Vertex, int] = {}
        for u, v in self._edges:
            self._degrees[u] = self._degrees.get(u, 0) + 1
            self._degrees[v] = self._degrees.get(v, 0) + 1

    # ------------------------------------------------------------------
    # durability bookkeeping
    # ------------------------------------------------------------------
    def _check_manifest(self) -> int:
        """Validate (or create) the sharding manifest; returns stored applied."""
        path = self.data_dir / MANIFEST_FILE
        if path.exists():
            document = json.loads(path.read_text(encoding="utf-8"))
            if document.get("format") != MANIFEST_FORMAT:
                raise ValueError(f"{path} is not a sharding manifest")
            stored = int(document.get("num_shards", 0))
            if stored != self.num_shards:
                raise ValueError(
                    f"data_dir {self.data_dir} was written with {stored} shards; "
                    f"re-sharding to {self.num_shards} is not supported — "
                    "start a fresh data_dir (or match the stored shard count)"
                )
            return int(document.get("applied", 0))
        if (self.data_dir / SNAPSHOT_FILE).exists() or (
            self.data_dir / WAL_FILE
        ).exists():
            # an unsharded engine's layout: starting N empty shards here
            # would silently ignore every persisted update
            raise ValueError(
                f"data_dir {self.data_dir} holds an *unsharded* engine's "
                f"state ({SNAPSHOT_FILE}/{WAL_FILE}); open it with shards=1 "
                "or start a fresh data_dir for the sharded shape"
            )
        self._write_manifest(0)
        self._manifest_created = True
        return 0

    def _write_manifest(self, applied: int) -> None:
        """Atomically persist the manifest (tmp + fsync + rename).

        The manifest gates every future open of this data_dir, so a torn
        write (crash mid-rewrite) must never leave an unparseable file
        that bricks recovery while the shards' WAL+snapshots are intact —
        the same discipline as the engine's snapshot checkpoint.
        """
        document = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "num_shards": self.num_shards,
            "backend": self.backend,
            "applied": applied,
        }
        write_durable(self.data_dir / MANIFEST_FILE, json.dumps(document, indent=2))

    def _reconcile(self) -> List[Tuple[int, Update]]:
        """Repair replicas lost to a crash between the two WAL appends.

        The union of the recovered shard graphs is the graph of record;
        any edge missing from one of its owners' graphs is re-inserted
        there (submitted through the normal WAL-logged path in
        :meth:`start`).
        """
        repairs: List[Tuple[int, Update]] = []
        for u, v in self._edges:
            for index in {self._owner(u), self._owner(v)}:
                if not self.shards[index].maintainer.graph.has_edge(u, v):
                    repairs.append((index, Update.insert(u, v)))
        return repairs

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedEngine":
        """Start every shard's writer plus the router thread (idempotent)."""
        if self._closed:
            raise EngineClosed("engine is closed")
        if self._thread is None:
            self.metrics.start_clock()
            for shard in self.shards:
                shard.start()
            if self._repairs:
                for index, update in self._repairs:
                    self.shards[index].submit(update)
                for shard in self.shards:
                    shard.flush()
                self._repairs = []
            self._thread = threading.Thread(
                target=self._router_loop, name="sharded-engine-router", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return (
            self._thread is not None
            and self._thread.is_alive()
            and all(shard.running for shard in self.shards)
        )

    @property
    def queue_depth(self) -> int:
        """Router backlog plus every shard's backlog (approximate)."""
        return self._queue.qsize() + sum(s.queue_depth for s in self.shards)

    @property
    def total_queue_capacity(self) -> int:
        """Upper bound of :attr:`queue_depth`: the router's admission queue
        plus every shard's queue — so reported depth/capacity utilisation
        stays <= 100% even with full shard backlogs."""
        return self.config.queue_capacity * (1 + self.num_shards)

    @property
    def params(self) -> StrCluParams:
        return self.shards[0].maintainer.params

    def close(self, checkpoint: bool = True) -> None:
        """Stop the router, close every shard, persist the manifest.

        Raises :class:`EngineError` when any shard refuses to close — after
        attempting them *all* — leaving the engine in a *cleanly* failed
        state: reads keep working (the published exports are immutable), new
        submits are rejected with :class:`EngineClosed` (never silently
        black-holed into a stopped router), and a retry re-attempts the
        failed shards (a shard whose own close failed stayed fully open;
        closing an already-closed shard is a no-op).  The manifest is only
        rewritten after every shard closed, so a failed close never
        records a count the shards don't back.  Serialised like the plain
        engine's close: a concurrent call waits for the in-flight attempt
        instead of mistaking its partial progress for success.
        """
        with self._close_lock:
            self._close_locked(checkpoint)

    def _close_locked(self, checkpoint: bool) -> None:
        if self._close_completed:
            return
        self._closed = True  # reject new submits cleanly from here on
        if self._thread is not None:
            put_control(self._queue, _Stop(), self._thread)
            self._thread.join()
            self._thread = None
        failures: List[BaseException] = []
        for shard in self.shards:
            try:
                shard.close(checkpoint=checkpoint)
            except BaseException as exc:
                failures.append(exc)
        if failures:
            raise EngineError(
                f"{len(failures)} of {self.num_shards} shards failed to close "
                f"(first: {failures[0]})"
            ) from failures[0]
        if checkpoint and self.data_dir is not None and self._failure is None:
            self._write_manifest(self.applied)
        self._close_completed = True

    def kill(self) -> None:
        """Simulate a crash: stop the router, kill every shard un-checkpointed."""
        # repro: allow[REPRO201] crash simulation deliberately skips the
        # close serialisation: a kill racing a close is exactly the torn
        # shutdown the recovery tests exercise (both lines below)
        if self._close_completed:
            return
        self._closed = True
        self._close_completed = True  # repro: allow[REPRO201] see above
        if self._thread is not None:
            put_control(self._queue, _Stop(), self._thread)
            self._thread.join()
            self._thread = None
        for shard in self.shards:
            shard.kill()

    def __enter__(self) -> "ShardedEngine":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # replication surface (fencing per shard)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The engine's fencing epoch: the maximum over the shards'."""
        return max(shard.epoch for shard in self.shards)

    @property
    def fenced(self) -> bool:
        """True once any shard was fenced (writes are all-or-nothing)."""
        return self._fenced

    def fence(self, epoch: int) -> None:
        """Fence every shard at ``epoch`` (manifest-pinned per shard).

        Validated against the engine-level epoch first so a stale request
        fails atomically instead of fencing a prefix of the shards.  An
        I/O failure persisting a later shard's manifest fails *closed*:
        with a prefix of the shards durably fenced, admitting more writes
        would poison the router the moment an update routes to a fenced
        shard — so the whole engine starts rejecting writes, matching the
        restart semantics (any fenced shard fences the engine).
        """
        if epoch <= self.epoch:
            raise ValueError(
                f"stale fence epoch {epoch}: engine is already at {self.epoch}"
            )
        for index, shard in enumerate(self.shards):
            try:
                shard.fence(epoch)
            except BaseException:
                if index:
                    self._fenced = True
                raise
        self._fenced = True

    def set_epoch(self, epoch: int) -> None:
        """Adopt ``epoch`` on every shard (promotion path, un-fenced)."""
        if epoch < self.epoch:
            raise ValueError(
                f"epoch must not move backwards: {epoch} < {self.epoch}"
            )
        for shard in self.shards:
            shard.set_epoch(epoch)
        self._fenced = False

    def replication_status(self) -> None:
        """No replication block: a sharded engine is a primary."""
        return None

    def wal_horizon(self) -> Dict[str, object]:
        """Aggregated ``as_of`` horizon: totals plus per-shard rows.

        ``oldest_replayable`` is the per-shard position vector (the same
        shape an ``as_of`` tuple for this tenant takes), or ``None`` when
        any shard has no replayable history.
        """
        rows = [shard.wal_horizon() for shard in self.shards]
        oldest_bases = [
            row["oldest_retained_base"]
            for row in rows
            if row["oldest_retained_base"] is not None
        ]
        replayable = [row["oldest_replayable"] for row in rows]
        return {
            "durable": all(row["durable"] for row in rows),
            "segments": sum(row["segments"] for row in rows),
            "bytes": sum(row["bytes"] for row in rows),
            "oldest_retained_base": min(oldest_bases) if oldest_bases else None,
            "snapshot_position": None,  # per-shard notion: see the rows
            "oldest_replayable": (
                None if any(position is None for position in replayable)
                else replayable
            ),
            "shards": rows,
        }

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def submit(
        self, update: Update, block: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Enqueue one update for routing (same contract as the base engine)."""
        if self._closed:
            raise EngineClosed("engine is closed")
        if self.fenced:
            raise EngineFenced(
                f"engine is fenced at epoch {self.epoch}: a standby was "
                "promoted; writes must go to the new primary",
                epoch=self.epoch,
            )
        self._raise_router_failure()
        update = canonicalise_update(update)
        tag_update(update)
        stamp_enqueue(update)
        try:
            self._queue.put(update, block=block, timeout=timeout)
        except queue.Full:
            self.metrics.add("backpressure")
            raise self.backpressure_signal() from None

    def submit_many(
        self,
        updates: Iterable[Update],
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> int:
        """Enqueue a batch; returns the exactly-accepted prefix length.

        The router queue is the single admission point, so on backpressure
        the accepted count is the exact prefix that will reach the shards —
        no update is half-replicated.
        """
        accepted = 0
        for update in updates:
            try:
                self.submit(update, block=block, timeout=timeout)
            except EngineBackpressure:
                break
            accepted += 1
        return accepted

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything submitted before this call is applied
        by every shard it was routed to."""
        if self._thread is None:
            raise EngineError("engine is not running; call start() first")
        marker = _Flush()
        if not put_control(self._queue, marker, self._thread):
            self._raise_router_failure()
            raise EngineError("sharded router is not running")
        return await_flush_marker(marker, self._raise_router_failure, timeout)

    def backpressure_signal(self) -> EngineBackpressure:
        """Merged load-shedding signal: ``retry_after_ms`` is the **max**
        over the per-shard signals (and the router's own horizon, drained
        at the slowest shard's rate) — the slowest shard gates when the
        pipeline can absorb a retry."""
        shard_signals = [shard.backpressure_signal() for shard in self.shards]
        config = self.config
        slowest = max(shard.metrics.seconds_per_update() for shard in self.shards)
        own_ms = retry_hint_ms(self._queue.qsize(), slowest)
        retry_after_ms = max([own_ms] + [s.retry_after_ms for s in shard_signals])
        return EngineBackpressure(
            f"sharded ingest queue full ({config.queue_capacity} updates)",
            queue_depth=self.queue_depth,
            queue_capacity=self.total_queue_capacity,
            retry_after_ms=retry_after_ms,
        )

    # ------------------------------------------------------------------
    # router thread
    # ------------------------------------------------------------------
    def _router_loop(self) -> None:
        stop = False
        while not stop:
            batch, flushes, stop = take_batch(self._queue, self.config.batch_size)
            try:
                for update in batch:
                    self._route(update)
                if flushes:
                    for shard in self.shards:
                        shard.flush()
            except BaseException as exc:  # surface on the next submit/flush
                self._failure = exc
                stop = True
            for marker in flushes:
                marker.event.set()

    def _route(self, update: Update) -> None:
        """Replicate one update to its endpoint shards (router thread only).

        No-ops are filtered against the global edge set *here* so the
        logical ``applied`` count and every shard's WAL stay exact; the
        inner engines' own pre-validation then never fires for routed
        updates, but remains as a safety net.
        """
        u, v = update.u, update.v
        if u == v:
            self.metrics.add("updates_rejected")
            return
        edge = canonical_edge(u, v)
        if (update.kind is UpdateKind.INSERT) == (edge in self._edges):
            self.metrics.add("updates_rejected")
            return
        targets = {self._owner(u), self._owner(v)}
        if len(targets) > 1:
            self.metrics.add("cross_shard_updates")
        context = update_context(update)
        if context is not None:
            # the routing hop gets its own span so per-shard applies nest
            # under it; the update is re-tagged with the hop's context so
            # the shard spans point at the router span as their parent
            with get_tracer().span(
                "router.route",
                trace_id=context.trace_id,
                parent_id=context.span_id,
                shards=sorted(targets),
                cross_shard=len(targets) > 1,
            ) as span_context:
                attach_context(update, span_context)
                self._deliver(update, targets)
        else:
            self._deliver(update, targets)
        if update.kind is UpdateKind.INSERT:
            self._edges.add(edge)
            for endpoint in edge:
                self._degrees[endpoint] = self._degrees.get(endpoint, 0) + 1
        else:
            self._edges.discard(edge)
            for endpoint in edge:
                remaining = self._degrees.get(endpoint, 1) - 1
                if remaining <= 0:
                    self._degrees.pop(endpoint, None)
                    self._owner.evict(endpoint)
                else:
                    self._degrees[endpoint] = remaining
        self.applied += 1

    def _deliver(self, update: Update, targets: Iterable[int]) -> None:
        """Feed one routed update to every endpoint shard (router thread).

        A momentarily full shard delays the router (and, through the
        router queue, the producers) instead of dropping one replica
        of a half-routed update — but the wait is sliced, so a shard
        whose *writer died* with a full queue surfaces as an
        EngineError instead of blocking the router, and with it
        close()/delete, forever.  The shard's queue is fed directly:
        the update is already canonicalised, and the client-facing
        submit path would count every timeout slice as a shed
        request in the "backpressure" metric, which this is not.
        """
        for index in targets:
            shard = self.shards[index]
            while True:
                shard._raise_writer_failure()
                try:
                    shard._queue.put(update, block=True, timeout=0.25)
                    break
                except queue.Full:
                    continue  # still full; the writer probe above re-runs

    def _raise_router_failure(self) -> None:
        if self._failure is not None:
            raise EngineError("sharded router failed") from self._failure

    # ------------------------------------------------------------------
    # read path (scatter-gather, memoised per export tuple)
    # ------------------------------------------------------------------
    @property
    def view_version(self) -> int:
        """The merge ordinal the next :meth:`view` call would carry — O(1).

        Derived straight from the shards' published exports so version
        polls (the tenant listing, ``describe``) never pay for a merge.
        """
        return sum(shard.export().version for shard in self.shards)

    def view(self) -> ShardedView:
        """The merged view of the latest per-shard published exports."""
        exports = tuple(shard.export() for shard in self.shards)
        cached = self._merged_cache
        if cached is not None and all(
            old is new for old, new in zip(cached[0], exports)
        ):
            return cached[1]
        merged = merge_shard_views(
            exports, self.params, self.num_shards, owner=self._owner
        )
        self._merged_cache = (exports, merged)
        return merged

    def cluster_of(self, v: Vertex) -> Tuple[int, ...]:
        start = time.perf_counter()
        result = self.view().cluster_of(v)
        self.metrics.observe_query(time.perf_counter() - start)
        return result

    def group_by(self, vertices: Iterable[Vertex]) -> GroupByResult:
        start = time.perf_counter()
        result = self.view().group_by(vertices)
        self.metrics.observe_query(time.perf_counter() - start)
        return result

    def stats(self) -> Dict[str, object]:
        """Merged view statistics plus per-shard depth/metrics breakdown."""
        view = self.view()
        shard_rows: List[Dict[str, object]] = []
        for shard in self.shards:
            export = shard.export()
            shard_rows.append(
                {
                    "shard": shard.shard_index,
                    "queue_depth": shard.queue_depth,
                    "applied": shard.applied,
                    "view_version": export.version,
                    "num_vertices": export.num_vertices,
                    "num_edges": export.num_edges,
                    "owned_vertices": len(export.adjacency),
                    "running": shard.running,
                }
            )
        merged_metrics = ServiceMetrics.merged(
            [self.metrics] + [shard.metrics for shard in self.shards]
        )
        return {
            **view.stats(),
            "backend": self.backend,
            "num_shards": self.num_shards,
            "applied": self.applied,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.total_queue_capacity,
            "recovered_updates": self.recovered_updates,
            "running": self.running,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "cross_shard_updates": self.metrics.get("cross_shard_updates"),
            "shards": shard_rows,
            "metrics": merged_metrics.snapshot(),
        }


#: Either engine shape, for annotations in the layers above.  Both, and
#: the :class:`~repro.service.replication.StandbyEngine` wrapping either,
#: answer one read surface, so no reader needs to know a tenant's shape:
#: ``shards`` (the writer engines, ``[self]`` for a plain engine),
#: ``num_shards``, ``epoch``, ``fenced`` and ``replication_status()``
#: (``None`` except on a standby).  A ``_ShardEngine`` is a writer, not a
#: tenant engine: its own ``shard_index``/``num_shards`` place it in its
#: partition, and nothing walks its ``shards``.
AnyEngine = Union[ClusteringEngine, ShardedEngine]


def make_engine(
    params: Optional[StrCluParams] = None,
    config: Optional[EngineConfig] = None,
    data_dir: Optional[Union[str, Path]] = None,
    metrics: Optional[ServiceMetrics] = None,
    backend: str = "dynstrclu",
    reconcile: bool = True,
) -> AnyEngine:
    """Build the engine shape ``config.shards`` asks for.

    ``shards == 1`` (the default) returns a plain
    :class:`ClusteringEngine` — byte-for-byte the pre-sharding behaviour;
    ``shards > 1`` returns a :class:`ShardedEngine` over that many inner
    engines (with per-shard ``data_dir/shard-<i>/`` durability when a
    ``data_dir`` is given).
    """
    config = config if config is not None else EngineConfig()
    if config.shards == 1:
        if data_dir is not None and (Path(data_dir) / MANIFEST_FILE).exists():
            # the inverse shape mismatch: re-opening a sharded tenant's
            # directory unsharded would silently serve an empty graph
            raise ValueError(
                f"data_dir {data_dir} holds a *sharded* engine's state "
                f"({MANIFEST_FILE}); open it with the stored shard count, "
                "not shards=1"
            )
        return ClusteringEngine(
            params,
            config=config,
            data_dir=data_dir,
            metrics=metrics,
            backend=backend,
        )
    return ShardedEngine(
        params,
        config=config,
        data_dir=data_dir,
        metrics=metrics,
        backend=backend,
        reconcile=reconcile,
    )
