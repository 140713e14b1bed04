"""DynStrClu — the ultimate dynamic structural clustering algorithm (Section 7).

DynStrClu composes three modules:

* **ELM** — a :class:`~repro.core.dynelm.DynELM` instance maintaining the
  ρ-approximate edge labelling and reporting the flipped edges ``F`` of each
  update;
* **vAuxInfo** — per-vertex SimCnt counters and neighbour categories
  (:class:`~repro.core.aux_info.VertexAuxInfo`);
* **CC-Str(G_core)** — a fully dynamic connectivity structure over the
  sim-core graph (any backend from :mod:`repro.connectivity`).

On top of the clustering-retrieval capability inherited from DynELM, the
composition answers *cluster-group-by* queries over an arbitrary vertex set
``Q`` in ``O(|Q| · log n)`` time (Theorem 7.1): a core vertex contributes the
component identifier of its ``G_core`` component, a non-core vertex the
identifiers of its sim-core neighbours' components.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.connectivity import make_connectivity
from repro.connectivity.base import ConnectivityStructure
from repro.core.aux_info import VertexAuxInfo
from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM, Update, UpdateKind, UpdateResult
from repro.core.estimator import SimilarityOracle
from repro.core.labelling import EdgeLabel
from repro.core.result import Clustering, GroupByResult, ViewDelta
from repro.graph.dynamic_graph import DynamicGraph, Vertex, canonical_edge
from repro.instrumentation import MemoryModel, NULL_COUNTER, OpCounter

Edge = Tuple[Vertex, Vertex]


class DynStrClu:
    """Dynamic structural clustering with cluster-group-by queries.

    Example
    -------
    >>> params = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
    >>> algo = DynStrClu(params)
    >>> for edge in [(1, 2), (2, 3), (1, 3), (3, 4)]:
    ...     _ = algo.insert_edge(*edge)
    >>> result = algo.group_by([1, 2, 4])
    >>> sorted(len(g) for g in result.as_sets())
    [3]
    """

    def __init__(
        self,
        params: StrCluParams,
        oracle: Optional[SimilarityOracle] = None,
        counter: Optional[OpCounter] = None,
        connectivity: Optional[ConnectivityStructure] = None,
        connectivity_backend: str = "hdt",
        scope: Optional[Callable[[Vertex, Vertex], bool]] = None,
    ) -> None:
        self.counter = counter if counter is not None else NULL_COUNTER
        self.elm = DynELM(params, oracle=oracle, counter=self.counter, scope=scope)
        self.aux = VertexAuxInfo()
        self.cc = connectivity if connectivity is not None else make_connectivity(
            connectivity_backend
        )
        self.cores: Set[Vertex] = set()
        self._memory_model = MemoryModel()
        # flip set accumulated since the last drain_view_delta() — every
        # vertex whose core status or cluster membership may have changed
        self._view_flips: Set[Vertex] = set()

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def params(self) -> StrCluParams:
        return self.elm.params

    @property
    def graph(self) -> DynamicGraph:
        return self.elm.graph

    @property
    def updates_processed(self) -> int:
        """Number of updates applied so far (delegated to the ELM stream count)."""
        return self.elm.updates_processed

    @property
    def labels(self) -> Dict[Edge, EdgeLabel]:
        return self.elm.labels

    @property
    def scope(self) -> Optional[Callable[[Vertex, Vertex], bool]]:
        """The edge-labelling scope predicate (``None``: label everything)."""
        return self.elm.scope

    def is_core(self, u: Vertex) -> bool:
        """True when ``u`` currently has at least μ similar neighbours."""
        return u in self.cores

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
        connectivity_backend: str = "hdt",
    ) -> "DynStrClu":
        """Hot start: insert every edge of an existing graph one by one."""
        algo = cls(params, counter=counter, connectivity_backend=connectivity_backend)
        for u, v in edges:
            algo.insert_edge(u, v)
        return algo

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> UpdateResult:
        """Process one :class:`Update`."""
        if update.kind is UpdateKind.INSERT:
            return self.insert_edge(update.u, update.v)
        return self.delete_edge(update.u, update.v)

    def insert_edge(self, u: Vertex, w: Vertex) -> UpdateResult:
        """Insert edge ``(u, w)`` and maintain labelling, vAuxInfo and G_core."""
        result = self.elm.insert_edge(u, w)
        self._integrate(result)
        return result

    def delete_edge(self, u: Vertex, w: Vertex) -> UpdateResult:
        """Delete edge ``(u, w)`` and maintain labelling, vAuxInfo and G_core."""
        result = self.elm.delete_edge(u, w)
        self._integrate(result)
        return result

    # ------------------------------------------------------------------
    # the maintenance pass of Section 7
    # ------------------------------------------------------------------
    def _integrate(self, result: UpdateResult) -> None:
        """Consume the flip set ``F`` of one update: maintain vAuxInfo and CC-Str."""
        events = result.label_events
        touched: Set[Vertex] = set()
        for (a, b), _new_label in events:
            touched.add(a)
            touched.add(b)
        old_core = {v: v in self.cores for v in touched}

        # --- vAuxInfo: similar-neighbour sets -------------------------------
        for (a, b), new_label in events:
            if new_label is EdgeLabel.SIMILAR:
                self.aux.update_similar_edge(a, b, a in self.cores, b in self.cores)
            else:
                # dissimilar or deleted: either way the edge is no longer a
                # similar edge of the graph
                self.aux.remove_similar_edge(a, b)

        # --- core-status flips (V') ------------------------------------------
        mu = self.params.mu
        core_flips: List[Vertex] = []
        for v in touched:
            now_core = self.aux.sim_count(v) >= mu
            if now_core != old_core[v]:
                core_flips.append(v)
                if now_core:
                    self.cores.add(v)
                else:
                    self.cores.discard(v)

        # the similar neighbours of each flipped vertex, copied once: the
        # category moves below change which half of x's union v sits in,
        # never the union of v itself
        flipped = [(v, self.aux.similar_neighbours(v)) for v in core_flips]

        # neighbour categories follow the new core status of the flipped vertices
        for v, neighbours in flipped:
            v_is_core = v in self.cores
            for x in neighbours:
                self.aux.set_neighbour_core_status(x, v, v_is_core)

        # the flip set of this update (paper's F, vertex form): the touched
        # endpoints, plus every vertex attached to a core whose status
        # flipped — exactly the vertices whose membership can have changed
        self._view_flips.update(touched)
        for _v, neighbours in flipped:
            self._view_flips.update(neighbours)

        # --- sim-core edge flips (F') and G_core maintenance ------------------
        candidates: Set[Edge] = {edge for edge, _ in events}
        for v, neighbours in flipped:
            for x in neighbours:
                candidates.add(canonical_edge(v, x))

        graph = self.graph
        labels = self.labels
        newly_core = [v for v in core_flips if v in self.cores]
        for v in newly_core:
            # the paper's conceptual self-loop: a core vertex is present in
            # G_core even if it has no incident sim-core edge yet
            self.cc.add_vertex(v)
            self.counter.add("cc_op")

        for a, b in candidates:
            is_sim_core = (
                graph.has_edge(a, b)
                and labels.get(canonical_edge(a, b)) is EdgeLabel.SIMILAR
                and a in self.cores
                and b in self.cores
            )
            was_sim_core = self.cc.has_edge(a, b)
            if is_sim_core and not was_sim_core:
                self.cc.insert_edge(a, b)
                self.counter.add("cc_op")
            elif was_sim_core and not is_sim_core:
                self.cc.delete_edge(a, b)
                self.counter.add("cc_op")

        for v in core_flips:
            if v not in self.cores and self.cc.has_vertex(v):
                # all incident sim-core edges were removed above, so v is isolated
                self.cc.remove_vertex(v)
                self.counter.add("cc_op")

    # ------------------------------------------------------------------
    # the per-batch delta surface (incremental view publication)
    # ------------------------------------------------------------------
    def drain_view_delta(self) -> ViewDelta:
        """Return (and reset) the flip set accumulated since the last drain.

        DynStrClu is the one backend that tracks the paper's flip set
        exactly, so its delta is never a full rebuild.  The service layer
        drains once per micro-batch and patches the published view with the
        returned vertices (:meth:`repro.service.views.ClusteringView.patched`).
        """
        flips = self._view_flips
        self._view_flips = set()
        return ViewDelta.of(flips)

    def core_component(self, v: Vertex) -> int:
        """Opaque ``G_core`` component identifier of a core vertex.

        Only meaningful for current cores; identifiers are consistent at a
        single moment (two cores share one iff connected) but not stable
        across updates — callers must re-key per batch.
        """
        return self.cc.component_id(v)

    def core_attachments(self, v: Vertex) -> Set[Vertex]:
        """Every vertex attached to core ``v``: its similar neighbours."""
        return self.aux.similar_neighbours(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        """Cluster-group-by query (Definition 3.2) in O(|Q| log n) time."""
        groups: Dict[int, Set[Vertex]] = {}
        cores = self.cores
        sim_core_neighbours = self.aux.sim_core_neighbours
        component_id = self.cc.component_id
        count = 0
        for u in query:
            count += 1
            if u in cores:
                key = component_id(u)
                group = groups.get(key)
                if group is None:
                    groups[key] = {u}
                else:
                    group.add(u)
                continue
            for v in sim_core_neighbours(u):
                key = component_id(v)
                group = groups.get(key)
                if group is None:
                    groups[key] = {u}
                else:
                    group.add(u)
        self.counter.add("groupby_vertex", count)
        return GroupByResult(groups=groups)

    def clustering(self) -> Clustering:
        """Retrieve the full StrCluResult from the maintained structures.

        Cost: one FindCcID per core, plus the sim-non-core entries of the
        cores, plus one pass over V for noise.  Clusters correspond
        one-to-one to the connected components of the maintained
        ``G_core``; each holds the component's cores plus every non-core
        with a similar edge to one of them.  The sim-core half of vAuxInfo
        is never read: a similar edge between two cores is a ``G_core``
        edge, so a core's sim-core neighbours lie in its own component and
        are members already.  A non-core attached to two or more components
        is a hub; every other non-core graph vertex that no cluster owns is
        noise.
        """
        cores = self.cores
        component_id = self.cc.component_id
        sim_noncore_neighbours = self.aux.sim_noncore_neighbours
        clusters: Dict[int, Set[Vertex]] = {}
        # per component, the union of its cores' sim-non-core neighbours: two
        # cores of one cluster may share a non-core, which counts once
        attached: Dict[int, Set[Vertex]] = {}
        for core in cores:
            key = component_id(core)
            cluster = clusters.get(key)
            if cluster is None:
                clusters[key] = {core}
            else:
                cluster.add(core)
            noncores = sim_noncore_neighbours(core)
            if noncores:
                attached.setdefault(key, set()).update(noncores)

        owned: Set[Vertex] = set()
        hubs: Set[Vertex] = set()
        for key, noncores in attached.items():
            hubs.update(owned.intersection(noncores))
            owned.update(noncores)
            clusters[key].update(noncores)
        noise = set(self.graph.vertices())
        noise.difference_update(cores, owned)
        return Clustering(
            clusters=list(clusters.values()), cores=set(cores), hubs=hubs, noise=noise
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_words(self) -> int:
        """Logical structure size in machine words (Table 1 memory model)."""
        base = self.elm.memory_words()
        cc_elements = self.cc.memory_elements()
        return base + self._memory_model.words(
            aux_entry=self.aux.num_entries(),
            cc_node=cc_elements.get("cc_node", 0),
        )
