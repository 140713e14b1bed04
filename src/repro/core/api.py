"""The unified clustering-backend protocol and its string-keyed registry.

The repository grew several maintainers of the same logical object — a
structural clustering of a dynamic graph — each with a slightly different
surface: :class:`~repro.core.dynstrclu.DynStrClu` (the paper's ultimate
algorithm), :class:`~repro.core.dynelm.DynELM` plus
:func:`~repro.core.result.compute_clusters` (labels without the group-by
structures), and the three SCAN baselines.  This module is the seam that
makes them interchangeable:

* :class:`Clusterer` — the protocol every backend satisfies: apply one
  :class:`~repro.core.dynelm.Update`, insert/delete one edge, retrieve the
  full :class:`~repro.core.result.Clustering`, answer a cluster-group-by
  over a vertex set, report the logical memory footprint, and drain the
  per-batch :class:`~repro.core.result.ViewDelta` (the flip set ``F`` of
  vertices whose membership changed, or a full-rebuild flag for backends
  that cannot track it — see :class:`FullRebuildDeltaMixin`);
* a **string-keyed registry** — ``make_clusterer("pscan", params)`` builds
  any registered backend from one parameter bundle, so the serving engine,
  the experiment runner and the CLI all select backends by name instead
  of hard-wiring a class.

Built-in backends
-----------------
==============  ====================================  =========================
Name            Implementation                        Notes
==============  ====================================  =========================
``dynstrclu``   :class:`DynStrClu`                    O(|Q| log n) group-by;
                                                      the only snapshot-capable
                                                      backend (durability)
``dynelm``      :class:`DynELM` + compute_clusters    group-by derived from a
                                                      full retrieval (O(n + m))
``scan-exact``  static SCAN re-run per retrieval      exact, trivially correct,
                                                      O(m^1.5) per retrieval
``pscan``       :class:`ExactDynamicSCAN`             exact labels maintained,
                                                      O(n) per update
``hscan``       :class:`IndexedDynamicSCAN`           similarity index bound to
                                                      the configured (ε, μ)
==============  ====================================  =========================

Backends constructed with ``rho == 0`` (exact mode) produce identical
clusterings on identical update streams — the invariant locked in by
``tests/property/test_property_backend_equivalence.py``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM, Update, UpdateKind
from repro.core.dynstrclu import DynStrClu
from repro.core.result import Clustering, GroupByResult, ViewDelta, group_by_clusters
from repro.graph.dynamic_graph import DynamicGraph, Vertex
from repro.instrumentation import MemoryModel, NULL_COUNTER, OpCounter


@runtime_checkable
class Clusterer(Protocol):
    """What every clustering backend exposes to the layers above it.

    Beyond the methods below, a conforming backend also carries three
    read-only attributes used by views, stats and recovery arithmetic:
    ``params`` (the :class:`StrCluParams` it was built with), ``graph``
    (the live :class:`DynamicGraph`) and ``updates_processed`` (how many
    updates it has applied).
    """

    def apply(self, update: Update) -> object:
        """Process one insert/delete update."""
        ...

    def insert_edge(self, u: Vertex, v: Vertex) -> object:
        """Insert edge ``(u, v)``."""
        ...

    def delete_edge(self, u: Vertex, v: Vertex) -> object:
        """Delete edge ``(u, v)``."""
        ...

    def clustering(self) -> Clustering:
        """Retrieve the full clustering of the current graph."""
        ...

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        """Partition ``query`` by cluster membership (Definition 3.2)."""
        ...

    def memory_words(self) -> int:
        """Logical structure size in machine words (Table 1 memory model)."""
        ...

    def drain_view_delta(self) -> ViewDelta:
        """Report (and reset) the flip set accumulated since the last drain.

        The per-batch delta surface of incremental view publication: a
        backend that tracks which vertices' core status or cluster
        membership changed returns :meth:`ViewDelta.of` with that flip set;
        a backend that cannot returns :meth:`ViewDelta.full` and the
        service layer re-captures the view from scratch.

        Backends reporting tracked deltas must additionally expose the two
        patch probes ``core_component(v)`` (an opaque, momentarily
        consistent cluster identifier for a core vertex) and
        ``core_attachments(v)`` (the vertices attached to a core) plus
        ``is_core(v)`` — the queries
        :meth:`repro.service.views.ClusteringView.patched` replays over the
        flip set's dirty region.
        """
        ...


class FullRebuildDeltaMixin:
    """Delta surface of backends that cannot track the flip set.

    Mixing this in satisfies the :class:`Clusterer` delta protocol with the
    honest answer — "recompute everything" — which the view layer turns
    into a full :meth:`~repro.service.views.ClusteringView.capture`.
    """

    def drain_view_delta(self) -> ViewDelta:
        return ViewDelta.full()


def _group_by_from_clustering(
    clustering: Clustering, query: Iterable[Vertex]
) -> GroupByResult:
    """Derive a cluster-group-by from a full retrieval.

    The fallback for backends without DynStrClu's maintained group-by
    structures: costs one O(n + m) retrieval per query instead of
    O(|Q| log n), but partitions the query set identically because cluster
    membership in the retrieved :class:`Clustering` is defined by exactly
    the relation the live query path evaluates.  Having paid for the
    retrieval, it intersects each cluster with the query rather than
    building the vertex→cluster index.
    """
    return group_by_clusters(dict(enumerate(clustering.clusters)), query)


class DynELMClusterer(FullRebuildDeltaMixin):
    """``dynelm`` backend: DynELM labels + clustering retrieval on demand.

    No view delta: DynELM reports flipped *edges* but maintains neither
    SimCnt counters nor ``G_core``, so per-vertex membership changes are
    not derivable without the full retrieval it would be patching around.
    """

    backend_name = "dynelm"

    def __init__(
        self,
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
        scope: Optional[Callable[..., bool]] = None,
        **_ignored: object,
    ) -> None:
        self.elm = DynELM(params, counter=counter, scope=scope)

    @property
    def params(self) -> StrCluParams:
        return self.elm.params

    @property
    def graph(self) -> DynamicGraph:
        return self.elm.graph

    @property
    def updates_processed(self) -> int:
        return self.elm.updates_processed

    def apply(self, update: Update) -> object:
        return self.elm.apply(update)

    def insert_edge(self, u: Vertex, v: Vertex) -> object:
        return self.elm.insert_edge(u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> object:
        return self.elm.delete_edge(u, v)

    def clustering(self) -> Clustering:
        return self.elm.clustering()

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        return _group_by_from_clustering(self.clustering(), query)

    def memory_words(self) -> int:
        return self.elm.memory_words()


class StaticSCANClusterer(FullRebuildDeltaMixin):
    """``scan-exact`` backend: maintain only the graph, re-run SCAN per query.

    The from-scratch baseline as a maintainer: updates cost O(1) (a graph
    mutation), every retrieval re-computes the exact clustering.  Useful as
    a correctness oracle behind the same service surface as the dynamic
    backends.
    """

    backend_name = "scan-exact"

    def __init__(
        self,
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
        **_ignored: object,
    ) -> None:
        self.params = params
        self.counter = counter if counter is not None else NULL_COUNTER
        self.graph = DynamicGraph()
        self.updates_processed = 0
        self._memory_model = MemoryModel()

    def apply(self, update: Update) -> object:
        if update.kind is UpdateKind.INSERT:
            return self.insert_edge(update.u, update.v)
        return self.delete_edge(update.u, update.v)

    def insert_edge(self, u: Vertex, v: Vertex) -> object:
        self.updates_processed += 1
        self.counter.add("update")
        self.graph.insert_edge(u, v)
        return None

    def delete_edge(self, u: Vertex, v: Vertex) -> object:
        self.updates_processed += 1
        self.counter.add("update")
        self.graph.delete_edge(u, v)
        return None

    def clustering(self) -> Clustering:
        from repro.baselines.scan import static_scan

        return static_scan(
            self.graph,
            self.params.epsilon,
            self.params.mu,
            self.params.similarity,
            counter=self.counter,
        )

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        return _group_by_from_clustering(self.clustering(), query)

    def memory_words(self) -> int:
        n = self.graph.num_vertices
        m = self.graph.num_edges
        return self._memory_model.words(vertex_record=n, adjacency_entry=2 * m)


class PScanClusterer(FullRebuildDeltaMixin):
    """``pscan`` backend: exact labels maintained by neighbourhood re-scans."""

    backend_name = "pscan"

    def __init__(
        self,
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
        **_ignored: object,
    ) -> None:
        from repro.baselines.pscan import ExactDynamicSCAN

        self.params = params
        self.maintainer = ExactDynamicSCAN(
            params.epsilon, params.mu, params.similarity, counter
        )

    @property
    def graph(self) -> DynamicGraph:
        return self.maintainer.graph

    @property
    def updates_processed(self) -> int:
        return self.maintainer.updates_processed

    def apply(self, update: Update) -> object:
        return self.maintainer.apply(update)

    def insert_edge(self, u: Vertex, v: Vertex) -> object:
        return self.maintainer.insert_edge(u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> object:
        return self.maintainer.delete_edge(u, v)

    def clustering(self) -> Clustering:
        return self.maintainer.clustering()

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        return _group_by_from_clustering(self.clustering(), query)

    def memory_words(self) -> int:
        return self.maintainer.memory_words()


class HScanClusterer(FullRebuildDeltaMixin):
    """``hscan`` backend: the similarity index bound to one (ε, μ) pair.

    :class:`IndexedDynamicSCAN` answers any (ε, μ) at query time; behind the
    uniform protocol it is pinned to the configured parameters so all
    backends answer the same question.
    """

    backend_name = "hscan"

    def __init__(
        self,
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
        **_ignored: object,
    ) -> None:
        from repro.baselines.hscan import IndexedDynamicSCAN

        self.params = params
        self.index = IndexedDynamicSCAN(params.similarity, counter)

    @property
    def graph(self) -> DynamicGraph:
        return self.index.graph

    @property
    def updates_processed(self) -> int:
        return self.index.updates_processed

    def apply(self, update: Update) -> object:
        return self.index.apply(update)

    def insert_edge(self, u: Vertex, v: Vertex) -> object:
        return self.index.insert_edge(u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> object:
        return self.index.delete_edge(u, v)

    def clustering(self) -> Clustering:
        return self.index.clustering(self.params.epsilon, self.params.mu)

    def group_by(self, query: Iterable[Vertex]) -> GroupByResult:
        return _group_by_from_clustering(self.clustering(), query)

    def memory_words(self) -> int:
        return self.index.memory_words()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: A factory takes ``(params, counter=None, scope=None)`` and returns a
#: :class:`Clusterer`; unknown keyword arguments are ignored by backends
#: that have no use for them.
ClustererFactory = Callable[..., Clusterer]

_BACKENDS: Dict[str, ClustererFactory] = {}

#: Backends whose full state can round-trip through
#: :mod:`repro.persistence.snapshot` — the ones the serving engine can make
#: durable (snapshot + WAL checkpointing).
SNAPSHOT_CAPABLE_BACKENDS = frozenset({"dynstrclu"})


def register_backend(
    name: str, factory: ClustererFactory, replace: bool = False
) -> None:
    """Register a backend under ``name`` (lower-case by convention).

    Raises ``ValueError`` when the name is taken and ``replace`` is false,
    so plugins cannot silently shadow a built-in.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    if key in _BACKENDS and not replace:
        raise ValueError(f"backend {key!r} is already registered")
    _BACKENDS[key] = factory


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_BACKENDS))


def make_clusterer(
    backend: str,
    params: StrCluParams,
    counter: Optional[OpCounter] = None,
    scope: Optional[Callable[..., bool]] = None,
) -> Clusterer:
    """Build the named backend from one parameter bundle.

    ``scope`` is the optional edge-labelling scope predicate used by the
    sharded engine (see :class:`repro.core.dynelm.DynELM`); backends that
    do not support scoped labelling ignore it — their shard-local results
    are never consulted for out-of-scope edges by the merge layer.

    Raises ``ValueError`` (listing the registered names) for an unknown
    backend, so CLI and HTTP layers can surface the typo directly.
    """
    key = backend.strip().lower()
    factory = _BACKENDS.get(key)
    if factory is None:
        raise ValueError(
            f"unknown clustering backend {backend!r}; "
            f"registered: {', '.join(available_backends())}"
        )
    return factory(params, counter=counter, scope=scope)


def _make_dynstrclu(
    params: StrCluParams,
    counter: Optional[OpCounter] = None,
    scope: Optional[Callable[..., bool]] = None,
) -> DynStrClu:
    return DynStrClu(params, counter=counter, scope=scope)


register_backend("dynstrclu", _make_dynstrclu)
register_backend("dynelm", DynELMClusterer)
register_backend("scan-exact", StaticSCANClusterer)
register_backend("pscan", PScanClusterer)
register_backend("hscan", HScanClusterer)
