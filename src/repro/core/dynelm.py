"""DynELM — dynamic edge-label maintenance (paper Sections 5, 6 and 8.4).

DynELM maintains a valid ρ-approximate edge labelling of a dynamic graph
under edge insertions and deletions.  The machinery, following the paper:

* labels are produced by the (½ρε, δ_i)-strategy
  (:class:`~repro.core.labelling.LabellingStrategy`) backed by the sampling
  estimator, so one labelling costs poly-log work instead of a
  neighbourhood scan (σ is computed exactly when that scan is the cheaper
  of the two);
* every labelled edge can absorb ``τ(u, v) − 1`` affecting updates before
  its label can possibly become invalid
  (:mod:`~repro.core.affordability`), so a DT instance with threshold
  ``τ(u, v)`` tracks its affecting updates.  Labelling and τ come from one
  step, :meth:`~repro.core.labelling.LabellingStrategy.relabel_all`, which
  reads each edge's two neighbourhoods once;
* the drain works per endpoint: the edges whose DT instances mature at
  ``u`` are relabelled as one batch, in the order the tracker reports
  them, and re-tracked as one batch
  (:meth:`~repro.dt.tracker.UpdateTracker.retrack`); then the same at
  ``w``.  The inserted edge is a batch of one;
* the DT instances of all edges incident on a vertex share one counter
  (:class:`~repro.dt.tracker.UpdateTracker`), so an update only touches
  the edges whose DT actually signals.  An edge with remaining τ ≤ 8 (the
  protocol's straightforward mode, where every affecting update signals)
  sits in a counter lane and matures straight off the two endpoints'
  counters; only slack-mode rounds (τ > 8) are organised in a ``DtHeap``.

Handling an update ``(u, w)`` follows the five steps of Section 6 and
returns the set ``F`` of edges whose label flipped, which DynStrClu consumes
to maintain the clustering structures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# not called here: perfbench/tracing.py wraps this module binding, so it stays
from repro.core.affordability import tracking_threshold  # noqa: F401
from repro.core.config import StrCluParams
from repro.core.estimator import ExactSimilarityOracle, SamplingSimilarityOracle, SimilarityOracle
from repro.core.labelling import EdgeLabel, LabellingStrategy
from repro.core.result import Clustering, compute_clusters
from repro.dt.tracker import UpdateTracker
from repro.graph.dynamic_graph import DynamicGraph, Vertex, canonical_edge
from repro.instrumentation import MemoryModel, NULL_COUNTER, OpCounter

Edge = Tuple[Vertex, Vertex]


class UpdateKind(str, Enum):
    """Kind of a graph update."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class Update:
    """One edge update of the dynamic graph."""

    kind: UpdateKind
    u: Vertex
    v: Vertex

    @staticmethod
    def insert(u: Vertex, v: Vertex) -> "Update":
        return Update(UpdateKind.INSERT, u, v)

    @staticmethod
    def delete(u: Vertex, v: Vertex) -> "Update":
        return Update(UpdateKind.DELETE, u, v)

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.u, self.v)


@dataclass
class UpdateResult:
    """What DynELM reports back after processing one update.

    Attributes
    ----------
    update:
        The update that was processed.
    updated_edge_label:
        For an insertion, the label given to the new edge; for a deletion,
        the label the edge had immediately before removal.
    flips:
        Every *existing* edge whose label flipped while draining the DT
        heaps, with its new label.  The updated edge itself is reported via
        ``updated_edge_label``, not here.
    relabelled:
        Number of strategy invocations triggered by this update (the new
        edge plus every matured DT instance), for instrumentation.
    """

    update: Update
    updated_edge_label: EdgeLabel
    flips: List[Tuple[Edge, EdgeLabel]] = field(default_factory=list)
    relabelled: int = 0

    @property
    def label_events(self) -> List[Tuple[Edge, Optional[EdgeLabel]]]:
        """Uniform event list consumed by DynStrClu.

        Each element is ``(edge, new_label)`` where ``new_label`` is ``None``
        for a deleted edge.  The updated edge always appears first.
        """
        events: List[Tuple[Edge, Optional[EdgeLabel]]] = []
        if self.update.kind is UpdateKind.INSERT:
            events.append((self.update.edge, self.updated_edge_label))
        else:
            events.append((self.update.edge, None))
        events.extend(self.flips)
        return events


class DynELM:
    """Dynamic Edge Label Maintenance (Theorems 6.1 and 8.1).

    Every strategy invocation — the inserted edge, then each edge whose DT
    instance matures in the drain — is one edge of a
    :meth:`LabellingStrategy.relabel_all` batch, which returns the new
    labels and the thresholds τ the edges are re-tracked with.  The drain
    passes the edges matured at one endpoint as one batch.

    Parameters
    ----------
    params:
        Clustering parameters.  ``params.similarity`` selects Jaccard or
        cosine; ``params.rho == 0`` selects exact mode, in which the exact
        oracle is used and every affecting update triggers a re-label (the
        configuration used by the equivalence property tests).
    oracle:
        Optional similarity oracle override; by default a
        :class:`SamplingSimilarityOracle` (or an exact oracle in exact mode).
        The strategy reads the oracle's hybrid cutoff at every invocation,
        so assigning ``strategy.oracle`` later takes effect at once.
    counter:
        Optional :class:`OpCounter` receiving instrumentation events.
    scope:
        Optional predicate over edges (``scope(u, v) -> bool``).  An edge
        outside the scope is maintained as a *graph-only* edge: it enters
        and leaves :attr:`graph` (so the closed neighbourhoods — and hence
        the similarities of in-scope edges — stay exact), it still counts
        as an affecting update at both endpoints, but it is never labelled
        and never tracked by a DT instance.  This is the primitive behind
        the sharded engine: a shard labels only the edges it owns while
        holding the replicated boundary edges for neighbourhood accuracy,
        and the scatter-gather merge resolves the unlabelled boundary
        edges from the owning shards' neighbourhoods.  ``None`` (the
        default) labels every edge — the single-engine behaviour.

    Example
    -------
    >>> params = StrCluParams(epsilon=0.5, mu=2, rho=0.01, seed=7)
    >>> elm = DynELM(params)
    >>> _ = elm.insert_edge(1, 2)
    >>> _ = elm.insert_edge(2, 3)
    >>> elm.graph.num_edges
    2
    """

    def __init__(
        self,
        params: StrCluParams,
        oracle: Optional[SimilarityOracle] = None,
        counter: Optional[OpCounter] = None,
        graph: Optional[DynamicGraph] = None,
        scope: Optional[Callable[[Vertex, Vertex], bool]] = None,
    ) -> None:
        self.params = params
        self.scope = scope
        self.counter = counter if counter is not None else NULL_COUNTER
        self.graph = graph if graph is not None else DynamicGraph()
        self.rng = random.Random(params.seed)
        if oracle is None:
            if params.exact_mode:
                oracle = ExactSimilarityOracle(self.graph, params.similarity, self.counter)
            else:
                oracle = SamplingSimilarityOracle(
                    self.graph,
                    kind=params.similarity,
                    epsilon=params.epsilon,
                    rng=self.rng,
                    counter=self.counter,
                )
        self.oracle = oracle
        self.strategy = LabellingStrategy(params, oracle, self.counter)
        self.tracker = UpdateTracker(self.counter)
        self.labels: Dict[Edge, EdgeLabel] = {}
        self.updates_processed = 0
        self._memory_model = MemoryModel()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        params: StrCluParams,
        counter: Optional[OpCounter] = None,
    ) -> "DynELM":
        """Hot start: build the structure by inserting every edge in turn.

        The paper's remark after Theorem 7.1: inserting the ``m0`` initial
        edges one by one costs ``Õ(m0)`` which is amortised over the
        subsequent updates.
        """
        elm = cls(params, counter=counter)
        for u, v in edges:
            elm.insert_edge(u, v)
        return elm

    # ------------------------------------------------------------------
    # public update API
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> UpdateResult:
        """Process a single :class:`Update`."""
        if update.kind is UpdateKind.INSERT:
            return self.insert_edge(update.u, update.v)
        return self.delete_edge(update.u, update.v)

    def insert_edge(self, u: Vertex, w: Vertex) -> UpdateResult:
        """Insert edge ``(u, w)`` and maintain the labelling (Steps 1–5, Case 1)."""
        update = Update.insert(u, w)
        self.updates_processed += 1
        self.counter.add("update")
        # Step 1: shared-counter increments for both endpoints
        self.tracker.increment(u)
        self.tracker.increment(w)
        # Step 2 (Case 1): insert, label the new edge, start its DT instance
        self.graph.insert_edge(u, w)
        if self.scope is not None and not self.scope(u, w):
            # graph-only edge: it affects the neighbourhoods (hence the
            # shared counters above and the drain below) but carries no
            # label and no DT instance of its own
            flips, relabelled = self._drain(u, w)
            return UpdateResult(update, EdgeLabel.DISSIMILAR, flips, relabelled)
        label, tau = self.strategy.relabel(u, w)
        self.labels[update.edge] = label
        self.tracker.track(u, w, tau)
        relabelled = 1
        # Steps 3 and 4: drain checkpoint-ready DT entries at both endpoints
        flips, extra = self._drain(u, w)
        relabelled += extra
        return UpdateResult(update, label, flips, relabelled)

    def delete_edge(self, u: Vertex, w: Vertex) -> UpdateResult:
        """Delete edge ``(u, w)`` and maintain the labelling (Steps 1–5, Case 2)."""
        update = Update.delete(u, w)
        self.updates_processed += 1
        self.counter.add("update")
        # Step 1
        self.tracker.increment(u)
        self.tracker.increment(w)
        # Step 2 (Case 2): remember the old label, drop edge, label and DT.
        # A graph-only edge (out of ``scope``) legitimately has neither, so
        # only that case may default — an in-scope edge missing its label
        # must still fail loudly (the bookkeeping invariant).
        if self.scope is not None and not self.scope(u, w):
            old_label = self.labels.pop(update.edge, EdgeLabel.DISSIMILAR)
        else:
            old_label = self.labels.pop(update.edge)
        self.graph.delete_edge(u, w)
        self.tracker.untrack(u, w)
        # Steps 3 and 4
        flips, relabelled = self._drain(u, w)
        return UpdateResult(update, old_label, flips, relabelled)

    def _drain(self, u: Vertex, w: Vertex) -> Tuple[List[Tuple[Edge, EdgeLabel]], int]:
        """Steps 3/4: process matured DT instances at ``u`` then ``w``.

        The edges that mature at one endpoint are relabelled as one batch
        and re-tracked as one batch, in the order the tracker reported them.
        """
        flips: List[Tuple[Edge, EdgeLabel]] = []
        relabelled = 0
        labels = self.labels
        tracker = self.tracker
        for endpoint in (u, w):
            matured = tracker.process_ready(endpoint)
            if not matured:
                continue
            new_labels, taus = self.strategy.relabel_all(matured)
            relabelled += len(matured)
            for edge, new in zip(matured, new_labels):
                if new is not labels[edge]:
                    flips.append((edge, new))
                    labels[edge] = new
            tracker.retrack(matured, taus)
        return flips, relabelled

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def edge_label(self, u: Vertex, v: Vertex) -> Optional[EdgeLabel]:
        """Current label of edge ``(u, v)`` or ``None`` if the edge is absent."""
        return self.labels.get(canonical_edge(u, v))

    def clustering(self) -> Clustering:
        """Retrieve the StrCluResult for the maintained labelling (Fact 1, O(n + m))."""
        return compute_clusters(self.graph, self.labels, self.params.mu)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_words(self) -> int:
        """Logical structure size in machine words (Table 1 memory model)."""
        n = self.graph.num_vertices
        m = self.graph.num_edges
        tracker_elements = self.tracker.memory_elements()
        return self._memory_model.words(
            # one record per vertex; it holds the tracker's shared counter too
            vertex_record=n,
            adjacency_entry=2 * m,
            edge_label=m,
            dt_coordinator=tracker_elements["dt_coordinator"],
            dt_heap_entry=tracker_elements["dt_heap_entry"],
            dt_stamp=tracker_elements["dt_stamp"],
            dt_lane_tau=tracker_elements["dt_lane_tau"],
        )
