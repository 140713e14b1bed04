"""Edge labels, the (½ρε, δ)-strategy, and ρ-approximate validity checks.

An edge labelling assigns ``similar`` or ``dissimilar`` to every edge of the
graph.  The paper's algorithms never store exact similarities; they store
labels produced by the *(Δ, δ)-strategy* (Definition 4.2): an edge is
labelled ``similar`` iff the estimator reports ``σ̃ ≥ ε``.  With
``Δ = ½ρε`` the resulting labelling is a valid ρ-approximate labelling
(Definition 2.2) with probability at least ``1 − δ`` per invocation
(Lemma 4.3), and the δ-budget is split across invocations by the schedule
``δ_i = δ*/(i(i+1))``.

This module also provides the exact labelling (Definition 2.1) and the
validity predicates that the evaluation module and the property-based tests
use.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from repro.core.affordability import degree_threshold
from repro.core.config import StrCluParams
from repro.core.estimator import SimilarityOracle
from repro.graph.dynamic_graph import DynamicGraph, Vertex, canonical_edge
from repro.graph.similarity import SimilarityKind, structural_similarity
from repro.instrumentation import NULL_COUNTER, OpCounter

Edge = Tuple[Vertex, Vertex]


class EdgeLabel(str, Enum):
    """Label of an edge under structural clustering."""

    SIMILAR = "similar"
    DISSIMILAR = "dissimilar"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_similar(self) -> bool:
        """Convenience flag used in hot paths."""
        return self is EdgeLabel.SIMILAR


# Enum members read once: ``EdgeLabel.SIMILAR`` is a descriptor lookup that
# costs about 0.1 µs on CPython 3.11, several times a module-global read
_LABEL_OF = (EdgeLabel.DISSIMILAR, EdgeLabel.SIMILAR)  # indexed by σ̃ ≥ ε
_JACCARD = SimilarityKind.JACCARD
_NO_NEIGHBOURS: frozenset = frozenset()


class LabellingStrategy:
    """The (½ρε, δ)-strategy with the per-invocation δ-schedule.

    Each edge passed to :meth:`relabel_all` is one strategy invocation: the
    invocation counter ``i`` advances, σ is evaluated and the threshold
    test ``σ̃ ≥ ε`` is applied.  The batch also returns the DT threshold τ
    of each edge, computed from the same two degrees, so DynELM labels and
    re-tracks an edge from one read of its two neighbourhoods.  DynELM
    passes the matured edges of one endpoint as one batch, and the inserted
    edge as a batch of one through :meth:`relabel`; :meth:`label` is the
    label-only form.

    σ follows the hybrid rule of the oracle the strategy holds at call time
    (see "Where the rule runs" in :mod:`repro.core.estimator`).  When the
    smaller closed neighbourhood is at most ``oracle.exact_ratio · L_1``,
    the strategy computes σ inline from one set intersection, charging the
    oracle's ``similarity_eval`` and ``neighbour_probe`` counts; ``L_1`` is
    the first (and smallest) sample size, computed once per strategy, and
    in exact mode the cutoff is unbounded.  Only above the cutoff is δ_i
    turned into the sample size ``L_i`` and the oracle called.
    """

    def __init__(
        self,
        params: StrCluParams,
        oracle: SimilarityOracle,
        counter: OpCounter | None = None,
    ) -> None:
        self.params = params
        self.oracle = oracle
        self.invocations = 0
        self.counter = counter if counter is not None else NULL_COUNTER
        # L_1, the smallest L_i (L_i is non-decreasing in i); exact mode has none
        self._first_samples = None if params.exact_mode else params.sample_size(1)
        #: τ per sorted degree pair ``(d_min, d_max)``; ``params`` is frozen
        self._taus_by_degrees: Dict[Tuple[int, int], int] = {}

    def relabel(self, u: Vertex, v: Vertex) -> Tuple[EdgeLabel, int]:
        """Label edge ``(u, v)`` with a fresh invocation; returns ``(label, τ)``."""
        labels, taus = self.relabel_all(((u, v),))
        return labels[0], taus[0]

    def relabel_all(self, edges: Sequence[Edge]) -> Tuple[List[EdgeLabel], List[int]]:
        """Label every edge of ``edges`` in order, one fresh invocation each.

        Returns the labels and the thresholds τ, position by position.  The
        result is that of relabelling the edges one at a time, in order: the
        invocation counter (hence δ_i and the sample size of the sampling
        branch) advances once per edge, and the OpCounter totals are the
        same, charged once per batch.  τ comes from
        :func:`~repro.core.affordability.degree_threshold`, remembered per
        degree pair.
        """
        params = self.params
        epsilon = params.epsilon
        oracle = self.oracle
        adj = oracle.graph.adjacency
        first_samples = self._first_samples
        cutoff = math.inf if first_samples is None else oracle.exact_ratio * first_samples
        short_circuit = oracle.short_circuit_ratio
        jaccard = oracle.kind is _JACCARD
        taus_by_degrees = self._taus_by_degrees
        invocation = self.invocations
        evaluations = probes = 0
        labels: List[EdgeLabel] = []
        taus: List[int] = []
        add_label = labels.append
        add_tau = taus.append
        for u, v in edges:
            invocation += 1
            nu = adj.get(u, _NO_NEIGHBOURS)
            nv = adj.get(v, _NO_NEIGHBOURS)
            d_u = len(nu)
            d_v = len(nv)
            degrees = (d_u, d_v) if d_u < d_v else (d_v, d_u)
            # closed neighbourhood sizes |N[x]| = d[x] + 1
            n_min = degrees[0] + 1
            if n_min <= cutoff:
                evaluations += 1
                if n_min < short_circuit * (degrees[1] + 1):
                    similar = False  # the short-circuit of Lemma 8.2
                else:
                    probes += n_min
                    if v not in nu:
                        similar = False  # a non-adjacent pair has σ = 0
                    else:
                        # |N[u] ∩ N[v]|: the open common neighbours plus u and v
                        common = len(nu & nv) + 2
                        if jaccard:
                            sigma = common / (d_u + d_v + 2 - common)
                        else:
                            sigma = common / math.sqrt((d_u + 1) * (d_v + 1))
                        similar = sigma >= epsilon
            else:
                samples = params.sample_size(invocation)
                similar = oracle.similarity(u, v, num_samples=samples) >= epsilon
            add_label(_LABEL_OF[similar])
            tau = taus_by_degrees.get(degrees)
            if tau is None:
                tau = taus_by_degrees[degrees] = degree_threshold(*degrees, params)
            add_tau(tau)
        self.invocations = invocation
        counter = self.counter
        if labels:
            counter.add("label_invocation", len(labels))
        if evaluations:
            counter.add("similarity_eval", evaluations)
        if probes:
            counter.add("neighbour_probe", probes)
        return labels, taus

    def label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        """Label edge ``(u, v)`` with a fresh strategy invocation."""
        return self.relabel(u, v)[0]

    def last_sample_size(self) -> int:
        """Sample size that the *next* invocation would use (monitoring aid)."""
        if self.params.exact_mode:
            return 0
        return self.params.sample_size(self.invocations + 1)


# ----------------------------------------------------------------------
# exact labellings and validity predicates
# ----------------------------------------------------------------------
def exact_labelling(
    graph: DynamicGraph,
    epsilon: float,
    kind: SimilarityKind = SimilarityKind.JACCARD,
) -> Dict[Edge, EdgeLabel]:
    """Return the valid (exact) edge labelling ``L_ε(G)`` of Definition 2.1."""
    labels: Dict[Edge, EdgeLabel] = {}
    for u, v in graph.edges():
        sigma = structural_similarity(graph, u, v, kind)
        labels[canonical_edge(u, v)] = (
            EdgeLabel.SIMILAR if sigma >= epsilon else EdgeLabel.DISSIMILAR
        )
    return labels


def is_valid_exact(
    graph: DynamicGraph,
    labels: Dict[Edge, EdgeLabel],
    epsilon: float,
    kind: SimilarityKind = SimilarityKind.JACCARD,
) -> bool:
    """Check Definition 2.1: every label agrees with the ``σ ≥ ε`` test."""
    return is_valid_rho_approximate(graph, labels, epsilon, 0.0, kind)


def is_valid_rho_approximate(
    graph: DynamicGraph,
    labels: Dict[Edge, EdgeLabel],
    epsilon: float,
    rho: float,
    kind: SimilarityKind = SimilarityKind.JACCARD,
) -> bool:
    """Check Definition 2.2 on every edge of ``graph``.

    Edges with ``σ ≥ (1+ρ)ε`` must be similar, edges with ``σ < (1−ρ)ε``
    must be dissimilar, everything in between is a free ("does not matter")
    choice.  Every edge of the graph must carry some label.
    """
    upper = (1.0 + rho) * epsilon
    lower = (1.0 - rho) * epsilon
    for u, v in graph.edges():
        key = canonical_edge(u, v)
        label = labels.get(key)
        if label is None:
            return False
        sigma = structural_similarity(graph, u, v, kind)
        if sigma >= upper and label is not EdgeLabel.SIMILAR:
            return False
        if sigma < lower and label is not EdgeLabel.DISSIMILAR:
            return False
    return True


def mislabelled_edges(
    exact: Dict[Edge, EdgeLabel], approximate: Dict[Edge, EdgeLabel]
) -> int:
    """Number of edges labelled differently in the two labellings (common keys only)."""
    return sum(
        1
        for edge, label in approximate.items()
        if edge in exact and exact[edge] is not label
    )
