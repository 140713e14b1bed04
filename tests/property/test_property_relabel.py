"""Property: the one-step relabel equals exact similarity plus tracking_threshold.

Whenever the exact branch applies (always in exact mode or with the exact
oracle; below the hybrid cutoff with the sampling oracle),
:meth:`LabellingStrategy.relabel` must return the label of the exact test
``σ ≥ ε`` and the threshold :func:`tracking_threshold` gives at the same
degrees, and charge the probes the oracle would have charged.

The batch form :meth:`LabellingStrategy.relabel_all` must equal relabelling
the same edges one by one, in any order and however the order is cut into
batches: the same labels and τ, the same invocation count and OpCounter
totals, and on the sampling branch the same sample sizes drawn in the same
order.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st
from hypothesis.strategies import DataObject

from repro.core.affordability import tracking_threshold
from repro.core.config import StrCluParams
from repro.core.estimator import ExactSimilarityOracle, SamplingSimilarityOracle
from repro.core.labelling import EdgeLabel, LabellingStrategy
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.similarity import SimilarityKind, structural_similarity
from repro.instrumentation import OpCounter

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=70
)
kinds = st.sampled_from([SimilarityKind.JACCARD, SimilarityKind.COSINE])
rhos = st.sampled_from([0.0, 0.01, 0.3, 0.9])
epsilons = st.sampled_from([0.2, 0.35, 0.5])


def build_graph(pairs):
    graph = DynamicGraph()
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.insert_edge(u, v)
    return graph


def expected(graph, u, v, params, kind):
    sigma = structural_similarity(graph, u, v, kind)
    label = EdgeLabel.SIMILAR if sigma >= params.epsilon else EdgeLabel.DISSIMILAR
    return label, tracking_threshold(graph, u, v, params)


@given(edge_lists, kinds, rhos, epsilons, st.booleans())
@settings(max_examples=80, deadline=None)
def test_relabel_matches_similarity_and_threshold(pairs, kind, rho, epsilon, sampling):
    graph = build_graph(pairs)
    params = StrCluParams(epsilon=epsilon, mu=2, rho=rho, similarity=kind, seed=3)
    counter = OpCounter()
    if sampling:
        oracle = SamplingSimilarityOracle(
            graph, kind=kind, epsilon=epsilon, rng=random.Random(0), counter=counter
        )
    else:
        oracle = ExactSimilarityOracle(graph, kind, counter)
    strategy = LabellingStrategy(params, oracle, counter)
    # 15 vertices: every closed neighbourhood is under the hybrid cutoff
    assert rho == 0.0 or 15 <= oracle.exact_ratio * params.sample_size(1)
    for u, v in sorted(graph.edges()):
        assert strategy.relabel(u, v) == expected(graph, u, v, params, kind)
    # a non-adjacent pair (15 is not a vertex) has σ = 0
    assert strategy.relabel(0, 15) == expected(graph, 0, 15, params, kind)
    assert counter.get("sample") == 0
    assert counter.get("label_invocation") == strategy.invocations


@given(edge_lists, kinds, st.sampled_from([0.01, 0.3]))
@settings(max_examples=40, deadline=None)
def test_relabel_charges_what_the_oracle_charges(pairs, kind, rho):
    """Inline evaluation counts the same as calling the oracle itself."""
    graph = build_graph(pairs)
    params = StrCluParams(epsilon=0.4, mu=2, rho=rho, similarity=kind, seed=3)
    inline, called = OpCounter(), OpCounter()
    strategy = LabellingStrategy(
        params, SamplingSimilarityOracle(graph, kind=kind, epsilon=0.4, counter=inline), inline
    )
    oracle = SamplingSimilarityOracle(graph, kind=kind, epsilon=0.4, counter=called)
    for i, (u, v) in enumerate(sorted(graph.edges()), start=1):
        strategy.relabel(u, v)
        oracle.similarity(u, v, num_samples=params.sample_size(i))
    inline_counts = inline.snapshot()
    assert inline_counts.pop("label_invocation", 0) == strategy.invocations
    assert inline_counts == called.snapshot()


class RecordingOracle(SamplingSimilarityOracle):
    """A sampling oracle that logs every call the strategy makes of it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = []

    def similarity(self, u, v, num_samples=None):
        self.calls.append((u, v, num_samples))
        return super().similarity(u, v, num_samples=num_samples)


def relabel_both_ways(graph, params, kind, edges, cuts, oracle_seed=0):
    """Relabel ``edges`` one by one and in the batches ``cuts`` marks, each
    with its own counter and an identically seeded oracle."""
    runs = []
    for batched in (False, True):
        counter = OpCounter()
        oracle = RecordingOracle(
            graph, kind=kind, epsilon=params.epsilon,
            rng=random.Random(oracle_seed), counter=counter,
        )
        strategy = LabellingStrategy(params, oracle, counter)
        labels, taus = [], []
        if batched:
            bounds = [0, *sorted(cuts), len(edges)]
            for start, stop in zip(bounds, bounds[1:]):
                batch_labels, batch_taus = strategy.relabel_all(edges[start:stop])
                labels += batch_labels
                taus += batch_taus
        else:
            for u, v in edges:
                label, tau = strategy.relabel(u, v)
                labels.append(label)
                taus.append(tau)
        runs.append((labels, taus, strategy.invocations, counter.snapshot(), oracle.calls))
    return runs


def edge_order(data: DataObject, graph):
    edges = data.draw(st.permutations(sorted(graph.edges())))
    # a non-adjacent pair (15 is not a vertex) rides along somewhere
    edges.insert(data.draw(st.integers(0, len(edges))), (0, 15))
    cuts = data.draw(st.lists(st.integers(0, len(edges)), max_size=4))
    return edges, cuts


@given(edge_lists, kinds, rhos, epsilons, st.data())
@settings(max_examples=60, deadline=None)
def test_batch_equals_one_by_one(pairs, kind, rho, epsilon, data):
    graph = build_graph(pairs)
    params = StrCluParams(epsilon=epsilon, mu=2, rho=rho, similarity=kind, seed=3)
    edges, cuts = edge_order(data, graph)
    one_by_one, batched = relabel_both_ways(graph, params, kind, edges, cuts)
    assert batched == one_by_one
    labels, taus, invocations, _counts, _calls = batched
    assert invocations == len(edges)
    assert taus == [tracking_threshold(graph, u, v, params) for u, v in edges]
    assert labels == [expected(graph, u, v, params, kind)[0] for u, v in edges]


HUBS = (100, 101, 102)
LEAVES = range(200, 250)


@given(edge_lists, kinds, st.sampled_from([0.01, 0.3]), st.data())
@settings(max_examples=40, deadline=None)
def test_batch_draws_the_same_samples(pairs, kind, rho, data):
    """``max_samples=2`` puts the hybrid cutoff at 40 closed neighbours, so
    each hub pair (52 neighbours each) takes the sampling branch at its own
    invocation number, wherever it falls in the order."""
    graph = build_graph(pairs)
    for hub in HUBS:
        for leaf in LEAVES:
            graph.insert_edge(hub, leaf)
    for i, hub in enumerate(HUBS):
        for other in HUBS[i + 1:]:
            graph.insert_edge(hub, other)
    params = StrCluParams(
        epsilon=0.3, mu=2, rho=rho, similarity=kind, seed=3, max_samples=2
    )
    edges, cuts = edge_order(data, graph)
    one_by_one, batched = relabel_both_ways(graph, params, kind, edges, cuts)
    assert batched == one_by_one
    _labels, taus, _invocations, counts, calls = batched
    assert calls == [
        (u, v, params.sample_size(i))
        for i, (u, v) in enumerate(edges, start=1)
        if u in HUBS and v in HUBS
    ]
    assert counts["sample"] == sum(samples for _u, _v, samples in calls)
    assert taus == [tracking_threshold(graph, u, v, params) for u, v in edges]
