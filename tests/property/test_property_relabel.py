"""Property: the one-step relabel equals exact similarity plus tracking_threshold.

Whenever the exact branch applies (always in exact mode or with the exact
oracle; below the hybrid cutoff with the sampling oracle),
:meth:`LabellingStrategy.relabel` must return the label of the exact test
``σ ≥ ε`` and the threshold :func:`tracking_threshold` gives at the same
degrees, and charge the probes the oracle would have charged.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

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
