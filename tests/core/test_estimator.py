"""Unit tests for the similarity oracles (exact and sampling)."""

from __future__ import annotations

import random

import pytest

from repro.core.estimator import (
    EXACT_COST_RATIO,
    ExactSimilarityOracle,
    SamplingSimilarityOracle,
    hoeffding_sample_size,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.similarity import SimilarityKind, cosine_similarity, jaccard_similarity
from repro.instrumentation import OpCounter


@pytest.fixture
def dense_graph() -> DynamicGraph:
    return DynamicGraph(planted_partition_graph(2, 15, 0.7, 0.1, seed=4))


class TestExactOracle:
    def test_matches_direct_functions(self, dense_graph):
        jaccard_oracle = ExactSimilarityOracle(dense_graph, SimilarityKind.JACCARD)
        cosine_oracle = ExactSimilarityOracle(dense_graph, SimilarityKind.COSINE)
        for u, v in list(dense_graph.edges())[:40]:
            assert jaccard_oracle.similarity(u, v) == jaccard_similarity(dense_graph, u, v)
            assert cosine_oracle.similarity(u, v) == cosine_similarity(dense_graph, u, v)

    def test_counts_operations(self, dense_graph):
        counter = OpCounter()
        oracle = ExactSimilarityOracle(dense_graph, counter=counter)
        oracle.similarity(0, 1)
        assert counter.get("similarity_eval") == 1
        assert counter.get("neighbour_probe") >= 1

    def test_ignores_num_samples(self, dense_graph):
        oracle = ExactSimilarityOracle(dense_graph)
        assert oracle.similarity(0, 1, num_samples=3) == oracle.similarity(0, 1)


class TestSamplingOracleJaccard:
    def test_estimate_within_tolerance_on_dense_edges(self, dense_graph):
        rng = random.Random(0)
        oracle = SamplingSimilarityOracle(dense_graph, rng=rng)
        failures = 0
        edges = list(dense_graph.edges())[:50]
        for u, v in edges:
            exact = jaccard_similarity(dense_graph, u, v)
            estimate = oracle.similarity(u, v, num_samples=3000)
            if abs(estimate - exact) > 0.08:
                failures += 1
        assert failures <= 2

    def test_estimate_in_unit_interval(self, dense_graph):
        rng = random.Random(1)
        oracle = SamplingSimilarityOracle(dense_graph, rng=rng)
        for u, v in list(dense_graph.edges())[:30]:
            estimate = oracle.similarity(u, v, num_samples=64)
            assert 0.0 <= estimate <= 1.0

    def test_deterministic_for_seed(self, dense_graph):
        a = SamplingSimilarityOracle(dense_graph, rng=random.Random(5)).similarity(0, 1, 128)
        b = SamplingSimilarityOracle(dense_graph, rng=random.Random(5)).similarity(0, 1, 128)
        assert a == b

    def test_invalid_sample_count(self, dense_graph):
        oracle = SamplingSimilarityOracle(dense_graph, rng=random.Random(0))
        with pytest.raises(ValueError):
            oracle.similarity(0, 1, num_samples=0)

    def test_counts_samples(self, dense_graph):
        counter = OpCounter()
        oracle = SamplingSimilarityOracle(dense_graph, rng=random.Random(0), counter=counter)
        oracle.estimate(0, 1, num_samples=77)
        assert counter.get("sample") == 77
        assert counter.get("similarity_eval") == 1

    def test_accuracy_improves_with_more_samples(self, dense_graph):
        """Mean absolute error must shrink as L grows (law of large numbers)."""
        edges = list(dense_graph.edges())[:25]

        def mean_error(samples: int, seed: int) -> float:
            oracle = SamplingSimilarityOracle(dense_graph, rng=random.Random(seed))
            total = 0.0
            for u, v in edges:
                total += abs(
                    oracle.estimate(u, v, num_samples=samples)
                    - jaccard_similarity(dense_graph, u, v)
                )
            return total / len(edges)

        small = mean_error(16, seed=3)
        large = mean_error(2048, seed=3)
        assert large < small


class TestHybridRule:
    @pytest.mark.parametrize(
        "kind, exact",
        [(SimilarityKind.JACCARD, jaccard_similarity), (SimilarityKind.COSINE, cosine_similarity)],
    )
    def test_exact_below_the_crossover(self, dense_graph, kind, exact):
        counter = OpCounter()
        oracle = SamplingSimilarityOracle(
            dense_graph, kind=kind, epsilon=0.3, rng=random.Random(0), counter=counter
        )
        edges = list(dense_graph.edges())[:40]
        for u, v in edges:
            assert oracle.similarity(u, v, num_samples=4) == exact(dense_graph, u, v)
        assert counter.get("sample") == 0
        assert counter.get("neighbour_probe") > 0
        assert counter.get("similarity_eval") == len(edges)

    def test_samples_above_the_crossover(self):
        # two adjacent hubs, each with more than EXACT_COST_RATIO * 2 closed
        # neighbours, so two samples are cheaper than an intersection
        hub_degree = 2 * EXACT_COST_RATIO + 5
        edges = [(0, 1)]
        edges += [(0, leaf) for leaf in range(2, 2 + hub_degree)]
        edges += [(1, leaf) for leaf in range(2 + hub_degree // 2, 2 + 2 * hub_degree)]
        graph = DynamicGraph(edges)
        counter = OpCounter()
        oracle = SamplingSimilarityOracle(graph, rng=random.Random(0), counter=counter)
        oracle.similarity(0, 1, num_samples=2)
        assert counter.get("sample") == 2
        assert counter.get("neighbour_probe") == 0
        # a larger sample budget makes the exact value the cheaper one
        assert oracle.similarity(0, 1, num_samples=64) == jaccard_similarity(graph, 0, 1)
        assert counter.get("sample") == 2

    def test_cosine_short_circuit_runs_first(self):
        graph = DynamicGraph([(0, i) for i in range(1, 21)])
        counter = OpCounter()
        oracle = SamplingSimilarityOracle(
            graph, kind=SimilarityKind.COSINE, epsilon=0.9, rng=random.Random(0), counter=counter
        )
        assert oracle.similarity(0, 1, num_samples=10) == 0.0
        assert counter.get("neighbour_probe") == 0


class TestSamplingOracleCosine:
    def test_estimate_close_to_exact(self, dense_graph):
        rng = random.Random(2)
        oracle = SamplingSimilarityOracle(
            dense_graph, kind=SimilarityKind.COSINE, epsilon=0.3, rng=rng
        )
        failures = 0
        for u, v in list(dense_graph.edges())[:40]:
            exact = cosine_similarity(dense_graph, u, v)
            estimate = oracle.similarity(u, v, num_samples=3000)
            if estimate == 0.0 and exact < 0.3:
                continue  # short-circuited by Lemma 8.2 — allowed
            if abs(estimate - exact) > 0.1:
                failures += 1
        assert failures <= 2

    def test_unbalanced_degrees_short_circuit_to_zero(self):
        # star centre with high degree vs a leaf: closed sizes 1+20 vs 2
        edges = [(0, i) for i in range(1, 21)]
        graph = DynamicGraph(edges)
        oracle = SamplingSimilarityOracle(
            graph, kind=SimilarityKind.COSINE, epsilon=0.9, rng=random.Random(0)
        )
        assert oracle.similarity(0, 1, num_samples=10) == 0.0


class TestHoeffdingSampleSize:
    def test_matches_theorem_4_1(self):
        import math

        assert hoeffding_sample_size(0.01, 0.05) == math.ceil(2 / 0.05**2 * math.log(200))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.1, 0.0)

    def test_empirical_failure_rate_below_delta(self):
        """Theorem 4.1: with L = (2/Δ²)ln(2/δ) the deviation exceeds Δ with
        probability at most δ.  Check empirically on one edge."""
        graph = DynamicGraph(planted_partition_graph(1, 12, 0.8, 0.0, seed=1))
        u, v = next(iter(graph.edges()))
        exact = jaccard_similarity(graph, u, v)
        delta, accuracy = 0.1, 0.15
        samples = hoeffding_sample_size(delta, accuracy)
        rng = random.Random(42)
        oracle = SamplingSimilarityOracle(graph, rng=rng)
        trials = 200
        violations = sum(
            1
            for _ in range(trials)
            if abs(oracle.similarity(u, v, num_samples=samples) - exact) > accuracy
        )
        # allow generous slack over delta * trials = 20 to keep the test stable
        assert violations <= 2 * delta * trials
