"""Unit tests for DynELM (dynamic edge-label maintenance)."""

from __future__ import annotations

import random

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM, Update, UpdateKind
from repro.core.labelling import EdgeLabel, exact_labelling, is_valid_rho_approximate
from repro.core.result import clusterings_equal, compute_clusters
from repro.graph.dynamic_graph import canonical_edge
from repro.graph.generators import planted_partition_graph
from repro.graph.similarity import SimilarityKind
from repro.instrumentation import MemoryModel, OpCounter
from repro.workloads.updates import InsertionStrategy, generate_update_sequence


class TestUpdateTypes:
    def test_update_constructors(self):
        ins = Update.insert(3, 1)
        assert ins.kind is UpdateKind.INSERT
        assert ins.edge == (1, 3)
        dele = Update.delete(1, 3)
        assert dele.kind is UpdateKind.DELETE

    def test_label_events_for_insert_and_delete(self, exact_params):
        elm = DynELM(exact_params)
        result = elm.insert_edge(0, 1)
        assert result.label_events[0] == ((0, 1), result.updated_edge_label)
        result = elm.delete_edge(0, 1)
        assert result.label_events[0] == ((0, 1), None)


class TestExactMode:
    def test_labels_match_exact_labelling_after_insertions(self, exact_params, community_edges):
        elm = DynELM.from_edges(community_edges, exact_params)
        reference = exact_labelling(elm.graph, exact_params.epsilon)
        assert elm.labels == reference

    def test_labels_match_after_mixed_updates(self, exact_params, community_edges):
        workload = generate_update_sequence(
            48, community_edges, 300, InsertionStrategy.DEGREE_RANDOM, eta=0.4, seed=2
        )
        elm = DynELM(exact_params)
        for update in workload.all_updates():
            elm.apply(update)
        reference = exact_labelling(elm.graph, exact_params.epsilon)
        assert elm.labels == reference

    def test_clustering_matches_static_computation(self, exact_params, community_edges):
        elm = DynELM.from_edges(community_edges, exact_params)
        expected = compute_clusters(
            elm.graph, exact_labelling(elm.graph, exact_params.epsilon), exact_params.mu
        )
        assert clusterings_equal(elm.clustering(), expected)

    def test_exact_mode_cosine(self, community_edges):
        params = StrCluParams(epsilon=0.5, mu=3, rho=0.0, similarity=SimilarityKind.COSINE)
        elm = DynELM.from_edges(community_edges, params)
        reference = exact_labelling(elm.graph, 0.5, SimilarityKind.COSINE)
        assert elm.labels == reference


class TestApproximateMode:
    def test_labelling_is_rho_valid_after_updates(self, community_edges):
        params = StrCluParams(epsilon=0.4, mu=3, rho=0.4, delta_star=0.01, seed=5)
        workload = generate_update_sequence(
            48, community_edges, 250, InsertionStrategy.RANDOM_RANDOM, eta=0.2, seed=6
        )
        elm = DynELM(params)
        for update in workload.all_updates():
            elm.apply(update)
        assert is_valid_rho_approximate(
            elm.graph, elm.labels, params.epsilon, params.rho, params.similarity
        )

    def test_cosine_labelling_is_rho_valid(self, community_edges):
        params = StrCluParams(
            epsilon=0.5, mu=3, rho=0.3, delta_star=0.01, seed=7,
            similarity=SimilarityKind.COSINE,
        )
        elm = DynELM.from_edges(community_edges, params)
        assert is_valid_rho_approximate(
            elm.graph, elm.labels, params.epsilon, params.rho, SimilarityKind.COSINE
        )

    def test_every_edge_has_a_label_and_a_tracker(self, approx_params, community_edges):
        elm = DynELM.from_edges(community_edges, approx_params)
        assert set(elm.labels) == {canonical_edge(u, v) for u, v in elm.graph.edges()}
        for u, v in elm.graph.edges():
            assert elm.tracker.is_tracked(u, v)

    def test_deletion_removes_label_and_tracker(self, approx_params):
        elm = DynELM(approx_params)
        elm.insert_edge(0, 1)
        elm.insert_edge(1, 2)
        elm.delete_edge(0, 1)
        assert elm.edge_label(0, 1) is None
        assert not elm.tracker.is_tracked(0, 1)
        assert elm.graph.num_edges == 1

    def test_relabel_count_amortisation(self, community_edges):
        """With a large rho the number of strategy invocations per update must
        be far below the average degree (the whole point of affordability)."""
        params = StrCluParams(epsilon=0.4, mu=3, rho=0.5, delta_star=0.01, seed=1)
        workload = generate_update_sequence(
            48, community_edges, 400, InsertionStrategy.DEGREE_DEGREE, eta=0.0, seed=3
        )
        elm = DynELM(params)
        for update in workload.all_updates():
            elm.apply(update)
        total_updates = workload.total_updates
        # a pSCAN-style exact maintainer recomputes every edge incident on both
        # endpoints, i.e. about 2 * avg_degree similarity evaluations per update
        avg_degree = 2 * elm.graph.num_edges / elm.graph.num_vertices
        invocations_per_update = elm.strategy.invocations / total_updates
        assert invocations_per_update < avg_degree

    def test_flips_reported_are_actual_changes(self, approx_params, community_edges):
        elm = DynELM(approx_params)
        previous = {}
        for update in generate_update_sequence(
            48, community_edges, 150, InsertionStrategy.RANDOM_RANDOM, eta=0.3, seed=9
        ).all_updates():
            result = elm.apply(update)
            for edge, new_label in result.flips:
                assert previous.get(edge) is not None
                assert previous[edge] is not new_label
            previous = dict(elm.labels)


class TestInstrumentation:
    def test_counters_and_memory(self, approx_params, community_edges):
        counter = OpCounter()
        elm = DynELM.from_edges(community_edges[:100], approx_params, counter=counter)
        assert counter.get("update") == 100
        assert counter.get("label_invocation") >= 100
        assert elm.memory_words() > 0

    def test_memory_scales_with_graph(self, approx_params, community_edges):
        small = DynELM.from_edges(community_edges[:50], approx_params)
        large = DynELM.from_edges(community_edges, approx_params)
        assert large.memory_words() > small.memory_words()

    def test_memory_words_count_the_lane_stamps(self, exact_params):
        """At ρ = 0 every edge is in the counter lane, stamped at both endpoints."""
        elm = DynELM.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)], exact_params)
        assert elm.memory_words() == MemoryModel().words(
            vertex_record=4, adjacency_entry=2 * 4, edge_label=4, dt_stamp=2 * 4
        )


class TestErrorHandling:
    def test_duplicate_insert_raises(self, approx_params):
        elm = DynELM(approx_params)
        elm.insert_edge(0, 1)
        with pytest.raises(Exception):
            elm.insert_edge(1, 0)

    def test_delete_missing_edge_raises(self, approx_params):
        elm = DynELM(approx_params)
        with pytest.raises(Exception):
            elm.delete_edge(0, 1)
