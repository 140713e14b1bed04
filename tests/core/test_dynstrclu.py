"""Unit tests for DynStrClu (clustering maintenance + cluster-group-by)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.scan import static_scan
from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.core.labelling import EdgeLabel
from repro.core.result import clusterings_equal, compute_clusters
from repro.graph.dynamic_graph import canonical_edge
from repro.graph.similarity import SimilarityKind
from repro.instrumentation import OpCounter
from repro.workloads.updates import InsertionStrategy, generate_update_sequence


@pytest.fixture(params=["hdt", "ett", "union_find"])
def backend(request) -> str:
    return request.param


class TestExactEquivalenceWithSCAN:
    def test_after_insertions(self, exact_params, community_edges, backend):
        algo = DynStrClu.from_edges(
            community_edges, exact_params, connectivity_backend=backend
        )
        reference = static_scan(algo.graph, exact_params.epsilon, exact_params.mu)
        assert clusterings_equal(algo.clustering(), reference)

    def test_after_mixed_update_sequence(self, exact_params, community_edges, backend):
        workload = generate_update_sequence(
            48, community_edges, 300, InsertionStrategy.DEGREE_RANDOM, eta=0.35, seed=4
        )
        algo = DynStrClu(exact_params, connectivity_backend=backend)
        for update in workload.all_updates():
            algo.apply(update)
        reference = static_scan(algo.graph, exact_params.epsilon, exact_params.mu)
        assert clusterings_equal(algo.clustering(), reference)

    def test_equivalence_at_intermediate_checkpoints(self, exact_params, community_edges):
        workload = generate_update_sequence(
            48, community_edges, 200, InsertionStrategy.RANDOM_RANDOM, eta=0.5, seed=8
        )
        algo = DynStrClu(exact_params)
        for index, update in enumerate(workload.all_updates()):
            algo.apply(update)
            if index % 60 == 0:
                reference = static_scan(algo.graph, exact_params.epsilon, exact_params.mu)
                assert clusterings_equal(algo.clustering(), reference), f"step {index}"

    def test_cosine_equivalence(self, community_edges):
        params = StrCluParams(
            epsilon=0.5, mu=3, rho=0.0, similarity=SimilarityKind.COSINE
        )
        workload = generate_update_sequence(
            48, community_edges, 150, InsertionStrategy.DEGREE_DEGREE, eta=0.2, seed=10
        )
        algo = DynStrClu(params)
        for update in workload.all_updates():
            algo.apply(update)
        reference = static_scan(algo.graph, 0.5, 3, SimilarityKind.COSINE)
        assert clusterings_equal(algo.clustering(), reference)


class TestMaintainedState:
    def test_core_set_matches_simcnt(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges, exact_params)
        for v in algo.graph.vertices():
            expected = algo.aux.sim_count(v) >= exact_params.mu
            assert algo.is_core(v) == expected

    def test_aux_similar_sets_match_labels(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges, exact_params)
        for (u, v), label in algo.labels.items():
            if label is EdgeLabel.SIMILAR:
                assert algo.aux.is_similar_neighbour(u, v)
                assert algo.aux.is_similar_neighbour(v, u)
            else:
                assert not algo.aux.is_similar_neighbour(u, v)

    def test_cc_structure_holds_exactly_the_sim_core_edges(self, exact_params, community_edges):
        workload = generate_update_sequence(
            48, community_edges, 200, InsertionStrategy.RANDOM_RANDOM, eta=0.4, seed=11
        )
        algo = DynStrClu(exact_params)
        for update in workload.all_updates():
            algo.apply(update)
        expected_edges = {
            edge
            for edge, label in algo.labels.items()
            if label is EdgeLabel.SIMILAR and edge[0] in algo.cores and edge[1] in algo.cores
        }
        assert algo.cc.num_edges() == len(expected_edges)
        for u, v in expected_edges:
            assert algo.cc.has_edge(u, v)

    def test_categories_follow_core_status(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges, exact_params)
        for v in algo.graph.vertices():
            for w in algo.aux.sim_core_neighbours(v):
                assert algo.is_core(w)
            for w in algo.aux.sim_noncore_neighbours(v):
                assert not algo.is_core(w)


class TestGroupByQueries:
    def test_group_by_matches_clustering_restriction(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges, exact_params)
        clustering = algo.clustering()
        rng = random.Random(0)
        vertices = list(algo.graph.vertices())
        for _ in range(20):
            query = rng.sample(vertices, 12)
            result = algo.group_by(query)
            expected = [
                cluster & set(query)
                for cluster in clustering.clusters
                if cluster & set(query)
            ]
            got = sorted(sorted(map(repr, g)) for g in result.as_sets())
            want = sorted(sorted(map(repr, g)) for g in expected)
            assert got == want

    def test_group_by_of_all_vertices_is_whole_clustering(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges, exact_params)
        result = algo.group_by(list(algo.graph.vertices()))
        clustering = algo.clustering()
        assert sorted(map(len, result.as_sets())) == sorted(map(len, clustering.clusters))

    def test_noise_vertices_form_no_group(self, exact_params):
        algo = DynStrClu(exact_params)
        algo.insert_edge(0, 1)  # a single edge: nobody is a core with mu = 3
        result = algo.group_by([0, 1])
        assert result.num_groups == 0

    def test_group_by_empty_query(self, exact_params, community_edges):
        algo = DynStrClu.from_edges(community_edges[:40], exact_params)
        assert algo.group_by([]).num_groups == 0

    def test_hub_appears_in_multiple_groups(self):
        params = StrCluParams(epsilon=0.3, mu=3, rho=0.0)
        clique_a = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        clique_b = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
        edges = clique_a + clique_b + [(2, 20), (12, 20)]
        algo = DynStrClu.from_edges(edges, params)
        # vertex 20 is similar to cores 2 and 12 of two different clusters
        clustering = algo.clustering()
        assert 20 in clustering.hubs
        result = algo.group_by([20])
        assert result.num_groups == 2


class _CountingConnectivity:
    """Delegates to a connectivity structure, counting ``component_id`` calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def component_id(self, u):
        self.calls += 1
        return self.inner.component_id(u)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestReadWork:
    """Reads make the FindCcID lookups of their cost bound and no more."""

    @pytest.fixture
    def counted(self, backend):
        params = StrCluParams(epsilon=0.3, mu=3, rho=0.0)
        clique_a = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        clique_b = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
        # 20 is a hub of both cliques, 30 a border vertex of one, 40-41 noise
        edges = clique_a + clique_b + [(2, 20), (12, 20), (3, 30), (40, 41)]
        algo = DynStrClu.from_edges(edges, params, connectivity_backend=backend)
        clustering = algo.clustering()
        assert clustering.hubs == {20} and clustering.noise == {40, 41}
        algo.cc = _CountingConnectivity(algo.cc)
        return algo

    def test_clustering_makes_one_lookup_per_core(self, counted):
        counted.clustering()
        assert counted.cc.calls == len(counted.cores)

    def test_group_by_makes_one_lookup_per_core_or_sim_core_neighbour(self, counted):
        query = sorted(counted.graph.vertices()) + [999, 0, 20]
        expected = sum(
            1 if u in counted.cores else len(counted.aux.sim_core_neighbours(u))
            for u in query
        )
        assert expected > len(set(query) & counted.cores)
        counted.group_by(query)
        assert counted.cc.calls == expected


class TestApproximateMode:
    def test_sandwich_containment_after_updates(self, community_edges):
        """Theorem 2.3 applied to the maintained result (statistical check)."""
        epsilon, mu, rho = 0.4, 3, 0.4
        params = StrCluParams(epsilon=epsilon, mu=mu, rho=rho, delta_star=0.01, seed=13)
        algo = DynStrClu.from_edges(community_edges, params)
        graph = algo.graph
        upper = static_scan(graph, (1 + rho) * epsilon, mu)
        lower = static_scan(graph, (1 - rho) * epsilon, mu)
        approx = algo.clustering()
        for cluster in upper.clusters:
            assert any(cluster <= candidate for candidate in approx.clusters)
        for cluster in approx.clusters:
            assert any(cluster <= candidate for candidate in lower.clusters)

    def test_counter_records_cc_and_groupby_operations(self, community_edges):
        counter = OpCounter()
        params = StrCluParams(epsilon=0.4, mu=3, rho=0.05, seed=2)
        algo = DynStrClu.from_edges(community_edges, params, counter=counter)
        algo.group_by(list(algo.graph.vertices())[:10])
        assert counter.get("cc_op") > 0
        assert counter.get("groupby_vertex") == 10

    def test_memory_words_exceed_dynelm(self, community_edges, approx_params):
        from repro.core.dynelm import DynELM

        elm = DynELM.from_edges(community_edges, approx_params)
        strclu = DynStrClu.from_edges(community_edges, approx_params)
        assert strclu.memory_words() > elm.memory_words()
