"""Property-based tests for the clustering invariants of the paper.

Covers:

* the sandwich guarantee (Theorem 2.3) for arbitrary ρ-approximate labellings;
* structural well-formedness of every StrCluResult (cores in exactly one
  cluster, hubs in at least two, noise in none);
* exact-mode DynStrClu ≡ static SCAN under arbitrary update interleavings;
* cluster-group-by(Q) ≡ the restriction of the full clustering to Q;
* after every update of a random stream, on every connectivity backend:
  sim-core neighbours share a G_core component, the maintained retrieval
  equals Fact 1's reference, and group-by equals the retrieval restricted
  to Q.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.scan import static_scan
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.labelling import EdgeLabel, exact_labelling
from repro.core.result import clusterings_equal, compute_clusters
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.graph.similarity import jaccard_similarity

edge_lists = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=1, max_size=70
)


def build_graph(pairs):
    graph = DynamicGraph()
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.insert_edge(u, v)
    return graph


class TestSandwichGuarantee:
    @given(edge_lists, st.floats(0.2, 0.6), st.integers(1, 4), st.floats(0.05, 0.45), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_theorem_2_3(self, pairs, epsilon, mu, rho, rng):
        """Any labelling that is valid under Definition 2.2 produces clusters
        sandwiched between the exact (1+ρ)ε and (1−ρ)ε clusterings."""
        graph = build_graph(pairs)
        upper_labels = exact_labelling(graph, (1 + rho) * epsilon)
        lower_labels = exact_labelling(graph, (1 - rho) * epsilon)
        # build a random valid ρ-approximate labelling: free choice in the band
        approx = {}
        for u, v in graph.edges():
            sigma = jaccard_similarity(graph, u, v)
            key = canonical_edge(u, v)
            if sigma >= (1 + rho) * epsilon:
                approx[key] = EdgeLabel.SIMILAR
            elif sigma < (1 - rho) * epsilon:
                approx[key] = EdgeLabel.DISSIMILAR
            else:
                approx[key] = rng.choice([EdgeLabel.SIMILAR, EdgeLabel.DISSIMILAR])
        upper = compute_clusters(graph, upper_labels, mu)
        lower = compute_clusters(graph, lower_labels, mu)
        middle = compute_clusters(graph, approx, mu)
        for cluster in upper.clusters:
            assert any(cluster <= candidate for candidate in middle.clusters)
        for cluster in middle.clusters:
            assert any(cluster <= candidate for candidate in lower.clusters)


class TestClusteringWellFormedness:
    @given(edge_lists, st.floats(0.2, 0.8), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_roles_are_consistent(self, pairs, epsilon, mu):
        graph = build_graph(pairs)
        clustering = static_scan(graph, epsilon, mu)
        membership = clustering.membership()
        for core in clustering.cores:
            assert len(membership.get(core, [])) == 1
        for hub in clustering.hubs:
            assert len(membership[hub]) >= 2
            assert hub not in clustering.cores
        for outlier in clustering.noise:
            assert outlier not in membership
        # every cluster contains at least one core
        for cluster in clustering.clusters:
            assert cluster & clustering.cores

    @given(edge_lists, st.floats(0.2, 0.8), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_every_vertex_accounted_for(self, pairs, epsilon, mu):
        graph = build_graph(pairs)
        clustering = static_scan(graph, epsilon, mu)
        clustered = set().union(*clustering.clusters) if clustering.clusters else set()
        everything = clustered | clustering.noise
        assert everything == set(graph.vertices())


# update scripts: pairs toggle edge presence
update_scripts = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=120
)


class TestExactDynamicEquivalence:
    @given(update_scripts, st.floats(0.25, 0.7), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_dynstrclu_exact_mode_equals_scan(self, script, epsilon, mu):
        params = StrCluParams(epsilon=epsilon, mu=mu, rho=0.0)
        algo = DynStrClu(params, connectivity_backend="hdt")
        present = set()
        for u, v in script:
            if u == v:
                continue
            key = canonical_edge(u, v)
            if key in present:
                algo.apply(Update.delete(*key))
                present.discard(key)
            else:
                algo.apply(Update.insert(*key))
                present.add(key)
        reference = static_scan(algo.graph, epsilon, mu)
        assert clusterings_equal(algo.clustering(), reference)

    @given(update_scripts, st.floats(0.25, 0.7), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_group_by_equals_clustering_restriction(self, script, epsilon, mu, rng):
        params = StrCluParams(epsilon=epsilon, mu=mu, rho=0.0)
        algo = DynStrClu(params)
        present = set()
        for u, v in script:
            if u == v:
                continue
            key = canonical_edge(u, v)
            if key in present:
                algo.apply(Update.delete(*key))
                present.discard(key)
            else:
                algo.apply(Update.insert(*key))
                present.add(key)
        vertices = list(algo.graph.vertices())
        if not vertices:
            return
        query = rng.sample(vertices, min(6, len(vertices)))
        clustering = algo.clustering()
        expected = sorted(
            sorted(map(repr, cluster & set(query)))
            for cluster in clustering.clusters
            if cluster & set(query)
        )
        got = sorted(sorted(map(repr, g)) for g in algo.group_by(query).as_sets())
        assert got == expected


# two 5-cliques and two bridge vertices that can attach to both: random
# toggles over these pairs (plus a few stray ones) keep making hubs
_CLIQUES = (range(0, 5), range(10, 15))
_BRIDGES = (20, 21)
_HUB_PAIRS = [(u, v) for clique in _CLIQUES for u in clique for v in clique if u < v] + [
    (x, b) for b in _BRIDGES for x in (1, 3, 4, 11, 13, 14)
]
_ABSENT = (99, "absent")


def hub_stream(seed: int, length: int = 160):
    """A random insert/delete stream over :data:`_HUB_PAIRS` and stray pairs."""
    rng = random.Random(seed)
    present = set()
    for _ in range(length):
        if rng.random() < 0.9:
            key = rng.choice(_HUB_PAIRS)
        else:
            u, v = rng.sample(range(22), 2)
            key = canonical_edge(u, v)
        yield Update.delete(*key) if key in present else Update.insert(*key)
        present ^= {key}


class TestRetrievalAfterEveryUpdate:
    """``clustering()`` reads only the sim-non-core half of vAuxInfo, on the
    premise that a core's sim-core neighbours share its G_core component;
    premise, retrieval and group-by are checked after every update."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("backend", ["hdt", "ett", "union_find"])
    def test_premise_retrieval_and_group_by(self, backend, rho, seed):
        params = StrCluParams(epsilon=0.3, mu=3, rho=rho, seed=seed)
        algo = DynStrClu(params, connectivity_backend=backend)
        rng = random.Random(seed)
        states_with_hubs = 0
        for step, update in enumerate(hub_stream(seed)):
            algo.apply(update)
            component_id = algo.cc.component_id
            for core in algo.cores:
                key = component_id(core)
                for w in algo.aux.sim_core_neighbours(core):
                    assert component_id(w) == key, f"step {step}: {core}-{w}"

            clustering = algo.clustering()
            reference = compute_clusters(algo.graph, algo.labels, params.mu)
            assert clusterings_equal(clustering, reference), f"step {step}"
            states_with_hubs += bool(clustering.hubs)

            vertices = sorted(algo.graph.vertices())
            query = rng.sample(vertices, min(5, len(vertices))) + list(_ABSENT)
            query += query[:2]  # duplicate entries
            present = set(query)
            expected = Counter(
                frozenset(cluster & present)
                for cluster in clustering.clusters
                if cluster & present
            )
            got = Counter(frozenset(g) for g in algo.group_by(query).as_sets())
            assert got == expected, f"step {step}"
        assert states_with_hubs > 0
