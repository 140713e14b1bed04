"""End-to-end integration tests across all modules.

These tests drive the public API the way the examples and benchmarks do:
generate a dataset, build an update workload, run the dynamic algorithms and
the baselines side by side, and check the cross-algorithm relationships the
paper's evaluation relies on.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    DynELM,
    DynStrClu,
    ExactDynamicSCAN,
    IndexedDynamicSCAN,
    StrCluParams,
    static_scan,
)
from repro.core.labelling import is_valid_rho_approximate
from repro.core.result import clusterings_equal
from repro.evaluation.ari import adjusted_rand_index
from repro.evaluation.quality import mislabelled_rate
from repro.instrumentation import OpCounter
from repro.workloads.datasets import load_dataset, dataset_spec
from repro.workloads.updates import InsertionStrategy, generate_update_sequence


@pytest.fixture(scope="module")
def scenario():
    """One shared workload on the smallest registry dataset."""
    name = "email"
    spec = dataset_spec(name)
    edges = load_dataset(name)
    workload = generate_update_sequence(
        spec.num_vertices, edges, int(0.5 * len(edges)),
        InsertionStrategy.DEGREE_RANDOM, eta=0.25, seed=17,
    )
    return spec, workload


class TestAllAlgorithmsOnOneWorkload:
    def test_exact_algorithms_agree_and_approximation_is_close(self, scenario):
        spec, workload = scenario
        epsilon, mu = spec.default_epsilon_jaccard, 3
        params_exact = StrCluParams(epsilon=epsilon, mu=mu, rho=0.0)
        params_approx = StrCluParams(
            epsilon=epsilon, mu=mu, rho=0.1, delta_star=0.01, seed=3, max_samples=2048
        )

        dyn_exact = DynStrClu(params_exact)
        dyn_approx = DynELM(params_approx)
        pscan = ExactDynamicSCAN(epsilon, mu)
        hscan = IndexedDynamicSCAN()
        for update in workload.all_updates():
            dyn_exact.apply(update)
            dyn_approx.apply(update)
            pscan.apply(update)
            hscan.apply(update)

        # the three exact methods agree exactly
        reference = static_scan(pscan.graph, epsilon, mu)
        assert clusterings_equal(dyn_exact.clustering(), reference)
        assert clusterings_equal(pscan.clustering(), reference)
        assert clusterings_equal(hscan.clustering(epsilon, mu), reference)

        # the approximate labelling is close to exact: valid at a widened band
        # (the harness caps the per-invocation sample size, so the strict
        # Theorem 6.1 band needs the uncapped L_i — see StrCluParams.max_samples)
        assert is_valid_rho_approximate(
            dyn_approx.graph, dyn_approx.labels, epsilon, min(0.9, 5 * params_approx.rho)
        )
        rate = mislabelled_rate(pscan.labels, dyn_approx.labels)
        assert rate < 0.15
        ari = adjusted_rand_index(
            dyn_approx.clustering().partition_assignment(dyn_approx.graph, dyn_approx.labels),
            reference.partition_assignment(pscan.graph, pscan.labels),
        )
        assert ari > 0.5

    def test_dynamic_methods_do_less_similarity_work(self):
        """The paper's headline: DynELM needs far fewer similarity
        evaluations per update than the exact re-scanning baselines.

        The affordability buffer is ``floor(½ρε·d_max)``, so the effect needs
        degrees comfortably above ``2/(ρε)``; a denser planted graph is used
        here than the tiny shared ``email`` stand-in.
        """
        from repro.graph.generators import planted_partition_graph

        edges = planted_partition_graph(3, 40, 0.5, 0.01, seed=21)
        workload = generate_update_sequence(
            120, edges, int(0.5 * len(edges)), InsertionStrategy.DEGREE_RANDOM, eta=0.2, seed=22
        )
        epsilon, mu = 0.5, 4
        dyn_counter, pscan_counter = OpCounter(), OpCounter()
        dyn = DynELM(
            StrCluParams(epsilon=epsilon, mu=mu, rho=0.8, delta_star=0.01, seed=1, max_samples=64),
            counter=dyn_counter,
        )
        pscan = ExactDynamicSCAN(epsilon, mu, counter=pscan_counter)
        for update in workload.all_updates():
            dyn.apply(update)
            pscan.apply(update)
        assert dyn_counter.get("similarity_eval") < pscan_counter.get("similarity_eval") / 2

    def test_group_by_queries_after_churn(self, scenario):
        spec, workload = scenario
        params = StrCluParams(epsilon=spec.default_epsilon_jaccard, mu=3, rho=0.0)
        algo = DynStrClu(params)
        for update in workload.all_updates():
            algo.apply(update)
        rng = random.Random(5)
        vertices = list(algo.graph.vertices())
        clustering = algo.clustering()
        for size in (4, 16, 64):
            query = rng.sample(vertices, min(size, len(vertices)))
            groups = algo.group_by(query)
            expected = [c & set(query) for c in clustering.clusters if c & set(query)]
            assert sorted(map(len, groups.as_sets())) == sorted(map(len, expected))


class TestColdAndHotStart:
    def test_hot_start_equals_incremental_build(self, scenario):
        spec, workload = scenario
        params = StrCluParams(epsilon=spec.default_epsilon_jaccard, mu=3, rho=0.0)
        hot = DynStrClu.from_edges(workload.initial_edges, params)
        cold = DynStrClu(params)
        for u, v in workload.initial_edges:
            cold.insert_edge(u, v)
        assert clusterings_equal(hot.clustering(), cold.clustering())
