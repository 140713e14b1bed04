"""Ablation A3 — sampling estimator versus exact similarity inside DynELM.

The sampling estimator of Section 4 is what makes a single re-labelling
poly-logarithmic instead of Θ(d).  This ablation runs the same DynELM update
stream with (a) the paper's pure sampler, (b) the exact oracle and (c) the
default hybrid oracle, which computes σ exactly whenever that costs fewer
probes than ``EXACT_COST_RATIO`` times the sample size, and compares the
neighbourhood-probe and sample counts: with the exact oracle every
re-labelling scans a neighbourhood, with the pure sampler it draws a bounded
number of samples regardless of degree, and the hybrid does whichever is
cheaper per edge.
"""

from __future__ import annotations

from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM
from repro.core.estimator import ExactSimilarityOracle
from repro.graph.generators import planted_partition_graph
from repro.instrumentation import OpCounter
from repro.workloads.updates import InsertionStrategy, generate_update_sequence

EDGES = planted_partition_graph(3, 50, 0.45, 0.01, seed=31)
WORKLOAD = generate_update_sequence(
    150, EDGES, int(0.3 * len(EDGES)), InsertionStrategy.DEGREE_RANDOM, eta=0.1, seed=32
)
PARAMS = StrCluParams(epsilon=0.4, mu=5, rho=0.5, delta_star=0.01, seed=1, max_samples=96)


def _run(arm: str, counter: OpCounter) -> None:
    algo = DynELM(PARAMS, counter=counter)
    if arm == "exact":
        algo.oracle = ExactSimilarityOracle(algo.graph, PARAMS.similarity, counter)
    elif arm == "sampling":
        # the paper's sampler with the hybrid rule switched off
        algo.oracle.similarity = algo.oracle.estimate
    algo.strategy.oracle = algo.oracle
    for update in WORKLOAD.all_updates():
        algo.apply(update)


def test_ablation_sampling_estimator(benchmark):
    counter = OpCounter()
    benchmark.pedantic(lambda: _run("sampling", counter), rounds=1, iterations=1)
    benchmark.extra_info["samples"] = counter.get("sample")
    benchmark.extra_info["neighbour_probes"] = counter.get("neighbour_probe")


def test_ablation_exact_oracle(benchmark):
    counter = OpCounter()
    benchmark.pedantic(lambda: _run("exact", counter), rounds=1, iterations=1)
    benchmark.extra_info["neighbour_probes"] = counter.get("neighbour_probe")


def test_ablation_hybrid_oracle(benchmark):
    counter = OpCounter()
    benchmark.pedantic(lambda: _run("hybrid", counter), rounds=1, iterations=1)
    benchmark.extra_info["samples"] = counter.get("sample")
    benchmark.extra_info["neighbour_probes"] = counter.get("neighbour_probe")
    print(
        f"\nAblation A3: hybrid samples = {counter.get('sample')}, "
        f"hybrid probes = {counter.get('neighbour_probe')}"
    )


def test_ablation_estimator_avoids_neighbourhood_scans(benchmark):
    sampling_counter, exact_counter = OpCounter(), OpCounter()

    def run_both():
        _run("sampling", sampling_counter)
        _run("exact", exact_counter)

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(
        f"\nAblation A3: sampling probes = {sampling_counter.get('neighbour_probe')}, "
        f"exact probes = {exact_counter.get('neighbour_probe')}"
    )
    # the sampling oracle performs no neighbourhood scans at all; the exact
    # oracle scans one neighbourhood per re-labelling
    assert sampling_counter.get("neighbour_probe") == 0
    assert exact_counter.get("neighbour_probe") > 0
