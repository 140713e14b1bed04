"""Experiment runners — one function per table/figure of the paper.

Each runner builds the relevant workloads on the synthetic dataset
stand-ins, drives the algorithms and returns a list of flat result rows
(dictionaries).  The benchmark modules under ``benchmarks/`` and the CLI
call these functions; each runner's docstring names its table or figure.

Scale knobs (``update_multiplier``, dataset subsets) default to values that
keep the whole harness runnable in minutes on a laptop while preserving the
qualitative shapes of the paper's results (who wins, by how much, where the
crossovers are).  Absolute numbers necessarily differ: the paper measured a
native C++ implementation, this harness measures pure Python, so each row
also carries the operation-count cost model from
:mod:`repro.instrumentation`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.hscan import IndexedDynamicSCAN
from repro.baselines.pscan import ExactDynamicSCAN
from repro.baselines.scan import scan_labelling, static_scan
from repro.core.api import make_clusterer
from repro.core.config import StrCluParams
from repro.core.dynelm import DynELM
from repro.core.dynstrclu import DynStrClu
from repro.core.result import compute_clusters
from repro.evaluation.quality import quality_report
from repro.evaluation.visualisation import cluster_density_report, epsilon_sweep_summaries
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.similarity import SimilarityKind
from repro.instrumentation import OpCounter
from repro.workloads.datasets import (
    DATASETS,
    QUALITY_DATASETS,
    REPRESENTATIVES,
    dataset_spec,
    load_dataset,
)
from repro.workloads.updates import InsertionStrategy, UpdateWorkload, generate_update_sequence

ALGORITHM_NAMES = ("DynELM", "DynStrClu", "pSCAN", "hSCAN")


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
#: Per-invocation sample cap used by the harness.  The theoretical L_i at
#: rho = 0.01 is in the millions, far beyond what is useful on the synthetic
#: stand-ins; capping keeps the harness interactive while leaving the shapes
#: of the curves intact (the :mod:`repro.core.estimator` docstring explains
#: why the hybrid oracle leaves the cap binding only between two hubs).
HARNESS_MAX_SAMPLES = 128

#: Larger cap used by the quality reproductions (Tables 2 and 3), where the
#: estimate accuracy — not the update throughput — is what the table reports.
QUALITY_MAX_SAMPLES = 1024


def _make_params(
    epsilon: float,
    mu: int,
    rho: float,
    similarity: SimilarityKind | str,
    seed: int = 0,
    max_samples: int = HARNESS_MAX_SAMPLES,
) -> StrCluParams:
    return StrCluParams(
        epsilon=epsilon,
        mu=mu,
        rho=rho,
        delta_star=0.01,
        similarity=SimilarityKind(similarity),
        seed=seed,
        max_samples=max_samples,
    )


#: Paper algorithm names → backend-registry keys (repro.core.api).
BACKEND_KEYS = {
    "DynELM": "dynelm",
    "DynStrClu": "dynstrclu",
    "pSCAN": "pscan",
    "hSCAN": "hscan",
    "SCAN": "scan-exact",
}


def _make_algorithm(
    name: str,
    params: StrCluParams,
    counter: OpCounter,
):
    """Instantiate a competing algorithm through the backend registry."""
    key = BACKEND_KEYS.get(name, name)
    try:
        return make_clusterer(key, params, counter=counter)
    except ValueError as exc:
        raise ValueError(f"unknown algorithm {name!r}") from exc


def _build_workload(
    dataset: str,
    update_multiplier: float,
    strategy: InsertionStrategy | str,
    eta: float,
    seed: int = 0,
) -> UpdateWorkload:
    spec = dataset_spec(dataset)
    edges = spec.load()
    num_updates = int(update_multiplier * len(edges))
    return generate_update_sequence(
        n=spec.num_vertices,
        initial_edges=edges,
        num_updates=num_updates,
        strategy=strategy,
        eta=eta,
        seed=seed,
    )


def _drive(algorithm, workload: UpdateWorkload) -> float:
    """Apply the whole workload and return elapsed wall-clock seconds."""
    start = time.perf_counter()
    for update in workload.all_updates():
        algorithm.apply(update)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Table 1: dataset meta information and memory footprint
# ----------------------------------------------------------------------
def run_memory_table(
    datasets: Optional[Sequence[str]] = None,
    update_multiplier: float = 1.0,
    epsilon: float = 0.2,
    mu: int = 5,
    rho: float = 0.01,
    similarity: SimilarityKind | str = SimilarityKind.JACCARD,
) -> List[Dict[str, object]]:
    """Reproduce Table 1: #vertices, #edges, #updates and peak memory words."""
    names = list(datasets) if datasets is not None else list(DATASETS)
    rows: List[Dict[str, object]] = []
    for name in names:
        workload = _build_workload(name, update_multiplier, InsertionStrategy.RANDOM_RANDOM, 0.0)
        row: Dict[str, object] = {
            "dataset": name,
            "paper_name": dataset_spec(name).paper_name,
            "vertices": dataset_spec(name).num_vertices,
            "edges": len(workload.initial_edges),
            "updates": workload.total_updates,
        }
        params = _make_params(epsilon, mu, rho, similarity)
        # memory is sampled periodically rather than after every update:
        # memory_words() walks the structures, and the peak over the sequence
        # is what Table 1 reports
        sample_every = max(1, workload.total_updates // 64)
        for algo_name in ALGORITHM_NAMES:
            counter = OpCounter()
            algorithm = _make_algorithm(algo_name, params, counter)
            peak = 0
            for index, update in enumerate(workload.all_updates(), start=1):
                algorithm.apply(update)
                if index % sample_every == 0 or index == workload.total_updates:
                    peak = max(peak, algorithm.memory_words())
            row[f"{algo_name}_memory_words"] = peak
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Tables 2 and 3: approximate clustering quality
# ----------------------------------------------------------------------
def run_quality_table(
    similarity: SimilarityKind | str = SimilarityKind.JACCARD,
    rhos: Sequence[float] = (0.01, 0.5),
    datasets: Optional[Sequence[str]] = None,
    mu: int = 5,
    top_ks: Sequence[int] = (1, 5, 10, 20, 50, 100),
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Reproduce Table 2 (Jaccard) / Table 3 (cosine): quality vs the exact result."""
    kind = SimilarityKind(similarity)
    if datasets is None:
        datasets = QUALITY_DATASETS if kind is SimilarityKind.JACCARD else REPRESENTATIVES
    rows: List[Dict[str, object]] = []
    for name in datasets:
        spec = dataset_spec(name)
        epsilon = (
            spec.default_epsilon_jaccard
            if kind is SimilarityKind.JACCARD
            else spec.default_epsilon_cosine
        )
        edges = spec.load()
        graph = DynamicGraph(edges)
        exact_labels = scan_labelling(graph, epsilon, kind)
        exact_clustering = compute_clusters(graph, exact_labels, mu)
        for rho in rhos:
            params = _make_params(
                epsilon, mu, rho, kind, seed=seed, max_samples=QUALITY_MAX_SAMPLES
            )
            approx = DynELM.from_edges(edges, params)
            approx_labels = approx.labels
            approx_clustering = approx.clustering()
            report = quality_report(
                dataset=name,
                rho=rho,
                epsilon=epsilon,
                graph=graph,
                exact_labels=exact_labels,
                approx_labels=approx_labels,
                exact_clustering=exact_clustering,
                approx_clustering=approx_clustering,
                top_ks=top_ks,
            )
            rows.append(report.row())
    return rows


# ----------------------------------------------------------------------
# Figure 7: overall running time, all datasets, four algorithms
# ----------------------------------------------------------------------
def run_overall_time(
    datasets: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    update_multiplier: float = 1.0,
    epsilon: float = 0.2,
    mu: int = 5,
    rho: float = 0.01,
    eta: float = 0.0,
    strategy: InsertionStrategy | str = InsertionStrategy.RANDOM_RANDOM,
    similarity: SimilarityKind | str = SimilarityKind.JACCARD,
) -> List[Dict[str, object]]:
    """Reproduce Figure 7: total time (and op counts) for the full update sequence."""
    names = list(datasets) if datasets is not None else list(DATASETS)
    rows: List[Dict[str, object]] = []
    for name in names:
        workload = _build_workload(name, update_multiplier, strategy, eta)
        params = _make_params(epsilon, mu, rho, similarity)
        for algo_name in algorithms:
            counter = OpCounter()
            algorithm = _make_algorithm(algo_name, params, counter)
            elapsed = _drive(algorithm, workload)
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "updates": workload.total_updates,
                    "seconds": elapsed,
                    "avg_update_us": 1e6 * elapsed / workload.total_updates,
                    "similarity_evals": counter.get("similarity_eval"),
                    "neighbour_probes": counter.get("neighbour_probe"),
                    "samples": counter.get("sample"),
                    "heap_ops": counter.get("heap_op"),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figures 8 and 11: average update cost versus update timestamp
# ----------------------------------------------------------------------
def run_update_cost_curve(
    datasets: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ("DynStrClu", "pSCAN", "hSCAN"),
    strategies: Sequence[InsertionStrategy | str] = (
        InsertionStrategy.RANDOM_RANDOM,
        InsertionStrategy.DEGREE_RANDOM,
        InsertionStrategy.DEGREE_DEGREE,
    ),
    update_multiplier: float = 1.0,
    checkpoints: int = 10,
    epsilon: float = 0.2,
    mu: int = 5,
    rho: float = 0.01,
    eta: float = 0.0,
    similarity: SimilarityKind | str = SimilarityKind.JACCARD,
    max_samples: int = HARNESS_MAX_SAMPLES,
) -> List[Dict[str, object]]:
    """Reproduce Figure 8 (Jaccard) / Figure 11 (cosine): avg update cost over time."""
    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        for strategy in strategies:
            workload = _build_workload(name, update_multiplier, strategy, eta)
            updates = list(workload.all_updates())
            step = max(1, len(updates) // checkpoints)
            params = _make_params(epsilon, mu, rho, similarity, max_samples=max_samples)
            for algo_name in algorithms:
                counter = OpCounter()
                algorithm = _make_algorithm(algo_name, params, counter)
                start = time.perf_counter()
                for index, update in enumerate(updates, start=1):
                    algorithm.apply(update)
                    if index % step == 0 or index == len(updates):
                        elapsed = time.perf_counter() - start
                        rows.append(
                            {
                                "dataset": name,
                                "strategy": str(InsertionStrategy(strategy)),
                                "algorithm": algo_name,
                                "timestamp": index,
                                "avg_update_us": 1e6 * elapsed / index,
                                "ops_per_update": counter.total() / index,
                            }
                        )
    return rows


# ----------------------------------------------------------------------
# Figures 9, 10 and 12(a): parameter sweeps
# ----------------------------------------------------------------------
def run_epsilon_sweep(
    epsilons: Sequence[float] = (0.1, 0.15, 0.2, 0.25, 0.3),
    datasets: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    update_multiplier: float = 1.0,
    mu: int = 5,
    rho: float = 0.01,
    max_samples: int = HARNESS_MAX_SAMPLES,
) -> List[Dict[str, object]]:
    """Reproduce Figure 9: overall running time versus ε."""
    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        workload = _build_workload(name, update_multiplier, InsertionStrategy.RANDOM_RANDOM, 0.0)
        for epsilon in epsilons:
            params = _make_params(epsilon, mu, rho, SimilarityKind.JACCARD, max_samples=max_samples)
            for algo_name in algorithms:
                counter = OpCounter()
                algorithm = _make_algorithm(algo_name, params, counter)
                elapsed = _drive(algorithm, workload)
                rows.append(
                    {
                        "dataset": name,
                        "epsilon": epsilon,
                        "algorithm": algo_name,
                        "seconds": elapsed,
                        "ops": counter.total(),
                    }
                )
    return rows


def run_eta_sweep(
    etas: Sequence[float] = (0.0, 0.01, 0.1, 0.2, 0.5),
    datasets: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    update_multiplier: float = 1.0,
    epsilon: float = 0.2,
    mu: int = 5,
    rho: float = 0.01,
    max_samples: int = HARNESS_MAX_SAMPLES,
) -> List[Dict[str, object]]:
    """Reproduce Figure 10: overall running time versus the deletion ratio η."""
    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        for eta in etas:
            workload = _build_workload(
                name, update_multiplier, InsertionStrategy.RANDOM_RANDOM, eta
            )
            params = _make_params(epsilon, mu, rho, SimilarityKind.JACCARD, max_samples=max_samples)
            for algo_name in algorithms:
                counter = OpCounter()
                algorithm = _make_algorithm(algo_name, params, counter)
                elapsed = _drive(algorithm, workload)
                rows.append(
                    {
                        "dataset": name,
                        "eta": eta,
                        "algorithm": algo_name,
                        "seconds": elapsed,
                        "ops": counter.total(),
                    }
                )
    return rows


def run_rho_sweep(
    rhos: Sequence[float] = (0.01, 0.1, 0.5),
    datasets: Optional[Sequence[str]] = None,
    update_multiplier: float = 1.0,
    epsilon: float = 0.2,
    mu: int = 5,
) -> List[Dict[str, object]]:
    """Reproduce Figure 12(a): DynELM overall running time versus ρ."""
    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        workload = _build_workload(name, update_multiplier, InsertionStrategy.RANDOM_RANDOM, 0.0)
        for rho in rhos:
            params = _make_params(epsilon, mu, rho, SimilarityKind.JACCARD)
            counter = OpCounter()
            algorithm = DynELM(params, counter=counter)
            elapsed = _drive(algorithm, workload)
            rows.append(
                {
                    "dataset": name,
                    "rho": rho,
                    "seconds": elapsed,
                    "relabel_invocations": algorithm.strategy.invocations,
                    "samples": counter.get("sample"),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 12(b): cluster-group-by query time versus query size
# ----------------------------------------------------------------------
def run_query_size_sweep(
    query_sizes: Sequence[int] = (2, 8, 32, 128, 512),
    datasets: Optional[Sequence[str]] = None,
    epsilon: float = 0.2,
    mu: int = 5,
    rho: float = 0.01,
    queries_per_size: int = 20,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Reproduce Figure 12(b): group-by query time versus |Q|."""
    import random as _random

    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        spec = dataset_spec(name)
        edges = spec.load()
        params = _make_params(epsilon, mu, rho, SimilarityKind.JACCARD)
        algorithm = DynStrClu.from_edges(edges, params)
        vertices = list(algorithm.graph.vertices())
        rng = _random.Random(seed)
        for size in query_sizes:
            size = min(size, len(vertices))
            start = time.perf_counter()
            for _ in range(queries_per_size):
                query = rng.sample(vertices, size)
                algorithm.group_by(query)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "dataset": name,
                    "query_size": size,
                    "avg_query_us": 1e6 * elapsed / queries_per_size,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figures 4, 5, 6: visualisation statistics
# ----------------------------------------------------------------------
def run_visualisation(
    datasets: Optional[Sequence[str]] = None,
    similarity: SimilarityKind | str = SimilarityKind.JACCARD,
    mu: int = 5,
    epsilon_sweep: Optional[Sequence[float]] = None,
    top_k: int = 20,
) -> List[Dict[str, object]]:
    """Reproduce Figures 4/6 (per-dataset top-20 density stats) and Figure 5 (ε sweep)."""
    kind = SimilarityKind(similarity)
    names = list(datasets) if datasets is not None else list(REPRESENTATIVES)
    rows: List[Dict[str, object]] = []
    for name in names:
        spec = dataset_spec(name)
        edges = spec.load()
        graph = DynamicGraph(edges)
        default_eps = (
            spec.default_epsilon_jaccard
            if kind is SimilarityKind.JACCARD
            else spec.default_epsilon_cosine
        )
        epsilons = list(epsilon_sweep) if epsilon_sweep else [default_eps]
        clusterings = {eps: static_scan(graph, eps, mu, kind) for eps in epsilons}
        for summary in epsilon_sweep_summaries(graph, clusterings, k=top_k):
            summary_row: Dict[str, object] = {"dataset": name, "similarity": str(kind)}
            summary_row.update(summary)
            rows.append(summary_row)
    return rows
