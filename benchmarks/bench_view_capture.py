"""View publication benchmark: incremental patch vs full capture.

The service layer publishes an immutable :class:`ClusteringView` after
every micro-batch.  Full capture costs O(n + m) regardless of how little
changed; incremental capture patches the previous view from the backend's
flip set in O(|F| log n).  This benchmark measures both on the *same*
maintainer states — a large graph of small clusters absorbing small
update batches, the regime the paper's cost argument targets — and emits
``BENCH_view_capture.json`` with the per-batch latencies and the speedup.

Defaults reproduce the acceptance configuration (n ≈ 50k vertices,
batches of ≤ 64 updates); ``--triangles``/``--batches``/``--batch-size``
scale it down for CI smoke runs.  ``--verify`` additionally checks, on
every batch, that the patched view is exactly equivalent to the full
capture (cluster family, role counts, group-by answers on both sides of
the per-vertex/per-cluster crossover, materialised clustering).

Runs both under pytest (``pytest benchmarks/bench_view_capture.py``, small
configuration) and standalone (``python benchmarks/bench_view_capture.py``).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.report import host_fingerprint
from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.core.result import CLUSTER_SCAN_RATIO, clusterings_equal
from repro.service.views import ClusteringView

#: Output document, written next to the other BENCH artefacts.
OUTPUT_PATH = Path("BENCH_view_capture.json")

# exact mode on tiny neighbourhoods: labelling is cheap and deterministic,
# so the measurement isolates view publication, not the estimator
PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0, seed=7)


def _build_maintainer(num_triangles: int) -> DynStrClu:
    """A graph of ``num_triangles`` disjoint triangles (n = 3·t, m = 3·t).

    With ε = 0.5 and μ = 2 every triangle vertex is a core, so the
    clustering has one cluster per triangle — many small clusters, the
    shape under which per-batch O(n + m) capture is most wasteful.
    """
    algo = DynStrClu(PARAMS)
    for t in range(num_triangles):
        a = 3 * t
        algo.insert_edge(a, a + 1)
        algo.insert_edge(a + 1, a + 2)
        algo.insert_edge(a, a + 2)
    return algo


def _group_by_queries(full: ClusteringView) -> List[List[int]]:
    """A small query, one at the group-by crossover, and every vertex.

    With one cluster per triangle the crossover query is two thirds of the
    vertices, so both paths of :func:`repro.core.result.group_by_clusters`
    run here.
    """
    vertices = list(range(full.num_vertices))
    crossover = CLUSTER_SCAN_RATIO * full.stats()["clusters"]
    return [vertices[:8], vertices[:crossover], vertices]


def _views_equivalent(patched: ClusteringView, full: ClusteringView) -> bool:
    stats_p = patched.stats()
    stats_f = full.stats()
    for key in ("clusters", "cores", "hubs", "noise", "largest_cluster",
                "num_vertices", "num_edges", "view_version"):
        if stats_p[key] != stats_f[key]:
            return False
    for query in _group_by_queries(full):
        groups_p = {frozenset(g) for g in patched.group_by(query).as_sets()}
        groups_f = {frozenset(g) for g in full.group_by(query).as_sets()}
        if groups_p != groups_f:
            return False
    return clusterings_equal(patched.clustering, full.clustering)


def run_view_capture_benchmark(
    num_triangles: int = 16_667,
    num_batches: int = 20,
    batch_size: int = 64,
    seed: int = 11,
    verify: bool = False,
) -> Dict[str, object]:
    """Apply small update batches; time both capture strategies per batch."""
    algo = _build_maintainer(num_triangles)
    algo.drain_view_delta()
    version = algo.updates_processed
    view = ClusteringView.capture(algo, version)

    rng = random.Random(seed)
    incremental_s: List[float] = []
    full_s: List[float] = []
    flip_sizes: List[int] = []
    fallbacks = 0
    verified = True

    for _ in range(num_batches):
        # one batch: delete + reinsert an edge of batch_size//2 distinct
        # triangles — churn that flips core statuses but stays small
        for t in rng.sample(range(num_triangles), max(1, batch_size // 2)):
            a = 3 * t
            algo.delete_edge(a, a + 1)
            algo.insert_edge(a, a + 1)
            version += 2
        flips = algo.drain_view_delta().flips
        flip_sizes.append(len(flips))

        start = time.perf_counter()
        patched: Optional[ClusteringView] = view.patched(algo, flips, version=version)
        incremental_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        captured = ClusteringView.capture(algo, version)
        full_s.append(time.perf_counter() - start)

        if patched is None:
            fallbacks += 1
            patched = captured
        elif verify and not _views_equivalent(patched, captured):
            verified = False
        view = patched

    incremental_mean = sum(incremental_s) / len(incremental_s)
    full_mean = sum(full_s) / len(full_s)
    document: Dict[str, object] = {
        "benchmark": "view_capture",
        "host": host_fingerprint(),
        "config": {
            "num_triangles": num_triangles,
            "num_vertices": algo.graph.num_vertices,
            "num_edges": algo.graph.num_edges,
            "num_batches": num_batches,
            "batch_size": batch_size,
            "epsilon": PARAMS.epsilon,
            "mu": PARAMS.mu,
            "rho": PARAMS.rho,
            "seed": seed,
            "verified_equivalence": verify and verified,
        },
        "incremental": {
            "mean_s": incremental_mean,
            "min_s": min(incremental_s),
            "max_s": max(incremental_s),
            "fallbacks": fallbacks,
        },
        "full": {
            "mean_s": full_mean,
            "min_s": min(full_s),
            "max_s": max(full_s),
        },
        "flip_set_size": {
            "mean": sum(flip_sizes) / len(flip_sizes),
            "max": max(flip_sizes),
        },
        "speedup": (full_mean / incremental_mean) if incremental_mean else 0.0,
    }
    if verify and not verified:
        document["error"] = "patched view diverged from full capture"
    return document


def _emit(document: Dict[str, object], path: Path = OUTPUT_PATH) -> None:
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")


def _print_summary(document: Dict[str, object], path: Path = OUTPUT_PATH) -> None:
    config = document["config"]
    print()
    print("view capture benchmark")
    print(f"  graph:       n={config['num_vertices']} m={config['num_edges']} "
          f"({config['num_triangles']} triangle clusters)")
    print(f"  batches:     {config['num_batches']} x {config['batch_size']} updates, "
          f"mean |F| = {document['flip_set_size']['mean']:.1f}")
    print(f"  full:        {document['full']['mean_s'] * 1e3:.3f} ms/batch")
    print(f"  incremental: {document['incremental']['mean_s'] * 1e3:.3f} ms/batch "
          f"({document['incremental']['fallbacks']} fallbacks)")
    print(f"  speedup:     {document['speedup']:.1f}x")
    print(f"  report:      {path.resolve()}")


def test_view_capture_speedup(benchmark):
    document = benchmark.pedantic(
        lambda: run_view_capture_benchmark(
            num_triangles=400, num_batches=8, batch_size=32, verify=True
        ),
        rounds=1,
        iterations=1,
    )
    _emit(document)
    _print_summary(document)
    assert document["config"]["verified_equivalence"]
    assert document["incremental"]["fallbacks"] == 0
    # even at n ≈ 1200 the patch must already beat the full retrieval
    assert document["speedup"] > 1.0
    benchmark.extra_info["speedup"] = document["speedup"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triangles", type=int, default=16_667,
                        help="number of triangle clusters (n = 3*t; default ~50k vertices)")
    parser.add_argument("--batches", type=int, default=20)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--verify", action="store_true",
                        help="check patched == captured on every batch")
    parser.add_argument("--out", type=Path, default=OUTPUT_PATH)
    args = parser.parse_args()
    document = run_view_capture_benchmark(
        num_triangles=args.triangles,
        num_batches=args.batches,
        batch_size=args.batch_size,
        seed=args.seed,
        verify=args.verify,
    )
    _emit(document, args.out)
    _print_summary(document, args.out)
    if "error" in document:
        raise SystemExit(document["error"])


if __name__ == "__main__":
    main()
