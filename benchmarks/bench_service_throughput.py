"""Service throughput benchmark: ingest rate and query latency under load.

Unlike the table/figure benchmarks (which reproduce the paper), this one
characterises the new serving layer: a :class:`ClusteringEngine` ingesting a
generated insert/delete stream at full speed while reader threads issue
snapshot-consistent group-by queries against the published views.

Emits ``BENCH_service.json`` into the working directory with

* ingest throughput in updates/second (offered == accepted at full speed
  with an adequately sized queue),
* query latency percentiles (p50/p90/p99) observed by the concurrent
  readers,
* per-batch apply latency percentiles from the engine's own metrics.

Runs both under pytest (``pytest benchmarks/bench_service_throughput.py``)
and standalone (``python benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.bench.report import host_fingerprint
from repro.core.config import StrCluParams
from repro.graph.generators import planted_partition_graph
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.loadgen import EngineTarget, LoadGenConfig, LoadGenerator
from repro.service.metrics import ServiceMetrics
from repro.workloads.updates import generate_update_sequence

#: Output document, written next to the other BENCH artefacts.
OUTPUT_PATH = Path("BENCH_service.json")

# rho = 0.5 matches the overall-time benchmarks: the point here is the
# serving layer's concurrency behaviour, not the estimator's sampling cost
PARAMS = StrCluParams(epsilon=0.3, mu=3, rho=0.5, seed=7)


def _build_stream(n: int = 100, num_updates: int = 400, seed: int = 11):
    edges = planted_partition_graph(4, n // 4, p_intra=0.2, p_inter=0.01, seed=seed)
    workload = generate_update_sequence(n, edges, num_updates, eta=0.25, seed=seed)
    return list(workload.all_updates()), list(range(n))


def run_service_benchmark(
    num_updates: int = 400, readers: int = 2, query_size: int = 32
) -> Dict[str, object]:
    """Ingest a full stream at maximum speed with concurrent readers."""
    stream, vertex_pool = _build_stream(num_updates=num_updates)
    config = EngineConfig(batch_size=128, queue_capacity=len(stream))
    engine = ClusteringEngine(PARAMS, config=config)
    reader_metrics = ServiceMetrics()
    done = threading.Event()

    def reader_loop(seed: int) -> None:
        import random

        rng = random.Random(seed)
        while not done.is_set():
            query = rng.sample(vertex_pool, query_size)
            start = time.perf_counter()
            engine.view().group_by(query)
            reader_metrics.observe_query(time.perf_counter() - start)
            # ~1 kHz per reader: a heavy but not GIL-saturating query load
            time.sleep(0.001)

    threads = [
        threading.Thread(target=reader_loop, args=(seed,)) for seed in range(readers)
    ]
    with engine:
        for thread in threads:
            thread.start()
        generator = LoadGenerator(
            EngineTarget(engine),
            stream,
            vertex_pool=vertex_pool,
            config=LoadGenConfig(ingest_batch=64, query_ratio=0.0),
        )
        ingest_started = time.monotonic()
        report = generator.run()
        engine.flush(timeout=120)
        ingest_seconds = time.monotonic() - ingest_started
        done.set()
        for thread in threads:
            thread.join()
        engine_metrics = engine.metrics.snapshot()
        final_stats = engine.view().stats()

    applied = engine.applied
    document: Dict[str, object] = {
        "benchmark": "service_throughput",
        "host": host_fingerprint(),
        "config": {
            "num_updates": len(stream),
            "batch_size": config.batch_size,
            "queue_capacity": config.queue_capacity,
            "ingest_batch": 64,
            "readers": readers,
            "query_size": query_size,
            "epsilon": PARAMS.epsilon,
            "mu": PARAMS.mu,
            "rho": PARAMS.rho,
        },
        "ingest": {
            "updates_offered": report.updates_sent,
            "updates_applied": applied,
            "wall_seconds": ingest_seconds,
            "updates_per_second": applied / ingest_seconds if ingest_seconds else 0.0,
            "batch_apply_latency": engine_metrics["ingest"],
        },
        "query": {
            "requests": reader_metrics.query.count,
            "p50_s": reader_metrics.query.percentile(50),
            "p90_s": reader_metrics.query.percentile(90),
            "p99_s": reader_metrics.query.percentile(99),
            "mean_s": reader_metrics.query.mean,
        },
        "final_view": final_stats,
    }
    return document


def _emit(document: Dict[str, object]) -> None:
    OUTPUT_PATH.write_text(json.dumps(document, indent=2), encoding="utf-8")


def _print_summary(document: Dict[str, object]) -> None:
    ingest = document["ingest"]
    query = document["query"]
    print()
    print("service throughput benchmark")
    print(f"  ingest: {ingest['updates_applied']} updates in "
          f"{ingest['wall_seconds']:.2f}s "
          f"-> {ingest['updates_per_second']:.0f} updates/s")
    print(f"  query:  {query['requests']} group-by requests, "
          f"p50 {query['p50_s'] * 1e6:.0f}us  "
          f"p90 {query['p90_s'] * 1e6:.0f}us  "
          f"p99 {query['p99_s'] * 1e6:.0f}us")
    print(f"  report: {OUTPUT_PATH.resolve()}")


def test_service_throughput(benchmark):
    document = benchmark.pedantic(run_service_benchmark, rounds=1, iterations=1)
    _emit(document)
    _print_summary(document)

    ingest = document["ingest"]
    query = document["query"]
    # every offered update is applied (full-speed run, queue sized to stream)
    assert ingest["updates_applied"] == document["config"]["num_updates"]
    assert ingest["updates_per_second"] > 0
    # readers made real progress concurrently with ingest, and snapshot reads
    # stay far below batch-apply latency (the point of view publication)
    assert query["requests"] > 0
    assert query["p50_s"] < 0.05
    assert OUTPUT_PATH.exists()
    emitted = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
    assert emitted["benchmark"] == "service_throughput"
    benchmark.extra_info["updates_per_second"] = ingest["updates_per_second"]


if __name__ == "__main__":
    result = run_service_benchmark()
    _emit(result)
    _print_summary(result)
