"""In-process workloads: ``DynStrClu`` driven in a closed loop.

One run hot-starts the maintainer from a registry stand-in ``setup_reps``
times (``setup_s`` is the median), applies a generated DR stream (η = 1)
in a closed loop to the last hot start, and checks the final state against
an independent reference.  The first hot start is kept as a read copy: the
cluster-group-by and full-retrieval queries run on it in short rounds
between chunks of the stream, and always see the same graph (the
hot-started stand-in) whatever the seed.  Every round repeats the same
queries, and a read is reported at its best time over the rounds: the
host's speed swings by up to 1.7x within seconds (a neighbour's load only
ever adds time), and the best of repeats spread over the whole run reads
the program's own cost.

The stream is a fixed amount of work, ``max(MIN_UPDATES, nominal_rate ×
seconds)`` updates.  Fixed work keeps the final graph, and hence every
OpCounter count, identical at a given seed however fast the host runs.

A traced run does all of the above untraced, then installs the layer
tracing and applies the same stream to the read copy: the two streams do
identical work from identical hot starts (their counts must agree), so the
ratio of their apply times is the tracing overhead.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from measure import (
    CheckFailed,
    check_ledger,
    count_metrics,
    mean_call_us,
    peak_rss_mb,
    percentile,
    self_time_metrics,
)
from repro.baselines.scan import static_scan
from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.core.labelling import exact_labelling, is_valid_rho_approximate, mislabelled_edges
from repro.core.result import clusterings_equal, compute_clusters, group_by_membership
from repro.instrumentation import OpCounter
from repro.workloads.datasets import dataset_spec
from repro.workloads.updates import generate_update_sequence

import tracing

QUERY_SIZE = 32
#: a stream times at least this many updates, so p99 has >= 10 samples beyond it
MIN_UPDATES = 1000
#: read rounds interleaved with the stream
READ_ROUNDS = 40
#: fixed group-by queries, each repeated in every read round
GROUPBY_QUERIES = 256
#: group-bys and retrievals of the traced run's read round
TRACED_READS = (500, 5)


@dataclass(frozen=True)
class CoreWorkload:
    dataset: str
    rho: float
    #: hot starts per run (at least 2: the first is the read copy)
    setup_reps: int
    #: stream updates per measured second: about today's closed-loop rate
    nominal_rate: float
    #: full retrievals per read round
    retrievals: int
    epsilon: float = 0.2
    mu: int = 3
    #: tiny mode: hot-start only this many of the stand-in's edges
    edge_limit: int = 0
    min_updates: int = MIN_UPDATES


def tiny(workload: CoreWorkload) -> CoreWorkload:
    """The same workload on a small prefix of the stand-in, for self-tests."""
    return CoreWorkload(
        dataset=workload.dataset,
        rho=workload.rho,
        setup_reps=2,
        nominal_rate=workload.nominal_rate,
        retrievals=1,
        edge_limit=120,
        min_updates=40,
    )


def _hot_start(
    params: StrCluParams, edges: List[Tuple[int, int]]
) -> Tuple[DynStrClu, OpCounter, float]:
    counter = OpCounter()
    start = time.perf_counter()
    algo = DynStrClu(params, counter=counter)
    for u, v in edges:
        algo.insert_edge(u, v)
    return algo, counter, time.perf_counter() - start


def _stream(algo: DynStrClu, counter: OpCounter, stream, between=None) -> Tuple[List[int], Dict[str, int]]:
    """Apply ``stream`` in a closed loop; returns per-update nanoseconds and
    the counts it added.  ``between(i)`` runs untimed after each of
    ``READ_ROUNDS`` equal chunks."""
    clock = time.perf_counter_ns
    apply = algo.apply
    latencies: List[int] = []
    before = counter.snapshot()
    for i in range(READ_ROUNDS):
        for update in stream[len(stream) * i // READ_ROUNDS : len(stream) * (i + 1) // READ_ROUNDS]:
            t0 = clock()
            apply(update)
            latencies.append(clock() - t0)
        if between is not None:
            between(i)
    counts = {
        op: value - before.get(op, 0)
        for op, value in counter.snapshot().items()
        if value != before.get(op, 0)
    }
    counts["memory_words"] = algo.memory_words()
    return latencies, counts


def run(workload: CoreWorkload, name: str, seed: int, seconds: float, trace: bool) -> Dict:
    spec = dataset_spec(workload.dataset)
    edges = spec.load()
    if workload.edge_limit:
        edges = edges[: workload.edge_limit]
    n = spec.num_vertices
    params = StrCluParams(epsilon=workload.epsilon, mu=workload.mu, rho=workload.rho, seed=seed)
    updates = max(workload.min_updates, round(workload.nominal_rate * seconds))
    stream = generate_update_sequence(n, edges, updates, strategy="DR", eta=1.0, seed=seed).updates

    # --- set-up: hot starts; the first is the read copy, the last is streamed ---
    setups: List[float] = []
    setup_counts: List[Dict[str, int]] = []
    for rep in range(workload.setup_reps):
        algo, counter, elapsed = _hot_start(params, edges)
        setups.append(elapsed)
        setup_counts.append({**counter.snapshot(), "memory_words": algo.memory_words()})
        if rep == 0:
            reader, reader_counter = algo, counter
    if any(counts != setup_counts[0] for counts in setup_counts):
        raise CheckFailed("identical hot starts gave different counts")

    # --- the timed stream, with read rounds on the read copy between chunks ---
    clock = time.perf_counter_ns
    rng = random.Random(seed)
    vertices = sorted(reader.graph.vertices())
    membership = reader.clustering().membership()
    queries = [rng.sample(vertices, min(QUERY_SIZE, len(vertices))) for _ in range(GROUPBY_QUERIES)]
    groupby_ns: List[int] = []
    best_groupby = [math.inf] * len(queries)
    retrieval_ns: List[int] = []

    def read_round(i: int) -> None:
        for q, query in enumerate(queries):
            t0 = clock()
            answer = reader.group_by(query)
            elapsed = clock() - t0
            groupby_ns.append(elapsed)
            best_groupby[q] = min(best_groupby[q], elapsed)
            if i == 0:
                expected = group_by_membership(membership, query)
                if sorted(map(sorted, expected.as_sets())) != sorted(map(sorted, answer.as_sets())):
                    raise CheckFailed("group_by disagrees with clustering()")
        for _ in range(workload.retrievals):
            t0 = clock()
            reader.clustering()
            retrieval_ns.append(clock() - t0)

    latencies, stream_counts = _stream(algo, counter, stream, read_round)
    rss = peak_rss_mb()

    # --- traced run: the same stream again, on the read copy, traced ----------
    per_layer: Dict[str, float] = {}
    if trace:
        tracer = tracing.Tracer()
        untrace = tracing.install(tracer, tracing.core_targets())
        try:
            for _ in range(TRACED_READS[0]):
                reader.group_by(rng.sample(vertices, min(QUERY_SIZE, len(vertices))))
            for _ in range(TRACED_READS[1]):
                reader.clustering()
            read_spans = tracer.snapshot()
            traced_ns, traced_counts = _stream(reader, reader_counter, stream)
            stream_spans = tracing.diff(tracer.snapshot(), read_spans)
        finally:
            untrace()
        if traced_counts != stream_counts:
            changed = sorted(k for k in traced_counts.keys() | stream_counts.keys()
                             if traced_counts.get(k) != stream_counts.get(k))
            raise CheckFailed(f"the traced stream did different work: {', '.join(changed)}")
        covered_ns = sum(ns for ns, _calls in stream_spans.values())
        per_layer = {
            **count_metrics(stream_counts, len(latencies)),
            **self_time_metrics(stream_spans, len(latencies)),
            "connectivity.component_id_us": mean_call_us(read_spans, "connectivity:component_id"),
            "core.dynstrclu.memory_words": float(stream_counts["memory_words"]),
            "tail.update_p99_us": percentile(latencies, 99) / 1e3,
            "tail.update_samples": float(len(latencies)),
            "tail.groupby_p99_us": percentile(groupby_ns, 99) / 1e3,
            "tail.groupby_samples": float(len(groupby_ns)),
            "trace.overhead": sum(traced_ns) / sum(latencies),
            "trace.coverage": covered_ns / sum(traced_ns),
        }

    # --- output checks on the final state ----------------------------------------
    clustering = algo.clustering()
    if workload.rho == 0.0:
        reference = static_scan(algo.graph, params.epsilon, params.mu)
        if not clusterings_equal(clustering, reference):
            raise CheckFailed("final clustering differs from static SCAN on the final graph")
    else:
        # the oracle caps each invocation at max_samples draws, far below the
        # paper's L_i at rho = 0.01, so the nominal band is missed by a few
        # edges on most seeds; check the band the capped sample size does
        # guarantee: Hoeffding's L = (2/D^2) ln(2/delta) solved for D, with
        # the failure budget delta* split over the final edges
        delta = params.delta_star / max(1, algo.graph.num_edges)
        accuracy = math.sqrt(2.0 * math.log(2.0 / delta) / params.max_samples)
        rho_checked = accuracy / params.epsilon
        if not is_valid_rho_approximate(
            algo.graph, algo.labels, params.epsilon, rho_checked, params.similarity
        ):
            raise CheckFailed(f"final labelling is not valid {rho_checked:.3f}-approximate")
        exact = exact_labelling(algo.graph, params.epsilon, params.similarity)
        approximation = {
            "rho_checked": rho_checked,
            "labels_differing_from_exact": mislabelled_edges(exact, algo.labels),
        }
    # retrieval must agree with the Fact-1 clustering of the maintained labels
    if not clusterings_equal(clustering, compute_clusters(algo.graph, algo.labels, params.mu)):
        raise CheckFailed("clustering() differs from the clustering of the maintained labels")
    mismatch = check_ledger(
        f"{name}/seed={seed}/edges={len(edges)}/updates={len(latencies)}",
        {**stream_counts, **{f"setup.{k}": v for k, v in setup_counts[0].items()}},
    )
    if mismatch:
        raise CheckFailed(mismatch)

    end_to_end = {
        "setup_s": statistics.median(setups),
        # closed loop: updates per second of apply time (the read rounds
        # between chunks are not the stream's time)
        "update_throughput": len(latencies) / (sum(latencies) / 1e9),
        # reads are synchronous in-process: an update is visible to every
        # reader the moment its apply call returns
        "update_p50_us": percentile(latencies, 50) / 1e3,
        # each query at its best over the read rounds
        "groupby_p50_us": percentile(best_groupby, 50) / 1e3,
        "retrieval_ms": min(retrieval_ns) / 1e6,
        "peak_rss_mb": rss,
    }
    report = {
        "samples": {
            "setup": len(setups),
            "updates": len(latencies),
            "groupby": len(groupby_ns),
            "retrieval": len(retrieval_ns),
        },
        "stand_in": {"dataset": workload.dataset, "vertices": n, "m0": len(edges)},
    }
    if workload.rho > 0.0:
        report["approximation"] = approximation
    attempted = len(latencies) + len(groupby_ns) + len(retrieval_ns) + len(setups) * len(edges)
    return {
        "attempted": attempted,
        "failed": 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
    }
