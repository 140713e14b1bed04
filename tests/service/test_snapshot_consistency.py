"""Acceptance test: readers under live ingest observe snapshot-consistent views.

The invariant: every published view has a ``version`` v, and its query
results are *identical* to running the query against a fresh maintainer that
applied exactly the first v updates of the stream.  Concurrent readers may
see stale views, but never torn ones — each observation corresponds to some
fully-applied prefix.
"""

from __future__ import annotations

import threading

from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.graph.generators import planted_partition_graph
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.workloads.updates import generate_update_sequence

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


def _partition(group_by_result):
    return frozenset(frozenset(group) for group in group_by_result.as_sets())


def test_concurrent_readers_observe_fully_applied_prefixes():
    edges = planted_partition_graph(2, 10, 0.7, 0.1, seed=11)
    workload = generate_update_sequence(20, edges, 120, eta=0.3, seed=13)
    stream = list(workload.all_updates())
    query = list(range(20))

    # the oracle: the expected group-by partition after every prefix length
    oracle = DynStrClu(PARAMS)
    expected = {0: _partition(oracle.group_by(query))}
    for i, update in enumerate(stream, start=1):
        oracle.apply(update)
        expected[i] = _partition(oracle.group_by(query))

    config = EngineConfig(batch_size=5)
    engine = ClusteringEngine(PARAMS, config=config)
    observations = []
    violations = []
    done = threading.Event()

    def reader() -> None:
        while not done.is_set():
            view = engine.view()
            got = _partition(view.group_by(query))
            observations.append(view.version)
            if got != expected[view.version]:
                violations.append((view.version, got))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    with engine:
        for thread in threads:
            thread.start()
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=60)
        done.set()
        for thread in threads:
            thread.join()

    assert not violations, f"inconsistent views observed: {violations[:3]}"
    # the readers genuinely raced the writer: several distinct prefixes seen
    assert len(set(observations)) > 1
    # and the settled engine serves exactly the fully-applied stream
    assert engine.view().version == len(stream)
    assert _partition(engine.view().group_by(query)) == expected[len(stream)]
