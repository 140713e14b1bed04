"""Property test: the sharded engine is indistinguishable from one engine.

For random applicable insert/delete streams and ``shards ∈ {2, 3, 4}``:

* **Exact backends (ρ = 0)** — a :class:`ShardedEngine` running any
  registered backend produces, after a flush, *exactly* the clustering and
  group-by of a sequential single-engine DynStrClu run over the same
  stream: hash partitioning, boundary-edge replication, scoped labelling
  and the scatter-gather merge are jointly lossless.
* **Approximate mode (ρ > 0)** — mirroring the backend-equivalence suite,
  the merged result must stay within the ρ-band of the exact similarities:
  every merged core has ≥ μ neighbours at σ ≥ ε(1−ρ) − slack, and every
  vertex with ≥ μ neighbours at σ ≥ ε + slack is a merged core, where the
  slack covers the estimator's Hoeffding radius at the configured sample
  cap.  (Boundary edges are resolved with the *exact* similarity by the
  merge, which is trivially inside the band.)
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.api import available_backends
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.graph.similarity import structural_similarity
from repro.service.engine import EngineConfig
from repro.service.sharding import ShardedEngine

EXACT_PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

#: Approximate-mode bundle mirroring the backend-equivalence suite: the
#: large sample cap keeps the Hoeffding radius far below the asserted
#: slack, so the band check is deterministic for all practical purposes.
APPROX_PARAMS = StrCluParams(
    epsilon=0.5, mu=2, rho=0.4, delta_star=0.001, seed=3, max_samples=4096
)
BAND_SLACK = math.sqrt(math.log(2.0 / 1e-5) / (2.0 * 4096)) + 0.01


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=10))
    length = draw(st.integers(min_value=1, max_value=40))
    present = set()
    stream = []
    for _ in range(length):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            present.discard(edge)
            stream.append(Update.delete(*edge))
        else:
            present.add(edge)
            stream.append(Update.insert(*edge))
    return stream


def run_sharded(stream, shards, backend, params):
    """Drive a sharded engine over ``stream``; returns the quiescent view."""
    config = EngineConfig(shards=shards, batch_size=16)
    with ShardedEngine(params, config=config, backend=backend) as engine:
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=60)
        return engine.view()


@settings(max_examples=12, deadline=None)
@given(stream=update_streams(), shards=st.sampled_from([2, 3, 4]))
def test_sharded_equals_sequential_dynstrclu_for_every_exact_backend(
    stream, shards
):
    reference = DynStrClu(EXACT_PARAMS)
    for update in stream:
        reference.apply(update)
    expected_clustering = reference.clustering()
    query = list(range(12))
    expected_groups = {
        frozenset(g) for g in reference.group_by(query).as_sets()
    }
    expected_membership = expected_clustering.membership()

    for backend in available_backends():
        view = run_sharded(stream, shards, backend, EXACT_PARAMS)
        merged = view.clustering
        assert clusterings_equal(merged, expected_clustering), (backend, shards)
        groups = {frozenset(g) for g in view.group_by(query).as_sets()}
        assert groups == expected_groups, (backend, shards)
        for v in query:
            expected_count = len(expected_membership.get(v, []))
            assert len(view.cluster_of(v)) == expected_count, (backend, shards)


@settings(max_examples=8, deadline=None)
@given(stream=update_streams(), shards=st.sampled_from([2, 3, 4]))
def test_sharded_approximate_mode_stays_inside_the_rho_band(stream, shards):
    # the exact graph (for ground-truth similarities)
    reference = DynStrClu(
        StrCluParams(epsilon=0.5, mu=2, rho=0.0)
    )
    for update in stream:
        reference.apply(update)
    graph = reference.graph
    epsilon, mu, rho = (
        APPROX_PARAMS.epsilon,
        APPROX_PARAMS.mu,
        APPROX_PARAMS.rho,
    )
    lo = epsilon * (1.0 - rho) - BAND_SLACK
    hi = epsilon + BAND_SLACK

    view = run_sharded(stream, shards, "dynstrclu", APPROX_PARAMS)
    merged = view.clustering

    for core in merged.cores:
        # a merged core earned its count from similar-labelled edges, each
        # of which must have true similarity above the band floor
        strong_enough = [
            w
            for w in graph.neighbours(core)
            if structural_similarity(graph, core, w, APPROX_PARAMS.similarity) >= lo
        ]
        assert len(strong_enough) >= mu, (core, shards)

    for v in graph.vertices():
        # a vertex with mu unambiguously-similar neighbours cannot have
        # been denied core status by any valid rho-approximate labelling
        certain = [
            w
            for w in graph.neighbours(v)
            if structural_similarity(graph, v, w, APPROX_PARAMS.similarity) >= hi
        ]
        if len(certain) >= mu:
            assert v in merged.cores, (v, shards)
