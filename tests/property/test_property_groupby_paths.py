"""Property test: both group-by paths of a materialised view agree.

:func:`repro.core.result.group_by_clusters` answers a query either by one
membership lookup per query vertex or, once the query is large against the
number of clusters, by intersecting every cluster with the query set.  For
every kind of view the service serves — a full capture, a view patched
through an engine's batches, and a 4-shard merged view — and for query
sizes on both sides of the crossover, ``view.group_by`` must equal the
per-vertex :func:`~repro.core.result.group_by_membership` over the same
view: the same keys, the same member sets, hubs in each of their groups,
noise, unknown and duplicate vertices handled alike.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import CLUSTER_SCAN_RATIO, group_by_membership
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.sharding import ShardedEngine
from repro.service.views import ClusteringView

PARAMS = (
    StrCluParams(epsilon=0.5, mu=2, rho=0.0),
    StrCluParams(epsilon=0.3, mu=3, rho=0.0),
)

#: two 4-cliques bridged by the hub 8, and the noise path 9-10-11
#: (ε = 0.3, μ = 3: 8 is similar to one core of each clique, 10 is no core)
HUB_AND_NOISE = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (8, 0), (8, 4), (9, 10), (10, 11),
]

UNKNOWN = (-1, -2, "ghost")

SIZES = ("empty", "one", "below", "at", "all")


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=14))
    length = draw(st.integers(min_value=1, max_value=60))
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


def _views(stream, params):
    """The full-captured, engine-patched and 4-shard views of one stream."""
    algo = DynStrClu(params)
    for update in stream:
        algo.apply(update)
    full = ClusteringView.capture(algo, algo.updates_processed)

    with ClusteringEngine(params, config=EngineConfig(batch_size=4)) as engine:
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=60)
        patched = engine.view()
    # every batch after the start-up publish patches the previous view
    assert patched._exact_clustering is None

    with ShardedEngine(params, config=EngineConfig(shards=4, batch_size=8)) as engine:
        for update in stream:
            engine.submit(update)
        engine.flush(timeout=60)
        sharded = engine.view()
    return algo, (full, patched, sharded)


def _query(vertices, size, num_clusters, rng):
    """A query of the named size class, with duplicates and unknown ids."""
    crossover = CLUSTER_SCAN_RATIO * num_clusters
    pool = list(vertices) + list(UNKNOWN)
    if size == "empty":
        return []
    if size == "one":
        return [rng.choice(pool)]
    if size == "all":
        return list(vertices) + list(UNKNOWN) + list(vertices)[:3]
    length = crossover - 1 if size == "below" else crossover
    return [rng.choice(pool) for _ in range(max(length, 0))]


def assert_paths_agree(algo, views, seed):
    rng = random.Random(seed)
    vertices = sorted(algo.graph.vertices())
    expected = {frozenset(g) for g in algo.group_by(vertices).as_sets()}
    for view in views:
        for size in SIZES:
            query = _query(vertices, size, len(view._clusters), rng)
            answer = view.group_by(query)
            assert answer.groups == group_by_membership(view._membership, query).groups, (
                type(view).__name__,
                size,
            )
        # and every path answers what the live maintainer answers
        assert {frozenset(g) for g in view.group_by(vertices).as_sets()} == expected


@settings(max_examples=40, deadline=None)
@given(
    stream=update_streams().filter(bool),
    params=st.sampled_from(PARAMS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_both_group_by_paths_agree_on_every_view(stream, params, seed):
    algo, views = _views(stream, params)
    assert_paths_agree(algo, views, seed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_both_group_by_paths_agree_with_hubs_and_noise(seed):
    stream = [Update.insert(u, v) for u, v in HUB_AND_NOISE]
    algo, views = _views(stream, PARAMS[1])
    clustering = algo.clustering()
    assert clustering.hubs == {8} and clustering.noise == {9, 10, 11}
    for view in views:
        # the hub lands in both groups on either path
        for query in ([8], list(range(12))):
            assert len(view.group_by(query).group_of(8)) == 2
    assert_paths_agree(algo, views, seed)
