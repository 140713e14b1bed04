"""Property test: ``as_of=P`` equals a fresh sequential replay truncated at P.

For random applicable update streams and random checkpoint cadences, the
:class:`~repro.service.timetravel.HistoricalViewStore` must reconstruct —
anchor snapshot + retained-WAL replay — exactly the clustering a fresh
sequential DynStrClu produces over the stream prefix of length P:

* **1 shard** — checked at *every* position ``0..len(stream)`` (each
  position is a batch boundary for some batching, so this subsumes the
  boundary set of any run), walking positions in ascending order so the
  cached replayer is continued, and in a second pass re-querying cold
  positions so anchor re-seeding is exercised too.
* **4 shards** — checked at every quiescent chunk boundary: the per-shard
  position tuple recorded after each flushed chunk must replay to exactly
  the sequential clustering of that prefix (the same equivalence the live
  scatter-gather merge guarantees).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.result import clusterings_equal
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.sharding import ShardedEngine
from repro.service.timetravel import HistoricalViewStore

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=10))
    length = draw(st.integers(min_value=1, max_value=30))
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


def _references(stream):
    """Sequential DynStrClu clusterings at every prefix length 0..len."""
    algo = DynStrClu(PARAMS)
    clusterings = [algo.clustering()]
    for update in stream:
        algo.apply(update)
        clusterings.append(algo.clustering())
    return clusterings


@settings(max_examples=10, deadline=None)
@given(stream=update_streams(), checkpoint_every=st.integers(2, 12))
def test_as_of_equals_truncated_replay_single_shard(stream, checkpoint_every):
    clusterings = _references(stream)
    tmp = Path(tempfile.mkdtemp(prefix="tt-prop-"))
    try:
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=checkpoint_every,
            wal_retain_segments=99,  # retention is not under test here
        )
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp) as engine:
            engine.start()
            for update in stream:
                engine.submit(update)
            assert engine.flush(timeout=30)
            assert engine.applied == len(stream)
            store = HistoricalViewStore(engine, capacity=4)
            # ascending: every query continues the cached replayer
            for position in range(len(stream) + 1):
                view = store.view_at((position,))
                assert view.version == position
                assert clusterings_equal(view.clustering, clusterings[position])
            # cold re-queries: positions behind the replayer re-anchor
            for position in (0, len(stream) // 2):
                view = store.view_at((position,))
                assert clusterings_equal(view.clustering, clusterings[position])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=6, deadline=None)
@given(
    stream=update_streams(),
    checkpoint_every=st.integers(2, 12),
    chunk=st.integers(3, 9),
)
def test_as_of_equals_truncated_replay_four_shards(stream, checkpoint_every, chunk):
    clusterings = _references(stream)
    tmp = Path(tempfile.mkdtemp(prefix="tt-prop-"))
    try:
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=checkpoint_every,
            wal_retain_segments=99,
            shards=4,
        )
        with ShardedEngine(PARAMS, config=config, data_dir=tmp) as engine:
            engine.start()
            boundaries = []  # (prefix length, per-shard position tuple)
            for start in range(0, len(stream), chunk):
                for update in stream[start : start + chunk]:
                    engine.submit(update)
                assert engine.flush(timeout=30)
                prefix = min(start + chunk, len(stream))
                boundaries.append(
                    (prefix, tuple(shard.applied for shard in engine.shards))
                )
            store = HistoricalViewStore(engine, capacity=4)
            for prefix, positions in boundaries:
                view = store.view_at(positions)
                assert clusterings_equal(view.clustering, clusterings[prefix])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
