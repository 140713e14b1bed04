"""Property tests: chained standbys are indistinguishable from direct ones.

The fleet design (docs/API.md) lets ``replica_of`` point at another
replica, fanning the replication stream out as a tree with per-hop ack
forwarding.  The claims under test: at every acked chunk boundary a
*chained* standby (primary → A → B) equals a *direct* standby of the same
primary, equals sequential DynStrClu over the same prefix — for 1-shard
and 4-shard tenants — and a leaf's ack propagates hop by hop into the
primary's retention floor (the slowest-leaf guarantee).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.service import (
    BackgroundServer,
    EngineConfig,
    EngineManager,
    StandbyEngine,
)

EXACT_PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)


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


def _wait_until(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _groups(target, universe):
    return {frozenset(group) for group in target.group_by(universe).as_sets()}


def _caught_up(replica, primary, shards):
    """True when the replica fully mirrors the primary's WAL state.

    ``replica.applied`` counts *logical* updates (a cross-shard edge is
    counted once, at u's owner), so it can reach the primary's count
    while the replica-side copies of cross-shard records are still in
    flight on other shards.  Per-shard WAL positions are the precise
    catch-up measure.
    """
    if replica.applied < primary.applied:
        return False
    if shards == 1:
        return True
    inner = replica.engine
    return all(
        inner.shards[i].wal_position >= primary.shards[i].wal_position
        for i in range(shards)
    )


def _drive_chain(stream, batch, shards):
    """primary → A (served) → B, asserted at every acked chunk boundary."""
    universe = list(range(12))
    reference = DynStrClu(EXACT_PARAMS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        manager = EngineManager(
            EXACT_PARAMS,
            default_engine_config=EngineConfig(
                batch_size=8, shards=shards
            ),
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        with BackgroundServer(manager) as server:
            direct = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "direct",
                config=FAST,
                poll_interval=0.005,
            ).start()
            middle = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "middle",
                config=FAST,
                poll_interval=0.005,
            ).start()
            middle_manager = EngineManager.adopt(middle, "t")
            try:
                with BackgroundServer(middle_manager) as middle_server:
                    leaf = StandbyEngine(
                        f"127.0.0.1:{middle_server.port}",
                        "t",
                        data_dir=tmp_path / "leaf",
                        config=FAST,
                        poll_interval=0.005,
                    ).start()
                    try:
                        for offset in range(0, len(stream), batch):
                            for update in stream[offset: offset + batch]:
                                engine.submit(update)
                                reference.apply(update)
                            engine.flush()
                            target = engine.applied
                            for replica in (direct, middle, leaf):
                                assert _wait_until(
                                    lambda: _caught_up(replica, engine, shards)
                                ), (
                                    f"replica stalled at "
                                    f"{replica.applied}/{target}"
                                )
                                assert replica.applied == target
                            expected = {
                                frozenset(g)
                                for g in reference.group_by(universe).as_sets()
                            }
                            assert _groups(leaf, universe) == expected
                            assert _groups(direct, universe) == expected
                        assert (
                            reference.updates_processed
                            == engine.applied
                            == leaf.applied
                        )
                    finally:
                        leaf.close()
            finally:
                middle_manager.close()
            direct.close()
        manager.close()


@settings(max_examples=5, deadline=None)
@given(stream=update_streams(), batch=st.integers(min_value=1, max_value=9))
def test_chained_standby_equals_direct_and_sequential_1_shard(stream, batch):
    _drive_chain(stream, batch, shards=1)


@settings(max_examples=3, deadline=None)
@given(stream=update_streams(), batch=st.integers(min_value=2, max_value=9))
def test_chained_standby_equals_direct_and_sequential_4_shards(stream, batch):
    _drive_chain(stream, batch, shards=4)


def test_leaf_ack_reaches_the_primary_retention_floor():
    """Regression: per-hop forwarding makes the root's retention floor
    track the slowest *leaf*, not its direct child."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        manager = EngineManager(
            EXACT_PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for i in range(10):
            engine.submit(Update.insert(i, i + 1))
        engine.flush()
        with BackgroundServer(manager) as server:
            middle = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "middle",
                config=FAST,
                poll_interval=0.005,
            ).start()
            middle_manager = EngineManager.adopt(middle, "t")
            try:
                with BackgroundServer(middle_manager) as middle_server:
                    assert _wait_until(lambda: middle.applied >= 10)
                    leaf = StandbyEngine(
                        f"127.0.0.1:{middle_server.port}",
                        "t",
                        data_dir=tmp_path / "leaf",
                        config=FAST,
                        poll_interval=0.005,
                    ).start()
                    try:
                        assert _wait_until(lambda: leaf.applied >= 10)
                        # the leaf acked 10 to the middle hop; the middle
                        # forwarded min(own, leaf) upstream — so the root's
                        # floor converges to the leaf's position
                        assert _wait_until(
                            lambda: middle.downstream_acks().get(0, -1) >= 10
                        )
                        assert _wait_until(
                            lambda: engine.retention_floor() >= 10
                        )
                    finally:
                        leaf.close()
                    # a slow leaf drags the root's floor back down:
                    # simulate one acking only position 3 (the live leaf
                    # had to go first — it re-acks 10 on every poll)
                    middle.note_downstream_ack(0, 3)
                    assert _wait_until(
                        lambda: manager.acks("t").get(0) == 3
                    )
                    assert engine.retention_floor() == 3
            finally:
                middle_manager.close()
        manager.close()
