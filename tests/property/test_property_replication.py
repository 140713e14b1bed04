"""Property tests: a standby replica is indistinguishable at ack boundaries.

The replication design note (docs/API.md) claims that at every acked
position ``P`` the standby's clustering equals the primary's — which, by
PR 1's engine-equivalence property, equals sequential DynStrClu over the
first ``P`` updates.  These tests drive a real primary server + standby
through random applicable streams in batches and check the claim at
**every** acked batch boundary, for the exact maintainer and — within the
ρ-approximation band — for the approximate one.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.core.labelling import EdgeLabel
from repro.graph.similarity import structural_similarity
from repro.service import (
    BackgroundServer,
    EngineConfig,
    EngineManager,
    StandbyEngine,
)

EXACT_PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)

#: Approximate-mode bundle (mirrors the backend-equivalence suite): the
#: large sample cap keeps the Hoeffding radius far below the asserted
#: slack, so the band check is deterministic for all practical purposes.
APPROX_PARAMS = StrCluParams(
    epsilon=0.5, mu=2, rho=0.4, delta_star=0.001, seed=3, max_samples=4096
)
BAND_SLACK = math.sqrt(math.log(2.0 / 1e-5) / (2.0 * 4096)) + 0.01

FAST = EngineConfig(batch_size=8)


@st.composite
def update_streams(draw):
    """A random applicable stream: toggles over a small vertex universe."""
    n = draw(st.integers(min_value=4, max_value=10))
    length = draw(st.integers(min_value=1, max_value=36))
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


@settings(max_examples=6, deadline=None)
@given(stream=update_streams(), batch=st.integers(min_value=1, max_value=9))
def test_standby_equals_sequential_primary_at_every_acked_boundary(stream, batch):
    """Exact mode: replay == sequential DynStrClu at each ack boundary."""
    universe = list(range(12))
    reference = DynStrClu(EXACT_PARAMS)
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
        with BackgroundServer(manager) as server:
            standby = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "standby",
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
                    # the acked boundary: the standby's position reaches
                    # the primary's applied count for this prefix
                    assert _wait_until(lambda: standby.applied >= target), (
                        f"standby stalled at {standby.applied}/{target}"
                    )
                    assert standby.applied == target == reference.updates_processed
                    assert _groups(standby, universe) == {
                        frozenset(g) for g in reference.group_by(universe).as_sets()
                    }
            finally:
                standby.close()
        manager.close()


@settings(max_examples=4, deadline=None)
@given(stream=update_streams())
def test_approximate_standby_stays_within_the_rho_band(stream):
    """Approximate mode: the replica's maintained labels respect the band.

    A standby seeded from a snapshot does not inherit the primary's DT
    sampling state, so exact label equality is not guaranteed — the
    ρ-approximation band (the same tolerance the backend-equivalence suite
    grants the approximate maintainer) is the correct contract.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        manager = EngineManager(
            APPROX_PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for update in stream:
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as server:
            standby = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "standby",
                config=FAST,
                poll_interval=0.005,
            ).start()
            try:
                target = engine.applied
                assert _wait_until(lambda: standby.applied >= target)
                assert standby.applied == target
                maintainer = standby.engine.maintainer
                graph = maintainer.graph
                epsilon = APPROX_PARAMS.epsilon
                lower = epsilon * (1.0 - APPROX_PARAMS.rho)
                for (u, v), label in maintainer.labels.items():
                    sigma = structural_similarity(
                        graph, u, v, APPROX_PARAMS.similarity
                    )
                    if label is EdgeLabel.SIMILAR:
                        assert sigma >= lower - BAND_SLACK, (u, v, sigma, label)
                    else:
                        assert sigma < epsilon + BAND_SLACK, (u, v, sigma, label)
            finally:
                standby.close()
        manager.close()
