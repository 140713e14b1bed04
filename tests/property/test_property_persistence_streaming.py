"""Property-based tests for persistence and sliding-window invariants.

Invariants covered:

9.  **Snapshot round trip** — for any update sequence, snapshotting the
    maintained state, serialising it to JSON, parsing it back and restoring
    yields exactly the same clustering, and the restored instance stays
    equivalent to the original under further updates.
10. **Update-log round trip** — any update sequence survives a write/read
    cycle through the text log format unchanged.
11. **Sliding window ≡ recompute** — after any timestamped interaction
    stream, the window-maintained clustering equals a from-scratch build on
    the currently live edges.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import StrCluParams
from repro.core.dynelm import Update, UpdateKind
from repro.core.dynstrclu import DynStrClu
from repro.persistence.snapshot import StateSnapshot, restore_dynstrclu, take_snapshot
from repro.persistence.updatelog import format_update, parse_update_line
from repro.streaming.window import SlidingWindowClustering

EXACT = StrCluParams(epsilon=0.4, mu=2, rho=0.0)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _apply_random_updates(algo: DynStrClu, seed: int, steps: int, n: int = 12) -> list:
    """Apply a reproducible random mix of insertions and deletions."""
    rng = random.Random(seed)
    applied = []
    for _ in range(steps):
        u, v = rng.sample(range(n), 2)
        if algo.graph.has_edge(u, v):
            update = Update.delete(u, v)
        else:
            update = Update.insert(u, v)
        algo.apply(update)
        applied.append(update)
    return applied


update_sequences = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=60),  # steps
)


class TestSnapshotRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(update_sequences)
    def test_restore_reproduces_clustering(self, spec):
        seed, steps = spec
        algo = DynStrClu(EXACT)
        _apply_random_updates(algo, seed, steps)

        snapshot = StateSnapshot.from_json(take_snapshot(algo).to_json())
        restored = restore_dynstrclu(snapshot)

        assert restored.graph.num_edges == algo.graph.num_edges
        assert restored.labels == algo.labels
        assert restored.cores == algo.cores
        assert restored.clustering().as_frozen() == algo.clustering().as_frozen()

    @settings(max_examples=15, deadline=None)
    @given(update_sequences, st.integers(min_value=1, max_value=30))
    def test_restored_instance_tracks_further_updates(self, spec, extra_steps):
        seed, steps = spec
        algo = DynStrClu(EXACT)
        _apply_random_updates(algo, seed, steps)
        restored = restore_dynstrclu(take_snapshot(algo))

        # both instances see the same continuation of the stream
        rng = random.Random(seed + 999)
        for _ in range(extra_steps):
            u, v = rng.sample(range(12), 2)
            if algo.graph.has_edge(u, v):
                algo.delete_edge(u, v)
                restored.delete_edge(u, v)
            else:
                algo.insert_edge(u, v)
                restored.insert_edge(u, v)
        assert restored.clustering().as_frozen() == algo.clustering().as_frozen()


class TestUpdateLogProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([UpdateKind.INSERT, UpdateKind.DELETE]),
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=501, max_value=1000),
            ),
            max_size=40,
        )
    )
    def test_format_parse_round_trip(self, raw):
        updates = [Update(kind, u, v) for kind, u, v in raw]
        for update in updates:
            assert parse_update_line(format_update(update)) == update


class TestSlidingWindowProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    )
    def test_window_clustering_equals_recompute(self, raw_events, window):
        events = sorted(
            ((u, v, t) for u, v, t in raw_events if u != v),
            key=lambda item: item[2],
        )
        swc = SlidingWindowClustering(EXACT, window=window)
        clock = 0.0
        for u, v, gap in events:
            clock += gap
            swc.observe(u, v, time=clock)

        reference = DynStrClu.from_edges(swc.live_edges(), EXACT)
        assert swc.clustering().as_frozen() == reference.clustering().as_frozen()
        assert swc.num_live_edges == reference.graph.num_edges
