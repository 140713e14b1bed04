"""Property-based tests for distributed tracking (instance and tracker)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dt.instance import DTInstance
from repro.dt.tracker import NaiveTracker, UpdateTracker


class TestDTInstanceProperties:
    @given(st.integers(1, 2000), st.lists(st.integers(0, 1), min_size=0, max_size=2000))
    @settings(max_examples=80, deadline=None)
    def test_maturity_exactly_at_tau(self, tau, increments):
        """The DT protocol is an exact counter: maturity fires on the tau-th
        increment, never earlier, never later."""
        dt = DTInstance(tau)
        for index, participant in enumerate(increments, start=1):
            if index > tau:
                break
            matured = dt.increment(participant)
            assert matured == (index == tau)

    @given(st.integers(9, 5000))
    @settings(max_examples=50, deadline=None)
    def test_slack_rule(self, tau):
        dt = DTInstance(tau)
        assert dt.slack == tau // 4
        assert dt.checkpoints == [dt.slack, dt.slack]


# operations over a small universe of vertices / edges
ops = st.lists(
    st.one_of(
        st.tuples(st.just("track"), st.integers(0, 7), st.integers(0, 7), st.integers(1, 30)),
        st.tuples(st.just("untrack"), st.integers(0, 7), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("update"), st.integers(0, 7), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=300,
)


class TestTrackerEquivalenceProperty:
    @given(ops)
    @settings(max_examples=80, deadline=None)
    def test_heap_tracker_equals_naive_tracker(self, operations):
        """Whatever the interleaving of track/untrack/update operations, the
        heap-organised tracker reports exactly the same maturities as the
        per-edge-counter straw man."""
        heap_tracker = UpdateTracker()
        naive = NaiveTracker()
        for op, a, b, tau in operations:
            if op == "track":
                if a == b or heap_tracker.is_tracked(a, b):
                    continue
                heap_tracker.track(a, b, tau)
                naive.track(a, b, tau)
            elif op == "untrack":
                heap_tracker.untrack(a, b)
                naive.untrack(a, b)
            else:
                assert sorted(heap_tracker.register_update(a)) == sorted(
                    naive.register_update(a)
                )
        assert heap_tracker.num_tracked() == naive.num_tracked()


# DynELM-shaped steps: an update at a vertex, plus edges first tracked during
# it (between its increment and its drain); thresholds are mostly 1
mostly_unit_tau = st.one_of(st.just(1), st.just(1), st.just(1), st.integers(2, 30))
steps = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), mostly_unit_tau), max_size=3),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=1),
    ),
    min_size=1,
    max_size=200,
)


class TestTrackerEquivalenceDynELMOrder:
    @given(steps)
    @settings(max_examples=80, deadline=None)
    def test_increment_track_drain_equals_naive(self, updates):
        """With DynELM's order — increment, then track, then drain — the
        heap tracker (τ = 1 edges outside the heaps) reports the same
        maturities as the straw man, which counts the update before the new
        edges exist."""
        heap_tracker = UpdateTracker()
        naive = NaiveTracker()
        for vertex, new_edges, removed in updates:
            for a, b in removed:
                heap_tracker.untrack(a, b)
                naive.untrack(a, b)
            heap_tracker.increment(vertex)
            expected = sorted(naive.register_update(vertex))
            for a, b, tau in new_edges:
                if a == b or heap_tracker.is_tracked(a, b):
                    continue
                heap_tracker.track(a, b, tau)
                naive.track(a, b, tau)
            assert sorted(heap_tracker.process_ready(vertex)) == expected
        assert heap_tracker.num_tracked() == naive.num_tracked()

    @given(steps, st.lists(mostly_unit_tau, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_batch_retrack_of_matured_edges_equals_naive(self, updates, retaus):
        """DynELM's drain: the edges that mature at a vertex are re-tracked
        in one batch with fresh thresholds, so edges keep crossing between
        the heap lane and the τ = 1 stamp lane.  The straw man re-tracks
        them one by one and must see the same maturities."""
        heap_tracker = UpdateTracker()
        naive = NaiveTracker()
        fresh = iter(retaus * 200)
        for vertex, new_edges, removed in updates:
            for a, b in removed:
                heap_tracker.untrack(a, b)
                naive.untrack(a, b)
            heap_tracker.increment(vertex)
            expected = sorted(naive.register_update(vertex))
            for a, b, tau in new_edges:
                if a == b or heap_tracker.is_tracked(a, b):
                    continue
                heap_tracker.track(a, b, tau)
                naive.track(a, b, tau)
            matured = heap_tracker.process_ready(vertex)
            assert sorted(matured) == expected
            taus = [next(fresh) for _ in matured]
            heap_tracker.retrack(matured, taus)
            for (a, b), tau in zip(matured, taus):
                naive.track(a, b, tau)
        assert heap_tracker.num_tracked() == naive.num_tracked()
