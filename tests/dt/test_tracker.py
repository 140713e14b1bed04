"""Unit tests for the heap-organised update tracker (Section 5.2)."""

from __future__ import annotations

import random

import pytest

from repro.dt.tracker import NaiveTracker, UpdateTracker
from repro.instrumentation import OpCounter


class TestSingleEdge:
    @pytest.mark.parametrize("tau", [1, 2, 3, 8, 9, 17, 64, 301])
    def test_matures_exactly_at_tau(self, tau):
        tracker = UpdateTracker()
        tracker.track("u", "v", tau)
        matured_at = None
        for i in range(1, tau + 5):
            endpoint = "u" if i % 2 else "v"
            matured = tracker.register_update(endpoint)
            if matured:
                matured_at = i
                assert matured == [("u", "v")]
                break
        assert matured_at == tau

    def test_updates_on_untracked_vertex_are_ignored(self):
        tracker = UpdateTracker()
        tracker.track(1, 2, 5)
        assert tracker.register_update(99) == []
        assert tracker.num_tracked() == 1

    def test_untrack_stops_tracking(self):
        tracker = UpdateTracker()
        tracker.track(1, 2, 3)
        tracker.untrack(1, 2)
        assert not tracker.is_tracked(1, 2)
        for _ in range(10):
            assert tracker.register_update(1) == []

    def test_untrack_unknown_edge_is_noop(self):
        tracker = UpdateTracker()
        tracker.untrack(5, 6)
        assert tracker.num_tracked() == 0

    def test_double_track_rejected(self):
        tracker = UpdateTracker()
        tracker.track(1, 2, 3)
        with pytest.raises(ValueError):
            tracker.track(2, 1, 4)

    def test_invalid_tau_rejected(self):
        tracker = UpdateTracker()
        with pytest.raises(ValueError):
            tracker.track(1, 2, 0)

    def test_retrack_after_maturity(self):
        tracker = UpdateTracker()
        tracker.track(1, 2, 2)
        assert tracker.register_update(1) == []
        assert tracker.register_update(2) == [(1, 2)]
        # restart with a new threshold; counting starts afresh
        tracker.track(1, 2, 3)
        assert tracker.register_update(1) == []
        assert tracker.register_update(1) == []
        assert tracker.register_update(2) == [(1, 2)]

    def test_increment_and_process_ready_split(self):
        """DynELM's step ordering: increments first, drain later."""
        tracker = UpdateTracker()
        tracker.track(1, 2, 1)
        tracker.increment(1)
        # nothing processed yet
        assert tracker.num_tracked() == 1
        assert tracker.process_ready(1) == [(1, 2)]


class TestSharedCounterSemantics:
    def test_shared_counter_counts_all_updates(self):
        tracker = UpdateTracker()
        tracker.track(1, 2, 10)
        tracker.track(1, 3, 10)
        for _ in range(4):
            tracker.register_update(1)
        assert tracker.shared_counter(1) == 4

    def test_update_affects_all_incident_tracked_edges(self):
        """One update at u must count toward every DT instance incident on u."""
        tracker = UpdateTracker()
        tracker.track(0, 1, 3)
        tracker.track(0, 2, 3)
        tracker.track(0, 3, 3)
        matured = []
        for _ in range(3):
            matured.extend(tracker.register_update(0))
        assert sorted(matured) == [(0, 1), (0, 2), (0, 3)]

    def test_heap_sizes_track_membership(self):
        tracker = UpdateTracker()
        tracker.track(0, 1, 20)
        tracker.track(0, 2, 20)
        assert tracker.heap_size(0) == 2
        assert tracker.heap_size(1) == 1
        tracker.untrack(0, 1)
        assert tracker.heap_size(0) == 1
        assert tracker.heap_size(1) == 0

    def test_memory_elements_counts(self):
        tracker = UpdateTracker()
        tracker.track(0, 1, 20)
        tracker.track(1, 2, 20)
        elements = tracker.memory_elements()
        assert elements["dt_coordinator"] == 2
        assert elements["dt_heap_entry"] == 4


class TestUnitThresholdPath:
    @pytest.mark.parametrize("tau", [1, 2, 5, 8])
    def test_unit_stream_does_no_heap_work(self, tau):
        """Every τ up to the straightforward limit runs in the counter lane."""
        counter = OpCounter()
        tracker = UpdateTracker(counter)
        rng = random.Random(0)
        for v in range(1, 30):
            tracker.track(0, v, tau)
        for _ in range(500):
            u = rng.randrange(30)
            for a, b in tracker.register_update(u):
                tracker.track(a, b, tau)
        assert counter.get("heap_op") == 0
        assert counter.get("dt_signal") > 0
        assert tracker.num_tracked() == 29
        assert tracker.heap_size(0) == 0

    def test_unit_edges_are_tracked_with_threshold_one(self):
        tracker = UpdateTracker()
        tracker.track(2, 1, 1)
        assert tracker.is_tracked(1, 2)
        assert tracker.tracked_threshold(1, 2) == 1
        with pytest.raises(ValueError):
            tracker.track(1, 2, 1)
        assert tracker.memory_elements()["dt_stamp"] == 2
        tracker.untrack(1, 2)
        assert not tracker.is_tracked(1, 2)
        assert tracker.memory_elements()["dt_stamp"] == 0

    def test_edge_tracked_within_an_update_waits_for_the_next(self):
        """DynELM's order: an edge tracked between the increment and the
        drain does not mature in that drain."""
        tracker = UpdateTracker()
        tracker.increment(1)
        tracker.track(1, 2, 1)
        assert tracker.process_ready(1) == []
        assert tracker.register_update(2) == [(1, 2)]


class TestRetrackLaneTransitions:
    """Matured edges re-tracked through the batch form move between the
    heaps and the counter lane, and a slack-mode edge finishes in the lane;
    the straw man, which only knows per-edge counters, must see the same
    maturities throughout."""

    @staticmethod
    def _update(tracker, naive, vertex, retau):
        """One DynELM-ordered update at ``vertex``: increment, drain, and
        re-track every matured edge with threshold ``retau``."""
        tracker.increment(vertex)
        matured = tracker.process_ready(vertex)
        assert sorted(matured) == sorted(naive.register_update(vertex))
        tracker.retrack(matured, [retau] * len(matured))
        for a, b in matured:
            naive.track(a, b, retau)
        return matured

    def test_heap_edge_moves_to_the_stamp_lane_at_unstamped_vertices(self):
        tracker, naive = UpdateTracker(), NaiveTracker()
        tracker.track(1, 2, 3)
        naive.track(1, 2, 3)
        assert self._update(tracker, naive, 1, retau=1) == []
        assert self._update(tracker, naive, 2, retau=1) == []
        # neither 1 nor 2 has ever held a τ = 1 stamp
        assert self._update(tracker, naive, 1, retau=1) == [(1, 2)]
        assert tracker.tracked_threshold(1, 2) == 1
        assert tracker.heap_size(1) == tracker.heap_size(2) == 0
        assert tracker.memory_elements()["dt_stamp"] == 2
        # re-tracked within that update, so it waits for the next one
        assert tracker.process_ready(2) == []
        assert self._update(tracker, naive, 2, retau=1) == [(1, 2)]
        assert tracker.num_tracked() == naive.num_tracked() == 1

    def test_stamp_edge_moves_to_the_heap_lane_at_heapless_vertices(self):
        tracker, naive = UpdateTracker(), NaiveTracker()
        tracker.track(1, 2, 1)
        naive.track(1, 2, 1)
        # neither 1 nor 2 has a heap yet
        assert self._update(tracker, naive, 2, retau=12) == [(1, 2)]
        assert tracker.tracked_threshold(1, 2) == 12
        assert tracker.heap_size(1) == tracker.heap_size(2) == 1
        assert tracker.memory_elements()["dt_stamp"] == 0
        for vertex in (1, 2, 2) * 3 + (1, 2):
            assert self._update(tracker, naive, vertex, retau=1) == []
        assert self._update(tracker, naive, 1, retau=1) == [(1, 2)]
        assert tracker.heap_size(1) == tracker.heap_size(2) == 0
        assert self._update(tracker, naive, 1, retau=1) == [(1, 2)]

    def test_slack_edge_leaves_the_heaps_for_the_lane(self):
        tracker, naive = UpdateTracker(), NaiveTracker()
        tracker.track(1, 2, 40)
        naive.track(1, 2, 40)
        rng = random.Random(3)
        left_heaps_at = None
        for step in range(1, 41):
            matured = self._update(tracker, naive, rng.choice((1, 2)), retau=40)
            if matured:
                break
            in_heaps = tracker.heap_size(1) + tracker.heap_size(2)
            if left_heaps_at is None and in_heaps == 0:
                left_heaps_at = step
                # the lane counts the remainder, which the heaps' rounds left at ≤ 8
                assert tracker.tracked_threshold(1, 2) == 40 - step <= 8
            assert in_heaps == (2 if left_heaps_at is None else 0)
        assert (step, matured) == (40, [(1, 2)])
        assert left_heaps_at is not None
        # re-tracked with τ = 40, the edge starts again in the heaps
        assert tracker.heap_size(1) == tracker.heap_size(2) == 1
        assert tracker.memory_elements()["dt_stamp"] == 0

    def test_retrack_does_what_track_does(self):
        """The batch form leaves the same state and counts as per-edge track."""
        edges, taus = [(0, 1), (0, 2), (1, 3), (2, 3)], [1, 5, 1, 12]
        one_by_one, batched = OpCounter(), OpCounter()
        trackers = UpdateTracker(one_by_one), UpdateTracker(batched)
        for tracker in trackers:
            for vertex in (0, 1, 2, 3, 0):
                tracker.increment(vertex)
        for edge, tau in zip(edges, taus):
            trackers[0].track(*edge, tau)
        trackers[1].retrack(edges, taus)
        for tracker in trackers:
            assert [tracker.tracked_threshold(*edge) for edge in edges] == taus
        assert trackers[0].memory_elements() == trackers[1].memory_elements()
        for vertex in (0, 3, 1, 2, 0, 3, 3, 1):
            assert trackers[0].register_update(vertex) == trackers[1].register_update(vertex)
        assert one_by_one.snapshot() == batched.snapshot()


class TestEquivalenceWithNaiveTracker:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_maturities_as_naive(self, seed):
        """The heap-organised tracker must mature every edge at exactly the
        same update as the one-counter-per-edge straw man."""
        rng = random.Random(seed)
        n = 12
        heap_tracker = UpdateTracker()
        naive = NaiveTracker()
        tracked = set()

        def threshold():
            return rng.randint(1, 40)

        for step in range(1500):
            action = rng.random()
            if action < 0.25 and len(tracked) < 40:
                u, v = rng.sample(range(n), 2)
                if not heap_tracker.is_tracked(u, v):
                    tau = threshold()
                    heap_tracker.track(u, v, tau)
                    naive.track(u, v, tau)
                    tracked.add((min(u, v), max(u, v)))
            elif action < 0.30 and tracked:
                edge = rng.choice(sorted(tracked))
                heap_tracker.untrack(*edge)
                naive.untrack(*edge)
                tracked.discard(edge)
            else:
                u = rng.randrange(n)
                matured_heap = sorted(heap_tracker.register_update(u))
                matured_naive = sorted(naive.register_update(u))
                assert matured_heap == matured_naive, f"step {step}"
                for edge in matured_heap:
                    tracked.discard(edge)

    def test_heap_tracker_does_less_work_per_update(self):
        """With many incident edges and large thresholds, the shared-counter
        tracker performs asymptotically fewer per-update operations."""
        heap_counter = OpCounter()
        naive_counter = OpCounter()
        heap_tracker = UpdateTracker(heap_counter)
        naive = NaiveTracker(naive_counter)
        fan_out = 200
        tau = 1000
        for v in range(1, fan_out + 1):
            heap_tracker.track(0, v, tau)
            naive.track(0, v, tau)
        heap_counter.reset()
        naive_counter.reset()
        for _ in range(300):
            heap_tracker.register_update(0)
            naive.register_update(0)
        assert naive_counter.get("counter_increment") == 300 * fan_out
        assert heap_counter.get("heap_op") < naive_counter.get("counter_increment") / 10
