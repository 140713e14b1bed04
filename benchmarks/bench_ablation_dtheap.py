"""Ablation A1 — DtHeap shared counters versus naive per-edge counters.

The heap organisation of Section 5.2 (see :mod:`repro.dt.tracker`) is the
load-bearing design choice: without it, every update would touch every
incident DT instance (Θ(d) counter increments).  This ablation drives both trackers with
an identical update stream over a hub-heavy graph and compares both the
wall-clock time and the operation counts.
"""

from __future__ import annotations

import random

from repro.dt.tracker import NaiveTracker, UpdateTracker
from repro.instrumentation import OpCounter

FAN_OUT = 400
THRESHOLD = 800
UPDATES = 3000


def _drive(tracker) -> None:
    rng = random.Random(7)
    for v in range(1, FAN_OUT + 1):
        tracker.track(0, v, THRESHOLD)
    for _ in range(UPDATES):
        matured = tracker.register_update(0 if rng.random() < 0.7 else rng.randint(1, FAN_OUT))
        for edge in matured:
            tracker.track(*edge, THRESHOLD)


def test_ablation_heap_tracker(benchmark):
    counter = OpCounter()
    benchmark.pedantic(lambda: _drive(UpdateTracker(counter)), rounds=3, iterations=1)
    benchmark.extra_info["heap_ops"] = counter.get("heap_op") // 3


def test_ablation_naive_tracker(benchmark):
    counter = OpCounter()
    benchmark.pedantic(lambda: _drive(NaiveTracker(counter)), rounds=3, iterations=1)
    benchmark.extra_info["counter_increments"] = counter.get("counter_increment") // 3


def test_ablation_heap_does_asymptotically_less_work(benchmark):
    heap_counter, naive_counter = OpCounter(), OpCounter()

    def run_both():
        _drive(UpdateTracker(heap_counter))
        _drive(NaiveTracker(naive_counter))

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    heap_work = heap_counter.total()
    naive_work = naive_counter.total()
    print(f"\nAblation A1: heap tracker ops = {heap_work}, naive tracker ops = {naive_work}")
    assert heap_work * 5 < naive_work
