"""Tests for the latency histograms and the open-loop load generator."""

from __future__ import annotations

import pytest

from repro.core.config import StrCluParams
from repro.graph.generators import planted_partition_graph
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.loadgen import (
    EngineTarget,
    LoadGenConfig,
    LoadGenerator,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.workloads.updates import generate_update_sequence

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(50) == 0.0
        assert histogram.mean == 0.0

    def test_percentiles_bracket_samples(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.observe(0.001)
        for _ in range(10):
            histogram.observe(0.1)
        p50 = histogram.percentile(50)
        p99 = histogram.percentile(99)
        # bucket resolution is a factor of two: generous but honest brackets
        assert 0.0005 <= p50 <= 0.002
        assert 0.04 <= p99 <= 0.2
        assert p50 < p99
        assert histogram.max_value == pytest.approx(0.1)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_summary_keys(self):
        histogram = LatencyHistogram()
        histogram.observe(0.01)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean_s", "p50_s", "p90_s", "p99_s", "max_s"}
        assert summary["count"] == 1


class TestLatencyHistogramEdgeCases:
    """Pinned semantics for the degenerate percentile inputs."""

    def test_empty_histogram_returns_zero_everywhere(self):
        histogram = LatencyHistogram()
        for p in (0.0, 50.0, 100.0):
            assert histogram.percentile(p) == 0.0

    def test_p0_is_a_lower_bound_on_the_minimum(self):
        histogram = LatencyHistogram()
        histogram.observe(0.003)
        histogram.observe(0.1)
        p0 = histogram.percentile(0)
        assert 0.0 < p0 <= 0.003

    def test_p100_is_exactly_the_maximum(self):
        histogram = LatencyHistogram()
        for value in (0.004, 0.019, 0.0077):
            histogram.observe(value)
        assert histogram.percentile(100) == pytest.approx(0.019)

    def test_all_zero_samples(self):
        histogram = LatencyHistogram()
        for _ in range(10):
            histogram.observe(0.0)
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(100) == 0.0
        assert histogram.mean == 0.0

    def test_overflow_bucket_never_exceeds_max(self):
        histogram = LatencyHistogram()
        huge = 200.0  # beyond the ~137 s top bucket bound
        histogram.observe(huge)
        histogram.observe(150.0)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert histogram.percentile(p) <= huge
        assert histogram.percentile(100) == pytest.approx(huge)

    def test_nan_samples_are_dropped(self):
        histogram = LatencyHistogram()
        histogram.observe(float("nan"))
        assert histogram.count == 0
        histogram.observe(0.01)
        assert histogram.count == 1

    def test_negative_samples_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.count == 1
        assert histogram.max_value == 0.0
        assert histogram.percentile(100) == 0.0

    def test_infinite_samples_stay_finite_in_stats_json(self):
        import json
        import math

        histogram = LatencyHistogram()
        histogram.observe(float("inf"))
        histogram.observe(0.5)
        summary = histogram.summary()
        for value in summary.values():
            assert math.isfinite(value)
        # allow_nan=False raises on NaN/Infinity: the JSON must be strict
        json.loads(json.dumps(summary, allow_nan=False))

    def test_service_metrics_snapshot_is_strict_json(self):
        import json

        metrics = ServiceMetrics()
        metrics.start_clock()
        metrics.observe_batch(3, float("inf"))
        metrics.observe_query(float("nan"))
        metrics.observe_view_capture(0.001, "incremental", flip_set_size=7)
        metrics.observe_view_capture(0.25, "full")
        snapshot = metrics.snapshot()
        json.loads(json.dumps(snapshot, allow_nan=False))
        capture = snapshot["view_capture"]
        assert capture["count"] == 2
        assert capture["flip_set_size"] == {
            "count": 1, "total": 7, "mean": 7.0, "max": 7, "last": 7,
        }
        assert snapshot["counters"]["view_capture_incremental"] == 1
        assert snapshot["counters"]["view_capture_full"] == 1


class TestServiceMetrics:
    def test_counters_and_throughput(self):
        metrics = ServiceMetrics()
        metrics.start_clock()
        metrics.observe_batch(10, 0.002)
        metrics.observe_batch(5, 0.001)
        metrics.observe_query(0.0005)
        assert metrics.get("updates_applied") == 15
        assert metrics.get("batches") == 2
        assert metrics.get("queries") == 1
        assert metrics.updates_per_second() > 0
        document = metrics.snapshot()
        assert document["ingest"]["count"] == 2
        assert document["query"]["count"] == 1
        assert document["counters"]["updates_applied"] == 15

    def test_snapshot_without_clock(self):
        metrics = ServiceMetrics()
        document = metrics.snapshot()
        assert document["elapsed_s"] == 0.0
        assert document["updates_per_second"] == 0.0


def _stream(num_updates=120):
    edges = planted_partition_graph(2, 8, 0.8, 0.1, seed=3)
    workload = generate_update_sequence(16, edges, num_updates, eta=0.2, seed=7)
    return list(workload.all_updates())


class TestLoadGenerator:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadGenConfig(rate=-1)
        with pytest.raises(ValueError):
            LoadGenConfig(ingest_batch=0)
        with pytest.raises(ValueError):
            LoadGenConfig(query_ratio=1.5)
        with pytest.raises(ValueError):
            LoadGenConfig(query_size=0)

    def test_full_speed_run_ingests_everything(self):
        stream = _stream()
        with ClusteringEngine(
            PARAMS, config=EngineConfig(batch_size=16)
        ) as engine:
            generator = LoadGenerator(
                EngineTarget(engine),
                stream,
                config=LoadGenConfig(ingest_batch=8, query_ratio=0.25, seed=1),
            )
            report = generator.run()
            engine.flush(timeout=30)
            assert report.updates_sent == len(stream)
            assert report.updates_accepted == len(stream)
            assert report.updates_rejected == 0
            assert report.query_requests > 0
            assert report.errors == []
            assert engine.applied == len(stream)
            assert generator.metrics.query.count == report.query_requests

    def test_rate_limited_run_paces_requests(self):
        stream = _stream(num_updates=0)[:20]  # 20 hot-start inserts
        with ClusteringEngine(PARAMS) as engine:
            config = LoadGenConfig(
                rate=200.0, ingest_batch=1, query_ratio=0.0, seed=2
            )
            generator = LoadGenerator(EngineTarget(engine), stream, config=config)
            report = generator.run()
            # 20 requests at 200/s: at least ~95 ms of schedule
            assert report.wall_seconds >= 0.08
            assert report.updates_sent == 20

    def test_backpressure_is_recorded_not_fatal(self):
        stream = _stream()
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=8))
        try:
            # writer thread never started: every slot beyond 8 is shed
            generator = LoadGenerator(
                EngineTarget(engine),
                stream,
                config=LoadGenConfig(ingest_batch=4, query_ratio=0.0, seed=3),
            )
            report = generator.run()
            assert report.updates_accepted == 8
            assert report.updates_rejected == report.updates_sent - 8
            assert report.errors == []
        finally:
            engine.close(checkpoint=False)

    def test_report_as_dict_is_json_friendly(self):
        import json

        stream = _stream(num_updates=10)
        with ClusteringEngine(PARAMS) as engine:
            generator = LoadGenerator(EngineTarget(engine), stream)
            report = generator.run()
        document = report.as_dict()
        assert json.loads(json.dumps(document)) == document
        assert "client_metrics" in document
