"""Tests for 429 Retry-After semantics and client-side retry honouring.

The 429 body carries the precise ``retry_after_ms`` hint; the
``Retry-After`` header is its integer-second ceiling with ``0`` allowed
(no fabricated 1 s stall when the body says "retry almost immediately").
Clients honour whichever of the two is smaller.
"""

from __future__ import annotations

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service.client import BackpressureError, ServiceClient
from repro.service.engine import ClusteringEngine, EngineConfig, retry_hint_ms
from repro.service.server import BackgroundServer, retry_after_header
from repro.service.sharding import ShardedEngine

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)


class TestRetryAfterHeader:
    def test_zero_is_allowed(self):
        assert retry_after_header(0) == "0"

    def test_sub_second_rounds_up_not_down(self):
        # the header can only speak whole seconds; ceiling means a
        # header-only client never retries before the body's suggestion
        assert retry_after_header(1) == "1"
        assert retry_after_header(500) == "1"

    def test_whole_and_fractional_seconds(self):
        assert retry_after_header(1000) == "1"
        assert retry_after_header(1500) == "2"
        assert retry_after_header(30_000) == "30"

    def test_negative_clamps_to_zero(self):
        assert retry_after_header(-5) == "0"


class TestBackpressureErrorRetryAfter:
    def test_prefers_the_smaller_of_body_and_header(self):
        exc = BackpressureError(
            429, {"retry_after_ms": 500}, {"retry-after": "1"}
        )
        assert exc.retry_after_s == pytest.approx(0.5)

    def test_header_wins_when_smaller(self):
        exc = BackpressureError(
            429, {"retry_after_ms": 3000}, {"retry-after": "1"}
        )
        assert exc.retry_after_s == pytest.approx(1.0)

    def test_header_zero_means_immediate(self):
        exc = BackpressureError(429, {"retry_after_ms": 0}, {"retry-after": "0"})
        assert exc.retry_after_s == 0.0

    def test_missing_hints_mean_immediate(self):
        assert BackpressureError(429, {}).retry_after_s == 0.0

    def test_malformed_header_is_ignored(self):
        exc = BackpressureError(
            429, {"retry_after_ms": 250}, {"retry-after": "soon"}
        )
        assert exc.retry_after_s == pytest.approx(0.25)


class TestRetryHint:
    def test_backlog_times_measured_cost_clamped(self):
        assert retry_hint_ms(100, 0.002) == 200
        assert retry_hint_ms(0, 0.002) == 1  # the 1 ms floor
        assert retry_hint_ms(10**6, 0.01) == 30_000  # the 30 s ceiling

    def test_floor_per_update_before_the_first_batch(self):
        # an engine that has applied nothing has no measured cost yet
        assert retry_hint_ms(0, 0.0) == 1
        assert retry_hint_ms(64, 0.0) == 64

    def test_engine_hint_grows_with_depth(self):
        engine = ClusteringEngine(PARAMS)  # writer never started
        try:
            assert engine.backpressure_signal().retry_after_ms == 1
            # a measured batch: 10 updates in 50 ms, i.e. 5 ms per update
            engine.metrics.observe_batch(10, 0.05)
            hints = []
            for depth in (4, 8, 16):
                for i in range(engine.queue_depth, depth):
                    engine.submit(Update.insert(i, i + 1))
                hints.append(engine.backpressure_signal().retry_after_ms)
            assert hints[0] < hints[1] < hints[2]
            assert hints == [pytest.approx(5 * d, abs=1) for d in (4, 8, 16)]
        finally:
            engine.close(checkpoint=False)


class TestServerHeaderAgreesWithBody:
    def test_429_header_is_ceiling_of_body_ms(self):
        # a never-started engine cannot drain its queue: the batch overflows
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=4))
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_updates(
                        [Update.insert(i, i + 1) for i in range(10, 20)]
                    )
                exc = excinfo.value
                header = int(exc.headers["retry-after"])
                assert header == -(-exc.retry_after_ms // 1000)  # ceil
                # the client-facing hint is never larger than either source
                assert exc.retry_after_s <= exc.retry_after_ms / 1000.0
                assert exc.retry_after_s <= header
                client.close()
        finally:
            engine.close(checkpoint=False)


class TestClientRetries:
    def test_default_does_not_retry(self):
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=2))
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError):
                    client.submit_updates(
                        [Update.insert(i, i + 1) for i in range(10, 20)]
                    )
                client.close()
        finally:
            engine.close(checkpoint=False)

    def test_retry_resubmits_the_unaccepted_suffix(self, monkeypatch):
        engine = ClusteringEngine(
            PARAMS, config=EngineConfig(queue_capacity=4)
        )
        sleeps = []

        def fake_sleep(seconds):
            # the retry wait: start the engine so the queue drains and the
            # resubmitted suffix is accepted
            sleeps.append(seconds)
            engine.start()
            engine.flush(timeout=10)

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                updates = [Update.insert(i, i + 1) for i in range(10, 20)]
                accepted = client.submit_updates(updates, max_retries=3)
                assert accepted == len(updates)
                assert len(sleeps) >= 1
                # the wait honoured the server's hint, not a fabricated 1 s
                assert all(s <= 30.0 for s in sleeps)
                engine.flush(timeout=10)
                assert engine.applied == len(updates)
                client.close()
        finally:
            engine.close(checkpoint=False)

    def test_retries_exhausted_raises_last_backpressure(self, monkeypatch):
        engine = ClusteringEngine(PARAMS, config=EngineConfig(queue_capacity=2))
        monkeypatch.setattr("repro.service.client.time.sleep", lambda s: None)
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_updates(
                        [Update.insert(i, i + 1) for i in range(10, 20)],
                        max_retries=2,
                    )
                exc = excinfo.value
                # the never-started engine accepted the first 2, then shed
                # everything: the last attempt saw 0, but the cumulative
                # count across attempts is preserved
                assert exc.accepted == 0
                assert exc.total_accepted == 2
                client.close()
        finally:
            engine.close(checkpoint=False)

    def test_total_accepted_defaults_to_accepted(self):
        exc = BackpressureError(429, {"accepted": 5})
        assert exc.total_accepted == 5


class TestShardedBackpressure:
    """The sharded engine's merged load-shedding contract.

    A partially accepted submit must report the *exact* accepted prefix
    (the router queue is the single admission point — no update is ever
    half-replicated), and the merged ``retry_after_ms`` is the max over
    the per-shard signals: the slowest shard gates the retry.
    """

    def test_partial_accept_reports_exact_prefix_and_merged_hint(self):
        # a never-started sharded engine: the router queue (capacity 6) is
        # the precise admission boundary
        engine = ShardedEngine(
            PARAMS, config=EngineConfig(shards=3, queue_capacity=6)
        )
        try:
            updates = [Update.insert(i, i + 1) for i in range(15)]
            accepted = engine.submit_many(updates, block=False)
            assert accepted == 6
            signal = engine.backpressure_signal()
            per_shard = [
                shard.backpressure_signal().retry_after_ms
                for shard in engine.shards
            ]
            assert signal.retry_after_ms >= max(per_shard)
            # capacity reports the whole pipeline bound: router + 3 shards
            assert signal.queue_capacity == engine.total_queue_capacity == 24
        finally:
            engine.close(checkpoint=False)

    def test_merged_retry_after_tracks_the_slowest_shard(self):
        engine = ShardedEngine(
            PARAMS,
            config=EngineConfig(shards=2, queue_capacity=128, batch_size=4),
        )
        try:
            slow = engine.shards[0]
            for i in range(128):
                slow.submit(Update.insert(i, i + 1), block=False)
            per_shard = [
                shard.backpressure_signal().retry_after_ms
                for shard in engine.shards
            ]
            assert engine.backpressure_signal().retry_after_ms == max(per_shard)
        finally:
            engine.close(checkpoint=False)

    def test_http_429_carries_the_merged_hint(self):
        engine = ShardedEngine(
            PARAMS, config=EngineConfig(shards=2, queue_capacity=4)
        )
        try:
            with BackgroundServer(engine) as background:
                client = ServiceClient("127.0.0.1", background.port)
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit_updates(
                        [Update.insert(i, i + 1) for i in range(10, 30)]
                    )
                exc = excinfo.value
                assert exc.accepted == 4  # the exact admitted prefix
                assert exc.retry_after_ms >= 1
                header = int(exc.headers["retry-after"])
                assert header == -(-exc.retry_after_ms // 1000)  # ceil
                client.close()
        finally:
            engine.close(checkpoint=False)
