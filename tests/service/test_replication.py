"""Unit tests of WAL-shipping replication and warm-standby promotion.

Covers the WAL-range serving primitive (segments, gaps, torn retained
segments), engine-level WAL segment retention across checkpoints, epoch
fencing (persistence, staleness, write rejection), the replication HTTP
routes, standby catch-up / restart / re-seed, and promotion semantics —
including the crash-during-promotion scenario where the fence must hold
on the demoted primary.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.persistence.updatelog import list_wal_segments, write_update_log
from repro.service import (
    BackgroundServer,
    ClusteringEngine,
    EngineConfig,
    EngineFenced,
    EngineManager,
    NotAStandbyError,
    ReadOnlyEngineError,
    ServiceClient,
    ServiceError,
    StandbyEngine,
)
from repro.persistence.updatelog import WalGapError, read_wal_range
from repro.service.replication import parse_primary_url

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)

TRIANGLE = [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]


def chain(start: int, count: int):
    """A path graph's insert stream: count edges starting at vertex start."""
    return [Update.insert(start + i, start + i + 1) for i in range(count)]


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def groups_of(engine, universe) -> set:
    return {frozenset(group) for group in engine.group_by(universe).as_sets()}


class TestParsePrimaryUrl:
    def test_host_port_and_http_scheme(self):
        assert parse_primary_url("127.0.0.1:8321") == ("127.0.0.1", 8321)
        assert parse_primary_url("http://example.test:80/") == ("example.test", 80)

    def test_rejects_https_and_malformed(self):
        with pytest.raises(ValueError):
            parse_primary_url("https://example.test:443")
        with pytest.raises(ValueError):
            parse_primary_url("no-port")
        with pytest.raises(ValueError):
            parse_primary_url("host:notaport")


class TestReadWalRange:
    def _segments(self, tmp_path, *specs):
        """Write ``(name, base, updates)`` specs and list them back."""
        from repro.persistence.updatelog import UpdateLogWriter

        for name, base, updates in specs:
            with UpdateLogWriter(tmp_path / name, base=base) as writer:
                writer.extend(updates)
        return list_wal_segments(tmp_path, active_name="wal.log")

    def test_range_spans_retained_and_active_segments(self, tmp_path):
        stream = chain(0, 10)
        segments = self._segments(
            tmp_path,
            ("wal-000000000000.log", 0, stream[:4]),
            ("wal-000000000004.log", 4, stream[4:7]),
            ("wal.log", 7, stream[7:]),
        )
        chunk = read_wal_range(segments, 2, 100, 10)
        assert chunk.records == stream[2:]
        assert chunk.torn is False
        assert read_wal_range(segments, 0, 3, 10).records == stream[:3]

    def test_limit_position_caps_the_served_suffix(self, tmp_path):
        stream = chain(0, 6)
        segments = self._segments(tmp_path, ("wal.log", 0, stream))
        chunk = read_wal_range(segments, 0, 100, 4)
        assert chunk.records == stream[:4]
        assert read_wal_range(segments, 4, 100, 4).records == []

    def test_gap_below_horizon_raises_with_min_position(self, tmp_path):
        stream = chain(0, 6)
        segments = self._segments(tmp_path, ("wal.log", 4, stream[4:]))
        with pytest.raises(WalGapError) as excinfo:
            read_wal_range(segments, 2, 100, 6)
        assert excinfo.value.min_position == 4

    def test_discontinuous_retained_segments_raise_gap(self, tmp_path):
        stream = chain(0, 10)
        segments = self._segments(
            tmp_path,
            ("wal-000000000000.log", 0, stream[:3]),
            # positions [3, 6) were pruned away
            ("wal.log", 6, stream[6:]),
        )
        with pytest.raises(WalGapError) as excinfo:
            read_wal_range(segments, 1, 100, 10)
        assert excinfo.value.min_position == 6

    def test_damaged_closed_segment_reports_torn(self, tmp_path):
        stream = chain(0, 10)
        # the retained segment claims [0, 5) but only holds 3 whole
        # entries plus a torn tail: the positions [3, 5) are gone
        path = tmp_path / "wal-000000000000.log"
        write_update_log(stream[:3], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("+ torn")
        self._segments(tmp_path, ("wal.log", 5, stream[5:]))
        segments = list_wal_segments(tmp_path, active_name="wal.log")
        chunk = read_wal_range(segments, 0, 100, 10)
        assert chunk.records == stream[:3]
        assert chunk.torn is True

    def test_empty_when_caught_up(self, tmp_path):
        segments = self._segments(tmp_path, ("wal.log", 0, chain(0, 3)))
        chunk = read_wal_range(segments, 3, 100, 3)
        assert chunk.records == [] and chunk.torn is False

    def test_active_rotation_between_list_and_open_is_transient(self, tmp_path):
        """The writer can rotate wal.log between list_wal_segments() and
        the open; serving with the stale base would relabel records with
        stream positions they do not hold (silent, permanent replica
        divergence).  The read must stop at the rotation instead and let
        the next poll list the rotated layout."""
        import os

        from repro.persistence.updatelog import UpdateLogWriter

        stream = chain(0, 10)
        segments = self._segments(
            tmp_path,
            ("wal-000000000000.log", 0, stream[:4]),
            ("wal.log", 4, stream[4:8]),
        )
        # a checkpoint rotates the active log after the listing was taken
        os.replace(tmp_path / "wal.log", tmp_path / "wal-000000000004.log")
        with UpdateLogWriter(tmp_path / "wal.log", base=8) as writer:
            writer.extend(stream[8:])
        chunk = read_wal_range(segments, 2, 100, 10)
        # only the still-immutable retained prefix — never records from
        # the new active file mislabelled with pre-rotation positions
        assert chunk.records == stream[2:4]
        assert chunk.torn is False
        # the next poll's fresh listing serves the rest, exactly
        fresh = list_wal_segments(tmp_path, active_name="wal.log")
        assert read_wal_range(fresh, 4, 100, 10).records == stream[4:]

    def test_vanished_active_segment_is_transient(self, tmp_path):
        stream = chain(0, 6)
        segments = self._segments(
            tmp_path,
            ("wal-000000000000.log", 0, stream[:4]),
            ("wal.log", 4, stream[4:]),
        )
        # mid-rotation gap: wal.log renamed away, not yet recreated
        (tmp_path / "wal.log").unlink()
        chunk = read_wal_range(segments, 1, 100, 6)
        assert chunk.records == stream[1:4]
        assert chunk.torn is False

    def test_pruned_retained_segment_reports_gap_not_an_error(self, tmp_path):
        stream = chain(0, 9)
        segments = self._segments(
            tmp_path,
            ("wal-000000000000.log", 0, stream[:3]),
            ("wal-000000000003.log", 3, stream[3:6]),
            ("wal.log", 6, stream[6:]),
        )
        # pruned by a concurrent checkpoint after the listing was taken
        (tmp_path / "wal-000000000000.log").unlink()
        with pytest.raises(WalGapError) as excinfo:
            read_wal_range(segments, 0, 100, 9)
        assert excinfo.value.min_position == 3


class TestWalRetention:
    def test_checkpoints_rotate_and_prune_segments(self, tmp_path):
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=4,
            wal_retain_segments=2,
        )
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in chain(0, 20):
                engine.submit(update)
            engine.flush()
            segments = engine.wal_segments()
            retained = [s for s in segments if not s.active]
            assert len(retained) <= 2
            assert segments[-1].active
            # the retained suffix + active segment is contiguous
            bases = [s.base for s in segments]
            assert bases == sorted(bases)
            # everything from the earliest retained base is servable
            chunk = read_wal_range(
                segments, bases[0], 1000, engine.wal_position
            )
            assert len(chunk.records) == engine.wal_position - bases[0]
            assert not chunk.torn

    def test_zero_retention_keeps_only_the_active_segment(self, tmp_path):
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=4,
            wal_retain_segments=0,
        )
        with ClusteringEngine(PARAMS, config=config, data_dir=tmp_path) as engine:
            for update in chain(0, 12):
                engine.submit(update)
            engine.flush()
            assert all(segment.active for segment in engine.wal_segments())

    def test_restart_retains_the_previous_wal_as_a_segment(self, tmp_path):
        with ClusteringEngine(PARAMS, config=FAST, data_dir=tmp_path) as engine:
            for update in TRIANGLE:
                engine.submit(update)
            engine.flush()
        restarted = ClusteringEngine(config=FAST, data_dir=tmp_path)
        try:
            segments = restarted.wal_segments()
            # the pre-restart WAL (3 entries) is retained; serving can
            # still hand a standby the whole stream from position 0
            chunk = read_wal_range(segments, 0, 100, restarted.wal_position)
            assert len(chunk.records) == 3
        finally:
            restarted.close()


class TestFencing:
    def test_fence_rejects_writes_and_persists(self, tmp_path):
        engine = ClusteringEngine(PARAMS, config=FAST, data_dir=tmp_path).start()
        try:
            engine.submit(Update.insert(1, 2))
            engine.flush()
            engine.fence(3)
            assert engine.fenced and engine.epoch == 3
            with pytest.raises(EngineFenced) as excinfo:
                engine.submit(Update.insert(2, 3))
            assert excinfo.value.epoch == 3
        finally:
            engine.close()
        # the fence survives a restart
        restarted = ClusteringEngine(config=FAST, data_dir=tmp_path).start()
        try:
            assert restarted.fenced and restarted.epoch == 3
            with pytest.raises(EngineFenced):
                restarted.submit(Update.insert(2, 3))
        finally:
            restarted.close()

    def test_stale_fence_epoch_is_refused(self, tmp_path):
        engine = ClusteringEngine(PARAMS, config=FAST, data_dir=tmp_path).start()
        try:
            engine.fence(5)
            with pytest.raises(ValueError):
                engine.fence(5)
            with pytest.raises(ValueError):
                engine.fence(4)
        finally:
            engine.close()

    def test_set_epoch_unfences(self, tmp_path):
        engine = ClusteringEngine(PARAMS, config=FAST, data_dir=tmp_path).start()
        try:
            engine.fence(2)
            engine.set_epoch(3)
            assert not engine.fenced and engine.epoch == 3
            engine.submit(Update.insert(1, 2))
            engine.flush()
            assert engine.applied == 1
        finally:
            engine.close()

    def test_sharded_fence_pins_every_shard_manifest(self, tmp_path):
        from repro.service import make_engine

        engine = make_engine(
            PARAMS,
            config=EngineConfig(batch_size=8, shards=3),
            data_dir=tmp_path,
        ).start()
        try:
            engine.fence(4)
            assert engine.fenced and engine.epoch == 4
            assert all(shard.epoch == 4 and shard.fenced for shard in engine.shards)
            for index in range(3):
                assert (tmp_path / f"shard-{index}" / "replication.json").exists()
            with pytest.raises(EngineFenced):
                engine.submit(Update.insert(1, 2))
            with pytest.raises(ValueError):
                engine.fence(4)
        finally:
            engine.close()

    def test_sharded_partial_fence_failure_fails_closed(self, tmp_path):
        """An I/O failure fencing a later shard must leave the engine
        rejecting writes (a prefix of the shards is durably fenced; more
        writes would poison the router), not half-open."""
        from repro.service import make_engine

        engine = make_engine(
            PARAMS,
            config=EngineConfig(batch_size=8, shards=3),
            data_dir=tmp_path,
        ).start()
        try:
            def failing_fence(epoch):
                raise OSError("disk full persisting the fence")

            engine.shards[1].fence = failing_fence
            with pytest.raises(OSError):
                engine.fence(4)
            assert engine.fenced  # fail closed
            with pytest.raises(EngineFenced):
                engine.submit(Update.insert(1, 2))
        finally:
            engine.close()


# ----------------------------------------------------------------------
# HTTP surface + standby lifecycle
# ----------------------------------------------------------------------
@pytest.fixture()
def primary(tmp_path):
    """A served primary manager with a durable tenant ``t`` (12 updates)."""
    manager = EngineManager(
        PARAMS,
        default_engine_config=FAST,
        data_root=tmp_path / "primary",
        create_default=False,
    )
    manager.create("t")
    engine = manager.get("t")
    for update in chain(0, 12):
        engine.submit(update)
    engine.flush()
    with BackgroundServer(manager) as server:
        client = ServiceClient("127.0.0.1", server.port, tenant="t")
        yield manager, server, client, tmp_path
        client.close()
    manager.close()


def make_standby(server, tmp_path, tenant="t", **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("poll_interval", 0.01)
    return StandbyEngine(
        f"127.0.0.1:{server.port}",
        tenant,
        data_dir=tmp_path / "standby" / tenant,
        **kwargs,
    )


class TestReplicationRoutes:
    def test_wal_route_serves_records_and_positions(self, primary):
        _manager, _server, client, _tmp = primary
        document = client.fetch_wal(0, max_records=5, ack=0)
        assert document["from"] == 0
        assert len(document["records"]) == 5
        assert document["position"] == 5
        assert document["applied"] == 12
        assert document["torn"] is False
        rest = client.fetch_wal(5)
        assert len(rest["records"]) == 7

    def test_wal_route_validates_parameters(self, primary):
        _manager, _server, client, _tmp = primary
        with pytest.raises(ServiceError) as excinfo:
            client.fetch_wal(0, shard=1)
        assert excinfo.value.status == 400  # unsharded tenant: shard must be 0
        status, document, _ = _raw_get(client, "/v1/tenants/t/wal?from=abc")
        assert status == 400

    def test_snapshot_route_serves_the_reseed_payload(self, primary):
        _manager, _server, client, _tmp = primary
        document = client.fetch_snapshot()
        assert document["tenant"] == "t"
        assert document["position"] == 0  # checkpoint was cut at creation
        assert document["snapshot"]["format"] == "repro-strclu-snapshot"

    def test_fence_route_fences_and_reports_stale_epochs(self, primary):
        manager, _server, client, _tmp = primary
        assert client.fence_tenant(2) == {"tenant": "t", "epoch": 2, "fenced": True}
        with pytest.raises(ServiceError) as excinfo:
            client.submit_updates([Update.insert(100, 101)])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "tenant_fenced"
        with pytest.raises(ServiceError) as excinfo:
            client.fence_tenant(1)
        assert excinfo.value.code == "stale_epoch"
        # reads still work on a fenced primary (it keeps serving + shipping)
        assert client.stats()["replication"]["fenced"] is True
        assert len(client.fetch_wal(0)["records"]) == 12

    def test_promote_of_a_regular_tenant_is_409(self, primary):
        manager, _server, client, _tmp = primary
        with pytest.raises(ServiceError) as excinfo:
            client.promote_tenant()
        assert excinfo.value.status == 409
        assert excinfo.value.code == "not_a_standby"
        with pytest.raises(NotAStandbyError):
            manager.promote("t")

    def test_create_rejects_a_self_referential_replica(self, primary):
        _manager, server, client, _tmp = primary
        with pytest.raises(ServiceError) as excinfo:
            client.create_tenant("loopy", replica_of=f"127.0.0.1:{server.port}")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_primary_stats_report_standby_acks(self, primary):
        _manager, _server, client, _tmp = primary
        client.fetch_wal(0, ack=0)
        client.fetch_wal(7, ack=7)
        block = client.stats()["replication"]
        assert block["role"] == "primary"
        assert block["acked"] == {"0": 7}


class TestStandbyEngine:
    def test_standby_catches_up_and_serves_reads(self, primary):
        manager, server, client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)
            universe = range(14)
            assert groups_of(standby, universe) == groups_of(engine, universe)
            # continuous replay: new primary writes arrive without prompting
            client.submit_updates(chain(100, 5))
            engine.flush()
            assert wait_until(lambda: standby.applied >= engine.applied)
            assert groups_of(standby, range(100, 106)) == groups_of(
                engine, range(100, 106)
            )
            status = standby.replication_status()
            assert status["role"] == "standby"
            assert status["lag"] == 0
            assert status["shards"][0]["connected"] is True
        finally:
            standby.close()

    def test_standby_rejects_writes_until_promoted(self, primary):
        _manager, server, _client, tmp = primary
        standby = make_standby(server, tmp).start()
        try:
            with pytest.raises(ReadOnlyEngineError):
                standby.submit(Update.insert(1, 2))
            with pytest.raises(ReadOnlyEngineError):
                standby.submit_many([Update.insert(1, 2)])
        finally:
            standby.close()

    def test_standby_restart_resumes_from_local_state(self, primary):
        manager, server, _client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        assert wait_until(lambda: standby.applied >= engine.applied)
        standby.close()
        # more primary traffic while the standby is down
        for update in chain(200, 6):
            engine.submit(update)
        engine.flush()
        restarted = make_standby(server, tmp).start()
        try:
            assert restarted.recovered_updates >= 0
            assert wait_until(lambda: restarted.applied >= engine.applied)
            universe = list(range(14)) + list(range(200, 208))
            assert groups_of(restarted, universe) == groups_of(engine, universe)
        finally:
            restarted.close()

    def test_standby_reseeds_after_falling_below_the_horizon(self, tmp_path):
        """Close the standby, rotate the primary's WAL past its position
        with zero retention, restart: the shipper hits ``wal_gap`` and the
        standby re-seeds from the primary's snapshot."""
        config = EngineConfig(
            batch_size=4,
            checkpoint_every=8,
            wal_retain_segments=0,
        )
        manager = EngineManager(
            PARAMS,
            default_engine_config=config,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for update in chain(0, 6):
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as server:
            standby = make_standby(server, tmp_path, config=config).start()
            assert wait_until(lambda: standby.applied >= engine.applied)
            standby.close()
            # rotate far past the standby's position while it is down
            for update in chain(100, 40):
                engine.submit(update)
            engine.flush()
            segments = engine.wal_segments()
            assert segments[0].base > 6  # horizon moved past the standby
            restarted = make_standby(server, tmp_path, config=config).start()
            try:
                assert wait_until(lambda: restarted.applied >= engine.applied)
                assert restarted.replication_status()["reseeds"] >= 1
                universe = list(range(8)) + list(range(100, 142))
                assert groups_of(restarted, universe) == groups_of(engine, universe)
            finally:
                restarted.close()
        manager.close()

    def test_standby_of_unknown_or_nondurable_tenant_fails_cleanly(self, primary):
        _manager, server, _client, tmp = primary
        with pytest.raises(ServiceError):
            make_standby(server, tmp, tenant="ghost")

    def test_standby_restarts_while_the_primary_is_dead(self, tmp_path):
        """A warm standby must come back (and stay promotable) without
        its primary — the exact failover scenario it exists for."""
        manager = EngineManager(
            PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as server:
            port = server.port
            standby = make_standby(server, tmp_path).start()
            assert wait_until(lambda: standby.applied >= 3)
            standby.close()
        manager.close()  # primary gone for good
        restarted = StandbyEngine(
            f"127.0.0.1:{port}",
            "t",
            data_dir=tmp_path / "standby" / "t",
            config=FAST,
            poll_interval=0.01,
        ).start()
        try:
            assert restarted.applied == 3
            assert groups_of(restarted, range(5)) == {frozenset({1, 2, 3})}
            info = restarted.promote()
            assert info["promoted"] and info["fenced_primary"] is False
            restarted.submit(Update.insert(3, 4))
            restarted.flush()
            assert restarted.applied == 4
        finally:
            restarted.close()

    def test_first_seed_without_a_primary_fails_cleanly(self, tmp_path):
        from repro.service import ReplicationError

        with pytest.raises(ReplicationError):
            StandbyEngine(
                "127.0.0.1:1", "t", data_dir=tmp_path / "s", config=FAST
            )

    def test_failed_reseed_leaves_local_state_intact(self, primary):
        """The re-seed download is staged before any state is destroyed:
        a primary dying mid-re-seed must not brick the standby."""
        manager, server, _client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)
            before = standby.applied
            original = standby._client.fetch_snapshot
            standby._client.fetch_snapshot = _raise_oserror
            try:
                with pytest.raises(OSError):
                    standby.reseed(reason="test")
            finally:
                standby._client.fetch_snapshot = original
            # untouched: same position, reads still served, no reseed done
            assert standby.applied == before
            assert standby.replication_status()["reseeds"] == 0
            assert groups_of(standby, range(14)) == groups_of(engine, range(14))
            standby.reseed(reason="now for real")
            assert standby.replication_status()["reseeds"] == 1
            assert wait_until(lambda: standby.applied >= engine.applied)
        finally:
            standby.close()


class TestPromotion:
    def test_promote_fences_primary_and_flips_writable(self, primary):
        manager, server, client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)
            info = standby.promote()
            assert info["promoted"] is True
            assert info["epoch"] == 1
            assert info["fenced_primary"] is True
            assert info["applied"] == engine.applied
            # the demoted primary rejects writes...
            with pytest.raises(ServiceError) as excinfo:
                client.submit_updates([Update.insert(500, 501)])
            assert excinfo.value.code == "tenant_fenced"
            # ...and the promoted standby accepts them
            standby.submit(Update.insert(500, 501))
            standby.flush()
            assert standby.applied == info["applied"] + 1
            assert standby.replication_status()["role"] == "primary"
            # promotion is idempotent
            assert standby.promote() == info
        finally:
            standby.close()

    def test_promote_survives_a_dead_primary(self, tmp_path):
        manager = EngineManager(
            PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as server:
            standby = make_standby(server, tmp_path).start()
            assert wait_until(lambda: standby.applied >= 3)
        manager.close()  # the primary (and its server) is now gone
        try:
            info = standby.promote()
            assert info["promoted"] is True
            assert info["fenced_primary"] is False  # unreachable: presumed dead
            standby.submit(Update.insert(10, 11))
            standby.flush()
            assert standby.applied == 4
        finally:
            standby.close()

    def test_promote_refences_above_a_primary_that_is_ahead(self, primary):
        """A live primary at a newer epoch must be fenced *above* that
        epoch, never silently left writable (the split-brain hazard)."""
        manager, server, client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)
            # the primary jumped ahead out-of-band (e.g. an operator or a
            # competing standby fenced it at 5) — note: still serving WAL
            engine.fence(5)
            info = standby.promote()
            assert info["fenced_primary"] is True
            assert info["epoch"] == 6  # learned 5, fenced strictly above
            assert engine.epoch == 6 and engine.fenced
        finally:
            standby.close()

    def test_promote_aborts_when_a_live_primary_fails_the_fence(self, primary):
        """A live primary whose fence errors unexpectedly (e.g. it could
        not persist the fence) may still be writable — promotion must
        abort and the standby keep replicating, never split the brain."""
        from repro.service import ReplicationError

        manager, server, client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)

            def failing_fence(epoch, name=None):
                raise ServiceError(
                    500,
                    {
                        "error": {
                            "code": "internal",
                            "message": "fence persist failed",
                            "retryable": False,
                        }
                    },
                )

            standby._client.fence_tenant = failing_fence
            with pytest.raises(ReplicationError):
                standby.promote()
            assert standby.promoted is False
            with pytest.raises(ReadOnlyEngineError):
                standby.submit(Update.insert(1, 99))
            # the primary was never fenced and still takes writes...
            client.submit_updates([Update.insert(600, 601)])
            engine.flush()
            # ...and the aborted promotion restarted the shippers
            assert wait_until(lambda: standby.applied >= engine.applied)
            assert groups_of(standby, range(600, 602)) == groups_of(
                engine, range(600, 602)
            )
        finally:
            standby.close()

    def test_promote_proceeds_when_the_primary_tenant_is_gone(self, primary):
        """unknown_tenant proves the fence is moot: there is nothing left
        on the primary to split the brain with."""
        manager, server, _client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)

            def tenant_gone(epoch, name=None):
                raise ServiceError(
                    404,
                    {
                        "error": {
                            "code": "unknown_tenant",
                            "message": "no tenant named 't'",
                            "retryable": False,
                        }
                    },
                )

            standby._client.fence_tenant = tenant_gone
            info = standby.promote()
            assert info["promoted"] is True
            assert info["fenced_primary"] is False
            standby.submit(Update.insert(700, 701))
            standby.flush()
        finally:
            standby.close()

    def test_crash_during_promotion_leaves_the_fence_holding(self, primary):
        """Fence ordered before the flip: a standby that dies between the
        two leaves the demoted primary fenced (persisted), and a later
        promotion attempt completes at a strictly newer epoch."""
        manager, server, client, tmp = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp).start()
        try:
            assert wait_until(lambda: standby.applied >= engine.applied)
            # the promotion's first step: fence at seen epoch + 1 — then
            # the standby "crashes" before flipping itself writable
            client.fence_tenant(1)
            standby.kill()
            # the fence holds on the primary, across a full restart
            with pytest.raises(ServiceError) as excinfo:
                client.submit_updates([Update.insert(700, 701)])
            assert excinfo.value.code == "tenant_fenced"
        finally:
            pass
        replayed = ClusteringEngine(config=FAST, data_dir=tmp / "primary" / "t")
        try:
            assert replayed.fenced and replayed.epoch == 1
            with pytest.raises(EngineFenced):
                replayed.submit(Update.insert(700, 701))
        finally:
            replayed.kill()  # never checkpoint into the live primary's dir
        # a fresh standby attempt later completes at a newer epoch: it
        # learns epoch 1 from the fenced primary's WAL route and promotes
        # at 2 (the fenced primary still serves WAL + snapshot reads)
        second = make_standby(server, tmp, tenant="t")
        second.data_dir = second.data_dir  # (same local state is fine)
        second.start()
        try:
            assert wait_until(lambda: second.applied >= engine.applied)
            assert wait_until(lambda: second.replication_status()["primary_epoch"] == 1)
            info = second.promote()
            assert info["epoch"] == 2
            second.submit(Update.insert(700, 701))
            second.flush()
        finally:
            second.close()


class TestShardedStandby:
    def test_sharded_standby_replays_promotes_and_ingests(self, tmp_path):
        config = EngineConfig(batch_size=8)
        manager = EngineManager(
            StrCluParams(epsilon=0.3, mu=2, rho=0.0),
            default_engine_config=config,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("w", shards=3)
        engine = manager.get("w")
        import random

        rng = random.Random(11)
        present = set()
        stream = []
        while len(stream) < 150:
            u, v = rng.randrange(30), rng.randrange(30)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                present.discard(edge)
                stream.append(Update.delete(*edge))
            else:
                present.add(edge)
                stream.append(Update.insert(*edge))
        for update in stream:
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as server:
            standby = make_standby(server, tmp_path, tenant="w", config=config)
            standby.start()
            try:
                assert standby.num_shards == 3
                targets = [shard.applied for shard in engine.shards]
                assert wait_until(
                    lambda: all(
                        standby.position(i) >= targets[i] for i in range(3)
                    )
                )
                # positions advance per shard batch while the shipper is
                # still folding the chunk's logical count in — wait for
                # the deduped applied counter to converge too
                assert wait_until(lambda: standby.applied == engine.applied)
                universe = range(30)
                assert groups_of(standby, universe) == groups_of(engine, universe)
                info = standby.promote()
                assert info["promoted"] and info["epoch"] == 1
                assert all(shard.fenced for shard in engine.shards)
                # post-promotion ingest goes through the re-armed router,
                # including correct no-op filtering on the rebuilt edge set
                before = standby.applied
                existing = next(iter(present))
                standby.submit(Update.insert(*existing))  # no-op
                standby.submit(Update.insert(40, 41))
                standby.flush()
                assert standby.applied == before + 1
            finally:
                standby.close()
        manager.close()


class TestManagerIntegration:
    def test_create_standby_tenant_over_http_and_promote(self, primary):
        manager, server, client, tmp = primary
        engine = manager.get("t")
        replica_manager = EngineManager(
            PARAMS,
            default_engine_config=FAST,
            data_root=tmp / "replica-root",
            create_default=False,
        )
        with BackgroundServer(replica_manager) as replica_server:
            admin = ServiceClient("127.0.0.1", replica_server.port, tenant="t")
            row = admin.create_tenant(replica_of=f"127.0.0.1:{server.port}")
            assert row["replica_of"] == f"127.0.0.1:{server.port}"
            assert row["promoted"] is False
            assert row["durable"] is True
            standby = replica_manager.get("t")
            assert wait_until(lambda: standby.applied >= engine.applied)
            # writes against the standby's v1 route are shed as 409
            with pytest.raises(ServiceError) as excinfo:
                admin.submit_updates([Update.insert(1, 2)])
            assert excinfo.value.status == 409
            assert excinfo.value.code == "tenant_read_only"
            # standby stats + healthz replication blocks
            block = admin.stats()["replication"]
            assert block["role"] == "standby"
            assert block["replica_of"] == f"127.0.0.1:{server.port}"
            health = admin.healthz()
            assert health["replication"]["standbys"] == 1
            assert "t" in health["replication"]["lag"]
            # promote over HTTP, then writes succeed
            document = admin.promote_tenant()
            assert document["tenant"] == "t" and document["promoted"] is True
            assert admin.submit_updates(chain(300, 3)) == 3
            assert admin.healthz()["replication"]["standbys"] == 0
            # the promoted survivor is a full primary: it serves the WAL
            # route, so a fresh standby can chain off the new topology
            assert wait_until(
                lambda: admin.stats()["applied"] >= engine.applied + 3
            )
            served = admin.fetch_wal(0, max_records=4)
            assert len(served["records"]) == 4
            assert served["epoch"] == document["epoch"]
            admin.close()
        replica_manager.close()

    def test_standby_creation_errors_are_clean_409s(self, primary, tmp_path):
        _manager, server, _client, _tmp = primary
        replica_manager = EngineManager(
            PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "replica-root",
            create_default=False,
        )
        with BackgroundServer(replica_manager) as replica_server:
            admin = ServiceClient("127.0.0.1", replica_server.port)
            # unknown tenant on the primary
            with pytest.raises(ServiceError) as excinfo:
                admin.create_tenant("ghost", replica_of=f"127.0.0.1:{server.port}")
            assert excinfo.value.status == 409
            assert excinfo.value.code == "primary_rejected"
            # unreachable primary
            with pytest.raises(ServiceError) as excinfo:
                admin.create_tenant("t", replica_of="127.0.0.1:1")
            assert excinfo.value.status == 409
            assert excinfo.value.code == "primary_unreachable"
            # replica_of combined with an explicit shape is a 400
            with pytest.raises(ServiceError) as excinfo:
                admin.create_tenant(
                    "t", replica_of=f"127.0.0.1:{server.port}", shards=2
                )
            assert excinfo.value.status == 400
            assert "ghost" not in replica_manager
            assert "t" not in replica_manager
            admin.close()
        replica_manager.close()

    def test_standby_requires_a_data_root(self, primary):
        _manager, server, _client, _tmp = primary
        manager = EngineManager(PARAMS, create_default=False)
        with pytest.raises(ValueError):
            manager.create("t", replica_of=f"127.0.0.1:{server.port}")
        manager.close()


def _raw_get(client: ServiceClient, path: str):
    return client._request("GET", path)


def _raise_oserror(*_args, **_kwargs):
    raise OSError("primary died mid-re-seed")
