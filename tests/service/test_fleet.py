"""Unit and integration tests of the autonomous replica-fleet subsystem.

Covers the jittered shipper backoff, the watchdog decision loop (quorum,
cool-down, winner selection, orphan re-parenting — scripted through the
injectable hooks, no sockets), the in-process watchdog end-to-end against
a real dead primary, the topology/reparent HTTP routes, chained standbys
with per-hop ack forwarding, the replica-set routing client, and the
wall-clock staleness (``last_applied_at``) surfaces.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.service import (
    BackgroundServer,
    DecisionLog,
    EngineConfig,
    EngineManager,
    FleetError,
    FleetWatchdog,
    NotAStandbyError,
    ServiceClient,
    ServiceError,
    StandbyEngine,
    WatchdogConfig,
)
from repro.service.fleet import _Standby
from repro.service.replication import backoff_delay

PARAMS = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
FAST = EngineConfig(batch_size=8)

TRIANGLE = [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]


def chain(start: int, count: int):
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


# ----------------------------------------------------------------------
# satellite: jittered exponential backoff in the shipper retry loop
# ----------------------------------------------------------------------
class TestBackoffDelay:
    def test_zero_failures_is_the_base_interval(self):
        rng = random.Random(0)
        assert backoff_delay(0, 0.05, 2.0, rng) == 0.05

    def test_delay_is_jittered_within_the_doubling_ceiling(self):
        rng = random.Random(1)
        for failures in (1, 2, 3, 4):
            ceiling = min(2.0, 0.05 * (2**failures))
            for _ in range(50):
                delay = backoff_delay(failures, 0.05, 2.0, rng)
                assert 0.05 <= delay <= ceiling

    def test_cap_bounds_arbitrarily_many_failures(self):
        rng = random.Random(2)
        for _ in range(50):
            assert backoff_delay(500, 0.05, 2.0, rng) <= 2.0
        # astronomically many failures must not overflow the shift
        assert backoff_delay(10**9, 0.05, 2.0, rng) <= 2.0

    def test_delays_actually_vary(self):
        rng = random.Random(3)
        delays = {backoff_delay(4, 0.05, 2.0, rng) for _ in range(20)}
        assert len(delays) > 1

    def test_cap_below_base_degenerates_to_base(self):
        rng = random.Random(4)
        assert backoff_delay(7, 0.5, 0.1, rng) == 0.5

    def test_shipper_resets_failures_on_successful_fetch(self, tmp_path):
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
            standby = StandbyEngine(
                f"127.0.0.1:{server.port}",
                "t",
                data_dir=tmp_path / "standby",
                config=FAST,
                poll_interval=0.01,
            ).start()
            try:
                assert wait_until(lambda: standby.applied >= 3)
                for shipper in standby._shippers:
                    shipper.consecutive_failures = 5  # simulate a bad spell
                engine.submit(Update.insert(3, 4))
                engine.flush()
                assert wait_until(lambda: standby.applied >= 4)
                assert wait_until(
                    lambda: all(
                        shipper.consecutive_failures == 0
                        for shipper in standby._shippers
                    )
                )
            finally:
                standby.close()
        manager.close()


# ----------------------------------------------------------------------
# decision log
# ----------------------------------------------------------------------
class TestDecisionLog:
    def test_records_are_kept_and_filterable(self):
        log = DecisionLog()
        log.record("probe_failed", tenant="t", failures=1)
        log.record("promotion_succeeded", tenant="t")
        log.record("probe_failed", tenant="u", failures=2)
        assert len(log) == 3
        failed = log.events("probe_failed")
        assert [entry["tenant"] for entry in failed] == ["t", "u"]
        assert all("ts" in entry for entry in log.events())

    def test_ring_is_bounded(self):
        log = DecisionLog(limit=4)
        for i in range(10):
            log.record("tick", n=i)
        events = log.events()
        assert len(events) == 4
        assert [entry["n"] for entry in events] == [6, 7, 8, 9]

    def test_jsonl_file_mirrors_every_record(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        log = DecisionLog(path=path)
        log.record("a", x=1)
        log.record("b", y="z")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["a", "b"]
        assert lines[0]["x"] == 1 and lines[1]["y"] == "z"

    def test_echo_receives_serialised_lines(self):
        seen = []
        log = DecisionLog(echo=seen.append)
        log.record("hello", n=7)
        assert len(seen) == 1 and json.loads(seen[0])["n"] == 7

    def test_watchdog_keeps_an_empty_injected_log(self):
        # regression: DecisionLog defines __len__, so an empty log is
        # falsy — `decision_log or DecisionLog()` silently swapped the
        # caller's (path- and echo-bearing) log for an internal one
        log = DecisionLog()
        watchdog = FleetWatchdog(targets=["127.0.0.1:1"], decision_log=log)
        assert watchdog.log is log


# ----------------------------------------------------------------------
# watchdog decision loop (scripted hooks, no sockets)
# ----------------------------------------------------------------------
def scripted_watchdog(standbys, healthy, config=None, clock=None, promoter=None,
                      reparenter=None):
    """A sidecar-shaped watchdog whose probes consult the ``healthy`` dict."""
    promoted = []
    reparented = []

    def promote(standby):
        promoted.append(standby)
        return {"promoted": True, "epoch": 2, "applied": standby.applied}

    def reparent(orphan, winner):
        reparented.append((orphan, winner))

    watchdog = FleetWatchdog(
        targets=["127.0.0.1:1"],
        config=config or WatchdogConfig(interval=0.01, quorum=3, cooldown=5.0),
        scanner=lambda: list(standbys),
        prober=lambda primary, tenant: healthy[primary],
        promoter=promoter or promote,
        reparenter=reparenter or reparent,
        clock=clock or time.monotonic,
    )
    return watchdog, promoted, reparented


class TestWatchdogLoop:
    def test_config_validation(self):
        with pytest.raises(FleetError):
            WatchdogConfig(interval=0)
        with pytest.raises(FleetError):
            WatchdogConfig(quorum=0)
        with pytest.raises(FleetError):
            WatchdogConfig(cooldown=-1)
        with pytest.raises(FleetError):
            WatchdogConfig(probe_timeout=0)

    def test_requires_exactly_one_mode(self):
        with pytest.raises(FleetError):
            FleetWatchdog()
        with pytest.raises(FleetError):
            FleetWatchdog(manager=object(), targets=["h:1"])

    def test_no_promotion_below_quorum(self):
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        watchdog, promoted, _ = scripted_watchdog([standby], healthy)
        watchdog.tick()
        watchdog.tick()
        assert promoted == []
        assert len(watchdog.log.events("probe_failed")) == 2

    def test_quorum_of_consecutive_failures_promotes(self):
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        watchdog, promoted, _ = scripted_watchdog([standby], healthy)
        for _ in range(3):
            watchdog.tick()
        assert promoted == [standby]
        assert len(watchdog.log.events("promotion_succeeded")) == 1

    def test_recovery_resets_the_failure_counter(self):
        """A transient partition shorter than the quorum window never
        promotes — the anti-dueling guard the smoke also exercises."""
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        watchdog, promoted, _ = scripted_watchdog([standby], healthy)
        watchdog.tick()
        watchdog.tick()
        healthy["p"] = True  # partition heals one round before quorum
        watchdog.tick()
        healthy["p"] = False
        watchdog.tick()
        watchdog.tick()
        assert promoted == []
        assert len(watchdog.log.events("primary_recovered")) == 1

    def test_cooldown_suppresses_back_to_back_failovers(self):
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        now = [100.0]
        watchdog, promoted, _ = scripted_watchdog(
            [standby],
            healthy,
            config=WatchdogConfig(interval=0.01, quorum=2, cooldown=30.0),
            clock=lambda: now[0],
        )
        for _ in range(4):
            watchdog.tick()
        assert len(promoted) == 1
        assert len(watchdog.log.events("failover_suppressed")) >= 1
        now[0] += 31.0  # cool-down expires
        watchdog.tick()
        watchdog.tick()
        assert len(promoted) == 2

    def test_best_positioned_standby_wins_and_orphans_reparent(self):
        behind = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=5, lag=4)
        ahead = _Standby(endpoint="e2", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        watchdog, promoted, reparented = scripted_watchdog(
            [behind, ahead],
            healthy,
            config=WatchdogConfig(interval=0.01, quorum=1, cooldown=5.0),
        )
        watchdog.tick()
        assert promoted == [ahead]
        assert reparented == [(behind, ahead)]

    def test_aborted_promotion_is_recorded_not_raised(self):
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}

        def refuse(_standby):
            raise RuntimeError("primary is alive and refused the fence")

        watchdog, _, reparented = scripted_watchdog(
            [standby],
            healthy,
            config=WatchdogConfig(interval=0.01, quorum=1, cooldown=5.0),
            promoter=refuse,
        )
        watchdog.tick()
        assert len(watchdog.log.events("promotion_aborted")) == 1
        assert reparented == []

    def test_tenant_filter_restricts_supervision(self):
        watched = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        ignored = _Standby(endpoint="e1", tenant="u", replica_of="q", applied=9, lag=0)
        healthy = {"p": False, "q": False}
        watchdog, promoted, _ = scripted_watchdog([watched, ignored], healthy)
        watchdog.tenants = ["t"]
        for _ in range(3):
            watchdog.tick()
        assert promoted == [watched]

    def test_counters_of_vanished_primaries_are_dropped(self):
        standby = _Standby(endpoint="e1", tenant="t", replica_of="p", applied=9, lag=0)
        healthy = {"p": False}
        watchdog, promoted, _ = scripted_watchdog([standby], healthy)
        watchdog.tick()
        assert watchdog._states  # counter exists
        standbys_gone = []
        watchdog._scanner = lambda: standbys_gone
        watchdog.tick()
        assert not watchdog._states


# ----------------------------------------------------------------------
# in-process watchdog end-to-end: a real dead primary
# ----------------------------------------------------------------------
class TestInProcessWatchdog:
    def test_watchdog_promotes_when_the_primary_dies(self, tmp_path):
        primary_manager = EngineManager(
            PARAMS,
            default_engine_config=FAST,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        primary_manager.create("t")
        engine = primary_manager.get("t")
        for update in TRIANGLE:
            engine.submit(update)
        engine.flush()
        server = BackgroundServer(primary_manager)
        server.start()
        standby = StandbyEngine(
            f"127.0.0.1:{server.port}",
            "t",
            data_dir=tmp_path / "standby",
            config=FAST,
            poll_interval=0.01,
        ).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            assert wait_until(lambda: standby.applied >= 3)
            with FleetWatchdog(
                manager=standby_manager,
                config=WatchdogConfig(
                    interval=0.05, quorum=2, cooldown=1.0, probe_timeout=0.5
                ),
            ) as watchdog:
                # healthy primary: several rounds, no promotion
                assert wait_until(lambda: watchdog.ticks >= 3)
                assert not standby.promoted
                assert watchdog.log.events("promotion_started") == []
                server.stop()
                primary_manager.close()
                assert wait_until(lambda: standby.promoted, timeout=20.0)
            assert len(watchdog.log.events("promotion_succeeded")) == 1
            standby.submit(Update.insert(3, 4))
            standby.flush()
            assert standby.applied == 4
        finally:
            standby_manager.close()


# ----------------------------------------------------------------------
# topology route, reparent route, chained standbys, ack forwarding
# ----------------------------------------------------------------------
@pytest.fixture()
def primary(tmp_path):
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


def make_standby(server, tmp_path, tenant="t", name="standby", **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("poll_interval", 0.01)
    return StandbyEngine(
        f"127.0.0.1:{server.port}",
        tenant,
        data_dir=tmp_path / name / tenant,
        **kwargs,
    )


class TestTopologyRoute:
    def test_primary_topology_document(self, primary):
        _manager, _server, client, _tmp = primary
        document = client.topology()
        assert document["role"] == "primary"
        assert document["tenant"] == "t"
        assert document["applied"] == 12
        positions = document["shard_positions"]
        assert [row["shard"] for row in positions] == [0]
        assert positions[0]["position"] == 12
        assert isinstance(positions[0]["last_applied_at"], float)

    def test_standby_topology_and_downstream_acks(self, primary):
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            with BackgroundServer(standby_manager) as standby_server:
                standby_client = ServiceClient(
                    "127.0.0.1", standby_server.port, tenant="t"
                )
                assert wait_until(lambda: standby.applied >= 12)
                document = standby_client.topology()
                assert document["role"] == "standby"
                assert document["replica_of"] == f"127.0.0.1:{server.port}"
                assert document["promoted"] is False
                assert "lag" in document and "reparents" in document
                assert isinstance(document["last_applied_at"], float)
                # the standby acked its position upstream: visible in the
                # primary's topology as a downstream ack
                assert wait_until(
                    lambda: int(
                        client.topology().get("downstream_acks", {}).get("0", 0)
                    )
                    >= 12
                )
                standby_client.close()
        finally:
            standby_manager.close()

    def test_topology_rejects_unknown_query_params(self, primary):
        _manager, server, _client, _tmp = primary
        probe = ServiceClient("127.0.0.1", server.port, tenant="t")
        try:
            status, document, _headers = probe._request(
                "GET", "/v1/tenants/t/topology?bogus=1"
            )
        finally:
            probe.close()
        assert status == 400

    def test_topology_of_unknown_tenant_is_404(self, primary):
        _manager, _server, client, _tmp = primary
        with pytest.raises(ServiceError) as excinfo:
            client.topology("nope")
        assert excinfo.value.code == "unknown_tenant"


class TestHealthzFleetSurface:
    def test_healthz_reports_topology_and_staleness(self, primary):
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            with BackgroundServer(standby_manager) as standby_server:
                standby_client = ServiceClient("127.0.0.1", standby_server.port)
                assert wait_until(lambda: standby.applied >= 12)
                health = standby_client.healthz()
                replication = health["replication"]
                assert replication["topology"]["t"]["role"] == "standby"
                assert replication["topology"]["t"]["replica_of"] == (
                    f"127.0.0.1:{server.port}"
                )
                assert isinstance(replication["last_applied_at"]["t"], float)
                # the primary's own healthz labels the tenant primary
                primary_health = client.healthz()
                assert (
                    primary_health["replication"]["topology"]["t"]["role"]
                    == "primary"
                )
                standby_client.close()
        finally:
            standby_manager.close()

    def test_stats_shard_rows_carry_last_applied_at(self, primary):
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        try:
            assert wait_until(lambda: standby.applied >= 12)
            status = standby.replication_status()
            assert isinstance(status["last_applied_at"], float)
            rows = status["shards"]
            assert all(isinstance(row["last_applied_at"], float) for row in rows)
            # staleness is coherent: the block-level value is the oldest row
            assert status["last_applied_at"] == min(
                row["last_applied_at"] for row in rows
            )
        finally:
            standby.close()


class TestChainedStandbys:
    def test_chain_replicates_and_forwards_leaf_acks(self, primary):
        """primary -> A -> B: B converges through A, and B's ack reaches
        the primary's retention floor (the slowest-leaf guarantee)."""
        manager, server, client, tmp_path = primary
        engine = manager.get("t")
        middle = make_standby(server, tmp_path, name="mid").start()
        middle_manager = EngineManager.adopt(middle, "t")
        try:
            with BackgroundServer(middle_manager) as middle_server:
                leaf = StandbyEngine(
                    f"127.0.0.1:{middle_server.port}",
                    "t",
                    data_dir=tmp_path / "leaf" / "t",
                    config=FAST,
                    poll_interval=0.01,
                ).start()
                try:
                    assert wait_until(lambda: leaf.applied >= 12)
                    for update in chain(50, 8):
                        engine.submit(update)
                    engine.flush()
                    assert wait_until(lambda: leaf.applied >= 20)
                    universe = list(range(14)) + list(range(50, 60))
                    assert groups_of(leaf, universe) == groups_of(engine, universe)
                    # per-hop forwarding: the middle hop records the
                    # leaf's ack, and the primary's floor converges to it
                    assert wait_until(lambda: middle.downstream_acks().get(0, 0) >= 20)
                    assert wait_until(lambda: engine.retention_floor() >= 20)
                finally:
                    leaf.close()
        finally:
            middle_manager.close()

    def test_middle_hop_ack_is_capped_by_slowest_leaf(self, primary):
        manager, server, client, tmp_path = primary
        middle = make_standby(server, tmp_path, name="mid").start()
        try:
            assert wait_until(lambda: middle.applied >= 12)
            # a fake slow leaf acked only position 5 on shard 0
            middle.note_downstream_ack(0, 5)
            document = middle.fetch_wal(0, middle.position(0), 10)
            # fetch_wal carried min(own position, leaf ack) = 5 upstream
            assert wait_until(lambda: manager.acks("t").get(0) == 5)
            assert document["applied"] >= 12
        finally:
            middle.close()


class TestReparentRoute:
    def test_reparent_moves_a_standby_between_primaries(self, primary):
        """B re-parents from the primary onto sibling A and keeps
        replicating new records through the new hop."""
        manager, server, client, tmp_path = primary
        engine = manager.get("t")
        sibling = make_standby(server, tmp_path, name="sib").start()
        sibling_manager = EngineManager.adopt(sibling, "t")
        orphan = make_standby(server, tmp_path, name="orp").start()
        orphan_manager = EngineManager.adopt(orphan, "t")
        try:
            with BackgroundServer(sibling_manager) as sibling_server, \
                    BackgroundServer(orphan_manager) as orphan_server:
                assert wait_until(
                    lambda: sibling.applied >= 12 and orphan.applied >= 12
                )
                orphan_client = ServiceClient(
                    "127.0.0.1", orphan_server.port, tenant="t"
                )
                document = orphan_client.reparent_tenant(
                    f"127.0.0.1:{sibling_server.port}"
                )
                assert document["replica_of"] == f"127.0.0.1:{sibling_server.port}"
                assert document["reseeded"] is False
                assert orphan.replica_of == f"127.0.0.1:{sibling_server.port}"
                for update in chain(80, 6):
                    engine.submit(update)
                engine.flush()
                assert wait_until(lambda: orphan.applied >= 18)
                universe = list(range(14)) + list(range(80, 88))
                assert groups_of(orphan, universe) == groups_of(engine, universe)
                assert orphan_client.topology()["reparents"] == 1
                orphan_client.close()
        finally:
            orphan_manager.close()
            sibling_manager.close()

    def test_reparent_of_a_primary_tenant_is_refused(self, primary):
        _manager, _server, client, _tmp = primary
        with pytest.raises(ServiceError) as excinfo:
            client.reparent_tenant("127.0.0.1:1")
        assert excinfo.value.status == 409
        assert excinfo.value.code == "not_a_standby"

    def test_reparent_onto_unreachable_primary_is_retryable_and_safe(
        self, primary
    ):
        manager, server, client, tmp_path = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            with BackgroundServer(standby_manager) as standby_server:
                assert wait_until(lambda: standby.applied >= 12)
                standby_client = ServiceClient(
                    "127.0.0.1", standby_server.port, tenant="t"
                )
                with pytest.raises(ServiceError) as excinfo:
                    standby_client.reparent_tenant("127.0.0.1:1")
                assert excinfo.value.code == "primary_unreachable"
                assert excinfo.value.retryable
                # the standby still ships from its original primary
                assert standby.replica_of == f"127.0.0.1:{server.port}"
                for update in chain(70, 4):
                    engine.submit(update)
                engine.flush()
                assert wait_until(lambda: standby.applied >= 16)
                standby_client.close()
        finally:
            standby_manager.close()

    def test_reparent_requires_replica_of_string(self, primary):
        _manager, server, _client, _tmp = primary
        probe = ServiceClient("127.0.0.1", server.port, tenant="t")
        try:
            status, _document, _headers = probe._request(
                "POST", "/v1/tenants/t/reparent", {"replica_of": 7}
            )
            assert status == 400
            status, _document, _headers = probe._request(
                "POST", "/v1/tenants/t/reparent", {}
            )
            assert status == 400
        finally:
            probe.close()

    def test_manager_reparent_refuses_promoted_standby(self, primary):
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            assert wait_until(lambda: standby.applied >= 12)
            standby.promote()
            with pytest.raises(NotAStandbyError):
                standby_manager.reparent("t", "127.0.0.1:1")
        finally:
            standby_manager.close()


# ----------------------------------------------------------------------
# replica-set client routing
# ----------------------------------------------------------------------
class TestReplicaSetClient:
    def test_reads_prefer_standby_and_writes_reach_primary(self, primary):
        manager, server, client, tmp_path = primary
        engine = manager.get("t")
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            with BackgroundServer(standby_manager) as standby_server:
                assert wait_until(lambda: standby.applied >= 12)
                # the standby endpoint first: writes still land on the
                # primary (the router resolves roles, not list order)
                fleet = ServiceClient(
                    tenant="t",
                    endpoints=[
                        f"127.0.0.1:{standby_server.port}",
                        f"127.0.0.1:{server.port}",
                    ],
                    topology_max_age=0.1,
                )
                try:
                    topology = fleet.topology()
                    assert topology["primary"] == f"127.0.0.1:{server.port}"
                    assert len(topology["endpoints"]) == 2
                    accepted = fleet.submit_updates(chain(90, 4))
                    assert accepted == 4
                    assert wait_until(lambda: engine.applied == 16)
                    # read barrier: read-your-writes through the fleet
                    barrier = fleet.primary_position()
                    assert barrier == 16
                    result = fleet.group_by(
                        list(range(90, 95)), min_position=barrier
                    )
                    assert wait_until(lambda: standby.applied >= 16)
                    groups = {
                        frozenset(group)
                        for group in fleet.group_by(
                            list(range(90, 95)), min_position=barrier
                        ).as_sets()
                    }
                    assert groups == groups_of(engine, range(90, 95))
                finally:
                    fleet.close()
        finally:
            standby_manager.close()

    def test_reads_survive_a_dead_standby(self, primary):
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        standby_server = BackgroundServer(standby_manager)
        standby_server.start()
        fleet = ServiceClient(
            tenant="t",
            endpoints=[
                f"127.0.0.1:{standby_server.port}",
                f"127.0.0.1:{server.port}",
            ],
            topology_max_age=0.05,
        )
        try:
            assert wait_until(lambda: standby.applied >= 12)
            assert fleet.stats()["tenant"] == "t"
            standby_server.stop()
            standby_manager.close()
            # the dead standby drops out of the topology; reads reroute
            document = fleet.stats()
            assert document["tenant"] == "t"
        finally:
            fleet.close()

    def test_writes_follow_a_manual_failover(self, primary):
        """Old primary fenced + standby promoted: the replica-set client
        re-resolves and lands writes on the new primary transparently."""
        manager, server, client, tmp_path = primary
        standby = make_standby(server, tmp_path).start()
        standby_manager = EngineManager.adopt(standby, "t")
        try:
            with BackgroundServer(standby_manager) as standby_server:
                assert wait_until(lambda: standby.applied >= 12)
                fleet = ServiceClient(
                    tenant="t",
                    endpoints=[
                        f"127.0.0.1:{server.port}",
                        f"127.0.0.1:{standby_server.port}",
                    ],
                    topology_max_age=0.05,
                )
                try:
                    assert fleet.submit_updates(chain(60, 2)) == 2
                    assert wait_until(lambda: standby.applied >= 14)
                    standby.promote()  # fences the old primary
                    assert fleet.submit_updates(chain(62, 2)) == 2
                    assert wait_until(lambda: standby.applied >= 16)
                finally:
                    fleet.close()
        finally:
            standby_manager.close()

    def test_empty_endpoints_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(endpoints=[], tenant="t")

    def test_single_endpoint_client_ignores_min_position(self, primary):
        _manager, _server, client, _tmp = primary
        result = client.group_by([1, 2, 3], min_position=1)
        assert result.as_sets()
