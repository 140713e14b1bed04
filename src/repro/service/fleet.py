"""Autonomous replica fleets: the watchdog that removes the operator.

PR 5 gave a tenant a warm standby and a *manual* ``repro promote``; this
module closes the loop so a primary loss heals itself.  A
:class:`FleetWatchdog` probes every primary a fleet's standbys replicate
from, counts consecutive failed probes, and drives
:meth:`~repro.service.replication.StandbyEngine.promote` automatically
once a **quorum of probes** has failed and the per-tenant **cool-down**
has elapsed — then re-parents the surviving orphans onto the winner so
the replication tree reconverges.

Safety model, in layers:

* **quorum-of-probes** — one failed probe is noise (GC pause, dropped
  SYN); the watchdog only acts after ``quorum`` *consecutive* failures,
  so the minimum detection window is ``quorum x interval`` and a
  transient partition shorter than that window causes no promotion.
* **cool-down** — after any promotion attempt (successful or aborted) a
  tenant is frozen for ``cooldown`` seconds, so two watchdogs racing the
  same fleet cannot ping-pong promotions, and a flapping primary is not
  re-failed-over in a tight loop.
* **epoch fencing (the hard backstop)** — the watchdog merely *asks*;
  ``promote()`` itself still fences the old primary first and aborts
  against a live one, so even a wrong watchdog decision cannot produce a
  dueling-primaries split brain (PR 5 semantics, unchanged).

The watchdog runs in two shapes sharing one decision loop:

* **in-process** — ``FleetWatchdog(manager=...)`` inside a serving
  process, probing the upstreams of that process's own standby tenants
  and promoting through :class:`~repro.service.manager.EngineManager`;
* **sidecar** — ``repro watchdog --targets host:port ...`` in its own
  process, probing every target over the v1 API, promoting the
  best-positioned standby (max applied position wins) and re-parenting
  the rest via ``POST .../reparent``.

Every observation and decision lands in a :class:`DecisionLog` — a
bounded in-memory ring plus an optional JSONL file — because an
autonomous promoter that cannot explain *why* it flipped a primary is an
outage multiplier, not an HA feature.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError, parse_primary_url
from repro.service.obs import register_decision_log

__all__ = [
    "FleetError",
    "WatchdogConfig",
    "DecisionLog",
    "FleetWatchdog",
]


class FleetError(RuntimeError):
    """A fleet-level operation failed (bad config, no promotable standby)."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WatchdogConfig:
    """Tuning knobs for one watchdog loop.

    ``interval``
        seconds between probe rounds; the failure-detection window is
        ``quorum * interval`` plus probe timeouts.
    ``quorum``
        consecutive failed probes of the *same* primary required before
        a promotion is considered (>= 1).
    ``cooldown``
        seconds a tenant is frozen after any promotion attempt, measured
        on the monotonic clock.
    ``probe_timeout``
        per-probe socket timeout; a hung primary must not stall the loop.
    ``max_lag``
        optional ceiling on acceptable standby lag (records): a standby
        further behind is never chosen as the promotion candidate while
        a closer one exists.
    """

    interval: float = 0.5
    quorum: int = 3
    cooldown: float = 5.0
    probe_timeout: float = 2.0
    max_lag: Optional[int] = None
    decision_log_path: Optional[Path] = None
    decision_log_limit: int = 1024

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise FleetError("watchdog interval must be positive")
        if self.quorum < 1:
            raise FleetError("watchdog quorum must be >= 1")
        if self.cooldown < 0:
            raise FleetError("watchdog cooldown must be >= 0")
        if self.probe_timeout <= 0:
            raise FleetError("watchdog probe_timeout must be positive")


# ----------------------------------------------------------------------
# decision log
# ----------------------------------------------------------------------
class DecisionLog:
    """Bounded ring of watchdog events, optionally mirrored to JSONL.

    Events are plain dicts with at least ``event`` and ``ts`` (wall
    clock, for the humans reading the post-mortem); the CI fleet smoke
    uploads the JSONL file as an artifact when a round fails.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        limit: int = 1024,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._events: Deque[Dict[str, object]] = deque(maxlen=max(1, limit))  # guarded-by: _lock
        self._path = Path(path) if path is not None else None
        self._echo = echo
        self._lock = threading.Lock()
        # surfaces this log on GET /v1/debug/decisions (weakly held —
        # registration never extends the log's lifetime)
        register_decision_log(self)

    def record(self, event: str, **fields: object) -> Dict[str, object]:
        entry: Dict[str, object] = {"event": event, "ts": time.time()}
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, default=str)
        with self._lock:
            self._events.append(entry)
            if self._path is not None:
                try:
                    with self._path.open("a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                except OSError:
                    # the log must never take the watchdog down
                    pass
        if self._echo is not None:
            self._echo(line)
        return entry

    def events(self, event: Optional[str] = None) -> List[Dict[str, object]]:
        with self._lock:
            snapshot = list(self._events)
        if event is None:
            return snapshot
        return [entry for entry in snapshot if entry.get("event") == event]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# ----------------------------------------------------------------------
# internal per-primary probe state
# ----------------------------------------------------------------------
@dataclass
class _PrimaryState:
    failures: int = 0
    last_failover_at: Optional[float] = None  # monotonic


# a standby observed somewhere in the fleet: where it lives, which
# tenant, which primary it ships from, and how far along it is
@dataclass(frozen=True)
class _Standby:
    endpoint: Optional[str]  # None in in-process mode
    tenant: str
    replica_of: str
    applied: int
    lag: int


class FleetWatchdog(threading.Thread):
    """Probe primaries, promote standbys, re-parent orphans — on a loop.

    Exactly one of ``manager`` (in-process mode) or ``targets`` (sidecar
    mode) must be given.  The ``scanner`` / ``prober`` / ``promoter`` /
    ``reparenter`` hooks exist for tests: each defaults to the real v1
    client (sidecar) or :class:`EngineManager` (in-process)
    implementation, and a unit test can replace any of them to script a
    failure scenario without sockets.

    The loop itself is deliberately dumb: scan standbys, group by the
    primary they ship from, probe each primary once, bump or reset its
    consecutive-failure counter, and — quorum reached, cool-down clear —
    promote the best candidate (highest applied position; ties broken by
    lowest lag, then name) and re-parent the other orphans onto it.
    """

    def __init__(
        self,
        manager: Optional[object] = None,
        targets: Optional[List[str]] = None,
        tenants: Optional[List[str]] = None,
        config: Optional[WatchdogConfig] = None,
        decision_log: Optional[DecisionLog] = None,
        scanner: Optional[Callable[[], List[_Standby]]] = None,
        prober: Optional[Callable[[str, str], bool]] = None,
        promoter: Optional[Callable[[_Standby], Dict[str, object]]] = None,
        reparenter: Optional[Callable[[_Standby, _Standby], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(name="fleet-watchdog", daemon=True)
        if (manager is None) == (targets is None):
            raise FleetError(
                "exactly one of manager= (in-process) or targets= (sidecar) "
                "is required"
            )
        self.config = config or WatchdogConfig()
        self.manager = manager
        self.targets = list(targets or [])
        self.tenants = list(tenants) if tenants else None
        # NOT ``decision_log or ...``: DecisionLog defines __len__, so a
        # freshly created (empty) log is falsy and would be discarded
        self.log = (
            decision_log
            if decision_log is not None
            else DecisionLog(
                path=self.config.decision_log_path,
                limit=self.config.decision_log_limit,
            )
        )
        self._scanner = scanner or (
            self._scan_manager if manager is not None else self._scan_targets
        )
        self._prober = prober or self._probe_primary
        self._promoter = promoter or (
            self._promote_via_manager if manager is not None else self._promote_via_api
        )
        self._reparenter = reparenter or (
            self._reparent_via_manager
            if manager is not None
            else self._reparent_via_api
        )
        self._clock = clock
        self._states: Dict[Tuple[str, str], _PrimaryState] = {}
        self._stop_event = threading.Event()
        self.ticks = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        self.log.record(
            "watchdog_started",
            mode="in-process" if self.manager is not None else "sidecar",
            targets=self.targets,
            interval=self.config.interval,
            quorum=self.config.quorum,
            cooldown=self.config.cooldown,
        )
        while not self._stop_event.is_set():
            try:
                self.tick()
            except Exception as exc:  # pragma: no cover - last-resort guard
                # a broken tick must not kill the supervisor thread
                self.log.record("tick_error", error=f"{type(exc).__name__}: {exc}")
            self._stop_event.wait(self.config.interval)
        self.log.record("watchdog_stopped")

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)

    def __enter__(self) -> "FleetWatchdog":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # one decision round
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One probe-and-decide round (callable directly from tests)."""
        self.ticks += 1
        standbys = self._scanner()
        if self.tenants is not None:
            wanted = set(self.tenants)
            standbys = [row for row in standbys if row.tenant in wanted]
        # group the fleet by the (tenant, primary) edge being probed: all
        # replicas of one primary share a single failure counter, so the
        # quorum is over *time* (consecutive rounds), not over replicas
        groups: Dict[Tuple[str, str], List[_Standby]] = {}
        for row in standbys:
            groups.setdefault((row.tenant, row.replica_of), []).append(row)
        seen = set(groups)
        for key in list(self._states):
            if key not in seen:
                del self._states[key]
        for (tenant, primary), members in sorted(groups.items()):
            state = self._states.setdefault((tenant, primary), _PrimaryState())
            healthy = self._prober(primary, tenant)
            if healthy:
                if state.failures:
                    self.log.record(
                        "primary_recovered",
                        tenant=tenant,
                        primary=primary,
                        failures=state.failures,
                    )
                state.failures = 0
                continue
            state.failures += 1
            self.log.record(
                "probe_failed",
                tenant=tenant,
                primary=primary,
                failures=state.failures,
                quorum=self.config.quorum,
            )
            if state.failures < self.config.quorum:
                continue
            now = self._clock()
            if (
                state.last_failover_at is not None
                and now - state.last_failover_at < self.config.cooldown
            ):
                self.log.record(
                    "failover_suppressed",
                    tenant=tenant,
                    primary=primary,
                    reason="cooldown",
                    remaining=round(
                        self.config.cooldown - (now - state.last_failover_at), 3
                    ),
                )
                continue
            state.last_failover_at = now
            self._fail_over(tenant, primary, members)
            state.failures = 0

    def _fail_over(
        self, tenant: str, primary: str, members: List[_Standby]
    ) -> None:
        candidates = sorted(
            members, key=lambda row: (-row.applied, row.lag, row.endpoint or "")
        )
        if self.config.max_lag is not None:
            close = [row for row in candidates if row.lag <= self.config.max_lag]
            if close:
                candidates = close + [row for row in candidates if row not in close]
        winner = candidates[0]
        self.log.record(
            "promotion_started",
            tenant=tenant,
            primary=primary,
            winner=winner.endpoint or "in-process",
            applied=winner.applied,
            candidates=len(candidates),
        )
        try:
            document = self._promoter(winner)
        except Exception as exc:
            # promote() aborting against a live primary is the epoch
            # fence doing its job — record it and let the cool-down
            # prevent a tight retry loop
            self.log.record(
                "promotion_aborted",
                tenant=tenant,
                primary=primary,
                winner=winner.endpoint or "in-process",
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        self.log.record(
            "promotion_succeeded",
            tenant=tenant,
            primary=primary,
            winner=winner.endpoint or "in-process",
            epoch=document.get("epoch") if isinstance(document, dict) else None,
        )
        for orphan in candidates[1:]:
            try:
                self._reparenter(orphan, winner)
                self.log.record(
                    "reparented",
                    tenant=tenant,
                    orphan=orphan.endpoint or "in-process",
                    onto=winner.endpoint or "in-process",
                )
            except Exception as exc:
                # the orphan keeps probing its dead upstream; the next
                # quorum round retries the reparent via a fresh failover
                self.log.record(
                    "reparent_failed",
                    tenant=tenant,
                    orphan=orphan.endpoint or "in-process",
                    onto=winner.endpoint or "in-process",
                    error=f"{type(exc).__name__}: {exc}",
                )

    # ------------------------------------------------------------------
    # default hooks: in-process (EngineManager) mode
    # ------------------------------------------------------------------
    def _scan_manager(self) -> List[_Standby]:
        from repro.service.replication import StandbyEngine

        rows: List[_Standby] = []
        for name, engine in self.manager.items():  # type: ignore[union-attr]
            if not isinstance(engine, StandbyEngine) or engine.promoted:
                continue
            status = engine.replication_status()
            rows.append(
                _Standby(
                    endpoint=None,
                    tenant=name,
                    replica_of=engine.replica_of,
                    applied=engine.applied,
                    lag=int(status.get("lag", 0)),
                )
            )
        return rows

    def _promote_via_manager(self, standby: _Standby) -> Dict[str, object]:
        return self.manager.promote(standby.tenant)  # type: ignore[union-attr]

    def _reparent_via_manager(self, orphan: _Standby, winner: _Standby) -> None:
        # in-process mode hosts one standby per tenant: a second orphan of
        # the same tenant lives in another process and is out of reach
        raise FleetError(
            "in-process watchdog cannot re-parent a remote orphan; run a "
            "sidecar watchdog (repro watchdog --targets ...) for fleets"
        )

    # ------------------------------------------------------------------
    # default hooks: sidecar (v1 API) mode
    # ------------------------------------------------------------------
    def _client(self, endpoint: str, tenant: Optional[str] = None):
        host, port = parse_primary_url(endpoint)
        return ServiceClient(
            host, port, tenant=tenant, timeout=self.config.probe_timeout
        )

    def _scan_targets(self) -> List[_Standby]:
        rows: List[_Standby] = []
        for endpoint in self.targets:
            try:
                with self._client(endpoint) as client:
                    tenants = client.list_tenants()
                    for row in tenants:
                        if "replica_of" not in row or row.get("promoted"):
                            continue
                        name = str(row["tenant"])
                        lag = 0
                        try:
                            with client.for_tenant(name) as tenant_client:
                                topology = tenant_client.topology()
                            lag = int(topology.get("lag", 0))  # type: ignore[arg-type]
                        except (OSError, ServiceError):
                            pass
                        rows.append(
                            _Standby(
                                endpoint=endpoint,
                                tenant=name,
                                replica_of=str(row["replica_of"]),
                                applied=int(row.get("applied", 0)),  # type: ignore[arg-type]
                                lag=lag,
                            )
                        )
            except (OSError, ServiceError) as exc:
                # an unreachable *standby* is not a failover trigger —
                # only its primary's health drives promotion
                self.log.record(
                    "scan_failed",
                    target=endpoint,
                    error=f"{type(exc).__name__}: {exc}",
                )
        return rows

    def _probe_primary(self, primary: str, tenant: str) -> bool:
        """One reachability + tenant-liveness probe of a primary."""
        try:
            with self._client(primary, tenant=tenant) as client:
                client.healthz()
                # the tenant must exist and answer: a half-up primary that
                # lost the tenant (wiped data dir) is as dead as a down one
                client.describe_tenant()
            return True
        except (OSError, ServiceError):
            return False

    def _promote_via_api(self, standby: _Standby) -> Dict[str, object]:
        assert standby.endpoint is not None
        with self._client(standby.endpoint, tenant=standby.tenant) as client:
            return client.promote_tenant()

    def _reparent_via_api(self, orphan: _Standby, winner: _Standby) -> None:
        assert orphan.endpoint is not None and winner.endpoint is not None
        with self._client(orphan.endpoint, tenant=orphan.tenant) as client:
            client.reparent_tenant(winner.endpoint)
