"""Multi-tenant engine hosting: many named engines in one server process.

:class:`EngineManager` is the tenancy layer between the HTTP front-end and
the single-tenant :class:`~repro.service.engine.ClusteringEngine`:

* every tenant owns one engine — its own maintainer, ingest queue, WAL
  directory and metrics — so tenants are isolated by construction: no
  update of tenant A can reach tenant B's graph, and a tenant saturating
  its queue sheds only its own load (the per-tenant ``queue_capacity`` is
  the tenant's ingest quota);
* tenants are created/deleted at runtime under a lock, engines start
  lazily on first use and are closed (final checkpoint included) when the
  tenant is deleted or the manager shuts down;
* with a ``data_root``, each durable tenant persists under
  ``data_root/<tenant>/`` and recovers independently on restart.

The ``default`` tenant is created eagerly (unless disabled): it is the
tenant :class:`~repro.service.client.ServiceClient` and ``repro serve``
address when none is named.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.api import SNAPSHOT_CAPABLE_BACKENDS, available_backends
from repro.core.config import StrCluParams
from repro.service.engine import ClusteringEngine, EngineConfig
from repro.service.metrics import ServiceMetrics
from repro.service.obs import get_tracer
from repro.service.replication import StandbyEngine
from repro.service.sharding import AnyEngine, make_engine
from repro.service.timetravel import DEFAULT_HISTORY_CACHE_SIZE, HistoricalViewStore

#: Tenant names are path segments: one release of URL-safety by construction.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: The tenant clients and ``repro serve`` address when none is named.
DEFAULT_TENANT = "default"


class _Reserved:
    """Placeholder registered while a tenant's engine is being built."""

    __slots__ = ()


_RESERVED = _Reserved()


class TenantError(RuntimeError):
    """Base class for tenancy failures."""


class UnknownTenantError(TenantError):
    """The named tenant does not exist (HTTP 404)."""


class TenantExistsError(TenantError):
    """A tenant with that name already exists (HTTP 409)."""


class TenantLimitError(TenantError):
    """Creating the tenant would exceed the manager's quota (HTTP 409)."""


class NotAStandbyError(TenantError):
    """Promotion was requested for a tenant that is not a standby (HTTP 409)."""


class TenantDeleteError(TenantError):
    """Deleting the tenant failed because its engine refused to close.

    The tenant stays fully registered (no half-deleted state): its engine,
    config and ownership records are all still in place and reads keep
    working against the published views.  A plain engine whose final
    checkpoint failed reopens its writer, so its ingestion continues too;
    a sharded engine whose close partially succeeded rejects new submits
    with ``EngineClosed`` (loudly — never a silent black hole) until a
    later :meth:`EngineManager.delete` retry completes the close (HTTP
    500, retryable).
    """


@dataclass(frozen=True)
class TenantConfig:
    """Everything that shapes one tenant's engine.

    Attributes
    ----------
    name:
        Tenant identifier; must match ``[A-Za-z0-9][A-Za-z0-9._-]{0,63}``
        (it becomes a URL path segment and a data sub-directory).
    params:
        Clustering parameters for the tenant's maintainer.
    backend:
        Backend-registry name (see :func:`repro.core.api.available_backends`).
    engine:
        Ingest tuning — ``queue_capacity`` doubles as the tenant's quota,
        and ``engine.shards`` selects the tenant's engine shape (1: a
        single :class:`ClusteringEngine`; N > 1: a
        :class:`~repro.service.sharding.ShardedEngine` over N hash
        partitions, exposed via the :attr:`shards` convenience property).
    durable:
        When true (and the manager has a ``data_root``) the tenant gets a
        WAL + snapshot directory; requires a snapshot-capable backend.
    replica_of:
        When set (``host:port`` of the primary server), the tenant is a
        warm **standby** replica of the same-named tenant there: its
        shape, backend and parameters are discovered from the primary, a
        WAL shipper replays the primary's stream continuously, and writes
        are rejected until the tenant is promoted.  Requires the manager
        to have a ``data_root`` (the replica keeps its own durable state).
    """

    name: str
    params: StrCluParams
    backend: str = "dynstrclu"
    engine: EngineConfig = field(default_factory=EngineConfig)
    durable: bool = True
    replica_of: Optional[str] = None

    def __post_init__(self) -> None:
        validate_tenant_name(self.name)
        key = self.backend.strip().lower()
        if key not in available_backends():
            raise ValueError(
                f"unknown clustering backend {self.backend!r}; "
                f"registered: {', '.join(available_backends())}"
            )
        object.__setattr__(self, "backend", key)

    @property
    def shards(self) -> int:
        """Number of hash partitions of this tenant's engine (1: unsharded)."""
        return self.engine.shards


def validate_tenant_name(name: str) -> str:
    """Validate a tenant identifier; returns it unchanged."""
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ValueError(
            f"invalid tenant name {name!r}: expected 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return name


class EngineManager:
    """Host many named clustering engines behind one service surface.

    Parameters
    ----------
    default_params:
        Parameters used for tenants created without their own (including
        the eagerly created ``default`` tenant).
    default_engine_config:
        Ingest tuning inherited by tenants that do not override it.
    default_backend:
        Backend-registry name inherited by tenants that do not override it.
    data_root:
        When set, durable tenants persist under ``data_root/<tenant>/``.
    max_tenants:
        Hard cap on concurrently hosted tenants (the server-wide quota).
    create_default:
        Create the ``default`` tenant eagerly, so a client that names no
        tenant has one to address.
    history_cache_size:
        Per-tenant bound on materialised historical (``as_of``) views —
        the LRU capacity of each tenant's
        :class:`~repro.service.timetravel.HistoricalViewStore`.
    """

    def __init__(
        self,
        default_params: StrCluParams,
        default_engine_config: Optional[EngineConfig] = None,
        default_backend: str = "dynstrclu",
        data_root: Optional[Union[str, Path]] = None,
        max_tenants: int = 64,
        create_default: bool = True,
        history_cache_size: int = DEFAULT_HISTORY_CACHE_SIZE,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if history_cache_size < 1:
            raise ValueError("history_cache_size must be >= 1")
        self.default_params = default_params
        self.default_engine_config = (
            default_engine_config if default_engine_config is not None else EngineConfig()
        )
        self.default_backend = default_backend.strip().lower()
        self.data_root = Path(data_root) if data_root is not None else None
        self.max_tenants = max_tenants
        self.history_cache_size = history_cache_size
        self._lock = threading.Lock()
        # a slot holds either a live engine or the _RESERVED placeholder
        self._engines: Dict[str, Union[ClusteringEngine, _Reserved]] = {}  # guarded-by: _lock
        self._configs: Dict[str, TenantConfig] = {}  # guarded-by: _lock
        self._owned: Dict[str, bool] = {}  # guarded-by: _lock
        # per-tenant standby acks observed on the WAL-serving route:
        # {tenant: {shard: acked position}} — lag telemetry for primaries
        self._acks: Dict[str, Dict[int, int]] = {}  # guarded-by: _lock
        # per-tenant historical (as_of) view stores, created lazily
        self._stores: Dict[str, HistoricalViewStore] = {}  # guarded-by: _lock
        self._closed = False
        self._close_completed = False
        if create_default:
            self.create(DEFAULT_TENANT)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def adopt(cls, engine: AnyEngine, name: str = DEFAULT_TENANT) -> "EngineManager":
        """Wrap a caller-owned engine as the sole (default) tenant.

        The single-tenant compatibility path: ``BackgroundServer(engine)``
        and tests that construct an engine directly still work against the
        multi-tenant server.  Both engine shapes are adoptable — ``repro
        serve --shards N`` adopts a :class:`ShardedEngine` this way.  The
        adopted engine's lifecycle stays with the caller — deleting its
        tenant (or closing the manager) deregisters it without closing it.

        The adopted engine's shard count is *not* inherited as the default
        for dynamically created tenants: `repro serve --shards 4` shards
        the default tenant, while `POST /v1/tenants` keeps its documented
        default of a single engine unless the payload asks for shards.
        """
        manager = cls(
            default_params=engine.params,
            default_engine_config=replace(engine.config, shards=1),
            default_backend=engine.backend,
            create_default=False,
        )
        config = TenantConfig(
            name=name,
            params=engine.params,
            backend=engine.backend,
            engine=engine.config,
            durable=engine.data_dir is not None,
        )
        with manager._lock:
            manager._engines[name] = engine
            manager._configs[name] = config
            manager._owned[name] = False
        return manager

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        params: Optional[StrCluParams] = None,
        backend: Optional[str] = None,
        engine_config: Optional[EngineConfig] = None,
        queue_capacity: Optional[int] = None,
        durable: bool = True,
        shards: Optional[int] = None,
        replica_of: Optional[str] = None,
    ) -> AnyEngine:
        """Create (and start) a tenant's engine; returns it.

        ``queue_capacity`` is the per-tenant ingest quota shortcut: it
        overrides just that field of the inherited engine config.
        ``shards`` likewise overrides the config's shard count — ``1``
        builds today's single engine, ``N > 1`` a hash-partitioned
        :class:`~repro.service.sharding.ShardedEngine` whose shards
        persist under ``data_root/<tenant>/shard-<i>/``.  ``replica_of``
        (``host:port`` of a primary server) instead builds a warm
        :class:`~repro.service.replication.StandbyEngine` of the
        same-named tenant there — shape and parameters are discovered
        from the primary, so ``params`` / ``backend`` / ``shards`` must
        not be combined with it.

        Raises :class:`TenantExistsError` / :class:`TenantLimitError`, or
        ``ValueError`` for a bad name, backend, shard count or parameter
        bundle.
        """
        with get_tracer().span(
            "manager.create_tenant",
            tenant=name,
            standby=replica_of is not None,
        ):
            return self._create(
                name,
                params=params,
                backend=backend,
                engine_config=engine_config,
                queue_capacity=queue_capacity,
                durable=durable,
                shards=shards,
                replica_of=replica_of,
            )

    def _create(
        self,
        name: str,
        params: Optional[StrCluParams] = None,
        backend: Optional[str] = None,
        engine_config: Optional[EngineConfig] = None,
        queue_capacity: Optional[int] = None,
        durable: bool = True,
        shards: Optional[int] = None,
        replica_of: Optional[str] = None,
    ) -> AnyEngine:
        config = engine_config if engine_config is not None else self.default_engine_config
        if queue_capacity is not None:
            config = replace(config, queue_capacity=queue_capacity)
        if shards is not None:
            config = replace(config, shards=shards)
        if replica_of is not None and (
            params is not None or backend is not None or shards is not None
        ):
            raise ValueError(
                "a standby tenant's params/backend/shards are discovered "
                "from its primary; do not combine them with replica_of"
            )
        tenant = TenantConfig(
            name=name,
            params=params if params is not None else self.default_params,
            backend=backend if backend is not None else self.default_backend,
            engine=config,
            durable=durable,
            replica_of=replica_of,
        )
        data_dir: Optional[Path] = None
        if tenant.replica_of is not None:
            if self.data_root is None:
                raise ValueError(
                    "standby tenants (replica_of) need a data_root: the "
                    "replica keeps its own durable snapshot + WAL"
                )
            data_dir = self.data_root / tenant.name
        elif (
            self.data_root is not None
            and tenant.durable
            and tenant.backend in SNAPSHOT_CAPABLE_BACKENDS
        ):
            data_dir = self.data_root / tenant.name
        # reserve the name under the lock, but build (and possibly crash-
        # recover) the engine outside it: recovery of a large snapshot+WAL
        # must not stall every other tenant's request path
        with self._lock:
            if self._closed:
                raise TenantError("engine manager is closed")
            if tenant.name in self._engines:
                raise TenantExistsError(f"tenant {tenant.name!r} already exists")
            if len(self._engines) >= self.max_tenants:
                raise TenantLimitError(
                    f"tenant limit reached ({self.max_tenants}); delete one first"
                )
            self._engines[tenant.name] = _RESERVED
            self._configs[tenant.name] = tenant
            self._owned[tenant.name] = True
        try:
            if tenant.replica_of is not None:
                engine: AnyEngine = StandbyEngine(
                    tenant.replica_of,
                    tenant.name,
                    data_dir=data_dir,
                    config=tenant.engine,
                ).start()
                # record the discovered shape (the primary's, not ours)
                tenant = replace(
                    tenant, backend=engine.backend, engine=engine.config
                )
            else:
                engine = make_engine(
                    tenant.params,
                    config=tenant.engine,
                    data_dir=data_dir,
                    backend=tenant.backend,
                ).start()
        except BaseException:
            with self._lock:
                self._engines.pop(tenant.name, None)
                self._configs.pop(tenant.name, None)
                self._owned.pop(tenant.name, None)
            raise
        with self._lock:
            if self._closed or self._engines.get(tenant.name) is not _RESERVED:
                # the manager shut down (or the reservation was deleted)
                # while we were building: don't leak a running engine
                engine_to_discard = engine
            else:
                self._engines[tenant.name] = engine
                self._configs[tenant.name] = tenant  # incl. discovered shape
                engine_to_discard = None
        if engine_to_discard is not None:
            engine_to_discard.close(checkpoint=False)
            raise TenantError(
                f"tenant {tenant.name!r} was removed while its engine was starting"
            )
        return engine

    def get(self, name: str) -> AnyEngine:
        """The named tenant's engine; raises :class:`UnknownTenantError`.

        A tenant whose engine is still being built (mid-``create``) is
        reported as unknown — it becomes visible atomically once ready.
        """
        with self._lock:
            engine = self._engines.get(name)
        if engine is None or isinstance(engine, _Reserved):
            raise UnknownTenantError(f"no tenant named {name!r}")
        return engine

    def config_of(self, name: str) -> TenantConfig:
        """The named tenant's configuration; raises :class:`UnknownTenantError`."""
        with self._lock:
            config = self._configs.get(name)
        if config is None:
            raise UnknownTenantError(f"no tenant named {name!r}")
        return config

    def timetravel(self, name: str) -> HistoricalViewStore:
        """The named tenant's historical (``as_of``) view store.

        Created lazily on first use with the manager-wide
        ``history_cache_size`` bound, then reused — the store holds the
        tenant's cached replayers and materialised-view LRU.  Raises
        :class:`UnknownTenantError` for unknown tenants.
        """
        engine = self.get(name)  # raises UnknownTenantError first
        with self._lock:
            store = self._stores.get(name)
            if store is None or store.engine is not engine:
                # no store yet, or the tenant was deleted and re-created
                # under the same name: bind a fresh store to the live engine
                store = HistoricalViewStore(engine, capacity=self.history_cache_size)
                self._stores[name] = store
        return store

    def delete(self, name: str, checkpoint: bool = True) -> None:
        """Delete a tenant: close its engine, *then* deregister it.

        The engine is closed with a final checkpoint (unless disabled), so
        a durable tenant can be re-created later from its ``data_root``
        directory.  Adopted engines are deregistered but left running —
        their lifecycle belongs to the caller.

        Close-before-deregister makes deletion fail *cleanly*: if the
        engine (or, for a sharded tenant, any inner shard engine) refuses
        to close, :class:`TenantDeleteError` is raised and the tenant stays
        fully registered — never a half-deleted ghost whose engine still
        runs.  A retry re-attempts the close (closing twice is a no-op).
        """
        with get_tracer().span("manager.delete_tenant", tenant=name):
            self._delete(name, checkpoint)

    def _delete(self, name: str, checkpoint: bool) -> None:
        with self._lock:
            engine = self._engines.get(name)
            if engine is None:
                raise UnknownTenantError(f"no tenant named {name!r}")
            owned = self._owned.get(name, False)
            if isinstance(engine, _Reserved):
                # mid-create: deregister the reservation; the builder
                # notices it vanished and discards its engine
                self._engines.pop(name, None)
                self._configs.pop(name, None)
                self._owned.pop(name, None)
                return
        if owned:
            try:
                engine.close(checkpoint=checkpoint)
            except BaseException as exc:
                raise TenantDeleteError(
                    f"tenant {name!r} was not deleted: its engine failed to "
                    f"close ({exc}); the tenant remains registered — retry "
                    "the delete"
                ) from exc
        store: Optional[HistoricalViewStore] = None
        with self._lock:
            # deregister only the engine we closed (a concurrent
            # delete+recreate must not have its fresh tenant removed)
            if self._engines.get(name) is engine:
                self._engines.pop(name, None)
                self._configs.pop(name, None)
                self._owned.pop(name, None)
                self._acks.pop(name, None)
                store = self._stores.pop(name, None)
        if store is not None:
            store.clear()

    def promote(self, name: str) -> Dict[str, object]:
        """Promote a standby tenant to primary; returns the promotion document.

        Fences the old primary (best effort), drains the standby's replay
        queue and flips it writable — see
        :meth:`repro.service.replication.StandbyEngine.promote`.
        Idempotent; raises :class:`NotAStandbyError` for regular tenants.
        """
        engine = self.get(name)
        if not isinstance(engine, StandbyEngine):
            raise NotAStandbyError(
                f"tenant {name!r} is not a standby; only replica_of tenants "
                "can be promoted"
            )
        with get_tracer().span("manager.promote_tenant", tenant=name):
            return engine.promote()

    def reparent(self, name: str, replica_of: str) -> Dict[str, object]:
        """Re-point a standby tenant at a new upstream primary.

        The orphan-rescue path after a promotion elsewhere in the fleet —
        see :meth:`repro.service.replication.StandbyEngine.reparent` for
        the divergence-vs-reseed rules.  Raises
        :class:`NotAStandbyError` for regular or already-promoted tenants.
        """
        engine = self.get(name)
        if not isinstance(engine, StandbyEngine) or engine.promoted:
            raise NotAStandbyError(
                f"tenant {name!r} is not an un-promoted standby; only "
                "replicating tenants can be re-parented"
            )
        with get_tracer().span(
            "manager.reparent_tenant", tenant=name, replica_of=replica_of
        ):
            return engine.reparent(replica_of)

    def topology(self, name: str) -> Dict[str, object]:
        """One tenant's replication-topology document.

        The ``GET /v1/tenants/{t}/topology`` body: the tenant's role, its
        upstream (for standbys), per-shard applied positions with
        wall-clock publish staleness, and the acked positions of any
        downstream replicas shipping from this node — enough for a
        watchdog or routing client to draw the whole tree by walking
        ``replica_of`` edges.
        """
        engine = self.get(name)
        document: Dict[str, object] = {
            "tenant": name,
            "shards": engine.num_shards,
            "applied": engine.applied,
            "epoch": engine.epoch,
            "role": "primary",
            # a fenced primary is a zombie: routing clients must prefer
            # the promoted standby even when the epochs tie
            "fenced": engine.fenced,
        }
        if isinstance(engine, StandbyEngine):
            document["role"] = "primary" if engine.promoted else "standby"
            document["promoted"] = engine.promoted
            document["replica_of"] = engine.replica_of
            status = engine.replication_status()
            document["lag"] = status.get("lag", 0)
            document["reseeds"] = status.get("reseeds", 0)
            document["reparents"] = status.get("reparents", 0)
            if "last_applied_at" in status:
                document["last_applied_at"] = status["last_applied_at"]
        # per-shard applied positions without forcing a scatter-gather merge
        document["shard_positions"] = [
            {
                "shard": slot,
                "position": writer.applied,
                "last_applied_at": writer.published_at,
            }
            for slot, writer in enumerate(engine.shards)
        ]
        acks = self.acks(name)
        if acks:
            document["downstream_acks"] = {
                str(slot): position for slot, position in sorted(acks.items())
            }
        return document

    def record_ack(self, name: str, shard: int, position: int) -> None:
        """Record a standby's acked position (WAL-serving telemetry).

        Besides the lag-telemetry map, the ack is forwarded to the shard's
        engine as its standby-ack retention floor
        (:meth:`~repro.service.engine.ClusteringEngine.note_standby_ack`),
        so WAL pruning never outruns the slowest standby.  When this
        tenant is itself an un-promoted standby serving a chained replica,
        the ack is also recorded on the :class:`StandbyEngine` so its own
        upstream fetches forward ``min(local position, downstream ack)`` —
        per-hop ack forwarding up the replication tree.
        """
        engine: Optional[AnyEngine] = None
        with self._lock:
            if name in self._engines:
                self._acks.setdefault(name, {})[shard] = position
                candidate = self._engines[name]
                if not isinstance(candidate, _Reserved):
                    engine = candidate
        if engine is None:
            return
        # forwarding happens outside the lock (note_standby_ack takes the
        # engine's own lock)
        if isinstance(engine, StandbyEngine) and not engine.promoted:
            engine.note_downstream_ack(shard, position)
        if 0 <= shard < engine.num_shards:
            engine.shards[shard].note_standby_ack(position)

    def acks(self, name: str) -> Dict[int, int]:
        """Last acked position per shard for one (primary) tenant."""
        with self._lock:
            return dict(self._acks.get(name, {}))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._engines

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def names(self) -> List[str]:
        """Sorted names of the ready tenants (mid-create ones excluded)."""
        with self._lock:
            return sorted(
                name
                for name, engine in self._engines.items()
                if not isinstance(engine, _Reserved)
            )

    def engines(self) -> List[AnyEngine]:
        """Snapshot list of the hosted engines (safe to use without the lock)."""
        with self._lock:
            return [
                engine
                for engine in self._engines.values()
                if not isinstance(engine, _Reserved)
            ]

    def items(self) -> List[tuple]:
        """Snapshot ``(name, engine)`` pairs of the ready tenants, sorted."""
        with self._lock:
            pairs = [
                (name, engine)
                for name, engine in self._engines.items()
                if not isinstance(engine, _Reserved)
            ]
        return sorted(pairs, key=lambda pair: pair[0])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self, name: str) -> Dict[str, object]:
        """One tenant's headline document (the ``GET /v1/tenants`` row)."""
        engine = self.get(name)
        config = self.config_of(name)
        row: Dict[str, object] = {
            "tenant": name,
            "backend": config.backend,
            "running": engine.running,
            "applied": engine.applied,
            # O(1) on both engine shapes: the listing and describe must
            # never force a sharded tenant's scatter-gather merge
            "view_version": engine.view_version,
            "queue_depth": engine.queue_depth,
            "queue_capacity": engine.total_queue_capacity,
            "durable": engine.data_dir is not None,
            "shards": engine.num_shards,
        }
        if isinstance(engine, StandbyEngine):
            row["replica_of"] = engine.replica_of
            row["promoted"] = engine.promoted
        return row

    def list_tenants(self) -> List[Dict[str, object]]:
        """Headline documents for every tenant, sorted by name."""
        return [self.describe(name) for name in self.names()]

    def aggregate(self) -> Dict[str, object]:
        """Totals across tenants (for ``/v1/healthz`` and capacity planning).

        The ``shards`` sub-document surfaces the partitioned tenants:
        total inner engines hosted and the per-shard queue depths of every
        sharded tenant (a hot shard is visible from the health endpoint
        without a per-tenant stats round-trip).
        """
        total_applied = 0
        total_depth = 0
        total_capacity = 0
        running = 0
        total_engines = 0
        standbys = 0
        max_lag = 0
        lag_by_tenant: Dict[str, int] = {}
        applied_at_by_tenant: Dict[str, float] = {}
        topology_by_tenant: Dict[str, Dict[str, object]] = {}
        shard_depths: Dict[str, List[int]] = {}
        total_segments = 0
        total_bytes = 0
        horizon_by_tenant: Dict[str, Dict[str, object]] = {}
        pairs = self.items()
        all_metrics: List[ServiceMetrics] = []
        for name, engine in pairs:
            horizon = engine.wal_horizon()
            if horizon.get("durable"):
                total_segments += int(horizon.get("segments", 0))
                total_bytes += int(horizon.get("bytes", 0))
                horizon_by_tenant[name] = {
                    "oldest_retained_base": horizon.get("oldest_retained_base"),
                    "oldest_replayable": horizon.get("oldest_replayable"),
                    "snapshot_position": horizon.get("snapshot_position"),
                }
            total_applied += engine.applied
            total_depth += engine.queue_depth
            total_capacity += engine.total_queue_capacity
            if engine.running:
                running += 1
            all_metrics.append(engine.metrics)
            if isinstance(engine, StandbyEngine):
                topology_by_tenant[name] = {
                    "role": "primary" if engine.promoted else "standby",
                    "replica_of": engine.replica_of,
                    "promoted": engine.promoted,
                }
                if not engine.promoted:
                    standbys += 1
                    status = engine.replication_status()
                    lag = int(status.get("lag", 0))
                    lag_by_tenant[name] = lag
                    max_lag = max(max_lag, lag)
                    if "last_applied_at" in status:
                        applied_at_by_tenant[name] = float(
                            status["last_applied_at"]  # type: ignore[arg-type]
                        )
            else:
                topology_by_tenant[name] = {"role": "primary"}
            total_engines += engine.num_shards
            if engine.num_shards > 1:
                shard_depths[name] = [shard.queue_depth for shard in engine.shards]
                all_metrics.extend(shard.metrics for shard in engine.shards)
        merged = ServiceMetrics.merged(all_metrics)
        return {
            "tenants": len(pairs),
            "running": running,
            "applied": total_applied,
            "queue_depth": total_depth,
            "queue_capacity": total_capacity,
            "shards": {
                "engines": total_engines,
                "queue_depths": shard_depths,
            },
            "replication": {
                "standbys": standbys,
                "max_lag": max_lag,
                "lag": lag_by_tenant,
                "last_applied_at": applied_at_by_tenant,
                "topology": topology_by_tenant,
            },
            "wal": {
                "segments": total_segments,
                "bytes": total_bytes,
                "horizon": horizon_by_tenant,
            },
            "ingest": merged.ingest.summary(),
            "query": merged.query.summary(),
            "view_capture": merged.view_capture_summary(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, checkpoint: bool = True) -> None:
        """Close every owned engine (final checkpoints included).  Idempotent.

        Every engine gets its close attempt even when an earlier one fails;
        the first failure is re-raised afterwards.  The registry is only
        cleared once *every* close succeeded — a failed final checkpoint
        (which reopens its engine) leaves the engine reachable through the
        manager and a ``close()`` retry re-attempts it, mirroring
        :meth:`delete`'s close-before-deregister discipline.
        """
        with self._lock:
            if self._close_completed:
                return
            self._closed = True  # no new tenants from here on
            engines = [
                (engine, self._owned.get(name, False))
                for name, engine in self._engines.items()
            ]
        failures: List[BaseException] = []
        for engine, owned in engines:
            if owned and not isinstance(engine, _Reserved):
                try:
                    engine.close(checkpoint=checkpoint)
                except BaseException as exc:
                    failures.append(exc)
        if failures:
            raise failures[0]
        with self._lock:
            self._engines.clear()
            self._configs.clear()
            self._owned.clear()
            self._stores.clear()
            self._close_completed = True

    def __enter__(self) -> "EngineManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
