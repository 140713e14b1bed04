"""Concurrent clustering service: batched ingest + snapshot-isolated reads.

The maintainers in :mod:`repro.core` faithfully reproduce the paper's
single-stream update model; this package is the layer that turns them into
a *system*.  It decouples the single writer from many readers with the
read-committed-snapshot discipline of OLTP serving stacks, and since v1
hosts many isolated tenants behind one versioned HTTP surface:

* :mod:`repro.service.engine` — :class:`ClusteringEngine`, a single writer
  thread fed by a bounded micro-batching queue (backpressure on overflow),
  running any registered clustering backend
  (:func:`repro.core.api.make_clusterer`), with WAL-before-apply durability
  and snapshot+WAL crash recovery;
* :mod:`repro.service.views` — :class:`ClusteringView`, the immutable
  snapshot published atomically after each batch; all reads are lock-free
  and observe exactly one prefix of the update stream;
* :mod:`repro.service.sharding` — :class:`ShardedEngine`, ``N`` inner
  engines over a stable hash partition of the vertex space: cross-shard
  edges replicated to both endpoint shards (graph-only, so owned
  neighbourhoods stay exact), per-shard scoped labelling, each shard
  publishing only its :class:`ShardExport`, scatter-gather merged reads
  (:class:`ShardedView`) memoised per export tuple, and per-shard
  WAL/snapshot durability;
* :mod:`repro.service.replication` — :class:`StandbyEngine`, a warm
  replica that tails a primary tenant's WAL over HTTP
  (:class:`WalShipper`, one per shard) and replays it continuously into a
  live read-only engine, with snapshot re-seed on WAL gaps and an
  epoch-fenced :meth:`~repro.service.replication.StandbyEngine.promote`;
  ``replica_of`` may itself point at another replica (chained standbys
  with per-hop ack forwarding), and orphans re-parent onto a new primary
  after failover;
* :mod:`repro.service.fleet` — :class:`FleetWatchdog`, the autonomous
  failover supervisor: probes primaries, auto-promotes the
  best-positioned standby behind a quorum-of-probes + cool-down guard,
  re-parents orphans, and journals every decision in a
  :class:`DecisionLog` (``repro watchdog`` runs it as a sidecar);
* :mod:`repro.service.timetravel` — :class:`HistoricalViewStore`,
  time-travel (``as_of``) reads: any retained historical position is
  answered by restoring the newest position-stamped snapshot anchor at or
  below it and replaying retained WAL forward through the same range
  reader the standbys use, with cached replayers, a size-bounded
  materialised-view LRU and retention pins so pruning never races a
  replay;
* :mod:`repro.service.manager` — :class:`EngineManager`, many named
  engines (per-tenant params, backend, queue quota, shard count, replica
  source, data directory) with runtime tenant create/delete/promote;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only asyncio JSON-over-HTTP front-end serving the versioned
  ``/v1/tenants/{tenant}/...`` API and its matching client;
* :mod:`repro.service.metrics` — ingest/query latency histograms and
  throughput counters, mergeable across tenants;
* :mod:`repro.service.obs` — end-to-end tracing (``X-Repro-Trace``
  propagation from client through router, shard apply and standby
  replay), Prometheus text-format exposition for ``GET /metrics``, and a
  sampling profiler behind ``/v1/debug/profile``;
* :mod:`repro.service.loadgen` — an open-loop insert/delete/query load
  generator over :mod:`repro.workloads.updates` streams, including
  multi-tenant mixes with disjoint per-tenant vertex spaces.

Exposed on the CLI as ``repro serve`` and ``repro loadgen``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first access:
#: a client-only process never loads the engine, and only a process that
#: touches :mod:`repro.service.server` loads asyncio.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.persistence.updatelog": ("WalGapError",),
        "repro.service.client": (
            "BackpressureError",
            "ServiceClient",
            "ServiceError",
            "TransportError",
        ),
        "repro.service.engine": (
            "ClusteringEngine",
            "EngineBackpressure",
            "EngineClosed",
            "EngineConfig",
            "EngineError",
            "EngineFenced",
            "ReadOnlyEngineError",
        ),
        "repro.service.fleet": (
            "DecisionLog",
            "FleetError",
            "FleetWatchdog",
            "WatchdogConfig",
        ),
        "repro.service.loadgen": (
            "ClientTarget",
            "EngineTarget",
            "LoadGenConfig",
            "LoadGenerator",
            "LoadReport",
            "MultiTenantLoadGenerator",
        ),
        "repro.service.manager": (
            "DEFAULT_TENANT",
            "EngineManager",
            "NotAStandbyError",
            "TenantConfig",
            "TenantDeleteError",
            "TenantError",
            "TenantExistsError",
            "TenantLimitError",
            "UnknownTenantError",
        ),
        "repro.service.metrics": ("LatencyHistogram", "ServiceMetrics"),
        "repro.service.obs": (
            "SpanContext",
            "Tracer",
            "configure_tracer",
            "decision_events",
            "get_tracer",
            "new_trace_id",
            "parse_prometheus_text",
            "register_decision_log",
            "render_metrics",
            "sample_stacks",
        ),
        "repro.service.replication": ("ReplicationError", "StandbyEngine", "WalShipper"),
        "repro.service.server": ("BackgroundServer", "ClusteringServiceServer"),
        "repro.service.sharding": (
            "ShardExport",
            "ShardedEngine",
            "ShardedView",
            "make_engine",
            "shard_of",
        ),
        "repro.service.timetravel": ("AsOfUnavailableError", "HistoricalViewStore"),
        "repro.service.views": ("ClusteringView",),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:
    from repro.persistence.updatelog import WalGapError
    from repro.service.client import BackpressureError, ServiceClient, ServiceError, TransportError
    from repro.service.engine import (
        ClusteringEngine,
        EngineBackpressure,
        EngineClosed,
        EngineConfig,
        EngineError,
        EngineFenced,
        ReadOnlyEngineError,
    )
    from repro.service.fleet import DecisionLog, FleetError, FleetWatchdog, WatchdogConfig
    from repro.service.loadgen import (
        ClientTarget,
        EngineTarget,
        LoadGenConfig,
        LoadGenerator,
        LoadReport,
        MultiTenantLoadGenerator,
    )
    from repro.service.manager import (
        DEFAULT_TENANT,
        EngineManager,
        NotAStandbyError,
        TenantConfig,
        TenantDeleteError,
        TenantError,
        TenantExistsError,
        TenantLimitError,
        UnknownTenantError,
    )
    from repro.service.metrics import LatencyHistogram, ServiceMetrics
    from repro.service.obs import (
        SpanContext,
        Tracer,
        configure_tracer,
        decision_events,
        get_tracer,
        new_trace_id,
        parse_prometheus_text,
        register_decision_log,
        render_metrics,
        sample_stacks,
    )
    from repro.service.replication import ReplicationError, StandbyEngine, WalShipper
    from repro.service.server import BackgroundServer, ClusteringServiceServer
    from repro.service.sharding import (
        ShardExport,
        ShardedEngine,
        ShardedView,
        make_engine,
        shard_of,
    )
    from repro.service.timetravel import AsOfUnavailableError, HistoricalViewStore
    from repro.service.views import ClusteringView
