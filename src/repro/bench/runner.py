"""Capacity-matrix runner: real servers, open-loop load, percentile tables.

For every :class:`~repro.bench.spec.BenchSpec` the runner

1. boots a **real server** for the primary — a ``python -m repro serve``
   subprocess by default (the launcher the CI smokes use too), or an
   in-process :class:`~repro.service.server.BackgroundServer` with
   ``mode="inprocess"`` (the test harness path) — plus one further server
   per standby when the spec carries a replica topology (chains created
   through the public ``replica_of`` tenant-create API);
2. creates the spec's tenants (backend x shards x params) over the v1
   surface and drives them with the existing open-loop load generator —
   through the replica-set client when ``read_from_standbys`` is set, so
   query traffic exercises the client's read load-balancing;
3. waits for the ingest pipelines to drain, scrapes ``GET /metrics``
   with the strict exposition parser and folds the per-stage ingest
   histograms into the report;
4. optionally runs the **saturation search**: a bisection over offered
   rate (fresh probe tenant per probe, fixed-duration looped stream)
   for the maximum rate that stays inside the latency SLO without
   shedding or falling behind the open-loop schedule.

Everything observed lands in one consolidated per-spec document; the
matrix run emits ``BENCH_capacity.json`` via :mod:`repro.bench.report`.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.report import (
    build_report,
    histogram_summary_ms,
    stage_table_from_samples,
)
from repro.bench.spec import BenchSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import (
    ClientTarget,
    LoadGenConfig,
    LoadGenerator,
    LoadReport,
    MultiTenantLoadGenerator,
)
from repro.service.metrics import ServiceMetrics
from repro.service.obs import parse_prometheus_text
from repro.workloads.datasets import dataset_spec, load_dataset
from repro.workloads.updates import generate_update_sequence


class BenchRunError(RuntimeError):
    """A spec failed to execute (server never healthy, drain timeout, ...)."""


def free_port() -> int:
    """A loopback TCP port that was free when this returned."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: Seconds :func:`stop_processes` gives its children to exit on SIGTERM.
STOP_TIMEOUT_S = 15.0


def stop_processes(*processes: Optional[subprocess.Popen]) -> None:
    """End every live child: SIGCONT and SIGTERM to all, then wait on each.

    SIGCONT first, because a SIGSTOPped child runs no SIGTERM handler until
    it is continued.  Every child is signalled before any is waited on, so
    a fleet stops in parallel; a child still running ``STOP_TIMEOUT_S``
    after that is killed.  ``None`` entries and exited children are skipped.
    """
    live = [p for p in processes if p is not None and p.poll() is None]
    for proc in live:
        proc.send_signal(signal.SIGCONT)
        proc.terminate()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    for proc in live:
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# server handles: subprocess (default) and in-process (tests)
# ----------------------------------------------------------------------
class SubprocessServer:
    """One ``python -m repro serve`` child on a free port.

    The constructor starts the child and returns at once, so a caller can
    start a fleet before it waits on any member; :meth:`wait_healthy`
    blocks until it answers.  The child shares this process's stdout and
    stderr.  ``process`` is the :class:`subprocess.Popen`, for callers that
    signal the child themselves.
    """

    def __init__(
        self, flags: Sequence[str] = (), data_root: Optional[Path] = None
    ) -> None:
        self.port = free_port()
        self.data_root = data_root
        command = [sys.executable, "-m", "repro", "serve", "--port", str(self.port)]
        command += flags
        if data_root is not None:
            command += ["--data-root", str(data_root)]
        self.process = subprocess.Popen(command)

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Block until ``/v1/healthz`` answers; on a timeout stop and raise."""
        try:
            ServiceClient.wait_until_healthy(
                "127.0.0.1", self.port, timeout=timeout
            )
        except RuntimeError:
            self.stop()
            raise

    def stop(self) -> None:
        stop_processes(self.process)


class InProcessServer:
    """A :class:`BackgroundServer` behind the same handle surface."""

    process: Optional[subprocess.Popen] = None  # no child: stop_processes skips it

    def __init__(self, spec: BenchSpec, data_root: Optional[Path]) -> None:
        from repro.core.config import StrCluParams
        from repro.service.engine import EngineConfig
        from repro.service.manager import EngineManager
        from repro.service.server import BackgroundServer

        params = StrCluParams(epsilon=spec.epsilon, mu=spec.mu, rho=spec.rho)
        manager = EngineManager(
            params,
            default_engine_config=EngineConfig(
                batch_size=64,
                queue_capacity=spec.queue_capacity,
            ),
            data_root=data_root,
            create_default=False,
        )
        self._server = BackgroundServer(manager).start()
        self.port = self._server.port

    def stop(self) -> None:
        manager = self._server.manager
        self._server.stop()
        manager.close()


_MODES = ("subprocess", "inprocess")


# ----------------------------------------------------------------------
# saturation search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbeResult:
    """One fixed-duration probe at an offered rate (updates/second)."""

    rate: float
    offered: float
    achieved: float
    p99_ms: float
    rejected: int
    max_lag_s: float
    ok: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "rate_updates_per_second": self.rate,
            "offered_updates_per_second": self.offered,
            "achieved_updates_per_second": self.achieved,
            "ingest_p99_ms": self.p99_ms,
            "rejected": self.rejected,
            "max_lag_s": self.max_lag_s,
            "sustainable": self.ok,
            "detail": self.detail,
        }


def search_max_sustainable(
    probe: Callable[[float], ProbeResult],
    hi: float,
    rounds: int,
    lo: float = 0.0,
) -> Tuple[float, bool, List[ProbeResult]]:
    """Bisection for the highest sustainable rate in ``(lo, hi]``.

    ``probe`` runs the workload at a rate and reports whether the SLO
    held.  Returns ``(max_sustainable, saturated, probes)``: when even
    ``hi`` is sustainable the search never saw saturation (``saturated``
    is False and the true maximum is >= the returned rate).
    """
    probes: List[ProbeResult] = []
    ceiling = probe(hi)
    probes.append(ceiling)
    if ceiling.ok:
        return hi, False, probes
    best = lo
    for _ in range(max(rounds - 1, 0)):
        mid = (best + hi) / 2.0
        result = probe(mid)
        probes.append(result)
        if result.ok:
            best = mid
        else:
            hi = mid
    return best, True, probes


# ----------------------------------------------------------------------
# the matrix runner
# ----------------------------------------------------------------------
@dataclass
class RunnerOptions:
    """Execution knobs orthogonal to the specs themselves."""

    mode: str = "subprocess"
    drain_timeout: float = 120.0
    replica_catchup_timeout: float = 30.0
    verbose: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {', '.join(sorted(_MODES))}; "
                f"got {self.mode!r}"
            )


@dataclass
class _Topology:
    """Everything booted for one spec, in teardown order."""

    primary: Union[SubprocessServer, InProcessServer]
    standbys: List[Union[SubprocessServer, InProcessServer]] = field(
        default_factory=list
    )
    tempdir: Optional[tempfile.TemporaryDirectory] = None

    @property
    def primary_endpoint(self) -> str:
        return f"127.0.0.1:{self.primary.port}"

    @property
    def standby_endpoints(self) -> List[str]:
        return [f"127.0.0.1:{server.port}" for server in self.standbys]

    def stop(self) -> None:
        servers = [*reversed(self.standbys), self.primary]
        stop_processes(*(server.process for server in servers))
        for server in servers:  # the in-process ones; a reaped child is skipped
            server.stop()
        if self.tempdir is not None:
            self.tempdir.cleanup()


class CapacityRunner:
    """Execute a spec list and assemble the consolidated capacity report."""

    def __init__(
        self,
        specs: Sequence[BenchSpec],
        options: Optional[RunnerOptions] = None,
    ) -> None:
        self.specs = list(specs)
        self.options = options if options is not None else RunnerOptions()

    # -- logging -------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.options.verbose:
            print(f"[bench] {message}", file=sys.stderr, flush=True)

    # -- public entry point --------------------------------------------
    def run(self, matrix_path: Optional[str] = None) -> Dict[str, object]:
        results: List[Dict[str, object]] = []
        for spec in self.specs:
            self._log(f"spec {spec.name}: starting")
            started = time.monotonic()
            try:
                entry = self._run_spec(spec)
                entry["elapsed_s"] = time.monotonic() - started
            except Exception as exc:  # a broken spec must not kill the matrix
                self._log(f"spec {spec.name}: FAILED ({exc})")
                entry = {
                    "name": spec.name,
                    "spec": spec.as_dict(),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            results.append(entry)
        return build_report(results, matrix_path=matrix_path)

    # -- per-spec execution --------------------------------------------
    def _launch(
        self, spec: BenchSpec, data_root: Optional[Path]
    ) -> Union[SubprocessServer, InProcessServer]:
        if self.options.mode == "inprocess":
            return InProcessServer(spec, data_root)
        server = SubprocessServer(
            [
                "--epsilon", str(spec.epsilon),
                "--mu", str(spec.mu),
                "--rho", str(spec.rho),
                "--batch-size", "64",
                "--queue-capacity", str(spec.queue_capacity),
            ],
            data_root,
        )
        server.wait_healthy()
        return server

    def _boot(self, spec: BenchSpec) -> _Topology:
        tempdir: Optional[tempfile.TemporaryDirectory] = None
        data_root: Optional[Path] = None
        if spec.durable:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-bench-")
            data_root = Path(tempdir.name)
        primary = self._launch(spec, data_root / "primary" if data_root else None)
        topology = _Topology(primary=primary, tempdir=tempdir)
        try:
            with ServiceClient("127.0.0.1", primary.port) as admin:
                for tenant in spec.tenant_names:
                    admin.create_tenant(
                        tenant,
                        backend=spec.backend,
                        shards=spec.shards,
                        queue_capacity=spec.queue_capacity,
                        params={
                            "epsilon": spec.epsilon,
                            "mu": spec.mu,
                            "rho": spec.rho,
                        },
                    )
            # replica chains: fanout chains of chain_depth standbys each,
            # every hop a separate server created via the public API
            for chain in range(spec.replicas.fanout if spec.replicas.chain_depth else 0):
                upstream = topology.primary_endpoint
                for depth in range(spec.replicas.chain_depth):
                    assert data_root is not None  # durable forced by the spec
                    standby = self._launch(
                        spec, data_root / f"standby-{chain}-{depth}"
                    )
                    topology.standbys.append(standby)
                    with ServiceClient("127.0.0.1", standby.port) as admin:
                        for tenant in spec.tenant_names:
                            admin.create_tenant(tenant, replica_of=upstream)
                    upstream = f"127.0.0.1:{standby.port}"
        except BaseException:
            topology.stop()
            raise
        return topology

    def _make_clients(
        self, spec: BenchSpec, topology: _Topology
    ) -> Tuple[List[ServiceClient], Dict[str, ClientTarget]]:
        """Per-tenant targets: replica-set clients when reads fan out."""
        clients: List[ServiceClient] = []
        targets: Dict[str, ClientTarget] = {}
        endpoints = [topology.primary_endpoint] + topology.standby_endpoints
        for tenant in spec.tenant_names:
            if topology.standbys and spec.replicas.read_from_standbys:
                client = ServiceClient(endpoints=endpoints, tenant=tenant)
            else:
                client = ServiceClient(
                    "127.0.0.1", topology.primary.port, tenant=tenant
                )
            clients.append(client)
            targets[tenant] = ClientTarget(client)
        return clients, targets

    def _stream(self, spec: BenchSpec, updates: Optional[int] = None):
        dataset = dataset_spec(spec.dataset)
        edges = load_dataset(spec.dataset)
        workload = generate_update_sequence(
            dataset.num_vertices,
            edges,
            updates if updates is not None else spec.updates,
            eta=0.2,
            seed=spec.seed,
        )
        return list(workload.all_updates())

    @staticmethod
    def _requests_rate(spec: BenchSpec, updates_per_second: float) -> float:
        """Offered updates/s -> loadgen requests/s (queries included)."""
        if updates_per_second <= 0:
            return 0.0
        updates_per_request = spec.ingest_batch * (1.0 - spec.query_ratio)
        return updates_per_second / max(updates_per_request, 1e-9)

    def _drive(
        self, spec: BenchSpec, topology: _Topology
    ) -> Tuple[Dict[str, LoadReport], List[ServiceMetrics], float]:
        stream = self._stream(spec)
        config = LoadGenConfig(
            rate=self._requests_rate(spec, spec.rate),
            ingest_batch=spec.ingest_batch,
            query_ratio=spec.query_ratio,
            query_size=spec.query_size,
            seed=spec.seed,
        )
        clients, targets = self._make_clients(spec, topology)
        started = time.monotonic()
        try:
            if spec.tenants == 1:
                tenant = spec.tenant_names[0]
                generator = LoadGenerator(targets[tenant], stream, config=config)
                reports = {tenant: generator.run()}
                metrics = [generator.metrics]
            else:
                multi = MultiTenantLoadGenerator(targets, stream, config=config)
                reports = multi.run()
                metrics = [g.metrics for g in multi.generators.values()]
        finally:
            for client in clients:
                client.close()
        return reports, metrics, time.monotonic() - started

    def _wait_drained(self, spec: BenchSpec, topology: _Topology) -> Dict[str, int]:
        """Block until every benched tenant's queue is empty and stable."""
        deadline = time.monotonic() + self.options.drain_timeout
        previous: Optional[Tuple[Tuple[int, int], ...]] = None
        with ServiceClient("127.0.0.1", topology.primary.port) as admin:
            while time.monotonic() < deadline:
                rows = {row["tenant"]: row for row in admin.list_tenants()}
                state = tuple(
                    (
                        int(rows.get(t, {}).get("queue_depth", 1)),
                        int(rows.get(t, {}).get("applied", -1)),
                    )
                    for t in spec.tenant_names
                )
                if (
                    all(depth == 0 for depth, _ in state)
                    and all(applied >= 0 for _, applied in state)
                    and state == previous
                ):
                    return {
                        tenant: applied
                        for tenant, (_, applied) in zip(spec.tenant_names, state)
                    }
                previous = state
                time.sleep(0.2)
        raise BenchRunError(
            f"spec {spec.name}: ingest never drained within "
            f"{self.options.drain_timeout:.0f}s (last state {previous})"
        )

    def _replication_block(
        self, spec: BenchSpec, topology: _Topology, applied: Dict[str, int]
    ) -> Optional[Dict[str, object]]:
        if not topology.standbys:
            return None
        deadline = time.monotonic() + self.options.replica_catchup_timeout
        standbys: List[Dict[str, object]] = []
        for endpoint, server in zip(
            topology.standby_endpoints, topology.standbys
        ):
            entry: Dict[str, object] = {"endpoint": endpoint, "tenants": {}}
            for tenant in spec.tenant_names:
                caught_up = False
                replicated = -1
                with ServiceClient(
                    "127.0.0.1", server.port, tenant=tenant
                ) as client:
                    while time.monotonic() < deadline:
                        stats = client.stats()
                        block = stats.get("replication", {})
                        shards = block.get("shards", [])
                        replicated = sum(
                            int(row.get("position", 0)) for row in shards
                        )
                        if int(stats.get("applied", -1)) >= applied[tenant]:
                            caught_up = True
                            break
                        time.sleep(0.2)
                entry["tenants"][tenant] = {
                    "caught_up": caught_up,
                    "replicated_position": replicated,
                }
            standbys.append(entry)
        return {
            "chain_depth": spec.replicas.chain_depth,
            "fanout": spec.replicas.fanout,
            "read_from_standbys": spec.replicas.read_from_standbys,
            "standbys": standbys,
        }

    def _scrape_stages(
        self, spec: BenchSpec, topology: _Topology
    ) -> Dict[str, Dict[str, float]]:
        with ServiceClient("127.0.0.1", topology.primary.port) as admin:
            text = admin.metrics_text()
        _types, samples = parse_prometheus_text(text)
        return stage_table_from_samples(samples, spec.tenant_names)

    # -- saturation ----------------------------------------------------
    def _probe(
        self,
        spec: BenchSpec,
        topology: _Topology,
        stream,
        rate: float,
        index: int,
    ) -> ProbeResult:
        tenant = f"satprobe{index}"
        lag_budget = max(0.25, 0.1 * spec.probe_seconds)
        with ServiceClient(
            "127.0.0.1", topology.primary.port, tenant=tenant
        ) as client:
            client.create_tenant(
                tenant,
                backend=spec.backend,
                shards=spec.shards,
                queue_capacity=spec.queue_capacity,
                params={
                    "epsilon": spec.epsilon,
                    "mu": spec.mu,
                    "rho": spec.rho,
                },
            )
            try:
                generator = LoadGenerator(
                    ClientTarget(client),
                    stream,
                    config=LoadGenConfig(
                        rate=self._requests_rate(spec, rate),
                        ingest_batch=spec.ingest_batch,
                        query_ratio=spec.query_ratio,
                        query_size=spec.query_size,
                        seed=spec.seed,
                        max_seconds=spec.probe_seconds,
                        loop=True,
                    ),
                )
                report = generator.run()
            finally:
                try:
                    client.delete_tenant(tenant)
                except (OSError, ServiceError):  # pragma: no cover - best effort
                    pass
        p99_ms = generator.metrics.ingest.percentile(99) * 1e3
        reject_ratio = report.updates_rejected / max(report.updates_sent, 1)
        problems: List[str] = []
        if reject_ratio > 0.01:
            problems.append(f"shed {reject_ratio:.1%} of updates")
        if report.max_lag_s > lag_budget:
            problems.append(
                f"fell {report.max_lag_s:.2f}s behind the open-loop schedule"
            )
        if p99_ms > spec.slo_p99_ms:
            problems.append(
                f"ingest p99 {p99_ms:.1f}ms over the {spec.slo_p99_ms:g}ms SLO"
            )
        if report.errors:
            problems.append(f"{len(report.errors)} request errors")
        result = ProbeResult(
            rate=rate,
            offered=report.offered_updates_per_second,
            achieved=report.accepted_updates_per_second,
            p99_ms=p99_ms,
            rejected=report.updates_rejected,
            max_lag_s=report.max_lag_s,
            ok=not problems,
            detail="; ".join(problems),
        )
        self._log(
            f"spec {spec.name}: probe @{rate:.0f} upd/s -> "
            f"{'ok' if result.ok else result.detail}"
        )
        return result

    def _saturation(
        self, spec: BenchSpec, topology: _Topology, achieved: float
    ) -> Dict[str, object]:
        stream = self._stream(spec, updates=min(spec.updates, 400))
        hi = max(achieved, 1.0) * 2.0
        counter = {"n": 0}

        def probe(rate: float) -> ProbeResult:
            counter["n"] += 1
            return self._probe(spec, topology, stream, rate, counter["n"])

        best, saturated, probes = search_max_sustainable(
            probe, hi=hi, rounds=spec.saturation_rounds
        )
        return {
            "slo_p99_ms": spec.slo_p99_ms,
            "probe_seconds": spec.probe_seconds,
            "search_ceiling_updates_per_second": hi,
            "saturated": saturated,
            "max_sustainable_updates_per_second": best,
            "probes": [result.as_dict() for result in probes],
        }

    # -- assembling one spec entry -------------------------------------
    def _run_spec(self, spec: BenchSpec) -> Dict[str, object]:
        topology = self._boot(spec)
        try:
            reports, metrics, wall = self._drive(spec, topology)
            applied = self._wait_drained(spec, topology)
            merged = ServiceMetrics.merged(metrics)
            sent = sum(r.updates_sent for r in reports.values())
            accepted = sum(r.updates_accepted for r in reports.values())
            rejected = sum(r.updates_rejected for r in reports.values())
            max_lag = max((r.max_lag_s for r in reports.values()), default=0.0)
            entry: Dict[str, object] = {
                "name": spec.name,
                "spec": spec.as_dict(),
                "ingest": {
                    "updates_sent": sent,
                    "updates_accepted": accepted,
                    "updates_rejected": rejected,
                    "updates_applied": sum(applied.values()),
                    "wall_seconds": wall,
                    "offered_updates_per_second": sent / wall if wall else 0.0,
                    "achieved_updates_per_second": (
                        accepted / wall if wall else 0.0
                    ),
                    "max_lag_s": max_lag,
                    **histogram_summary_ms(merged.ingest),
                },
                "query": histogram_summary_ms(merged.query),
                "stages": self._scrape_stages(spec, topology),
            }
            replication = self._replication_block(spec, topology, applied)
            if replication is not None:
                entry["replication"] = replication
            if spec.saturation_search:
                entry["saturation"] = self._saturation(
                    spec,
                    topology,
                    float(entry["ingest"]["achieved_updates_per_second"]),
                )
            self._log(
                f"spec {spec.name}: done "
                f"({entry['ingest']['achieved_updates_per_second']:.0f} upd/s)"
            )
            return entry
        finally:
            topology.stop()


def run_matrix(
    specs: Sequence[BenchSpec],
    options: Optional[RunnerOptions] = None,
    matrix_path: Optional[str] = None,
) -> Dict[str, object]:
    """Convenience wrapper: one call from the CLI and the tests."""
    return CapacityRunner(specs, options=options).run(matrix_path=matrix_path)
