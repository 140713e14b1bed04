"""Served workload: a durable ``repro serve`` subprocess driven over HTTP.

The server runs in its own process, so the generator never shares its GIL.
Set-up boots the server with ``--data-dir`` (default fsync policy) and
hot-starts the stand-in through ``ServiceClient`` until every edge is
applied and published, ``setup_reps`` times (``setup_s`` is the median).
The first server is kept, never written again, for closed-loop group-bys
and full retrievals (no writes in flight, the same graph at every seed).
The same reads run in rounds spread over the whole run, after each set-up,
after the open loop and between chunks of the replay check, and a read is
reported at its best time over the rounds: the host's speed swings by up
to 1.7x for seconds at a time, and a neighbour's load only ever adds time.
The timed phase, on the last server, is an open loop on one thread and
one keep-alive connection: ingest requests at a fixed rate plus group-by
queries at a fixed rate with a random phase inside each slot, so the two
schedules never lock step.  Every latency of that phase is timed from its
scheduled send time.  A final group-by over every vertex must equal a
sequential ``DynStrClu`` replay of the accepted stream.

A traced run then boots the traced launcher (``serve_traced.py``) and
replays the same open loop against it: spans and OpCounter counts come from
that server, engine stages, views and WAL from the untraced one, and the
ratio of their ``backend_apply`` time per update is the tracing overhead.

End-to-end metrics of this workload:

* ``update_p50_us`` is the freshness of an update, from the scheduled send
  of its ingest request to the first group-by response whose
  ``view_version`` covers it;
* ``groupby_p50_us`` is timed with no writes in flight.
  Beside the writer, a read's latency is a mixture of reads that got the
  GIL at once and reads that waited out the writer's switch interval; its
  median sits on the knee between the two and moved by up to 1.7x between
  runs, so it is reported per layer (``served.mixed_groupby_*``).
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import (
    ROOT,
    WORK,
    CheckFailed,
    check_ledger,
    count_metrics,
    mean_call_us,
    peak_rss_mb,
    percentile,
    self_time_metrics,
)
from repro.core.config import StrCluParams
from repro.core.dynelm import Update
from repro.core.dynstrclu import DynStrClu
from repro.instrumentation import OpCounter
from repro.service import ServiceClient, ServiceError
from repro.service.obs import parse_prometheus_text
from repro.workloads.datasets import dataset_spec
from repro.workloads.updates import generate_update_sequence

import tracing

HERE = Path(__file__).resolve().parent
QUERY_SIZE = 32
#: a send more than this late counts towards ``loadgen.late_share``
LATE_S = 0.001
#: how long set-up and the drain wait for updates to become visible
DRAIN_TIMEOUT_S = 30.0
POLL_S = 0.01
#: updates per hot-start request (the engine's default batch size)
HOT_START_REQUEST = 64
#: group-bys of the traced run's server-side query-time probe
SERVER_PROBES = 500
#: hot-start edges the replay check inserts between two read rounds
REPLAY_CHUNK = 1000
STAGES = ("queue_wait", "wal_append", "backend_apply", "view_publish")


@dataclass(frozen=True)
class ServedWorkload:
    dataset: str
    update_rate: float
    request_size: int
    groupby_rate: float
    #: boots + hot starts per run (at least 2: the first is the read
    #: server); ``setup_s`` is their median
    setup_reps: int
    #: fixed closed-loop group-bys on the hot-started stand-in, and full
    #: retrievals, per read round
    quiet_queries: int
    retrievals: int
    epsilon: float = 0.2
    mu: int = 3
    rho: float = 0.0
    #: tiny mode: hot-start only this many of the stand-in's edges
    edge_limit: int = 0


def tiny(workload: ServedWorkload) -> ServedWorkload:
    """The same workload on a small prefix of the stand-in, for self-tests."""
    return ServedWorkload(
        dataset=workload.dataset,
        update_rate=workload.update_rate,
        request_size=workload.request_size,
        groupby_rate=workload.groupby_rate,
        setup_reps=2,
        quiet_queries=20,
        retrievals=2,
        edge_limit=300,
    )


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess, optionally under the tracing launcher."""

    def __init__(self, workload: ServedWorkload, data_dir: Path, trace_base: Optional[Path]) -> None:
        self.port = _free_port()
        self.trace_base = trace_base
        self.log_path = data_dir.with_suffix(".log")
        serve_args = [
            "--port", str(self.port),
            "--epsilon", str(workload.epsilon),
            "--mu", str(workload.mu),
            "--rho", str(workload.rho),
            "--data-dir", str(data_dir),
        ]
        if trace_base is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_base), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    def wait_healthy(self, timeout: float = 60.0) -> None:
        try:
            ServiceClient.wait_until_healthy("127.0.0.1", self.port, timeout=timeout, interval=POLL_S)
        except RuntimeError as exc:
            raise RuntimeError(f"{exc}\n{self.log_tail()}") from None

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def trace_mark(self, name: str, sig: int) -> Dict:
        """Ask the traced server for a span/count snapshot and read it back."""
        path = self.trace_base.with_suffix(f".{name}.json")
        self.process.send_signal(sig)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"traced server wrote no {name} snapshot\n{self.log_tail()}")
            time.sleep(POLL_S)
        return json.loads(path.read_text())

    def stop(self) -> None:
        """Clean shutdown (SIGINT: final checkpoint), killed if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# ----------------------------------------------------------------------
# /metrics parsing
# ----------------------------------------------------------------------
def engine_totals(text: str) -> Dict[str, float]:
    """The ``/metrics`` sums the per-layer ledger uses, keyed by stage or event."""
    totals: Dict[str, float] = {}
    for sample in parse_prometheus_text(text)[1]:
        name, labels, value = sample.name, sample.labels, sample.value
        if name in ("repro_ingest_stage_seconds_sum", "repro_ingest_stage_seconds_count"):
            key = f"{labels['stage']}_{name.rsplit('_', 1)[1]}"
        elif name in ("repro_query_latency_seconds_sum", "repro_query_latency_seconds_count"):
            key = f"query_{name.rsplit('_', 1)[1]}"
        elif name == "repro_events_total":
            key = labels["event"]
        elif name == "repro_wal_bytes":
            key = "wal_bytes"
        else:
            continue
        totals[key] = totals.get(key, 0.0) + value
    return totals


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _wait_applied(client: ServiceClient, applied: int) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while True:
        stats = client.stats()
        if int(stats["applied"]) >= applied and int(stats["view_version"]) >= applied:
            return
        if time.monotonic() > deadline:
            raise CheckFailed(f"server never applied {applied} updates: {stats.get('applied')}")
        time.sleep(POLL_S)


def _setup(
    workload: ServedWorkload, edges, data_dir: Path, trace_base: Optional[Path]
) -> Tuple[Server, ServiceClient, float, int]:
    """Boot a server and hot-start it; returns the server, its client, the
    elapsed seconds and the number of requests made."""
    start = time.perf_counter()
    server = Server(workload, data_dir, trace_base)
    try:
        server.wait_healthy()
        client = ServiceClient("127.0.0.1", server.port, timeout=30.0)
        requests = 0
        for i in range(0, len(edges), HOT_START_REQUEST):
            chunk = [Update.insert(u, v) for u, v in edges[i : i + HOT_START_REQUEST]]
            if client.submit_updates(chunk) != len(chunk):
                raise CheckFailed("hot-start request not fully accepted")
            requests += 1
        _wait_applied(client, len(edges))
        return server, client, time.perf_counter() - start, requests
    except BaseException:
        server.stop()
        raise


def _schedule(workload: ServedWorkload, updates: int, vertices: int, seconds: float, seed: int):
    """``(time, kind, payload)`` sends of the open loop, in time order; an
    ingest payload is a ``(lo, hi)`` slice of the stream."""
    rng = random.Random(seed)
    events = []
    step = workload.request_size / workload.update_rate
    for i in range(0, updates, workload.request_size):
        events.append((i // workload.request_size * step, "ingest", (i, i + workload.request_size)))
    slot = 1.0 / workload.groupby_rate
    for k in range(int(seconds * workload.groupby_rate)):
        query = rng.sample(range(vertices), min(QUERY_SIZE, vertices))
        events.append(((k + rng.random()) * slot, "groupby", query))
    events.sort(key=lambda event: event[0])
    return events




def _timed(call, samples: List[float]) -> None:
    start = time.perf_counter()
    call()
    samples.append(time.perf_counter() - start)


@dataclass
class OpenLoop:
    """What one pass of the open loop saw, every latency from scheduled send."""

    accepted: List[Update]
    attempted: int
    failed: int
    #: freshness of each fully accepted ingest request, in seconds
    visible: List[float]
    ingest_lat: List[float]
    mixed_lat: List[float]
    lags: List[float]
    #: from the first scheduled send until the last accepted update was visible
    phase_s: float


def _open_loop(client: ServiceClient, schedule, stream: List[Update], m0: int, probe) -> OpenLoop:
    ingests: List[Tuple[float, int]] = []  # (scheduled time, position to cover)
    probes: List[Tuple[float, int]] = []  # (response time, view_version)
    loop = OpenLoop([], 0, 0, [], [], [], [], 0.0)
    start = time.perf_counter()
    for t_sched, kind, payload in schedule:
        due = start + t_sched
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        loop.lags.append(time.perf_counter() - due)
        loop.attempted += 1
        if kind == "groupby":
            try:
                document = client.group_by_raw(payload)
            except (ServiceError, OSError):
                loop.failed += 1
                continue
            done = time.perf_counter() - start
            probes.append((done, int(document["view_version"])))
            loop.mixed_lat.append(done - t_sched)
            continue
        lo, hi = payload
        try:
            taken = client.submit_updates(stream[lo:hi])
        except (ServiceError, OSError) as exc:
            # a shed request may still have applied a prefix
            loop.failed += 1
            taken = getattr(exc, "accepted", 0)
        loop.accepted.extend(stream[lo : lo + taken])
        if taken == hi - lo:
            ingests.append((t_sched, m0 + len(loop.accepted)))
            loop.ingest_lat.append(time.perf_counter() - due)
    # keep probing until the last accepted update is visible
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    position = m0 + len(loop.accepted)
    while not probes or probes[-1][1] < position:
        if time.perf_counter() > deadline:
            raise CheckFailed("accepted updates never became visible")
        time.sleep(POLL_S)
        document = client.group_by_raw(probe)
        probes.append((time.perf_counter() - start, int(document["view_version"])))
    cursor = 0
    for t_sched, target in ingests:
        while probes[cursor][1] < target:
            cursor += 1
        loop.visible.append(probes[cursor][0] - t_sched)
    loop.phase_s = probes[cursor][0]
    return loop


def run(workload: ServedWorkload, name: str, seed: int, seconds: float, trace: bool) -> Dict:
    spec = dataset_spec(workload.dataset)
    edges = spec.load()
    if workload.edge_limit:
        edges = edges[: workload.edge_limit]
    n = spec.num_vertices
    m0 = len(edges)
    requests = max(1, int(seconds * workload.update_rate / workload.request_size))
    stream = generate_update_sequence(
        n, edges, requests * workload.request_size, strategy="DR", eta=1.0, seed=seed
    ).updates
    schedule = _schedule(workload, len(stream), n, seconds, seed)
    rng = random.Random(seed + 1)
    quiet = [rng.sample(range(n), min(QUERY_SIZE, n)) for _ in range(workload.quiet_queries)]
    everything = list(range(n))
    reps = workload.setup_reps

    # the generator and the server (which inherits the mask) share one CPU,
    # so a request hands the CPU straight from one process to the other
    # instead of waking an idle virtual CPU, whose wake-up latency wanders
    # with the host's load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    base = WORK / f"{name}-{os.getpid()}"
    attempted = failed = 0
    setups: List[float] = []
    quiet_lat: List[float] = []
    best_quiet = [math.inf] * len(quiet)
    retrieval: List[float] = []
    servers: List[Server] = []

    def read_round() -> None:
        """The closed-loop reads, once, on the first hot-started server."""
        for q, query in enumerate(quiet):
            _timed(lambda: reader.group_by_raw(query), quiet_lat)
            best_quiet[q] = min(best_quiet[q], quiet_lat[-1])
        for _ in range(workload.retrievals):
            _timed(lambda: reader.group_by_raw(everything), retrieval)

    try:
        # --- set-up: boot + hot start, repeated -------------------------------
        # the first server is kept, never written again, for the closed-loop
        # reads; the last one runs the open loop
        for rep in range(reps):
            if rep >= 2:
                client.close()
                servers.pop().stop()
            server, client, elapsed, hot_requests = _setup(
                workload, edges, base.with_name(f"{base.name}-{rep}"), None
            )
            servers.append(server)
            setups.append(elapsed)
            attempted += hot_requests
            if rep == 0:
                reader = client
            read_round()
        if trace:
            # server-side query time against client latency, on a batch of
            # group-bys alone
            metrics_reads = engine_totals(client.metrics_text())
            server_lat: List[float] = []
            for query in quiet[:SERVER_PROBES]:
                _timed(lambda: client.group_by_raw(query), server_lat)
            metrics_quiet = engine_totals(client.metrics_text())
            attempted += len(server_lat)
            metrics_before = engine_totals(client.metrics_text())
            stats_before = client.stats()

        # --- the timed open loop ------------------------------------------------
        loop = _open_loop(client, schedule, stream, m0, quiet[0])
        attempted += loop.attempted
        failed += loop.failed
        if trace:
            metrics_after = engine_totals(client.metrics_text())
            stats_after = client.stats()
        final = client.group_by_raw(everything)
        rss = peak_rss_mb(server.process.pid)
        client.close()
        servers.pop().stop()
        read_round()

        # --- traced run: the same open loop against a traced server ------------
        if trace:
            server, client, _elapsed, hot_requests = _setup(
                workload, edges, base.with_name(f"{base.name}-traced"),
                base.with_name(f"{base.name}-trace"),
            )
            servers.append(server)
            attempted += hot_requests
            traced_before = engine_totals(client.metrics_text())
            mark = server.trace_mark("mark", signal.SIGUSR1)
            traced = _open_loop(client, schedule, stream, m0, quiet[0])
            attempted += traced.attempted
            failed += traced.failed
            end = server.trace_mark("end", signal.SIGUSR2)
            traced_after = engine_totals(client.metrics_text())
            client.close()
            servers.pop().stop()

        # --- output check: a sequential replay of the accepted stream -----------
        # (in chunks, with a read round after each)
        counter = OpCounter()
        replay = DynStrClu(
            StrCluParams(epsilon=workload.epsilon, mu=workload.mu, rho=workload.rho), counter=counter
        )
        for i, (u, v) in enumerate(edges):
            replay.insert_edge(u, v)
            if (i + 1) % REPLAY_CHUNK == 0:
                read_round()
        hot_counts = counter.snapshot()
        for update in loop.accepted:
            replay.apply(update)
        read_round()
        attempted += len(quiet_lat) + len(retrieval)
        reader.close()
    finally:
        for server in servers:
            server.stop()
        for path in WORK.glob(f"{base.name}-*"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()

    stream_counts = {op: value - hot_counts.get(op, 0) for op, value in counter.snapshot().items()}
    stream_counts["memory_words"] = replay.memory_words()
    served_groups = {frozenset(members) for members in final["groups"].values()}
    replay_groups = {frozenset(group) for group in replay.group_by(range(n)).as_sets()}
    if served_groups != replay_groups:
        raise CheckFailed("served group-by differs from the sequential DynStrClu replay")
    key = f"{name}/seed={seed}/edges={m0}/updates={len(loop.accepted)}"
    mismatch = check_ledger(key, stream_counts)
    if trace:
        # the traced server's own counts over its timed phase: the same
        # updates on the same hot-started graph, so they repeat too
        server_counts = {k: v - mark["counts"].get(k, 0) for k, v in end["counts"].items()}
        server_key = f"{name}/seed={seed}/edges={m0}/updates={len(traced.accepted)}/server"
        mismatch = mismatch or check_ledger(server_key, server_counts)
    if mismatch:
        raise CheckFailed(mismatch)

    end_to_end = {
        "setup_s": statistics.median(setups),
        "update_throughput": len(loop.accepted) / loop.phase_s,
        "update_p50_us": percentile(loop.visible, 50) * 1e6,
        # each query at its best over the servers and passes
        "groupby_p50_us": percentile(best_quiet, 50) * 1e6,
        "retrieval_ms": min(retrieval) * 1e3,
        "peak_rss_mb": rss,
    }
    report = {
        "samples": {
            "setup": len(setups),
            "ingest_requests": len(loop.ingest_lat),
            "updates": len(loop.accepted),
            "mixed_groupby": len(loop.mixed_lat),
            "quiet_groupby": len(quiet_lat),
            "retrieval": len(retrieval),
        },
        "stand_in": {"dataset": workload.dataset, "vertices": n, "m0": m0},
    }
    per_layer: Dict[str, float] = {}
    if trace:
        untraced_delta = _delta(metrics_after, metrics_before)
        traced_delta = _delta(traced_after, traced_before)
        per_layer = _per_layer(
            mark, end, server_counts, untraced_delta, traced_delta, stats_before, stats_after,
            len(loop.accepted), len(traced.accepted),
        )
        query_us = (metrics_quiet["query_sum"] - metrics_reads["query_sum"]) * 1e6 / (
            metrics_quiet["query_count"] - metrics_reads["query_count"]
        )
        per_layer.update({
            "core.dynstrclu.memory_words": float(stream_counts["memory_words"]),
            "service.server.query_us": query_us,
            "service.server.http_overhead_us": percentile(server_lat, 50) * 1e6 - query_us,
            "tail.update_p99_us": percentile(loop.visible, 99) * 1e6,
            "tail.update_samples": float(len(loop.visible)),
            "tail.groupby_p99_us": percentile(quiet_lat, 99) * 1e6,
            "tail.groupby_samples": float(len(quiet_lat)),
            "served.ingest_p50_us": percentile(loop.ingest_lat, 50) * 1e6,
            "served.ingest_p99_us": percentile(loop.ingest_lat, 99) * 1e6,
            "served.ingest_samples": float(len(loop.ingest_lat)),
            "served.mixed_groupby_p50_us": percentile(loop.mixed_lat, 50) * 1e6,
            "served.mixed_groupby_p99_us": percentile(loop.mixed_lat, 99) * 1e6,
            "served.mixed_groupby_samples": float(len(loop.mixed_lat)),
            "loadgen.max_lag_ms": max(loop.lags) * 1e3,
            "loadgen.late_share": sum(lag > LATE_S for lag in loop.lags) / len(loop.lags),
            "trace.overhead": _apply_per_update(traced_delta) / _apply_per_update(untraced_delta),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}


def _apply_per_update(delta: Dict[str, float]) -> float:
    return delta["backend_apply_sum"] / delta["updates_applied"]


def _per_layer(
    mark, end, counts, untraced, traced, stats_before, stats_after, updates: int, traced_updates: int
) -> Dict[str, float]:
    """Per-layer metrics of the timed phase, per accepted stream update.

    Engine stages, views and WAL come from the untraced server's ``/metrics``
    and stats; spans and counts from the traced server's."""
    spans = tracing.diff(
        {k: tuple(v) for k, v in end["spans"].items()},
        {k: tuple(v) for k, v in mark["spans"].items()},
    )
    out = {
        **count_metrics(counts, traced_updates),
        **self_time_metrics(spans, traced_updates),
        "connectivity.component_id_us": mean_call_us(spans, "connectivity:component_id"),
    }
    for stage in STAGES:
        out[f"service.engine.{stage}_ms"] = untraced[f"{stage}_sum"] * 1e3 / untraced[f"{stage}_count"]
    out["service.engine.updates_per_batch"] = untraced["updates_applied"] / untraced["batches"]
    incremental = untraced.get("view_capture_incremental", 0.0)
    out["service.views.incremental_share"] = incremental / (
        incremental + untraced.get("view_capture_full", 0.0)
    )
    flips_before = stats_before["metrics"]["view_capture"]["flip_set_size"]
    flips_after = stats_after["metrics"]["view_capture"]["flip_set_size"]
    out["service.views.flip_set_mean"] = (flips_after["total"] - flips_before["total"]) / (
        flips_after["count"] - flips_before["count"]
    )
    out["persistence.wal_bytes_per_update"] = untraced["wal_bytes"] / updates
    # the traced layers all run inside the writer's wal_append,
    # backend_apply and view_publish stages
    pipeline_ns = sum(traced[f"{stage}_sum"] for stage in STAGES[1:]) * 1e9
    out["trace.coverage"] = sum(tracing.layer_self_ns(spans).values()) / pipeline_ns
    return out
