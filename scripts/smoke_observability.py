#!/usr/bin/env python
"""Observability smoke gate: scrape-able metrics + end-to-end tracing.

The CI counterpart of the observability surface's two promises:

1. start a primary ``repro serve`` subprocess, create a **4-shard
   durable** tenant, and a second ``repro serve`` subprocess hosting a
   **standby** of that tenant (WAL shipping over HTTP);
2. drive the primary with ``repro loadgen --trace`` so every ingest
   batch carries a client-supplied ``X-Repro-Trace`` id;
3. scrape ``GET /metrics``, parse it with the strict exposition parser,
   and assert every shard (0–3) recorded ingest batches and all four
   ingest pipeline stages (histogram ``+Inf`` buckets equal ``_count``
   by parser construction — malformed text fails the parse itself);
4. pick one traced id off the primary's span ring and assert the *same*
   id is observable at every hop: ``http.request`` → ``router.route`` →
   ``shard.apply`` on the primary, and — in the standby's own process,
   having ridden beside the WAL records — ``standby.replay``;
5. once the standby reports zero lag, scrape *its* ``/metrics``: every
   tenant row carries ``role="standby"``, ``repro_replication_lag`` is
   present, and the ``router`` row's applied position equals the
   standby's ``applied``.

Exits non-zero (with a diagnostic) on any violation.  Run locally with::

    PYTHONPATH=src python scripts/smoke_observability.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.runner import SubprocessServer, stop_processes
from repro.cli import main as repro_main
from repro.service import ServiceClient, parse_prometheus_text

from _smoke import SERVE_FLAGS, fail, wait_healthy

TENANT = "t"
SHARDS = 4
UPDATES = 300


def _check_metrics(admin: ServiceClient) -> None:
    text = admin.metrics_text()
    try:
        types, samples = parse_prometheus_text(text)
    except ValueError as exc:
        fail(f"/metrics failed strict parsing: {exc}")
    if types.get("repro_ingest_latency_seconds") != "histogram":
        fail(f"missing histogram TYPE line; got {sorted(types)}")

    batch_counts = {
        s.labels["shard"]: s.value
        for s in samples
        if s.name == "repro_ingest_latency_seconds_count"
        and s.labels.get("tenant") == TENANT
    }
    for shard in map(str, range(SHARDS)):
        if batch_counts.get(shard, 0) <= 0:
            fail(f"shard {shard} recorded no ingest batches: {batch_counts}")

    stage_buckets = {}
    for s in samples:
        if (
            s.name == "repro_ingest_stage_seconds_bucket"
            and s.labels.get("tenant") == TENANT
            and s.labels.get("le") == "+Inf"
        ):
            key = (s.labels["shard"], s.labels["stage"])
            stage_buckets[key] = s.value
    expected_stages = {"queue_wait", "wal_append", "backend_apply", "view_publish"}
    for shard in map(str, range(SHARDS)):
        stages = {stage for (s, stage), v in stage_buckets.items()
                  if s == shard and v > 0}
        if stages != expected_stages:
            fail(
                f"shard {shard} missing stage samples: have {sorted(stages)}, "
                f"want {sorted(expected_stages)}"
            )
    print(f"metrics OK: per-shard batch counts {batch_counts}")


def _traced_spans(client: ServiceClient, trace_id: str | None = None):
    return client.debug_traces(trace_id=trace_id, limit=5000)["spans"]


def _check_tracing(admin: ServiceClient, standby_admin: ServiceClient) -> None:
    # every loadgen batch minted its own id; find one that reached a shard
    candidates = {}
    for span in _traced_spans(admin):
        if span["name"] in ("router.route", "shard.apply", "http.request"):
            candidates.setdefault(span["trace_id"], set()).add(span["name"])
    full = [
        tid for tid, names in candidates.items()
        if {"http.request", "router.route", "shard.apply"} <= names
    ]
    if not full:
        fail(f"no trace crossed http.request→router→shard: {candidates}")

    # the same ids must surface in the standby process once replay catches
    # up — they travelled beside the WAL records, not in this process
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        for tid in full:
            replayed = [
                s for s in _traced_spans(standby_admin, trace_id=tid)
                if s["name"] == "standby.replay"
            ]
            if replayed:
                print(
                    f"tracing OK: trace {tid} spans router→shard on the "
                    f"primary and {len(replayed)} standby.replay span(s) "
                    f"on the standby"
                )
                return
        time.sleep(0.3)
    fail(f"no standby.replay span for any of {len(full)} full traces")


def _check_standby_metrics(standby_admin: ServiceClient) -> None:
    # scrape once replay has caught up and the position held still across
    # the scrape; every row must say standby, and the router row carries
    # the tenant's applied position (replay bypasses the router)
    with standby_admin.for_tenant(TENANT) as client:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            before = client.stats()
            if before["replication"]["lag"] == 0:
                _types, samples = parse_prometheus_text(
                    standby_admin.metrics_text()
                )
                if client.stats()["applied"] == before["applied"]:
                    break
            time.sleep(0.2)
        else:
            fail("standby never caught up with the primary within 30 s")
    applied = before["applied"]
    rows = [s for s in samples if s.labels.get("tenant") == TENANT]
    roles = {s.labels["role"] for s in rows}
    if roles != {"standby"}:
        fail(f"standby /metrics rows carry roles {sorted(roles)}")
    if not any(s.name == "repro_replication_lag" for s in rows):
        fail("standby /metrics has no repro_replication_lag sample")
    router = [
        s.value for s in rows
        if s.name == "repro_applied_position" and s.labels["shard"] == "router"
    ]
    if router != [applied]:
        fail(f"standby router row reads {router}, stats applied is {applied}")
    print(f"standby metrics OK: router row at applied position {applied}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="smoke-obs-") as root:
        primary = SubprocessServer(SERVE_FLAGS, Path(root, "primary"))
        standby = SubprocessServer(SERVE_FLAGS, Path(root, "standby"))
        primary_port, standby_port = primary.port, standby.port
        try:
            wait_healthy(primary, standby, timeout=15.0)
            with ServiceClient("127.0.0.1", primary_port) as admin, \
                    ServiceClient("127.0.0.1", standby_port) as standby_admin:
                row = admin.create_tenant(TENANT, shards=SHARDS)
                if row["shards"] != SHARDS:
                    fail(f"unexpected tenant shape: {row}")
                standby_admin.create_tenant(
                    TENANT, replica_of=f"127.0.0.1:{primary_port}"
                )

                status = repro_main(
                    [
                        "loadgen",
                        "--port", str(primary_port),
                        "--tenant", TENANT,
                        "--dataset", "email",
                        "--updates", str(UPDATES),
                        "--query-ratio", "0.1",
                        "--seed", "0",
                        "--trace",
                    ]
                )
                if status != 0:
                    fail(f"repro loadgen exited with status {status}")

                # drain: applied stable across two polls
                deadline = time.monotonic() + 60.0
                previous, drained = None, False
                while time.monotonic() < deadline:
                    rows = {r["tenant"]: r for r in admin.list_tenants()}
                    state = (
                        rows.get(TENANT, {}).get("queue_depth", 1),
                        rows.get(TENANT, {}).get("applied", -1),
                    )
                    if state[0] == 0 and state[1] > 0 and state == previous:
                        drained = True
                        break
                    previous = state
                    time.sleep(0.2)
                if not drained:
                    fail(f"ingest never drained within 60 s: {previous}")

                _check_metrics(admin)
                _check_tracing(admin, standby_admin)
                _check_standby_metrics(standby_admin)
        finally:
            stop_processes(standby.process, primary.process)
    print("SMOKE OK: metrics exposition (primary + standby) + end-to-end tracing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
