#!/usr/bin/env python
"""Sharded smoke gate: a 4-shard and a 1-shard tenant must agree exactly.

The CI counterpart of the sharded engine's core promise:

1. start ``repro serve`` as a real subprocess (the v1 JSON/HTTP service);
2. create tenant ``flat`` (1 shard) and tenant ``wide`` (4 shards) and
   drive both with ``repro loadgen`` using the *same* dataset, update
   count and seed — two identical streams into two engine shapes;
3. assert **cluster-equivalence** from the outside: once both queues
   drain, the two tenants report the same applied count and partition a
   probe set identically (group-by answers are equal as set partitions,
   and the headline clustering statistics match);
4. assert **isolation and shape**: the untouched ``default`` tenant stays
   empty, ``wide`` reports 4 per-shard stat rows over the v1 surface, and
   ``/v1/healthz`` exposes its per-shard queue depths.

Exits non-zero (with a diagnostic) on any violation — wired into CI as the
sharded smoke gate.  Run locally with::

    PYTHONPATH=src python scripts/smoke_sharded.py
"""

from __future__ import annotations

import time

from repro.bench.runner import SubprocessServer
from repro.cli import main as repro_main
from repro.service import ServiceClient

from _smoke import SERVE_FLAGS, fail, wait_healthy

UPDATES = 400
FLAT, WIDE = "flat", "wide"
PROBE = list(range(1005))


def _drive(port: int, tenant: str) -> None:
    status = repro_main(
        [
            "loadgen",
            "--port",
            str(port),
            "--tenant",
            tenant,
            "--dataset",
            "email",
            "--updates",
            str(UPDATES),
            "--query-ratio",
            "0.1",
            "--seed",
            "0",
        ]
    )
    if status != 0:
        fail(f"repro loadgen against {tenant!r} exited with status {status}")


def main() -> int:
    server = SubprocessServer(SERVE_FLAGS)
    port = server.port
    try:
        wait_healthy(server, timeout=15.0)
        with ServiceClient("127.0.0.1", port) as admin:
            flat_row = admin.create_tenant(FLAT, shards=1)
            wide_row = admin.create_tenant(WIDE, shards=4)
            if flat_row["shards"] != 1 or wide_row["shards"] != 4:
                fail(f"unexpected tenant shapes: {flat_row} / {wide_row}")

            # identical streams into both engine shapes
            _drive(port, FLAT)
            _drive(port, WIDE)

            # wait for both ingest pipelines to drain: queue_depth == 0 is
            # necessary but not sufficient (a popped batch may still be
            # mid-apply), so require the applied counters to be equal
            # across the two tenants AND stable across two polls — and
            # fail loudly if that never happens within the deadline
            deadline = time.monotonic() + 60.0
            previous = None
            drained = False
            while time.monotonic() < deadline:
                rows = {row["tenant"]: row for row in admin.list_tenants()}
                state = tuple(
                    (rows.get(t, {}).get("queue_depth", 1),
                     rows.get(t, {}).get("applied", -1))
                    for t in (FLAT, WIDE)
                )
                depths_zero = all(depth == 0 for depth, _applied in state)
                applied_equal = state[0][1] == state[1][1] >= 0
                if depths_zero and applied_equal and state == previous:
                    drained = True
                    break
                previous = state
                time.sleep(0.2)
            if not drained:
                fail(f"ingest never drained within 60 s: {previous}")
            # the sharded tenant's `applied` counts *routed* updates, so a
            # final batch can still be mid-apply: wait (on a fresh budget)
            # until its published per-shard view versions are stable
            # across two polls too, and fail loudly if they never are
            wide_probe = admin.for_tenant(WIDE)
            stable_deadline = time.monotonic() + 30.0
            versions = None
            stable = False
            while time.monotonic() < stable_deadline:
                current = tuple(wide_probe.stats().get("shard_versions", []))
                if current and current == versions:
                    stable = True
                    break
                versions = current
                time.sleep(0.2)
            wide_probe.close()
            if not stable:
                fail(f"wide tenant's shard versions never stabilised: {versions}")
            rows = {row["tenant"]: row for row in admin.list_tenants()}

            # --- cluster-equivalence -----------------------------------
            if rows[FLAT]["applied"] != rows[WIDE]["applied"]:
                fail(
                    f"applied counts diverge: flat={rows[FLAT]['applied']} "
                    f"wide={rows[WIDE]['applied']}"
                )
            if rows[FLAT]["applied"] <= 0:
                fail("no updates were applied")
            flat = admin.for_tenant(FLAT)
            wide = admin.for_tenant(WIDE)
            flat_groups = {
                frozenset(g) for g in flat.group_by(PROBE).as_sets()
            }
            wide_groups = {
                frozenset(g) for g in wide.group_by(PROBE).as_sets()
            }
            if flat_groups != wide_groups:
                only_flat = flat_groups - wide_groups
                only_wide = wide_groups - flat_groups
                fail(
                    "cluster-equivalence violated: "
                    f"{len(only_flat)} groups only in flat, "
                    f"{len(only_wide)} only in wide"
                )
            flat_stats, wide_stats = flat.stats(), wide.stats()
            for key in ("clusters", "cores", "hubs", "noise", "num_edges"):
                if flat_stats[key] != wide_stats[key]:
                    fail(
                        f"stats diverge on {key!r}: "
                        f"flat={flat_stats[key]} wide={wide_stats[key]}"
                    )

            # --- shape and isolation -----------------------------------
            if wide_stats.get("num_shards") != 4:
                fail(f"wide tenant lost its shards: {wide_stats.get('num_shards')}")
            shard_rows = wide_stats.get("shards", [])
            if [row.get("shard") for row in shard_rows] != [0, 1, 2, 3]:
                fail(f"per-shard stats rows malformed: {shard_rows}")
            health = admin.healthz()
            depths = health.get("shards", {}).get("queue_depths", {})
            if WIDE not in depths or len(depths[WIDE]) != 4:
                fail(f"healthz lacks per-shard depths for wide: {health}")
            if rows["default"]["applied"] != 0:
                fail(f"default tenant was polluted: {rows['default']}")
            default_probe = admin.group_by(PROBE[:200])
            if default_probe.groups:
                fail(f"isolation violated: default sees {default_probe.groups}")
            flat.close()
            wide.close()

        print(
            "SMOKE OK: 1-shard and 4-shard tenants applied "
            f"{rows[FLAT]['applied']} identical updates each, "
            f"{len(flat_groups)} clusters agree exactly, default untouched"
        )
        return 0
    finally:
        server.stop()


if __name__ == "__main__":
    raise SystemExit(main())
