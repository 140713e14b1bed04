#!/usr/bin/env python
"""Time-travel smoke gate: historical ``as_of`` reads against a live service.

The CI counterpart of the time-travel subsystem's core promise, exercised
end-to-end through real processes:

1. start a ``repro serve`` subprocess with a data root and a checkpoint
   cadence, and create two durable tenants: ``solo`` (1 shard) and
   ``wide`` (4 shards);
2. drive it with ``repro loadgen`` (a mixed two-tenant stream), recording
   the ``solo`` tenant's applied positions mid-run;
3. query **three historical positions** plus ``as_of=latest`` on ``solo``
   and assert each equals an **offline replay** of the on-disk state
   (:func:`repro.persistence.state_at`: the newest retained snapshot
   anchor at or below the position, then the WAL up to it);
4. assert the ``wide`` tenant's per-shard ``as_of`` tuple (recorded at a
   quiescent boundary, then overtaken by fresh writes) equals the same
   offline replay per shard, merged as the live read path merges, in
   both its groups and its edge count;
5. assert a repeated query is served from the **materialised-view LRU**
   (hit counter up, replay count unchanged) and that history pruned past
   the retention horizon answers a structured **410 as_of_unavailable**
   carrying the oldest replayable position.

Exits non-zero (with a diagnostic) on any violation — wired into CI as
the ``timetravel-smoke`` job.  Run locally with::

    PYTHONPATH=src python scripts/smoke_timetravel.py
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from pathlib import Path

from repro.bench.runner import SubprocessServer, stop_processes
from repro.core.dynelm import Update
from repro.service import ServiceClient, ServiceError

from _smoke import (
    SOLO,
    WIDE,
    describe,
    fail,
    groups_of,
    reference,
    start_loadgen,
    wait_healthy,
)

UPDATES = 6000
CHECKPOINT_EVERY = 150
PROBE = [f"{tenant}:{i}" for tenant in (SOLO, WIDE) for i in range(120)]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="timetravel-smoke-"))
    data_root = tmp / "data"
    server = SubprocessServer(
        ["--checkpoint-every", str(CHECKPOINT_EVERY),
         "--epsilon", "0.15", "--mu", "2", "--rho", "0"],
        data_root,
    )
    port = server.port
    loadgen: subprocess.Popen | None = None
    try:
        wait_healthy(server, timeout=20.0)
        admin = ServiceClient("127.0.0.1", port)
        solo_client = admin.for_tenant(SOLO)
        wide_client = admin.for_tenant(WIDE)
        solo_row = admin.create_tenant(SOLO, shards=1)
        wide_row = admin.create_tenant(WIDE, shards=4)
        if solo_row["shards"] != 1 or wide_row["shards"] != 4:
            fail(f"unexpected tenant shapes: {solo_row} / {wide_row}")

        # --- drive the service, recording positions mid-run -------------
        loadgen = start_loadgen(port, UPDATES)
        recorded: list[int] = []
        while loadgen.poll() is None:
            applied = int(solo_client.stats()["applied"])
            if applied and (not recorded or applied > recorded[-1]):
                recorded.append(applied)
            time.sleep(0.25)
        if loadgen.wait(timeout=60) != 0:
            fail("repro loadgen exited non-zero")
        loadgen = None
        if not recorded:
            fail("no positions were recorded mid-run")

        # let the tail of the stream drain (positions stabilise)
        deadline = time.monotonic() + 30.0
        previous = -1
        while time.monotonic() < deadline:
            applied = int(solo_client.stats()["applied"])
            if applied == previous:
                break
            previous = applied
            time.sleep(0.3)
        solo_applied = previous
        print(f"stream drained: solo at {solo_applied}, "
              f"{len(recorded)} mid-run positions recorded")

        # --- three historical positions + latest on the solo tenant -----
        stats = solo_client.stats()
        horizon = stats["wal"]
        oldest = int(horizon["oldest_replayable"])
        if horizon["durable"] is not True or horizon["segments"] < 1:
            fail(f"solo horizon looks wrong: {horizon}")
        replayable = [p for p in recorded if oldest <= p < solo_applied]
        positions = sorted(set(replayable))[-3:]
        while len(positions) < 3:  # thin recording: synthesise nearby cuts
            positions.append(max(oldest, solo_applied - 7 * (len(positions) + 1)))
        for position in sorted(set(positions)):
            expected, edges, vertices = reference(data_root / SOLO, [position])
            document = solo_client.group_by_raw(vertices, as_of=position)
            if document["view_version"] != position or document["as_of"] != [position]:
                fail(f"as_of={position} answered {document['view_version']}")
            if groups_of(document) != expected:
                fail(
                    f"solo as_of={position} diverged from the offline "
                    f"replay: {len(groups_of(document) ^ expected)} differing groups"
                )
            historical_stats = solo_client.stats(as_of=position)
            if historical_stats["num_edges"] != edges:
                fail(
                    f"solo as_of={position} graph diverged: view has "
                    f"{historical_stats['num_edges']} edges, reference {edges}"
                )
            print(f"solo as_of={position} matches offline replay "
                  f"({describe(expected, edges)})")
        latest = solo_client.group_by_raw(vertices, as_of="latest")
        live = solo_client.group_by_raw(vertices)
        if latest["as_of"] != "latest" or groups_of(latest) != groups_of(live):
            fail("as_of=latest does not serve the live view")
        print("solo as_of=latest serves the live view")

        # --- LRU: a repeated query must not replay again -----------------
        repeat = sorted(set(positions))[-1]
        before = solo_client.stats()["timetravel"]
        solo_client.group_by_raw(PROBE, as_of=repeat)
        after = solo_client.stats()["timetravel"]
        if after["hits"] <= before["hits"]:
            fail(f"repeated as_of={repeat} was not an LRU hit: {before} -> {after}")
        if after["replay"]["count"] != before["replay"]["count"]:
            fail(f"repeated as_of={repeat} re-replayed: {before} -> {after}")
        print(
            f"LRU serves repeats without replaying "
            f"(hits {after['hits']}, replays {after['replay']['count']})"
        )

        # --- pruned history answers a structured 410 ---------------------
        if oldest <= 1:
            fail(f"retention never pruned (oldest replayable {oldest}); "
                  "the 410 path was not exercised")
        try:
            solo_client.group_by_raw(PROBE, as_of=1)
            fail("as_of=1 below the horizon did not fail")
        except ServiceError as exc:
            if exc.status != 410 or exc.code != "as_of_unavailable":
                fail(f"expected 410 as_of_unavailable, got {exc.status} {exc.code}")
            if exc.document.get("oldest_position") != oldest:
                fail(f"410 oldest_position {exc.document.get('oldest_position')} "
                      f"!= horizon {oldest}")
        print(f"pruned history answers 410 with oldest_position={oldest}")

        # --- sharded tuple on the wide tenant ----------------------------
        tuple_positions = [
            int(row["applied"]) for row in wide_client.stats()["shards"]
        ]
        fresh = [
            Update.insert(f"{WIDE}:new0", f"{WIDE}:new1"),
            Update.insert(f"{WIDE}:new1", f"{WIDE}:new2"),
            Update.insert(f"{WIDE}:new0", f"{WIDE}:new2"),
        ]
        if wide_client.submit_updates(fresh, max_retries=5) != len(fresh):
            fail("post-run writes to the wide tenant were shed")
        write_deadline = time.monotonic() + 20.0
        while time.monotonic() < write_deadline:
            rows = [int(row["applied"]) for row in wide_client.stats()["shards"]]
            if sum(rows) >= sum(tuple_positions) + len(fresh):
                break
            time.sleep(0.1)
        else:
            fail("post-run wide writes never applied")
        expected, edges, vertices = reference(data_root / WIDE, tuple_positions)
        document = wide_client.group_by_raw(vertices, as_of=tuple_positions)
        if groups_of(document) != expected:
            fail(
                f"wide as_of={tuple_positions} diverged from the offline "
                f"replay: {len(groups_of(document) ^ expected)} differing groups"
            )
        historical_edges = wide_client.stats(as_of=tuple_positions)["num_edges"]
        if historical_edges != edges:
            fail(
                f"wide as_of={tuple_positions} graph diverged: view has "
                f"{historical_edges} edges, reference {edges}"
            )
        print(f"wide as_of={tuple_positions} matches offline replay "
              f"({describe(expected, edges)})")

        solo_client.close()
        wide_client.close()
        admin.close()
        print("timetravel smoke passed")
        return 0
    finally:
        stop_processes(loadgen, server.process)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
