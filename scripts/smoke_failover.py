#!/usr/bin/env python
"""Failover smoke gate: kill the primary mid-stream, promote the standby.

The CI counterpart of the replication subsystem's core promise, exercised
end-to-end through real processes:

1. start a **primary** ``repro serve`` subprocess with a data root and
   create two durable tenants on it: ``solo`` (1 shard) and ``wide``
   (4 shards);
2. start a **standby** ``repro serve`` subprocess and create both tenants
   there as ``replica_of`` the primary — WAL shippers begin replaying;
3. drive the primary with ``repro loadgen`` (a mixed two-tenant stream)
   and ``SIGKILL`` the primary mid-stream once the standby has replicated
   a minimum prefix;
4. **promote** both standby tenants (one through ``repro promote``, one
   through the client API) — the primary being dead, fencing is skipped;
5. assert **exact cluster equivalence at the acked WAL position**: for
   each tenant, rebuild the primary's state offline from its on-disk
   snapshots + WAL at the standby's acked per-shard positions
   (:func:`repro.persistence.state_at`), and require the promoted
   standby to partition every vertex of that state identically and to
   hold the same number of edges;
6. assert **post-promotion writes succeed** against both promoted tenants.

Exits non-zero (with a diagnostic) on any violation — wired into CI as
the ``failover-smoke`` job.  Run locally with::

    PYTHONPATH=src python scripts/smoke_failover.py

**Zero-operator mode** (``--auto [ROUNDS]``, the CI ``fleet-smoke``
job): no promotion is issued by hand.  A fleet of ``1 + 2*ROUNDS``
servers replicates both tenants, one ``repro watchdog`` sidecar probes
every primary, and live writers drive both tenants through a replica-set
:class:`ServiceClient` (writes re-route to whichever endpoint holds the
primary role).  The script then:

1. ``SIGSTOP``\\ s the primary for well under the quorum window and
   asserts the watchdog does **not** promote (transient partitions are
   suppressed);
2. pauses the writers, then ``SIGKILL``\\ s every primary-hosting server
   while replication is still in flight, round after round, and asserts
   the watchdog promotes a replacement within the probe budget, that
   exactly one server claims the primary role per tenant (no dueling
   promotion), that surviving standbys are re-parented onto the winner,
   and that the promoted clustering exactly equals an offline replay of
   the dead primary's disk at the promoted positions;
3. resumes the writers and asserts ingest flows into each new primary.

The watchdog's decision log lands in ``--decision-log`` (default
``./watchdog_decisions.jsonl``) — CI uploads it as an artifact when the
gate fails.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.runner import SubprocessServer, stop_processes
from repro.core.dynelm import Update
from repro.service import ServiceClient, ServiceError

from _smoke import (
    SERVE_FLAGS,
    SOLO,
    WIDE,
    describe,
    fail,
    groups_of,
    reference,
    start_loadgen,
    wait_healthy,
)

UPDATES = 12000
MIN_REPLICATED = 300  # positions each tenant must reach before the kill


def _standby_positions(client: ServiceClient) -> list[int]:
    block = client.stats().get("replication")
    if not isinstance(block, dict):
        fail(f"tenant {client.tenant!r} has no replication stats block")
    return [int(row["position"]) for row in block["shards"]]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="failover-smoke-"))
    primary_root = tmp / "primary"
    standby_root = tmp / "standby"
    primary = SubprocessServer(SERVE_FLAGS, primary_root)
    standby = SubprocessServer(SERVE_FLAGS, standby_root)
    primary_port, standby_port = primary.port, standby.port
    loadgen: subprocess.Popen | None = None
    try:
        wait_healthy(primary, standby, timeout=20.0)
        with ServiceClient("127.0.0.1", primary_port) as admin:
            solo_row = admin.create_tenant(SOLO, shards=1)
            wide_row = admin.create_tenant(WIDE, shards=4)
            if solo_row["shards"] != 1 or wide_row["shards"] != 4:
                fail(f"unexpected tenant shapes: {solo_row} / {wide_row}")

        standby_admin = ServiceClient("127.0.0.1", standby_port)
        solo_client = standby_admin.for_tenant(SOLO)
        wide_client = standby_admin.for_tenant(WIDE)
        for name in (SOLO, WIDE):
            row = standby_admin.create_tenant(
                name, replica_of=f"127.0.0.1:{primary_port}"
            )
            if row.get("replica_of") != f"127.0.0.1:{primary_port}":
                fail(f"standby tenant {name!r} not marked as a replica: {row}")

        # --- drive the primary, kill it mid-stream ---------------------
        loadgen = start_loadgen(primary_port, UPDATES)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            solo_done = min(_standby_positions(solo_client), default=0)
            wide_done = min(_standby_positions(wide_client), default=0)
            if solo_done >= MIN_REPLICATED and wide_done >= MIN_REPLICATED // 4:
                break
            if loadgen.poll() is not None and solo_done and wide_done:
                break  # stream ended before the threshold: proceed anyway
            time.sleep(0.1)
        else:
            fail("standby never replicated the minimum prefix")
        mid_stream = loadgen.poll() is None
        primary.process.send_signal(signal.SIGKILL)
        primary.process.wait(timeout=30)
        print(
            f"primary killed ({'mid-stream' if mid_stream else 'after stream end'}); "
            f"solo at {_standby_positions(solo_client)}, "
            f"wide at {_standby_positions(wide_client)}",
        )
        loadgen.wait(timeout=120)  # it will error out against the dead server
        loadgen = None

        # positions must stabilise once the shippers lose the primary
        stable_deadline = time.monotonic() + 30.0
        previous: tuple | None = None
        while time.monotonic() < stable_deadline:
            state = (
                tuple(_standby_positions(solo_client)),
                tuple(_standby_positions(wide_client)),
            )
            if state == previous:
                break
            previous = state
            time.sleep(0.3)
        else:
            fail(f"standby positions never stabilised: {previous}")
        solo_positions, wide_positions = previous
        if solo_positions[0] < 1 or min(wide_positions) < 1:
            fail(f"nothing replicated: {previous}")

        # --- promote both tenants --------------------------------------
        promote_cli = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "promote",
                "--port",
                str(standby_port),
                "--tenant",
                SOLO,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if promote_cli.returncode != 0:
            fail(f"repro promote failed: {promote_cli.stderr}")
        wide_promotion = wide_client.promote_tenant()
        if not wide_promotion.get("promoted") or wide_promotion.get("epoch", 0) < 1:
            fail(f"wide promotion incomplete: {wide_promotion}")

        # --- exact cluster equivalence at the acked positions ----------
        solo_reference, solo_edges, solo_vertices = reference(
            primary_root / SOLO, list(solo_positions)
        )
        solo_groups = groups_of(solo_client.group_by_raw(solo_vertices))
        if solo_groups != solo_reference:
            fail(
                f"solo clustering diverged at acked position "
                f"{solo_positions[0]}: {len(solo_groups ^ solo_reference)} "
                "differing groups"
            )
        if solo_client.stats()["num_edges"] != solo_edges:
            fail(
                f"solo graph diverged at acked position {solo_positions[0]}: "
                f"standby has {solo_client.stats()['num_edges']} edges, "
                f"reference {solo_edges}"
            )
        wide_reference, wide_edges, wide_vertices = reference(
            primary_root / WIDE, list(wide_positions)
        )
        wide_groups = groups_of(wide_client.group_by_raw(wide_vertices))
        if wide_groups != wide_reference:
            fail(
                f"wide clustering diverged at acked positions "
                f"{wide_positions}: {len(wide_groups ^ wide_reference)} "
                "differing groups"
            )
        if wide_client.stats()["num_edges"] != wide_edges:
            fail(
                f"wide graph diverged at acked positions {wide_positions}: "
                f"standby has {wide_client.stats()['num_edges']} edges, "
                f"reference {wide_edges}"
            )
        print(
            f"cluster equivalence holds: solo at {solo_positions[0]} "
            f"({describe(solo_groups, solo_edges)}), "
            f"wide at {list(wide_positions)} "
            f"({describe(wide_groups, wide_edges)})"
        )

        # --- post-promotion writes -------------------------------------
        for name, client in ((SOLO, solo_client), (WIDE, wide_client)):
            before = client.stats()["applied"]
            fresh = [
                Update.insert(f"{name}:new0", f"{name}:new1"),
                Update.insert(f"{name}:new1", f"{name}:new2"),
                Update.insert(f"{name}:new0", f"{name}:new2"),
            ]
            accepted = client.submit_updates(fresh, max_retries=5)
            if accepted != len(fresh):
                fail(f"post-promotion write shed on {name!r}: {accepted}")
            triangle = frozenset(f"{name}:new{i}" for i in range(3))
            ingest_deadline = time.monotonic() + 20.0
            clustered = False
            while time.monotonic() < ingest_deadline:
                # `applied` advances at admission for sharded tenants, so
                # poll the *published clustering* for the new triangle
                if client.stats()["applied"] >= before + len(fresh):
                    groups = groups_of(client.group_by_raw(sorted(triangle)))
                    if triangle in groups:
                        clustered = True
                        break
                time.sleep(0.1)
            if not clustered:
                fail(f"post-promotion triangle never clustered on {name!r}")
        print("post-promotion ingest works on both promoted tenants")

        solo_client.close()
        wide_client.close()
        standby_admin.close()
        print("failover smoke passed")
        return 0
    finally:
        stop_processes(loadgen, primary.process, standby.process)
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# zero-operator mode: the watchdog does every promotion
# ----------------------------------------------------------------------
PROMOTE_BUDGET = 60.0  # seconds from SIGKILL to an observed promotion
WATCHDOG_INTERVAL = 0.25
WATCHDOG_QUORUM = 4
WATCHDOG_COOLDOWN = 2.0
WATCHDOG_PROBE_TIMEOUT = 1.0


class _Writer(threading.Thread):
    """Live load against one tenant through a replica-set client.

    Strictly toggling inserts/deletes over a 120-vertex ring (the
    same applicability rule the property tests use), pausable so each
    round's equivalence check sees a frozen cut.
    """

    def __init__(self, tenant: str, endpoints: list[str], seed: int) -> None:
        super().__init__(name=f"writer-{tenant}", daemon=True)
        self.tenant = tenant
        self.endpoints = endpoints
        self.rng = random.Random(seed)
        self.accepted = 0
        self.errors = 0
        self._present: set[tuple[int, int]] = set()
        self._run = threading.Event()
        self._run.set()
        self._idle = threading.Event()
        # not `_stop`: that would shadow threading.Thread._stop(), which
        # Thread.join() calls internally
        self._halt = threading.Event()

    def pause(self) -> None:
        """Return once no batch of this writer is in flight."""
        self._run.clear()
        # a stale flag from the previous pause must not count: the loop
        # sets it again only after it has seen ``_run`` cleared
        self._idle.clear()
        if not self._idle.wait(timeout=30.0):
            fail(f"writer for {self.tenant!r} never went idle")

    def resume(self) -> None:
        self._run.set()

    def stop(self) -> None:
        self._halt.set()
        self._run.set()

    def _next_update(self) -> Update:
        # ring locality: neighbors share most of their neighborhoods, so
        # real clusters form (a uniform 120-vertex random graph is too
        # dense for epsilon-similarity cores)
        u = self.rng.randrange(120)
        v = (u + self.rng.randint(1, 4)) % 120
        edge = (min(u, v), max(u, v))
        a, b = f"{self.tenant}:{edge[0]}", f"{self.tenant}:{edge[1]}"
        if edge in self._present:
            self._present.discard(edge)
            return Update.delete(a, b)
        self._present.add(edge)
        return Update.insert(a, b)

    def run(self) -> None:
        with ServiceClient(
            endpoints=self.endpoints,
            tenant=self.tenant,
            timeout=5.0,
            topology_max_age=0.5,
        ) as client:
            while not self._halt.is_set():
                if not self._run.is_set():
                    self._idle.set()
                    self._run.wait(timeout=1.0)
                    continue
                self._idle.clear()
                batch = [self._next_update() for _ in range(10)]
                try:
                    self.accepted += client.submit_updates(batch, max_retries=2)
                except (ServiceError, OSError):
                    self.errors += 1
                    time.sleep(0.2)
                time.sleep(0.01)
        self._idle.set()


def _topology(port: int, tenant: str) -> dict | None:
    try:
        with ServiceClient(
            "127.0.0.1", port, tenant=tenant, timeout=2.0
        ) as client:
            return client.topology()
    except (OSError, ServiceError):
        return None


def _decisions(path: Path, event: str | None = None) -> list[dict]:
    if not path.exists():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        if event is None or row.get("event") == event:
            rows.append(row)
    return rows


def _watchdog(endpoints: list[str], log_path: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "watchdog",
            "--targets",
            *endpoints,
            "--tenant",
            SOLO,
            "--tenant",
            WIDE,
            "--interval",
            str(WATCHDOG_INTERVAL),
            "--quorum",
            str(WATCHDOG_QUORUM),
            "--cooldown",
            str(WATCHDOG_COOLDOWN),
            "--probe-timeout",
            str(WATCHDOG_PROBE_TIMEOUT),
            "--decision-log",
            str(log_path),
        ],
    )


def _wait_promoted(
    alive: list[int], tenant: str, dead: set[int]
) -> tuple[int, dict]:
    """Block until exactly one live server claims the primary role."""
    deadline = time.monotonic() + PROMOTE_BUDGET
    while time.monotonic() < deadline:
        claims = []
        for port in alive:
            doc = _topology(port, tenant)
            if doc and doc.get("role") == "primary" and not doc.get("fenced"):
                claims.append((port, doc))
        if len(claims) > 1:
            fail(
                f"dueling promotion for {tenant!r}: "
                f"{sorted(port for port, _ in claims)} all claim primary"
            )
        if claims:
            return claims[0]
        time.sleep(0.25)
    fail(
        f"watchdog never promoted {tenant!r} within {PROMOTE_BUDGET}s "
        f"of killing {sorted(dead)}"
    )
    raise AssertionError("unreachable")


def _positions_of(doc: dict) -> list[int]:
    rows = sorted(doc.get("shard_positions", []), key=lambda row: row["shard"])
    if not rows:
        fail(f"topology document has no shard positions: {doc}")
    return [int(row["position"]) for row in rows]


def _verify_cut(
    tenant: str, winner_port: int, doc: dict, dead_root: Path
) -> None:
    """Promoted clustering == offline replay of the dead disk."""
    positions = _positions_of(doc)
    expected, ref_edges, vertices = reference(dead_root / tenant, positions)
    with ServiceClient("127.0.0.1", winner_port, tenant=tenant) as client:
        groups = groups_of(client.group_by_raw(vertices))
        edges = client.stats()["num_edges"]
    if groups != expected:
        fail(
            f"{tenant} clustering diverged from the dead primary's WAL at "
            f"{positions}: {len(groups ^ expected)} differing groups"
        )
    if edges != ref_edges:
        fail(
            f"{tenant} graph diverged at {positions}: promoted standby has "
            f"{edges} edges, offline replay has {ref_edges}"
        )
    print(
        f"  {tenant}: cluster equivalence holds at {positions} "
        f"({describe(groups, edges)})"
    )


def auto_main(rounds: int, log_path: Path) -> int:
    if rounds < 1:
        fail(f"--auto needs at least 1 round, got {rounds}")
    log_path.parent.mkdir(parents=True, exist_ok=True)
    if log_path.exists():
        log_path.unlink()
    tmp = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    fleet = [
        SubprocessServer(SERVE_FLAGS, tmp / f"server-{index}")
        for index in range(1 + 2 * rounds)
    ]
    servers = {server.port: server for server in fleet}
    ports = list(servers)
    endpoints = [f"127.0.0.1:{port}" for port in ports]
    watchdog: subprocess.Popen | None = None
    writers: list[_Writer] = []
    try:
        wait_healthy(*fleet, timeout=20.0)
        head, *rest = ports
        with ServiceClient("127.0.0.1", head) as admin:
            admin.create_tenant(SOLO, shards=1)
            admin.create_tenant(WIDE, shards=4)
        for port in rest:
            with ServiceClient("127.0.0.1", port) as admin:
                for name in (SOLO, WIDE):
                    row = admin.create_tenant(
                        name, replica_of=f"127.0.0.1:{head}"
                    )
                    if row.get("replica_of") != f"127.0.0.1:{head}":
                        fail(f"server {port} tenant {name!r} not a replica: {row}")
        print(
            f"fleet up: primary 127.0.0.1:{head}, {len(rest)} standbys, "
            f"{rounds} kill rounds planned"
        )

        watchdog = _watchdog(endpoints, log_path)
        writers = [_Writer(SOLO, endpoints, seed=1), _Writer(WIDE, endpoints, seed=2)]
        for writer in writers:
            writer.start()

        # every standby must be replicating before the first fault
        warm_deadline = time.monotonic() + 60.0
        while time.monotonic() < warm_deadline:
            docs = [
                _topology(port, name) for port in rest for name in (SOLO, WIDE)
            ]
            if all(doc and doc.get("applied", 0) >= 30 for doc in docs):
                break
            time.sleep(0.25)
        else:
            fail("standbys never replicated the warm-up prefix")
        if watchdog.poll() is not None:
            fail(f"watchdog died during warm-up (exit {watchdog.returncode})")

        # --- transient-partition round: SIGSTOP, no promotion ----------
        started_before = len(_decisions(log_path, "promotion_started"))
        servers[head].process.send_signal(signal.SIGSTOP)
        time.sleep(0.6)  # well under quorum * (interval + probe timeout)
        servers[head].process.send_signal(signal.SIGCONT)
        time.sleep(3.0)
        started_after = len(_decisions(log_path, "promotion_started"))
        if started_after != started_before:
            fail(
                "watchdog promoted during a sub-quorum stall: "
                f"{started_after - started_before} promotion(s) started"
            )
        for name in (SOLO, WIDE):
            doc = _topology(head, name)
            if not doc or doc.get("role") != "primary" or doc.get("fenced"):
                fail(f"paused-then-resumed primary lost {name!r}: {doc}")
        print("transient SIGSTOP suppressed: no promotion below the quorum")

        # --- kill rounds -----------------------------------------------
        primaries = {SOLO: head, WIDE: head}
        dead: set[int] = set()
        for round_no in range(1, rounds + 1):
            time.sleep(1.0)  # let the writers land a fresh mid-stream prefix
            # pause before the kill: a batch still in flight to a dead
            # primary would be rerouted onto the standby promoted in its
            # place, past the cut its WAL holds.  Replication to the
            # standbys is still in flight when the kill lands.
            for writer in writers:
                writer.pause()
            victims = sorted(set(primaries.values()))
            for port in victims:
                servers[port].process.send_signal(signal.SIGKILL)
                servers[port].process.wait(timeout=30)
                dead.add(port)
            killed_at = time.monotonic()
            alive = [port for port in ports if port not in dead]
            print(
                f"round {round_no}: killed {victims}; "
                f"{len(alive)} servers remain"
            )
            for name in (SOLO, WIDE):
                winner_port, doc = _wait_promoted(alive, name, dead)
                elapsed = time.monotonic() - killed_at
                print(
                    f"  {name}: promoted 127.0.0.1:{winner_port} "
                    f"after {elapsed:.1f}s (epoch {doc.get('epoch')})"
                )
                # the topology flips before the watchdog's log line lands
                # on disk — give the JSONL append a moment to catch up
                log_deadline = time.monotonic() + 10.0
                while True:
                    succeeded = _decisions(log_path, "promotion_succeeded")
                    mine = [
                        row for row in succeeded if row.get("tenant") == name
                    ]
                    if len(mine) == round_no or time.monotonic() > log_deadline:
                        break
                    time.sleep(0.2)
                if len(mine) != round_no:
                    fail(
                        f"{name}: expected {round_no} promotion(s) in the "
                        f"decision log, found {len(mine)}"
                    )
                _verify_cut(
                    name, winner_port, doc, servers[primaries[name]].data_root
                )
                primaries[name] = winner_port
                # surviving standbys must be re-parented onto the winner
                reparent_deadline = time.monotonic() + 30.0
                while time.monotonic() < reparent_deadline:
                    stale = []
                    for port in alive:
                        if port == winner_port:
                            continue
                        standby_doc = _topology(port, name)
                        if (
                            standby_doc
                            and standby_doc.get("role") == "standby"
                            and standby_doc.get("replica_of")
                            != f"127.0.0.1:{winner_port}"
                        ):
                            stale.append(port)
                    if not stale:
                        break
                    time.sleep(0.25)
                else:
                    fail(
                        f"{name}: standbys {stale} never re-parented onto "
                        f"127.0.0.1:{winner_port}"
                    )
            for writer in writers:
                writer.resume()
            for name, port in primaries.items():
                before_doc = _topology(port, name)
                before = before_doc.get("applied", 0) if before_doc else 0
                ingest_deadline = time.monotonic() + 30.0
                while time.monotonic() < ingest_deadline:
                    doc = _topology(port, name)
                    if doc and doc.get("applied", 0) > before:
                        break
                    time.sleep(0.2)
                else:
                    fail(f"{name}: no ingest after round {round_no} failover")
            print(f"round {round_no}: writes flow into the new primaries")

        for writer in writers:
            writer.stop()
        for writer in writers:
            writer.join(timeout=30)
            if writer.accepted == 0:
                fail(f"writer for {writer.tenant!r} never landed a write")
        print(
            "fleet smoke passed: "
            + ", ".join(
                f"{writer.tenant} accepted {writer.accepted} updates "
                f"({writer.errors} retried bursts)"
                for writer in writers
            )
        )
        return 0
    finally:
        for writer in writers:
            writer.stop()
        stop_processes(watchdog)  # before the fleet, so it promotes nothing
        stop_processes(*(server.process for server in fleet))
        shutil.rmtree(tmp, ignore_errors=True)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="failover smoke gate (manual promotion by default)"
    )
    parser.add_argument(
        "--auto",
        nargs="?",
        const=3,
        default=None,
        type=int,
        metavar="ROUNDS",
        help="zero-operator mode: the watchdog performs every promotion "
        "across ROUNDS SIGKILL rounds (default 3)",
    )
    parser.add_argument(
        "--decision-log",
        type=Path,
        default=Path.cwd() / "watchdog_decisions.jsonl",
        metavar="PATH",
        help="where --auto writes the watchdog's decision log",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = _parse_args(None)
    if arguments.auto is not None:
        raise SystemExit(auto_main(arguments.auto, arguments.decision_log))
    raise SystemExit(main())
