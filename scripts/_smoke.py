"""Helpers shared by the ``scripts/smoke_*.py`` gates.

The smoke scripts run as ``python scripts/<name>.py``, which puts this
directory on ``sys.path``, so each imports these with
``from _smoke import ...``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.bench.runner import SubprocessServer
from repro.persistence import state_at
from repro.service.sharding import SHARD_DIR_FORMAT, make_label_scope
from repro.service.timetravel import capture_view

#: The two tenants the failover and time-travel smokes drive: one unsharded,
#: one over four shards.
SOLO, WIDE = "solo", "wide"

#: The clustering parameters every smoke's ``repro serve`` runs with, bar
#: the time-travel smoke's lower epsilon.
SERVE_FLAGS = ("--epsilon", "0.3", "--mu", "2", "--rho", "0")


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def wait_healthy(*servers: SubprocessServer, timeout: float) -> None:
    """Block until every server answers; a boot timeout fails the smoke."""
    for server in servers:
        try:
            server.wait_healthy(timeout)
        except RuntimeError as exc:
            fail(str(exc))


def start_loadgen(port: int, updates: int) -> subprocess.Popen:
    """``repro loadgen`` sending ``updates`` google updates to both tenants."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "loadgen", "--port", str(port),
            "--tenant", SOLO, "--tenant", WIDE, "--dataset", "google",
            "--updates", str(updates), "--query-ratio", "0.02", "--seed", "0",
        ],
    )


def groups_of(document: dict) -> set:
    """A group-by response's non-empty groups, as frozensets."""
    return {frozenset(members) for members in document["groups"].values() if members}


def reference(tenant_dir: Path, positions: list[int]) -> tuple:
    """The tenant's clustering rebuilt offline at a per-shard position tuple.

    Each shard's state comes from :func:`repro.persistence.state_at` under
    its labelling scope, and the shards merge through the same capture the
    ``as_of`` read path uses.  Returns ``(groups, num_edges, vertices)``:
    the clusters over every vertex of the rebuilt graph, its edge count,
    and those vertices, which the caller probes the server with.
    """
    num_shards = len(positions)
    maintainers = []
    for index, position in enumerate(positions):
        shard_dir = (
            tenant_dir
            if num_shards == 1
            else tenant_dir / SHARD_DIR_FORMAT.format(index=index)
        )
        maintainer, _ = state_at(
            shard_dir, position, scope=make_label_scope(index, num_shards)
        )
        maintainers.append(maintainer)
    view = capture_view(maintainers, positions, maintainers[0].params)
    vertices = sorted(
        {v for maintainer in maintainers for v in maintainer.graph.vertices()}, key=str
    )
    groups = {frozenset(group) for group in view.group_by(vertices).as_sets() if group}
    return groups, view.stats()["num_edges"], vertices


def describe(groups: set, edges: int) -> str:
    """``N groups over M clustered vertices, E edges`` for a progress line."""
    clustered = len(frozenset().union(*groups))
    return f"{len(groups)} groups over {clustered} clustered vertices, {edges} edges"
