"""Service quickstart: the clustering engine as a concurrent v1 service.

Demonstrates the full serving stack in one process:

1. start a :class:`ClusteringEngine` (micro-batching single writer) with a
   durable data directory,
2. expose it over the v1 JSON/HTTP API with :class:`BackgroundServer`,
3. talk to it with :class:`ServiceClient` — ingest a planted two-community
   graph, run snapshot-consistent group-by queries, read stats, and spin up
   a second isolated tenant on a baseline backend,
4. restart the engine from its snapshot+WAL and show that the recovered
   service answers identically.

Run with:  python examples/service_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    BackgroundServer,
    ClusteringEngine,
    EngineConfig,
    ServiceClient,
    StrCluParams,
    Update,
)
from repro.graph.generators import planted_partition_graph


def main() -> None:
    params = StrCluParams(epsilon=0.4, mu=3, rho=0.05, delta_star=0.01, seed=7)
    config = EngineConfig(batch_size=32, checkpoint_every=100)
    edges = planted_partition_graph(2, 12, p_intra=0.7, p_inter=0.05, seed=1)
    updates = [Update.insert(u, v) for u, v in edges]

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "clustering-service"

        # --- 1 + 2: engine behind an HTTP front-end ------------------------
        engine = ClusteringEngine(params, config=config, data_dir=data_dir)
        with engine, BackgroundServer(engine) as background:
            client = ServiceClient("127.0.0.1", background.port)
            print("service healthy:", client.healthz())

            # --- 3: ingest + query over the wire ---------------------------
            accepted = client.submit_updates(updates)
            engine.flush()  # in-process handle: wait for the batch to land
            print(f"\ningested {accepted} edge insertions")
            stats = client.stats()
            print("clusters:", stats["clusters"], "| cores:", stats["cores"],
                  "| view version:", stats["view_version"])

            query = list(range(24))
            result = client.group_by(query)
            for gid, members in sorted(result.groups.items()):
                print(f"  group {gid}: {sorted(members)}")
            first_answer = {frozenset(g) for g in result.as_sets()}

            # a deletion stream: the view follows, readers never block
            client.submit_updates([Update.delete(*edges[0]),
                                   Update.delete(*edges[1])])
            engine.flush()
            print("after two deletions, view version:",
                  client.stats()["view_version"])

            # --- v1 multi-tenancy: an isolated sibling tenant ---------------
            # its own backend *and* its own parameters (mu=2 suits a triangle)
            client.create_tenant("scratch", backend="pscan", params={"mu": 2})
            scratch = client.for_tenant("scratch")
            scratch.submit_updates([Update.insert("x", "y"),
                                    Update.insert("y", "z"),
                                    Update.insert("x", "z")])
            background.manager.get("scratch").flush()
            print("scratch tenant (pscan backend) groups:",
                  scratch.group_by(["x", "y", "z"]).as_sets())
            print("main tenant cannot see them:",
                  client.group_by(["x", "y", "z"]).as_sets())
            scratch.close()
            client.delete_tenant("scratch")
            client.close()

        # --- 4: crash-recover the service from snapshot + WAL --------------
        recovered = ClusteringEngine(params, config=config, data_dir=data_dir)
        with recovered, BackgroundServer(recovered) as background:
            client = ServiceClient("127.0.0.1", background.port)
            print("\nrecovered engine at version",
                  client.stats()["view_version"])
            # re-insert the deleted edges: the stream continues seamlessly
            client.submit_updates([Update.insert(*edges[0]),
                                   Update.insert(*edges[1])])
            recovered.flush()
            second_answer = {
                frozenset(g) for g in client.group_by(query).as_sets()
            }
            print("recovered + replayed service answers identically:",
                  second_answer == first_answer)
            client.close()


if __name__ == "__main__":
    main()
