"""Command line interface: ``python -m repro`` or the ``repro`` console script.

Subcommands
-----------
``list-datasets``
    Print the synthetic dataset registry.
``cluster``
    Run structural clustering on a dataset (or an edge-list file) and print
    the cluster summary.
``experiment``
    Run one of the table/figure reproductions and print its rows.
``serve``
    Run the multi-tenant clustering service (micro-batching engines behind
    the versioned ``/v1/tenants/{tenant}/...`` JSON/HTTP API) until
    interrupted; ``--backend`` selects any registered clustering backend,
    ``--replica-of URL`` runs the default tenant as a warm standby of the
    same-named tenant on another server.
``promote``
    Promote a standby tenant on a running service to primary (fence the
    old primary, drain the replay queue, flip writable).
``watchdog``
    Run the fleet watchdog as a sidecar: probe the primaries behind the
    standbys hosted on ``--targets``, auto-promote the best standby
    after a quorum of consecutive failed probes (with a cool-down guard
    against dueling promotions), and re-parent the surviving orphans
    onto the winner.
``query``
    Group-by query against a running service — current view by default,
    or a *historical* one with ``--as-of <position>`` (time-travel read
    over the tenant's retained snapshots + WAL).
``loadgen``
    Generate open-loop insert/delete/query traffic against a running service
    (or in-process engines) and print the throughput/latency report;
    repeat ``--tenant`` for a multi-tenant mix with disjoint vertex spaces,
    and add ``--trace`` to send a fresh ``X-Repro-Trace`` id per ingest
    batch so every batch's pipeline is recorded server-side.
``trace``
    Fetch recent spans from a running service's ``/v1/debug/traces``
    route — all recent spans, or one trace end-to-end with
    ``--trace-id`` (HTTP dispatch → router → per-shard apply → standby
    replay).
``check``
    Run the project-invariant static-analysis suite (monotonic-clock
    discipline, guarded fields, durable writes, asyncio hygiene,
    structured errors, thread hygiene, span hygiene) over the package
    source — or over explicit paths; exits non-zero on any unsuppressed
    finding.
``bench``
    Run a declarative capacity-bench matrix (``--matrix
    benchmarks/capacity_matrix.json``): boot real servers per spec,
    drive them with the open-loop load generator, emit the consolidated
    ``BENCH_capacity.json`` with p50/p90/p99 ingest+query latency and
    the max-sustainable-rate search.  ``repro bench gate BENCH_*.json
    --floors benchmarks/floors.json`` validates any benchmark report
    against the committed floors/ceilings and exits non-zero on a
    regression — the CI perf gate.

``repro --version`` prints the library version.  Unknown subcommands exit
with status 2 and a usage message (argparse's standard behaviour, locked in
by the CLI tests).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.core.config import StrCluParams
from repro.core.dynstrclu import DynStrClu
from repro.experiments import (
    format_table,
    run_epsilon_sweep,
    run_eta_sweep,
    run_memory_table,
    run_overall_time,
    run_quality_table,
    run_query_size_sweep,
    run_rho_sweep,
    run_update_cost_curve,
    run_visualisation,
)
from repro.graph.io import load_edge_list
from repro.graph.similarity import SimilarityKind
from repro.workloads.datasets import DATASETS, dataset_spec, load_dataset

EXPERIMENTS = {
    "table1": lambda args: run_memory_table(update_multiplier=args.scale),
    "table2": lambda args: run_quality_table(SimilarityKind.JACCARD),
    "table3": lambda args: run_quality_table(SimilarityKind.COSINE, rhos=(0.01, 0.1)),
    "fig7": lambda args: run_overall_time(update_multiplier=args.scale),
    "fig8": lambda args: run_update_cost_curve(update_multiplier=args.scale),
    "fig9": lambda args: run_epsilon_sweep(update_multiplier=args.scale),
    "fig10": lambda args: run_eta_sweep(update_multiplier=args.scale),
    "fig11": lambda args: run_update_cost_curve(
        update_multiplier=args.scale, similarity=SimilarityKind.COSINE, epsilon=0.6
    ),
    "fig12a": lambda args: run_rho_sweep(update_multiplier=args.scale),
    "fig12b": lambda args: run_query_size_sweep(),
    "fig4-6": lambda args: run_visualisation(),
}


#: ``serve`` defaults for everything a standby discovers from its primary —
#: shared by the argument definitions and the ``--replica-of`` guard in
#: ``cmd_serve`` so the two can never drift apart.
SERVE_SHAPE_DEFAULTS = {
    "backend": "dynstrclu",
    "shards": 1,
    "epsilon": 0.5,
    "mu": 3,
    "rho": 0.01,
    "similarity": "jaccard",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic Structural Clustering on Graphs (SIGMOD 2021) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="print the synthetic dataset registry")

    cluster = sub.add_parser("cluster", help="cluster a dataset or an edge-list file")
    cluster.add_argument("--dataset", help="dataset name from the registry")
    cluster.add_argument("--edge-list", help="path to a SNAP-style edge list")
    cluster.add_argument("--epsilon", type=float, default=None)
    cluster.add_argument("--mu", type=int, default=5)
    cluster.add_argument("--rho", type=float, default=0.01)
    cluster.add_argument(
        "--similarity", choices=["jaccard", "cosine"], default="jaccard"
    )

    experiment = sub.add_parser("experiment", help="run a table/figure reproduction")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="update-sequence length as a multiple of the initial edge count",
    )

    serve = sub.add_parser(
        "serve", help="run the multi-tenant clustering service over JSON/HTTP (v1 API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--epsilon", type=float, default=SERVE_SHAPE_DEFAULTS["epsilon"]
    )
    serve.add_argument("--mu", type=int, default=SERVE_SHAPE_DEFAULTS["mu"])
    serve.add_argument("--rho", type=float, default=SERVE_SHAPE_DEFAULTS["rho"])
    serve.add_argument(
        "--similarity",
        choices=["jaccard", "cosine"],
        default=SERVE_SHAPE_DEFAULTS["similarity"],
    )
    serve.add_argument(
        "--backend",
        default=SERVE_SHAPE_DEFAULTS["backend"],
        help="clustering backend of the default tenant "
        "(dynstrclu, dynelm, scan-exact, pscan, hscan)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=SERVE_SHAPE_DEFAULTS["shards"],
        help="hash partitions of the default tenant's vertex space "
        "(1: single engine; N > 1: sharded engine with scatter-gather reads)",
    )
    serve.add_argument(
        "--data-dir",
        help="default tenant's snapshot+WAL directory; enables durability "
        "and crash recovery (dynstrclu backend only)",
    )
    serve.add_argument(
        "--replica-of",
        metavar="URL",
        help="run the default tenant as a warm standby of the same-named "
        "tenant at URL (host:port or http://host:port): shape and state "
        "are discovered from the primary, its WAL is replayed "
        "continuously, and writes are rejected until 'repro promote'; "
        "requires --data-dir",
    )
    serve.add_argument(
        "--data-root",
        help="directory under which dynamically created tenants persist "
        "(data_root/<tenant>/)",
    )
    serve.add_argument(
        "--max-tenants",
        type=int,
        default=64,
        help="server-wide cap on concurrently hosted tenants",
    )
    serve.add_argument("--batch-size", type=int, default=64)
    serve.add_argument("--queue-capacity", type=int, default=4096)
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="cut a checkpoint every N applied updates (0: only on shutdown)",
    )
    serve.add_argument(
        "--dataset",
        help="optionally preload a registry dataset into the default tenant",
    )
    serve.add_argument(
        "--trace-log",
        metavar="PATH",
        help="mirror every completed trace span to this JSONL file "
        "(the in-memory span ring serves GET /v1/debug/traces either way)",
    )

    promote = sub.add_parser(
        "promote",
        help="promote a standby tenant on a running service to primary "
        "(fences the old primary, drains the replay queue, flips writable)",
    )
    promote.add_argument("--host", default="127.0.0.1")
    promote.add_argument("--port", type=int, default=8321)
    promote.add_argument(
        "--tenant", default="default", help="standby tenant to promote"
    )

    watchdog = sub.add_parser(
        "watchdog",
        help="sidecar fleet supervisor: probe primaries, auto-promote the "
        "best standby after a quorum of failed probes, re-parent orphans",
    )
    watchdog.add_argument(
        "--targets",
        nargs="+",
        required=True,
        metavar="HOST:PORT",
        help="servers hosting the standbys to supervise (the primaries "
        "they replicate from are discovered and probed automatically)",
    )
    watchdog.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        metavar="NAME",
        help="supervise only this tenant (repeatable; default: every "
        "standby tenant found on the targets)",
    )
    watchdog.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between probe rounds",
    )
    watchdog.add_argument(
        "--quorum",
        type=int,
        default=3,
        help="consecutive failed probes of a primary before promotion",
    )
    watchdog.add_argument(
        "--cooldown",
        type=float,
        default=5.0,
        help="seconds a tenant is frozen after any promotion attempt",
    )
    watchdog.add_argument(
        "--probe-timeout",
        type=float,
        default=2.0,
        help="per-probe socket timeout",
    )
    watchdog.add_argument(
        "--decision-log",
        metavar="PATH",
        help="append every probe/promotion decision to this JSONL file",
    )

    query = sub.add_parser(
        "query",
        help="group-by query against a running service (current view, or "
        "a historical one with --as-of)",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=8321)
    query.add_argument("--tenant", default="default", help="tenant to query")
    query.add_argument(
        "--as-of",
        dest="as_of",
        metavar="POSITION",
        help="serve the historical view at this applied position instead "
        "of the live one: an integer for unsharded tenants, a "
        "comma-separated per-shard tuple for sharded ones, or 'latest' "
        "(positions come from the tenant's stats document)",
    )
    query.add_argument(
        "vertices",
        nargs="+",
        metavar="VERTEX",
        help="vertices to group (digits are int ids; prefix with '~' to "
        "force a string id, matching the WAL token convention)",
    )

    loadgen = sub.add_parser(
        "loadgen", help="generate open-loop traffic against a clustering service"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8321)
    loadgen.add_argument(
        "--in-process",
        action="store_true",
        help="drive a fresh in-process engine instead of a remote server",
    )
    loadgen.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        metavar="NAME",
        help="tenant to drive (repeat for a multi-tenant mix; default: default)",
    )
    loadgen.add_argument(
        "--create-tenants",
        action="store_true",
        help="create the named tenants on the server first (idempotent)",
    )
    loadgen.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for tenants created by --create-tenants or "
        "--in-process (1: single engine; omitted: the server default)",
    )
    loadgen.add_argument(
        "--vertex-prefix",
        default="",
        help="rewrite every vertex id to the string '<prefix><id>' "
        "(multi-tenant mixes always add a '<tenant>:' prefix per tenant)",
    )
    loadgen.add_argument("--dataset", default="email")
    loadgen.add_argument(
        "--updates", type=int, default=2000, help="generated updates after the hot start"
    )
    loadgen.add_argument("--eta", type=float, default=0.2, help="deletion ratio")
    loadgen.add_argument("--rate", type=float, default=0.0, help="requests/s (0: max)")
    loadgen.add_argument("--ingest-batch", type=int, default=16)
    loadgen.add_argument("--query-ratio", type=float, default=0.2)
    loadgen.add_argument("--query-size", type=int, default=32)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--epsilon", type=float, default=0.5)
    loadgen.add_argument("--mu", type=int, default=3)
    loadgen.add_argument("--rho", type=float, default=0.01)
    loadgen.add_argument(
        "--trace",
        action="store_true",
        help="send a fresh X-Repro-Trace id with every ingest batch so the "
        "server records each batch's full pipeline (HTTP mode only; "
        "inspect with 'repro trace' or GET /v1/debug/traces)",
    )
    loadgen.add_argument("--json", dest="json_out", help="also write the report to this file")

    trace = sub.add_parser(
        "trace",
        help="fetch recent spans from a running service "
        "(GET /v1/debug/traces; --trace-id follows one request end-to-end)",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=8321)
    trace.add_argument(
        "--trace-id",
        dest="trace_id",
        help="show only this trace's spans (an X-Repro-Trace value)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=100,
        help="most recent spans to fetch (default: 100)",
    )
    trace.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print the raw span documents as JSON instead of the table",
    )

    check = sub.add_parser(
        "check",
        help="run the project-invariant static-analysis suite "
        "(see docs/DEVTOOLS.md)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: the installed "
        "repro package source)",
    )
    check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        dest="output_format",
        help="output format (default: human)",
    )
    check.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated check codes or names to run "
        "(e.g. REPRO301 or durable-write,monotonic)",
    )

    bench = sub.add_parser(
        "bench",
        help="run a declarative capacity-bench matrix, or gate benchmark "
        "reports against committed floors (see docs/BENCHMARKS.md)",
    )
    bench.add_argument(
        "--matrix",
        metavar="PATH",
        help="JSON (or TOML) spec-matrix file to execute "
        "(e.g. benchmarks/capacity_matrix.json)",
    )
    bench.add_argument(
        "--output",
        default="BENCH_capacity.json",
        metavar="PATH",
        help="where to write the consolidated report "
        "(default: BENCH_capacity.json)",
    )
    bench.add_argument(
        "--mode",
        choices=("subprocess", "inprocess"),
        default="subprocess",
        help="server boot mode per spec: real 'repro serve' subprocesses "
        "(default) or an in-process background server (test harness)",
    )
    bench.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this expanded spec (repeatable)",
    )
    bench.add_argument(
        "--list",
        dest="list_specs",
        action="store_true",
        help="print the expanded spec list and exit without running",
    )
    bench.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-spec progress lines on stderr",
    )
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_gate = bench_sub.add_parser(
        "gate",
        help="validate BENCH_*.json reports against the committed floors "
        "file; exits non-zero on any regression",
    )
    bench_gate.add_argument(
        "reports",
        nargs="*",
        metavar="REPORT",
        help="benchmark report files (BENCH_*.json); matched to gates by "
        "their 'benchmark' field",
    )
    bench_gate.add_argument(
        "--floors",
        required=True,
        metavar="PATH",
        help="the committed floors file (benchmarks/floors.json)",
    )
    bench_gate.add_argument(
        "--check-floors",
        action="store_true",
        help="only schema-validate the floors file (no reports needed); "
        "exit 2 when it is malformed — the fail-fast CI step",
    )
    bench_gate.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        dest="output_format",
        help="output format (default: human)",
    )
    return parser


def _cmd_list_datasets() -> int:
    rows = []
    for name, spec in DATASETS.items():
        rows.append(
            {
                "name": name,
                "paper_name": spec.paper_name,
                "vertices": spec.num_vertices,
                "eps_jaccard": spec.default_epsilon_jaccard,
                "eps_cosine": spec.default_epsilon_cosine,
                "representative": spec.representative,
            }
        )
    print(format_table(rows, title="Synthetic dataset registry"))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if bool(args.dataset) == bool(args.edge_list):
        print("exactly one of --dataset / --edge-list is required", file=sys.stderr)
        return 2
    similarity = SimilarityKind(args.similarity)
    if args.dataset:
        edges = load_dataset(args.dataset)
        spec = dataset_spec(args.dataset)
        default_eps = (
            spec.default_epsilon_jaccard
            if similarity is SimilarityKind.JACCARD
            else spec.default_epsilon_cosine
        )
    else:
        edges, _mapping = load_edge_list(args.edge_list)
        default_eps = 0.2
    epsilon = args.epsilon if args.epsilon is not None else default_eps
    params = StrCluParams(epsilon=epsilon, mu=args.mu, rho=args.rho, similarity=similarity)
    algo = DynStrClu.from_edges(edges, params)
    clustering = algo.clustering()
    summary = clustering.summary()
    summary_row = {"epsilon": epsilon, "mu": args.mu, "rho": args.rho}
    summary_row.update(summary)
    print(format_table([summary_row], title="StrClu result"))
    top = [
        {"rank": i + 1, "size": len(c)} for i, c in enumerate(clustering.top_k(10))
    ]
    if top:
        print()
        print(format_table(top, title="Top clusters"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENTS[args.name](args)
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.core.dynelm import Update
    from repro.service import (
        ClusteringServiceServer,
        EngineConfig,
        EngineManager,
        make_engine,
    )

    if args.trace_log:
        from repro.service import configure_tracer

        configure_tracer(jsonl_path=Path(args.trace_log))
    try:
        params = StrCluParams(
            epsilon=args.epsilon,
            mu=args.mu,
            rho=args.rho,
            similarity=SimilarityKind(args.similarity),
        )
        config = EngineConfig(
            batch_size=args.batch_size,
            queue_capacity=args.queue_capacity,
            checkpoint_every=args.checkpoint_every,
            shards=args.shards,
        )
        if args.replica_of:
            from repro.service import EngineError, ServiceError, StandbyEngine

            if not args.data_dir:
                print(
                    "repro serve: --replica-of requires --data-dir "
                    "(the standby keeps its own durable snapshot + WAL)",
                    file=sys.stderr,
                )
                return 2
            if args.dataset:
                print(
                    "repro serve: --dataset cannot be combined with "
                    "--replica-of (a standby is read-only until promoted)",
                    file=sys.stderr,
                )
                return 2
            # mirror EngineManager.create's refusal instead of silently
            # discarding tuning the operator believes applied (a standby
            # discovers shape, backend and params from its primary)
            overridden = [
                f"--{name}"
                for name, default in SERVE_SHAPE_DEFAULTS.items()
                if getattr(args, name) != default
            ]
            if overridden:
                print(
                    "repro serve: a standby's shape, backend and params are "
                    "discovered from its primary; "
                    f"{', '.join(overridden)} cannot be combined with "
                    "--replica-of",
                    file=sys.stderr,
                )
                return 2
            try:
                engine = StandbyEngine(
                    args.replica_of,
                    "default",
                    data_dir=args.data_dir,
                    config=config,
                )
            except (EngineError, ServiceError) as exc:
                # primary refused replication (non-durable tenant, 404,
                # chained standby): a clean message, not a traceback
                print(f"repro serve: {exc}", file=sys.stderr)
                return 2
        else:
            engine = make_engine(
                params, config=config, data_dir=args.data_dir, backend=args.backend
            )
    except (ValueError, OSError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if engine.recovered_updates:
        print(
            f"recovered {engine.recovered_updates} WAL updates "
            f"(state at {engine.applied} applied)",
            file=sys.stderr,
        )
    manager = EngineManager.adopt(engine)
    manager.max_tenants = args.max_tenants
    if args.data_root:
        manager.data_root = Path(args.data_root)
    with engine:
        if args.dataset:
            for u, v in load_dataset(args.dataset):
                engine.submit(Update.insert(u, v))
            engine.flush()
            print(
                f"preloaded dataset {args.dataset!r}: {engine.view().stats()}",
                file=sys.stderr,
            )

        async def _serve() -> None:
            server = ClusteringServiceServer(manager, host=args.host, port=args.port)
            await server.start()
            if args.replica_of:
                shape = f"standby of {args.replica_of}"
            elif args.shards > 1:
                shape = f"{args.shards} shards"
            else:
                shape = "single engine"
            print(
                f"repro service v1 listening on http://{args.host}:{server.port} "
                f"(default tenant backend: {args.backend}, {shape}; "
                f"GET /v1/healthz, GET|POST /v1/tenants, "
                f"DELETE /v1/tenants/{{t}}, "
                f"POST /v1/tenants/{{t}}/updates, POST /v1/tenants/{{t}}/group-by, "
                f"GET /v1/tenants/{{t}}/cluster/{{v}}, GET /v1/tenants/{{t}}/stats)",
                file=sys.stderr,
            )
            await server.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("shutting down (final checkpoint)...", file=sys.stderr)
        finally:
            manager.close()
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, tenant=args.tenant)
    try:
        document = client.promote_tenant()
    except (OSError, ServiceError) as exc:
        print(f"repro promote: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    print(
        f"tenant {args.tenant!r} promoted: epoch {document.get('epoch')}, "
        f"applied {document.get('applied')}, "
        f"old primary fenced: {document.get('fenced_primary')}"
    )
    return 0


def _cmd_watchdog(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import DecisionLog, FleetError, FleetWatchdog, WatchdogConfig
    from repro.service.client import parse_primary_url

    try:
        for target in args.targets:
            parse_primary_url(target)  # fail fast on malformed HOST:PORT
        config = WatchdogConfig(
            interval=args.interval,
            quorum=args.quorum,
            cooldown=args.cooldown,
            probe_timeout=args.probe_timeout,
        )
        log = DecisionLog(
            path=Path(args.decision_log) if args.decision_log else None,
            echo=lambda line: print(line, file=sys.stderr, flush=True),
        )
        watchdog = FleetWatchdog(
            targets=args.targets,
            tenants=args.tenants,
            config=config,
            decision_log=log,
        )
    except (FleetError, ValueError) as exc:
        print(f"repro watchdog: {exc}", file=sys.stderr)
        return 2
    watchdog.start()
    print(
        f"repro watchdog supervising {', '.join(args.targets)} "
        f"(interval {args.interval}s, quorum {args.quorum}, "
        f"cooldown {args.cooldown}s); Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        while watchdog.is_alive():
            watchdog.join(timeout=1.0)
    except KeyboardInterrupt:
        print("repro watchdog: stopping", file=sys.stderr)
    finally:
        watchdog.stop()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.persistence.updatelog import parse_vertex_token
    from repro.service import ServiceClient, ServiceError

    try:
        vertices = [parse_vertex_token(token) for token in args.vertices]
    except ValueError as exc:
        print(f"repro query: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.host, args.port, tenant=args.tenant)
    try:
        document = client.group_by_raw(vertices, as_of=args.as_of)
    except (OSError, ServiceError) as exc:
        if isinstance(exc, ServiceError) and exc.code == "as_of_unavailable":
            oldest = (
                exc.document.get("oldest_position")
                if isinstance(exc.document, dict)
                else None
            )
            print(
                f"repro query: history at --as-of {args.as_of} is no longer "
                f"retained (oldest replayable position: {oldest})",
                file=sys.stderr,
            )
            return 1
        print(f"repro query: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    print(json.dumps(document, indent=2, default=repr))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import (
        ClientTarget,
        EngineConfig,
        EngineManager,
        EngineTarget,
        LoadGenConfig,
        LoadGenerator,
        MultiTenantLoadGenerator,
        ServiceClient,
        ServiceError,
    )
    from repro.workloads.updates import generate_update_sequence

    if args.trace and args.in_process:
        print(
            "repro loadgen: --trace needs the HTTP path (the X-Repro-Trace "
            "header); it cannot be combined with --in-process",
            file=sys.stderr,
        )
        return 2
    # dedup while preserving order: a repeated --tenant must not double-count
    tenants = list(dict.fromkeys(args.tenants)) if args.tenants else ["default"]
    try:
        spec = dataset_spec(args.dataset)
        edges = load_dataset(args.dataset)
        workload = generate_update_sequence(
            spec.num_vertices, edges, args.updates, eta=args.eta, seed=args.seed
        )
        stream = list(workload.all_updates())
        config = LoadGenConfig(
            rate=args.rate,
            ingest_batch=args.ingest_batch,
            query_ratio=args.query_ratio,
            query_size=args.query_size,
            seed=args.seed,
            vertex_prefix=args.vertex_prefix,
        )
    except (KeyError, ValueError) as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2

    manager = None
    clients = []
    targets = {}
    if args.shards is not None:
        try:
            EngineConfig(shards=args.shards)  # the one validation authority
        except ValueError as exc:
            print(f"repro loadgen: {exc}", file=sys.stderr)
            return 2
    shards = args.shards  # None: inherit the server/manager default
    if args.in_process:
        params = StrCluParams(epsilon=args.epsilon, mu=args.mu, rho=args.rho)
        # the default tenant is built eagerly by the manager itself, so the
        # requested shard count must be in the inherited config — not only
        # in the explicit create() calls below
        manager = EngineManager(
            params,
            default_engine_config=(
                EngineConfig(shards=shards) if shards is not None else None
            ),
            create_default=("default" in tenants),
        )
        for tenant in tenants:
            if tenant not in manager:
                manager.create(tenant, shards=shards)
            targets[tenant] = EngineTarget(manager.get(tenant))
    else:
        probe = ServiceClient(args.host, args.port)
        try:
            probe.healthz()  # fail fast when no server is listening
        except (OSError, ServiceError) as exc:
            print(
                f"repro loadgen: no clustering service at "
                f"http://{args.host}:{args.port} ({exc})",
                file=sys.stderr,
            )
            probe.close()
            return 2
        for tenant in tenants:
            client = probe if tenant == probe.tenant else probe.for_tenant(tenant)
            if client is not probe:
                clients.append(client)
            if args.create_tenants:
                try:
                    client.create_tenant(exist_ok=True, shards=shards)
                except ServiceError as exc:
                    print(f"repro loadgen: creating tenant {tenant!r}: {exc}",
                          file=sys.stderr)
                    return 2
            targets[tenant] = ClientTarget(client, trace=args.trace)
        clients.append(probe)

    try:
        if len(tenants) == 1:
            generator = LoadGenerator(targets[tenants[0]], stream, config=config)
            reports = {tenants[0]: generator.run()}
            metrics_by_tenant = {tenants[0]: generator.metrics}
        else:
            multi = MultiTenantLoadGenerator(targets, stream, config=config)
            reports = multi.run()
            metrics_by_tenant = {
                name: generator.metrics for name, generator in multi.generators.items()
            }
        if manager is not None:
            for engine in manager.engines():
                engine.flush()
    finally:
        if manager is not None:
            manager.close()
        for client in clients:
            client.close()

    rows = []
    errors = []
    for tenant in tenants:
        report = reports[tenant]
        metrics = metrics_by_tenant[tenant]
        errors.extend(report.errors)
        rows.append(
            {
                "tenant": tenant,
                "requests": report.requests,
                "updates_sent": report.updates_sent,
                "accepted": report.updates_accepted,
                "rejected": report.updates_rejected,
                "offered_upd_s": round(report.offered_updates_per_second, 1),
                "accepted_upd_s": round(report.accepted_updates_per_second, 1),
                "query_p50_ms": round(metrics.query.percentile(50) * 1e3, 3),
                "query_p99_ms": round(metrics.query.percentile(99) * 1e3, 3),
                "max_lag_s": round(report.max_lag_s, 4),
            }
        )
    print(format_table(rows, title=f"loadgen against {args.dataset}"))
    if errors:
        print(f"{len(errors)} request errors; first: {errors[0]}", file=sys.stderr)
    if args.json_out:
        document = {tenant: reports[tenant].as_dict() for tenant in tenants}
        if len(tenants) == 1:
            document = document[tenants[0]]
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"report written to {args.json_out}", file=sys.stderr)
    return 0 if not errors else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        document = client.debug_traces(trace_id=args.trace_id, limit=args.limit)
    except (OSError, ServiceError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    spans = document.get("spans", [])
    if args.json_out:
        print(json.dumps(spans, indent=2, default=str))
        return 0
    if not spans:
        scope = f"trace {args.trace_id!r}" if args.trace_id else "the span ring"
        print(f"no spans in {scope} (ring capacity "
              f"{document.get('capacity')}, dropped {document.get('dropped')})")
        return 0
    rows = []
    for span in spans:
        attrs = span.get("attrs") or {}
        rows.append(
            {
                "trace": span.get("trace_id"),
                "span": span.get("span_id"),
                "parent": span.get("parent_id") or "-",
                "name": span.get("name"),
                "ms": round(float(span.get("duration_s", 0.0)) * 1e3, 3),
                "thread": span.get("thread"),
                "attrs": ",".join(f"{k}={v}" for k, v in sorted(attrs.items())),
            }
        )
    title = (
        f"trace {args.trace_id}" if args.trace_id
        else f"last {len(rows)} spans"
    )
    print(format_table(rows, title=title))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.devtools import all_checkers, run_checks

    paths = (
        [Path(path) for path in args.paths]
        if args.paths
        else [Path(repro.__file__).parent]
    )
    select = args.select.split(",") if args.select else None
    try:
        report = run_checks(paths, all_checkers(), select=select)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(report.render_json())
    else:
        print(report.render_human())
    return 0 if report.ok else 1


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.bench import FloorsError, gate_reports, load_floors

    try:
        floors = load_floors(args.floors)
    except FloorsError as exc:
        print(f"repro bench gate: malformed floors file: {exc}", file=sys.stderr)
        return 2
    if args.check_floors and not args.reports:
        print(f"floors file {args.floors} is schema-valid")
        return 0
    if not args.reports:
        print(
            "repro bench gate: at least one REPORT is required "
            "(or --check-floors to only validate the floors file)",
            file=sys.stderr,
        )
        return 2
    outcome = gate_reports(args.reports, args.floors, floors=floors)
    if args.output_format == "json":
        print(json.dumps(outcome.as_dict(), indent=2))
    else:
        from repro.experiments import format_table

        if outcome.results:
            rows = [result.row() for result in outcome.results]
            print(format_table(rows, title=f"bench gate — floors {args.floors}"))
        for note in outcome.unmatched:
            print(f"note: {note}", file=sys.stderr)
        for error in outcome.errors:
            print(f"error: {error}", file=sys.stderr)
        failed = sum(1 for result in outcome.results if not result.ok)
        verdict = "OK" if outcome.ok else f"FAIL ({failed} check(s) violated)"
        print(f"bench gate: {verdict}")
    return 0 if outcome.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if getattr(args, "bench_command", None) == "gate":
        return _cmd_bench_gate(args)

    from repro.bench import (
        RunnerOptions,
        SpecError,
        load_matrix,
        render_summary,
        run_matrix,
        select_specs,
    )

    if not args.matrix:
        print(
            "repro bench: --matrix PATH is required "
            "(or use the 'gate' subcommand)",
            file=sys.stderr,
        )
        return 2
    try:
        specs = select_specs(load_matrix(args.matrix), args.only)
    except SpecError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    if args.list_specs:
        for spec in specs:
            print(spec.name)
        return 0
    options = RunnerOptions(mode=args.mode, verbose=not args.quiet)
    report = run_matrix(specs, options=options, matrix_path=args.matrix)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(render_summary(report))
    print(f"report written to {args.output}", file=sys.stderr)
    errors = [
        entry for entry in report["specs"] if "error" in entry  # type: ignore[index]
    ]
    if errors:
        for entry in errors:
            print(
                f"repro bench: spec {entry['name']!r} failed: {entry['error']}",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "promote":
        return _cmd_promote(args)
    if args.command == "watchdog":
        return _cmd_watchdog(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "bench":
        return _cmd_bench(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
