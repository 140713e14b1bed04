"""The repository benchmark: DynStrClu update streams in-process and over HTTP.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one workload (see ``WORKLOADS``) and prints a report followed, as the
last line of standard output, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from a run
that wraps each layer's public functions (see ``tracing.py``).  ``--tiny``
runs the same workload on a small prefix of its stand-in, for self-tests.

``exact-livej`` runs and checks its outputs like the others but is not
declared in ``BENCHMARK.json``: its reads touch a working set that does not
fit in the private caches, and on a shared host they slowed by 1.6x for a
minute at a time, longer than its runs, so they could not be made steady.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import core_workloads  # noqa: E402
import served_workloads  # noqa: E402
from measure import WORK, CheckFailed  # noqa: E402
from repro.bench.report import host_fingerprint  # noqa: E402

WORKLOADS = {
    "approx-email": (
        core_workloads,
        core_workloads.CoreWorkload(
            dataset="email", rho=0.01, setup_reps=2, nominal_rate=20.0, retrievals=5,
        ),
        "The paper's approximate mode as users get it: the sampling oracle carries "
        "the time, so this is where an oracle change must show its gain.",
    ),
    "exact-livej": (
        core_workloads,
        core_workloads.CoreWorkload(
            dataset="livej", rho=0.0, setup_reps=2, nominal_rate=800.0, retrievals=2,
        ),
        "Exact mode draws no samples, so sampling changes must not move it; its "
        "time goes to the DT tracker, exact intersections and HDT connectivity.",
    ),
    "served-mix": (
        served_workloads,
        served_workloads.ServedWorkload(
            dataset="google", update_rate=200.0, request_size=16, groupby_rate=50.0,
            setup_reps=4, quiet_queries=200, retrievals=40,
        ),
        "What a service user sees: HTTP, the engine queue and micro-batching, the "
        "WAL, incremental view publication and reads, all beside writes under one GIL.",
    ),
}

#: per-layer metrics of layers an in-process run does not have
NOT_IN_PROCESS = ("service.", "persistence.", "served.", "loadgen.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    module, workload, why = WORKLOADS[args.workload]
    if args.tiny:
        workload = module.tiny(workload)
    try:
        result = module.run(workload, args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        # keep only the determinism ledger between runs
        if WORK.exists():
            for path in WORK.iterdir():
                if path.name != "ledger.json":
                    shutil.rmtree(path) if path.is_dir() else path.unlink()

    values = result["per_layer" if args.trace else "end_to_end"]
    if module is core_workloads and args.trace:
        for spec in wanted:
            if spec["name"].startswith(NOT_IN_PROCESS):
                values.setdefault(spec["name"], 0.0)
    missing = [spec["name"] for spec in wanted if spec["name"] not in values]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in wanted
    }
    report = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_fingerprint(),
        **result["report"],
    }
    print(json.dumps(report, indent=1))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
