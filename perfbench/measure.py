"""Shared measurement helpers: percentiles, per-layer metrics, the
determinism ledger and the run's working directory."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Sequence

from tracing import Snapshot, layer_self_ns

ROOT = Path(__file__).resolve().parent.parent
#: scratch space of a run (server data dirs, trace dumps, the ledger);
#: everything but the ledger is removed when a run ends
WORK = ROOT / ".perfbench_work"

#: OpCounter names reported per update, as (per-layer metric, counter name)
COUNT_METRICS = (
    ("core.estimator.samples_per_update", "sample"),
    ("core.estimator.similarity_evals_per_update", "similarity_eval"),
    ("core.estimator.neighbour_probes_per_update", "neighbour_probe"),
    ("core.labelling.invocations_per_update", "label_invocation"),
    ("dt.heap_ops_per_update", "heap_op"),
    ("dt.signals_per_update", "dt_signal"),
    ("connectivity.cc_ops_per_update", "cc_op"),
)

#: traced layers whose self time is reported per update
SELF_TIME_LAYERS = (
    "core.estimator",
    "core.labelling",
    "core.affordability",
    "dt",
    "graph",
    "core.aux_info",
    "connectivity",
    "core.dynelm",
    "core.dynstrclu",
    "service.views",
    "persistence",
)


class CheckFailed(Exception):
    """An output or determinism check failed; the run reports ``correct: false``."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without float error
    return float(ordered[int(rank) - 1])


def count_metrics(counts: Dict[str, int], updates: int) -> Dict[str, float]:
    """The per-update OpCounter metrics over ``updates`` updates."""
    return {
        metric: counts.get(name, 0) / updates for metric, name in COUNT_METRICS
    }


def self_time_metrics(spans: Snapshot, updates: int) -> Dict[str, float]:
    """``<layer>.self_us_per_update`` for every reported layer."""
    by_layer = layer_self_ns(spans)
    return {
        f"{layer}.self_us_per_update": by_layer.get(layer, 0) / 1e3 / updates
        for layer in SELF_TIME_LAYERS
    }


def mean_call_us(spans: Snapshot, key: str) -> float:
    """Mean self time of one traced function, in microseconds (0 if never called)."""
    ns, calls = spans.get(key, (0, 0))
    return ns / 1e3 / calls if calls else 0.0


def source_digest() -> str:
    """Digest of the program and benchmark source: the ledger compares like with like."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(key: str, counts: Dict[str, int]) -> Optional[str]:
    """Record ``counts`` under ``key``; return a mismatch message, if any.

    The OpCounter counts and ``memory_words`` are deterministic at a given
    seed, so every run of the same source at the same key must reproduce
    the first one's values exactly.  The ledger persists in the working
    directory between runs.
    """
    key = f"{source_digest()}/{key}"
    WORK.mkdir(exist_ok=True)
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.get(key)
    if previous is not None:
        if previous != counts:
            changed = sorted(
                name
                for name in set(previous) | set(counts)
                if previous.get(name) != counts.get(name)
            )
            return f"counts at {key} differ from an earlier run: {', '.join(changed)}"
        return None
    ledger[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB (default: this one)."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")
