"""Self-tests of the benchmark: every workload at tiny size, plus the checks.

Run with ``python3 -m pytest perfbench/selftest.py -q`` (under a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# the declared workloads plus exact-livej, which runs but is not declared
WORKLOADS = sorted({workload["name"] for workload in DECLARED["workloads"]} | {"exact-livej"})


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return run_bench(
        root, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )


def last_json(out: subprocess.CompletedProcess) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture()
def checkout(tmp_path: Path) -> Path:
    """A copy of what the benchmark needs: the program source and its own files."""
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload: str, trace: int) -> None:
    out = tiny(ROOT, workload, seed=5, trace=trace)
    assert out.returncode == 0, out.stderr
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_counts_must_repeat_at_a_seed(checkout: Path) -> None:
    assert last_json(tiny(checkout, "exact-livej", seed=7, trace=0))["correct"]
    assert last_json(tiny(checkout, "exact-livej", seed=7, trace=0))["correct"]
    ledger_path = checkout / ".perfbench_work" / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    (key,) = ledger
    ledger[key]["heap_op"] += 1
    ledger_path.write_text(json.dumps(ledger))
    out = tiny(checkout, "exact-livej", seed=7, trace=0)
    assert out.returncode != 0
    assert last_json(out)["correct"] is False
    assert "heap_op" in out.stderr


def test_fails_without_the_program(checkout: Path) -> None:
    shutil.rmtree(checkout / "src")
    start = time.monotonic()
    out = tiny(checkout, WORKLOADS[0], seed=1, trace=0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert time.monotonic() - start < 180


def test_self_time_excludes_child_spans() -> None:
    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer()

    def child() -> None:
        time.sleep(0.05)

    def parent() -> None:
        traced_child()
        time.sleep(0.01)

    traced_child = tracer.wrap("inner:child", child)
    tracer.wrap("outer:parent", parent)()
    spans = tracer.snapshot()
    assert spans["inner:child"][1] == spans["outer:parent"][1] == 1
    assert spans["inner:child"][0] / 1e9 >= 0.05
    # the parent slept 0.01 s itself; with the child's 0.05 s it would be >= 0.06
    assert 0.01 <= spans["outer:parent"][0] / 1e9 < 0.05
