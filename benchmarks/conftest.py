"""Shared helpers for the benchmark suite.

Every module under ``benchmarks/`` reproduces one table or figure of the
paper (its docstring and the runner it calls in ``repro.experiments.runner``
name which).  Each benchmark

* runs the corresponding experiment runner once (``benchmark.pedantic`` with
  a single round — the experiment itself already iterates over a whole
  update sequence),
* prints the reproduced rows/series in the same layout as the paper, and
* asserts the qualitative *shape* of the paper's result (who wins, by
  roughly what factor, which direction a sweep moves) — absolute numbers are
  not comparable because the substrate is a pure-Python simulator on
  synthetic stand-in datasets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import pytest

from repro.experiments.reporting import format_table


def run_once(benchmark, func: Callable[[], List[Dict[str, object]]], label: str):
    """Run an experiment exactly once under pytest-benchmark and print its table."""
    rows = benchmark.pedantic(func, rounds=1, iterations=1)
    print()
    print(format_table(rows, title=label))
    benchmark.extra_info["rows"] = len(rows)
    return rows


@pytest.fixture
def small_scale() -> float:
    """Update-sequence length as a multiple of the initial edge count."""
    return 0.3
