"""Declarative capacity benchmarking: spec matrix -> run -> report -> gate.

The single way perf claims are made and enforced in this repository:

* :mod:`repro.bench.spec` — the JSON/TOML matrix file format and its
  expansion into validated :class:`BenchSpec` bundles;
* :mod:`repro.bench.runner` — boots real servers per spec (replica
  chains included), drives them with the open-loop load generator,
  scrapes ``/metrics`` and runs the max-sustainable-rate search;
* :mod:`repro.bench.report` — host fingerprint, percentile tables and
  the consolidated ``BENCH_capacity.json`` document;
* :mod:`repro.bench.gate` — ``benchmarks/floors.json`` floors/ceilings
  with tolerance bands, evaluated against any ``BENCH_*.json`` report.

CLI: ``repro bench --matrix benchmarks/capacity_matrix.json`` and
``repro bench gate BENCH_*.json --floors benchmarks/floors.json``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first access
#: (``repro bench gate`` never loads the runner and its servers).
_EXPORTS = {
    name: module
    for module, names in {
        "repro.bench.gate": (
            "FLOORS_SCHEMA_VERSION",
            "CheckResult",
            "FloorsError",
            "GateOutcome",
            "evaluate_report",
            "gate_reports",
            "load_floors",
            "resolve_metric",
            "validate_floors",
        ),
        "repro.bench.report": (
            "SCHEMA_VERSION",
            "build_report",
            "host_fingerprint",
            "percentile_from_buckets",
            "render_summary",
            "summary_rows",
        ),
        "repro.bench.runner": (
            "BenchRunError",
            "CapacityRunner",
            "ProbeResult",
            "RunnerOptions",
            "run_matrix",
            "search_max_sustainable",
        ),
        "repro.bench.spec": (
            "BenchSpec",
            "ReplicaTopology",
            "SpecError",
            "expand_matrix",
            "load_matrix",
            "select_specs",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

if TYPE_CHECKING:
    from repro.bench.gate import (
        FLOORS_SCHEMA_VERSION,
        CheckResult,
        FloorsError,
        GateOutcome,
        evaluate_report,
        gate_reports,
        load_floors,
        resolve_metric,
        validate_floors,
    )
    from repro.bench.report import (
        SCHEMA_VERSION,
        build_report,
        host_fingerprint,
        percentile_from_buckets,
        render_summary,
        summary_rows,
    )
    from repro.bench.runner import (
        BenchRunError,
        CapacityRunner,
        ProbeResult,
        RunnerOptions,
        run_matrix,
        search_max_sustainable,
    )
    from repro.bench.spec import (
        BenchSpec,
        ReplicaTopology,
        SpecError,
        expand_matrix,
        load_matrix,
        select_specs,
    )
