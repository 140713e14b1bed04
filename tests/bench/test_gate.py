"""Floors-file validation and report gating."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.gate import (
    FloorsError,
    evaluate_report,
    gate_reports,
    load_floors,
    resolve_metric,
    validate_floors,
)

FLOORS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "floors.json"


def _floors(*checks, benchmark="demo"):
    return {
        "schema_version": 1,
        "gates": [{"benchmark": benchmark, "checks": list(checks)}],
    }


class TestValidateFloors:
    def test_committed_floors_are_valid(self):
        floors = load_floors(FLOORS_PATH)
        assert validate_floors(floors, str(FLOORS_PATH)) == []

    def test_unknown_top_level_key(self):
        doc = _floors({"metric": "x", "min": 1})
        doc["gatez"] = []
        problems = validate_floors(doc, "inline")
        assert any("gatez" in p for p in problems)

    def test_missing_bound_flagged(self):
        problems = validate_floors(_floors({"metric": "x"}), "inline")
        assert any("min" in p for p in problems)

    def test_equals_not_combinable_with_min(self):
        problems = validate_floors(
            _floors({"metric": "x", "equals": 1, "min": 0}), "inline"
        )
        assert problems

    def test_negative_tolerance_flagged(self):
        problems = validate_floors(
            _floors({"metric": "x", "min": 1, "tolerance": -0.1}), "inline"
        )
        assert problems

    def test_newer_schema_version_flagged(self):
        doc = _floors({"metric": "x", "min": 1})
        doc["schema_version"] = 99
        assert validate_floors(doc, "inline")

    def test_duplicate_benchmark_gates_flagged(self):
        doc = _floors({"metric": "x", "min": 1})
        doc["gates"].append(doc["gates"][0])
        assert any("duplicate" in p for p in validate_floors(doc, "inline"))

    def test_load_floors_raises_on_problems(self, tmp_path):
        path = tmp_path / "floors.json"
        path.write_text(json.dumps({"schema_version": 1, "gates": [{}]}))
        with pytest.raises(FloorsError):
            load_floors(path)


class TestResolveMetric:
    DOC = {"a": {"b": 2.5}, "items": [{"v": 1}, {"v": 2}], "flag": True}

    def test_dot_path(self):
        assert resolve_metric(self.DOC, "a.b") == [("a.b", 2.5)]

    def test_wildcard_fans_out(self):
        assert resolve_metric(self.DOC, "items.*.v") == [
            ("items.0.v", 1),
            ("items.1.v", 2),
        ]

    def test_numeric_index(self):
        assert resolve_metric(self.DOC, "items.1.v") == [("items.1.v", 2)]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            resolve_metric(self.DOC, "a.nope")


class TestEvaluateReport:
    def test_floor_pass_and_fail(self):
        floors = _floors({"metric": "x", "min": 2.0})
        ok = evaluate_report({"benchmark": "demo", "x": 2.0}, floors, "r")
        assert [r.ok for r in ok] == [True]
        bad = evaluate_report({"benchmark": "demo", "x": 1.99}, floors, "r")
        assert [r.ok for r in bad] == [False]

    def test_tolerance_band_widens_floor(self):
        floors = _floors({"metric": "x", "min": 2.0, "tolerance": 0.1})
        ok = evaluate_report({"benchmark": "demo", "x": 1.85}, floors, "r")
        assert ok[0].ok
        bad = evaluate_report({"benchmark": "demo", "x": 1.79}, floors, "r")
        assert not bad[0].ok

    def test_exclusive_floor(self):
        floors = _floors({"metric": "x", "min": 0, "exclusive": True})
        assert not evaluate_report({"benchmark": "demo", "x": 0}, floors, "r")[0].ok
        assert evaluate_report({"benchmark": "demo", "x": 0.1}, floors, "r")[0].ok

    def test_ceiling(self):
        floors = _floors({"metric": "x", "max": 5})
        assert evaluate_report({"benchmark": "demo", "x": 5}, floors, "r")[0].ok
        assert not evaluate_report({"benchmark": "demo", "x": 6}, floors, "r")[0].ok

    def test_equals_bool_is_type_strict(self):
        floors = _floors({"metric": "flag", "equals": True})
        assert evaluate_report({"benchmark": "demo", "flag": True}, floors, "r")[0].ok
        # a truthy non-bool (e.g. 1) must NOT satisfy equals: true
        assert not evaluate_report({"benchmark": "demo", "flag": 1}, floors, "r")[0].ok
        assert not evaluate_report({"benchmark": "demo", "flag": False}, floors, "r")[
            0
        ].ok

    def test_missing_metric_is_a_failure(self):
        floors = _floors({"metric": "a.b.c", "min": 1})
        results = evaluate_report({"benchmark": "demo"}, floors, "r")
        assert [r.ok for r in results] == [False]
        assert "a.b.c" in results[0].metric

    def test_non_numeric_value_is_a_failure(self):
        floors = _floors({"metric": "x", "min": 1})
        assert not evaluate_report({"benchmark": "demo", "x": "fast"}, floors, "r")[
            0
        ].ok

    def test_report_without_benchmark_field_fails(self):
        floors = _floors({"metric": "x", "min": 1})
        results = evaluate_report({"x": 5}, floors, "r")
        assert results and not results[0].ok

    def test_wildcard_checks_every_element(self):
        floors = _floors({"metric": "specs.*.v", "min": 1})
        report = {"benchmark": "demo", "specs": [{"v": 2}, {"v": 0}]}
        results = evaluate_report(report, floors, "r")
        assert [r.ok for r in results] == [True, False]


class TestMigratedCiDecisions:
    """The gate must reproduce every decision the old inline asserts made."""

    def test_capacity_ingest_and_queries(self):
        # every capacity spec must ingest (> 0 updates/s) and query (> 0)
        floors = load_floors(FLOORS_PATH)

        def report(achieved, queries):
            spec = {
                "ingest": {
                    "achieved_updates_per_second": achieved,
                    "updates_rejected": 0,
                },
                "query": {"count": queries},
            }
            return {
                "benchmark": "capacity_matrix",
                "host": {"cpu_count": 2},
                "specs": [spec],
            }

        assert all(r.ok for r in evaluate_report(report(1234.5, 21), floors, "r"))
        assert any(not r.ok for r in evaluate_report(report(0, 21), floors, "r"))
        assert any(not r.ok for r in evaluate_report(report(1234.5, 0), floors, "r"))

    def test_view_capture(self):
        floors = load_floors(FLOORS_PATH)
        base = {
            "benchmark": "view_capture",
            "config": {"verified_equivalence": True},
            "incremental": {"fallbacks": 0},
            "speedup": 3.2,
        }
        assert all(r.ok for r in evaluate_report(base, floors, "r"))

        diverged = dict(base, config={"verified_equivalence": False})
        assert any(not r.ok for r in evaluate_report(diverged, floors, "r"))

        fell_back = dict(base, incremental={"fallbacks": 2})
        assert any(not r.ok for r in evaluate_report(fell_back, floors, "r"))

        slow = dict(base, speedup=1.9)
        assert any(not r.ok for r in evaluate_report(slow, floors, "r"))

    def test_sharded_throughput(self):
        floors = load_floors(FLOORS_PATH)
        base = {
            "benchmark": "sharded_throughput",
            "config": {"verified_equivalence": True},
            "speedup_4x": 2.1,
        }
        assert all(r.ok for r in evaluate_report(base, floors, "r"))
        assert any(
            not r.ok for r in evaluate_report(dict(base, speedup_4x=1.4), floors, "r")
        )
        bad_eq = dict(base, config={"verified_equivalence": False})
        assert any(not r.ok for r in evaluate_report(bad_eq, floors, "r"))


class TestGateReports:
    def test_end_to_end_files(self, tmp_path):
        floors_path = tmp_path / "floors.json"
        floors_path.write_text(
            json.dumps(_floors({"metric": "x", "min": 2.0}, benchmark="demo"))
        )
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps({"benchmark": "demo", "x": 3}))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"benchmark": "demo", "x": 1}))

        outcome = gate_reports([good], floors_path)
        assert outcome.ok
        outcome = gate_reports([good, bad], floors_path)
        assert not outcome.ok
        assert len(outcome.results) == 2

    def test_unmatched_report_is_surfaced(self, tmp_path):
        floors_path = tmp_path / "floors.json"
        floors_path.write_text(
            json.dumps(_floors({"metric": "x", "min": 1}, benchmark="other"))
        )
        report = tmp_path / "BENCH_x.json"
        report.write_text(json.dumps({"benchmark": "demo", "x": 1}))
        outcome = gate_reports([report], floors_path)
        assert outcome.ok  # no gate matched: not a failure, but surfaced
        assert len(outcome.unmatched) == 1
        assert "demo" in outcome.unmatched[0]

    def test_unreadable_report_is_an_error(self, tmp_path):
        floors_path = tmp_path / "floors.json"
        floors_path.write_text(
            json.dumps(_floors({"metric": "x", "min": 1}, benchmark="demo"))
        )
        outcome = gate_reports([tmp_path / "absent.json"], floors_path)
        assert not outcome.ok
        assert outcome.errors
