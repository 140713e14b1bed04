"""Spec-matrix parsing, validation and expansion."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.spec import (
    BenchSpec,
    ReplicaTopology,
    SpecError,
    expand_matrix,
    load_matrix,
    select_specs,
)


class TestBenchSpecValidation:
    def test_defaults_are_valid(self):
        spec = BenchSpec(name="s")
        assert spec.backend == "dynstrclu"
        assert spec.shards == 1
        assert spec.rate == 0.0
        assert spec.replicas == ReplicaTopology()

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            BenchSpec(name="s", backend="nope")

    def test_query_ratio_must_be_below_one(self):
        with pytest.raises(SpecError, match="query_ratio"):
            BenchSpec(name="s", query_ratio=1.0)
        with pytest.raises(SpecError, match="query_ratio"):
            BenchSpec(name="s", query_ratio=-0.1)

    def test_updates_floor(self):
        with pytest.raises(SpecError, match="updates"):
            BenchSpec(name="s", updates=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(SpecError, match="rate"):
            BenchSpec(name="s", rate=-1.0)

    def test_replication_forces_durability(self):
        spec = BenchSpec(
            name="s", replicas=ReplicaTopology(chain_depth=1), durable=False
        )
        assert spec.durable is True

    def test_no_replication_keeps_durability_choice(self):
        assert BenchSpec(name="s").durable is False

    def test_tenant_names(self):
        assert BenchSpec(name="s", tenants=3).tenant_names == ["t0", "t1", "t2"]

    def test_as_dict_round_trips_replicas(self):
        doc = BenchSpec(name="s", replicas=ReplicaTopology(2, 2, False)).as_dict()
        assert doc["replicas"] == {
            "chain_depth": 2,
            "fanout": 2,
            "read_from_standbys": False,
        }


class TestReplicaTopology:
    def test_standby_count(self):
        assert ReplicaTopology(chain_depth=2, fanout=3).standby_count == 6
        assert ReplicaTopology().standby_count == 0

    def test_unknown_key_rejected_loudly(self):
        with pytest.raises(SpecError) as excinfo:
            ReplicaTopology.from_document({"chain_dpeth": 1})
        assert "chain_dpeth" in str(excinfo.value)
        assert "chain_depth" in str(excinfo.value)  # accepted keys are listed

    def test_bounds(self):
        with pytest.raises(SpecError):
            ReplicaTopology(chain_depth=-1)
        with pytest.raises(SpecError):
            ReplicaTopology(fanout=0)


class TestExpandMatrix:
    def test_cross_product_count(self):
        doc = {
            "matrix": {"shards": [1, 2, 4], "tenants": [1, 4]},
            "defaults": {"updates": 10},
        }
        specs = expand_matrix(doc, "inline")
        assert len(specs) == 6
        assert sorted({s.shards for s in specs}) == [1, 2, 4]
        assert all(s.updates == 10 for s in specs)

    def test_explicit_specs_appended(self):
        doc = {
            "matrix": {"shards": [1, 2]},
            "specs": [{"name": "chain", "replicas": {"chain_depth": 1}}],
        }
        specs = expand_matrix(doc, "inline")
        assert len(specs) == 3
        assert specs[-1].name == "chain"
        assert specs[-1].replicas.chain_depth == 1

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="matrrix"):
            expand_matrix({"matrrix": {"shards": [1]}}, "inline")

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SpecError, match="shardz"):
            expand_matrix({"specs": [{"name": "x", "shardz": 2}]}, "inline")

    def test_unknown_default_rejected(self):
        with pytest.raises(SpecError, match="updatez"):
            expand_matrix({"defaults": {"updatez": 5}, "matrix": {"shards": [1]}}, "i")

    def test_name_not_a_matrix_axis(self):
        with pytest.raises(SpecError, match="name"):
            expand_matrix({"matrix": {"name": ["a", "b"]}}, "inline")

    def test_empty_document_rejected(self):
        with pytest.raises(SpecError, match="no specs"):
            expand_matrix({}, "inline")

    def test_duplicate_names_get_suffixes(self):
        doc = {"specs": [{"name": "x"}, {"name": "x"}]}
        names = [s.name for s in expand_matrix(doc, "inline")]
        assert len(set(names)) == 2

    def test_auto_names_are_deterministic(self):
        doc = {"matrix": {"rate": [0, 100.0], "shards": [1]}}
        names = [s.name for s in expand_matrix(doc, "inline")]
        assert names == ["ratemax-shards1", "rate100-shards1"]


class TestLoadMatrix:
    def test_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"specs": [{"name": "a"}]}))
        specs = load_matrix(path)
        assert [s.name for s in specs] == ["a"]

    def test_malformed_json_is_spec_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(SpecError):
            load_matrix(path)

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError):
            load_matrix(tmp_path / "absent.json")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
    def test_toml_file(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text('[[specs]]\nname = "a"\nshards = 4\n')
        specs = load_matrix(path)
        assert specs[0].shards == 4

    def test_committed_matrices_expand(self):
        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        ci = load_matrix(bench_dir / "capacity_matrix_ci.json")
        assert {s.name for s in ci} == {"shard1", "shard4", "chain1", "approx1"}
        # approx1 is the one served approximate-mode ingest any CI gate runs
        assert [s.rho for s in ci if s.name == "approx1"] == [0.5]
        full = load_matrix(bench_dir / "capacity_matrix.json")
        assert len(full) == 9
        assert all(s.saturation_search for s in full)


class TestSelectSpecs:
    def test_only_filter(self):
        specs = expand_matrix({"specs": [{"name": "a"}, {"name": "b"}]}, "i")
        assert [s.name for s in select_specs(specs, ["b"])] == ["b"]

    def test_unknown_name_rejected(self):
        specs = expand_matrix({"specs": [{"name": "a"}]}, "i")
        with pytest.raises(SpecError, match="nope"):
            select_specs(specs, ["nope"])

    def test_no_filter_is_identity(self):
        specs = expand_matrix({"specs": [{"name": "a"}]}, "i")
        assert select_specs(specs, None) == specs
