"""Unit tests for the command line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.io import save_edge_list
from repro.graph.generators import planted_partition_graph


class TestListDatasets:
    def test_lists_all(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "slashdot" in out
        assert "twitter" in out


class TestCluster:
    def test_cluster_registry_dataset(self, capsys):
        assert main(["cluster", "--dataset", "email", "--mu", "3"]) == 0
        out = capsys.readouterr().out
        assert "StrClu result" in out
        assert "clusters" in out

    def test_cluster_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        save_edge_list(planted_partition_graph(2, 10, 0.7, 0.0, seed=1), path)
        assert main(["cluster", "--edge-list", str(path), "--epsilon", "0.4", "--mu", "3"]) == 0
        assert "Top clusters" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["cluster"]) == 2
        assert main(["cluster", "--dataset", "email", "--edge-list", "x.txt"]) == 2

    def test_cosine_option(self, capsys):
        assert main(["cluster", "--dataset", "email", "--similarity", "cosine"]) == 0


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_dunder_version_exposed(self):
        import repro

        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_unknown_subcommand_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_service_subcommands_registered(self, capsys):
        for command in ("serve", "loadgen", "promote"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert command in capsys.readouterr().out

    def test_serve_rejects_invalid_engine_config_cleanly(self, capsys):
        assert main(["serve", "--batch-size", "0"]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_loadgen_reports_unreachable_server_cleanly(self, capsys):
        # nothing listens on this port: expect a clean exit 2, no traceback
        assert main(["loadgen", "--port", "1", "--updates", "1"]) == 2
        err = capsys.readouterr().err
        assert "no clustering service" in err


class TestReplicationCli:
    def test_serve_replica_of_requires_data_dir(self, capsys):
        assert main(["serve", "--replica-of", "127.0.0.1:1"]) == 2
        assert "--data-dir" in capsys.readouterr().err

    def test_serve_replica_of_rejects_dataset_preload(self, tmp_path, capsys):
        assert (
            main(
                [
                    "serve",
                    "--replica-of",
                    "127.0.0.1:1",
                    "--data-dir",
                    str(tmp_path),
                    "--dataset",
                    "email",
                ]
            )
            == 2
        )
        assert "read-only" in capsys.readouterr().err

    def test_serve_replica_of_rejects_shape_overrides(self, tmp_path, capsys):
        # a standby discovers backend/shards/params from its primary: the
        # CLI must refuse the combination (like the HTTP API does), never
        # silently discard tuning the operator believes applied
        assert (
            main(
                [
                    "serve",
                    "--replica-of",
                    "127.0.0.1:1",
                    "--data-dir",
                    str(tmp_path),
                    "--shards",
                    "4",
                    "--epsilon",
                    "0.9",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "--shards" in err and "--epsilon" in err

    def test_serve_unreachable_primary_exits_cleanly(self, tmp_path, capsys):
        # nothing listens on port 1: a clean exit 2, no traceback
        assert (
            main(
                [
                    "serve",
                    "--replica-of",
                    "127.0.0.1:1",
                    "--data-dir",
                    str(tmp_path),
                ]
            )
            == 2
        )
        assert "repro serve:" in capsys.readouterr().err

    def test_serve_primary_refusal_exits_cleanly(self, tmp_path, capsys):
        # the primary answers but refuses replication (its default tenant
        # is not durable): a clean exit 2 with the reason, no traceback
        from repro.core.config import StrCluParams
        from repro.service import BackgroundServer, EngineManager

        manager = EngineManager(StrCluParams(epsilon=0.5, mu=2, rho=0.0))
        with BackgroundServer(manager) as server:
            assert (
                main(
                    [
                        "serve",
                        "--replica-of",
                        f"127.0.0.1:{server.port}",
                        "--data-dir",
                        str(tmp_path),
                    ]
                )
                == 2
            )
            assert "not durable" in capsys.readouterr().err
        manager.close()

    def test_promote_reports_unreachable_server_cleanly(self, capsys):
        assert main(["promote", "--port", "1", "--tenant", "t"]) == 1
        assert "repro promote:" in capsys.readouterr().err

    def test_promote_round_trip_against_a_live_standby(self, tmp_path, capsys):
        from repro.core.config import StrCluParams
        from repro.core.dynelm import Update
        from repro.service import (
            BackgroundServer,
            EngineConfig,
            EngineManager,
            StandbyEngine,
        )

        params = StrCluParams(epsilon=0.5, mu=2, rho=0.0)
        fast = EngineConfig(batch_size=8)
        manager = EngineManager(
            params,
            default_engine_config=fast,
            data_root=tmp_path / "primary",
            create_default=False,
        )
        manager.create("t")
        engine = manager.get("t")
        for update in [Update.insert(1, 2), Update.insert(2, 3), Update.insert(1, 3)]:
            engine.submit(update)
        engine.flush()
        with BackgroundServer(manager) as primary_server:
            standby = StandbyEngine(
                f"127.0.0.1:{primary_server.port}",
                "t",
                data_dir=tmp_path / "standby" / "t",
                config=fast,
                poll_interval=0.01,
            )
            standby_manager = EngineManager.adopt(standby, name="t")
            with standby:
                with BackgroundServer(standby_manager) as standby_server:
                    import time

                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline and standby.applied < 3:
                        time.sleep(0.02)
                    assert (
                        main(
                            [
                                "promote",
                                "--port",
                                str(standby_server.port),
                                "--tenant",
                                "t",
                            ]
                        )
                        == 0
                    )
                    out = capsys.readouterr().out
                    assert "promoted" in out and "epoch 1" in out
                    assert standby.promoted
        manager.close()


class TestExperiment:
    def test_registry_covers_every_table_and_figure(self):
        from repro.cli import EXPERIMENTS

        expected = {
            "table1", "table2", "table3", "fig4-6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12a", "fig12b",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "not-an-experiment"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestLoadgenSharding:
    def test_in_process_shards_apply_to_every_tenant_including_default(
        self, monkeypatch
    ):
        """Regression: --in-process --shards N must shape the eagerly
        created default tenant too, not only explicitly created ones."""
        import repro.service as service_module

        engine_types = {}
        original = service_module.EngineManager

        class SpyManager(original):
            def create(self, name, *args, **kwargs):
                engine = super().create(name, *args, **kwargs)
                engine_types[name] = type(engine).__name__
                return engine

        monkeypatch.setattr(service_module, "EngineManager", SpyManager)
        status = main(
            [
                "loadgen",
                "--in-process",
                "--shards",
                "2",
                "--tenant",
                "default",
                "--tenant",
                "other",
                "--dataset",
                "email",
                "--updates",
                "40",
                "--query-ratio",
                "0",
            ]
        )
        assert status == 0
        assert engine_types == {
            "default": "ShardedEngine",
            "other": "ShardedEngine",
        }

    def test_invalid_shard_count_is_rejected(self, capsys):
        for bad in ("0", "100000"):
            status = main(
                ["loadgen", "--in-process", "--shards", bad, "--dataset", "email"]
            )
            assert status == 2
            assert "shards must be in [1, 64]" in capsys.readouterr().err


class TestWatchdogCli:
    def test_registered_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watchdog", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--targets" in out and "--quorum" in out

    def test_targets_are_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watchdog"])
        assert excinfo.value.code == 2
        assert "--targets" in capsys.readouterr().err

    def test_invalid_quorum_exits_cleanly(self, capsys):
        status = main(
            ["watchdog", "--targets", "127.0.0.1:1", "--quorum", "0"]
        )
        assert status == 2
        assert "quorum" in capsys.readouterr().err

    def test_invalid_interval_exits_cleanly(self, capsys):
        status = main(
            ["watchdog", "--targets", "127.0.0.1:1", "--interval", "-1"]
        )
        assert status == 2
        assert "interval" in capsys.readouterr().err

    def test_malformed_target_exits_cleanly(self, capsys):
        # "not-a-url" is not HOST:PORT — clean exit 2, no traceback
        status = main(["watchdog", "--targets", "not-a-url"])
        assert status == 2
        assert "repro watchdog:" in capsys.readouterr().err


class TestBenchCli:
    def _matrix(self, tmp_path):
        import json

        path = tmp_path / "matrix.json"
        path.write_text(
            json.dumps({"specs": [{"name": "a", "shards": 1}, {"name": "b"}]})
        )
        return path

    def _floors(self, tmp_path, minimum=1.0):
        import json

        path = tmp_path / "floors.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "gates": [
                        {
                            "benchmark": "demo",
                            "checks": [{"metric": "x", "min": minimum}],
                        }
                    ],
                }
            )
        )
        return path

    def test_list_prints_expanded_specs(self, tmp_path, capsys):
        assert main(["bench", "--matrix", str(self._matrix(tmp_path)), "--list"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["a", "b"]

    def test_matrix_is_required(self, capsys):
        assert main(["bench"]) == 2
        assert "--matrix" in capsys.readouterr().err

    def test_malformed_matrix_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["bench", "--matrix", str(path), "--list"]) == 2
        assert "repro bench:" in capsys.readouterr().err

    def test_gate_passes_and_fails(self, tmp_path, capsys):
        import json

        floors = self._floors(tmp_path, minimum=1.0)
        report = tmp_path / "BENCH_demo.json"
        report.write_text(json.dumps({"benchmark": "demo", "x": 2.0}))
        assert main(["bench", "gate", str(report), "--floors", str(floors)]) == 0
        assert "bench gate: OK" in capsys.readouterr().out

        report.write_text(json.dumps({"benchmark": "demo", "x": 0.5}))
        assert main(["bench", "gate", str(report), "--floors", str(floors)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gate_json_format(self, tmp_path, capsys):
        import json

        floors = self._floors(tmp_path)
        report = tmp_path / "BENCH_demo.json"
        report.write_text(json.dumps({"benchmark": "demo", "x": 2.0}))
        status = main(
            ["bench", "gate", str(report), "--floors", str(floors), "--format", "json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checks"][0]["metric"] == "x"

    def test_gate_check_floors_only(self, tmp_path, capsys):
        assert main(["bench", "gate", "--floors", str(self._floors(tmp_path)), "--check-floors"]) == 0
        assert "schema-valid" in capsys.readouterr().out

    def test_gate_rejects_malformed_floors(self, tmp_path, capsys):
        import json

        path = tmp_path / "floors.json"
        path.write_text(json.dumps({"schema_version": 1, "gates": [{}]}))
        assert main(["bench", "gate", "--floors", str(path), "--check-floors"]) == 2
        assert "repro bench gate:" in capsys.readouterr().err

    def test_gate_requires_reports_without_check_floors(self, tmp_path, capsys):
        assert main(["bench", "gate", "--floors", str(self._floors(tmp_path))]) == 2
