"""The top-level package exposes the documented public API."""

from __future__ import annotations

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    def test_core_entry_points_present(self):
        for name in (
            "DynELM",
            "DynStrClu",
            "StrCluParams",
            "Clustering",
            "static_scan",
            "ExactDynamicSCAN",
            "IndexedDynamicSCAN",
        ):
            assert name in repro.__all__

    def test_extension_entry_points_present(self):
        for name in (
            "SlidingWindowClustering",
            "ClusterTracker",
            "classify_roles",
            "take_snapshot",
            "restore_dynstrclu",
        ):
            assert name in repro.__all__

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_quickstart_docstring_flow(self):
        """The flow shown in the package docstring works as written."""
        params = repro.StrCluParams(epsilon=0.5, mu=2, rho=0.01, seed=1)
        algo = repro.DynStrClu(params)
        for edge in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            algo.insert_edge(*edge)
        assert algo.clustering().num_clusters == 1
