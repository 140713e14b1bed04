"""Each process imports only the layers it runs.

By the time a test runs, pytest has imported the whole package, so every
case runs its import in a fresh interpreter and inspects what that
interpreter loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only a serving process needs.
SERVING_STACK = {
    "repro.service.server",
    "repro.service.engine",
    "repro.service.replication",
    "repro.service.sharding",
}


def fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_by(statement: str) -> set:
    return set(fresh(f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def test_algorithm_import_loads_no_service_stack():
    modules = loaded_by("from repro import DynStrClu")
    assert "repro.core.dynstrclu" in modules
    assert {"asyncio", "ssl"} & modules == set()
    assert sorted(m for m in modules if m.startswith("repro.service")) == []


@pytest.mark.parametrize(
    "statement",
    ["from repro.service.client import ServiceClient", "import repro.bench.report"],
)
def test_client_side_imports_load_no_serving_stack(statement):
    modules = loaded_by(statement)
    assert SERVING_STACK & modules == set()
    assert "asyncio" not in modules


def test_server_import_loads_asyncio():
    # the one module allowed to: keeps the negative cases above honest
    modules = loaded_by("import repro.service.server")
    assert {"asyncio", *SERVING_STACK} <= modules


@pytest.mark.parametrize("package", ["repro", "repro.service", "repro.bench"])
def test_public_names_are_listed_and_resolve(package):
    listed, resolved = fresh(
        f"import json, {package} as package\n"
        "listed = [name for name in package.__all__ if name in dir(package)]\n"
        "resolved = [name for name in package.__all__ if hasattr(package, name)]\n"
        "print(json.dumps([listed, resolved]))"
    )
    module = importlib.import_module(package)
    assert listed == module.__all__
    assert resolved == module.__all__


def test_unknown_names_still_raise_attribute_error():
    import repro
    import repro.service

    for package in (repro, repro.service):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
