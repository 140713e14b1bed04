"""Every ``scripts/smoke_*.py`` gate imports against the current API.

The smokes run as separate CI jobs and take tens of seconds each, so a
helper removed from ``scripts/_smoke.py`` or a library name they import
that moved would otherwise surface only there.  Importing each module
(with ``scripts/`` on ``sys.path``, as ``python scripts/<name>.py`` has
it) without calling ``main()`` catches that here in seconds.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SMOKES = sorted(SCRIPTS.glob("smoke_*.py"))


def test_smoke_scripts_are_found():
    assert SMOKES


@pytest.mark.parametrize("script", SMOKES, ids=lambda path: path.name)
def test_smoke_script_imports(script, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module(script.stem)
    assert callable(module.main)
