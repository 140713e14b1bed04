"""The benchmark's layer tracing must find every attribute it wraps.

``perfbench/tracing.py`` wraps program functions through
``vars(owner)[name]``.  A program change that renames or drops one of
those bindings would crash a traced benchmark run (``--trace 1``); this
test makes the rename fail here instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


@pytest.mark.parametrize("targets", [tracing.core_targets, tracing.service_targets])
def test_every_trace_target_is_bound_on_its_owner(targets):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _layer in targets()
        if name not in vars(owner)
    ]
    assert not missing, f"trace targets without a binding: {missing}"
