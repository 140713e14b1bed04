"""REPRO801 — one engine surface in the serving layer.

Every tenant engine (plain, sharded, standby, never started) answers the
same read surface, so code in ``repro.service`` asks an engine what it
needs through that surface and never probes its shape.  A
``getattr(engine, "...", default)`` is such a probe: it quietly grows a
second, duck-typed surface beside the declared one, and the shape walks it
enables are what the single surface replaced.  The checker flags a
``getattr`` whose first argument names an engine — ``engine``,
``<expr>.engine`` or any ``*_engine`` — and leaves ``getattr`` on other
objects (``getattr(maintainer, "core_attachments", None)``) alone.
"""

from __future__ import annotations

import ast
from typing import List

from repro.devtools.core import Checker, Finding, SourceFile

CODE = "REPRO801"


def _names_an_engine(node: ast.AST) -> bool:
    """True for ``engine``, ``<expr>.engine`` and ``*_engine`` spellings."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name == "engine" or name.endswith("_engine")


class EngineSurfaceChecker(Checker):
    name = "engine-surface"
    codes = (CODE,)
    description = (
        "getattr() on an engine in repro.service; engines share one declared "
        "read surface, so probe nothing beside it"
    )
    scope = ("/repro/service/",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and node.args
                and _names_an_engine(node.args[0])
            ):
                findings.append(
                    self.finding(
                        source,
                        node,
                        CODE,
                        "getattr() on an engine probes its shape; use the "
                        "engine surface every tenant engine implements",
                    )
                )
        return findings
