"""REPRO802 — asyncio and the HTTP server load only where they run.

:mod:`repro.service.server` is the one module that runs an asyncio loop.
Every other module — the algorithm layers, the engine, the client, the
bench tools — must import without asyncio or the server, so an in-process
maintainer or a client-only process loads neither.  The checker flags, in
every module but ``repro/service/server.py``, a module-level import of
``asyncio`` (or one of its submodules) or of ``repro.service.server``,
including the server's names as re-exported by the lazy ``repro`` and
``repro.service`` surfaces.  Imports inside a function body stay legal
(``repro serve`` loads the server on its own path), and so do imports
under ``if TYPE_CHECKING:``, which never run.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.devtools.core import Checker, Finding, SourceFile

CODE = "REPRO802"
SERVER_MODULE = "repro.service.server"


def _server_reexports() -> Dict[str, FrozenSet[str]]:
    """Package → the names its lazy surface resolves from the server."""
    import repro
    import repro.service

    return {
        package.__name__: frozenset(
            name for name, module in package._EXPORTS.items() if module == SERVER_MODULE
        )
        for package in (repro, repro.service)
    }


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _module_level_imports(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Imports that run when the module is imported: every block but
    function bodies and ``if TYPE_CHECKING:`` branches."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _module_level_imports(node.orelse)
        else:
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, block, ()))


def _is_asyncio(module: str) -> bool:
    return module == "asyncio" or module.startswith("asyncio.")


class ImportLayeringChecker(Checker):
    name = "import-layering"
    codes = (CODE,)
    description = (
        "module-level import of asyncio or repro.service.server outside "
        "server.py; import them in the function that runs the server"
    )

    def __init__(self) -> None:
        self._reexports = _server_reexports()

    def applies_to(self, source: SourceFile) -> bool:
        return not source.path.as_posix().endswith("/repro/service/server.py")

    def _loads(self, node: ast.stmt) -> Optional[str]:
        """What the import loads that it must not, or ``None``."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_asyncio(alias.name):
                    return "asyncio"
                if alias.name == SERVER_MODULE:
                    return SERVER_MODULE
            return None
        module = node.module or ""
        if node.level or not module:
            return None
        if _is_asyncio(module):
            return "asyncio"
        if module == SERVER_MODULE:
            return SERVER_MODULE
        server_names = self._reexports.get(module, frozenset())
        if module == "repro.service":
            server_names = server_names | {"server"}
        if any(alias.name in server_names for alias in node.names):
            return SERVER_MODULE
        return None

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in _module_level_imports(source.tree.body):
            loaded = self._loads(node)
            if loaded is not None:
                findings.append(
                    self.finding(
                        source,
                        node,
                        CODE,
                        f"module-level import loads {loaded} into every process "
                        "that imports this module; import it inside the function "
                        "that runs the server",
                    )
                )
        return findings
