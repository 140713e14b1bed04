"""REPRO401/REPRO501 — asyncio-loop hygiene for the HTTP server.

**REPRO401 async-blocking**: an ``async def`` in ``server.py`` runs on
the event loop; one blocking call there stalls *every* connection.  The
sanctioned escape hatch is the executor hop —
``await loop.run_in_executor(None, self._dispatch, ...)`` — where the
blocking callable is passed *by reference* (and therefore is not a call
the checker sees).  Direct calls to known-blocking names inside an async
function are findings: the dispatchers (which may take engine locks,
flush WALs, or replay history), file I/O, ``time.sleep``, and the
blocking engine/manager mutations.

**REPRO501 error-envelope**: every error a v1 route handler surfaces
must travel as the structured envelope ``{"error": {code, message,
retryable}}``, which means handlers raise the project's error families
(``BadRequest``, ``_ProtocolError``, the ``ServiceError`` /
``EngineError`` / tenant hierarchies) — never bare builtin exceptions,
which the dispatcher cannot map to an envelope and a client cannot
pattern-match.  Lifecycle code (the async start/stop surface and the
embedding ``BackgroundServer``) is exempt: its errors face the embedding
process, not HTTP clients.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.devtools.core import Checker, Finding, SourceFile

ASYNC_CODE = "REPRO401"
ENVELOPE_CODE = "REPRO501"

#: Method/function names that block (or may block) when called directly.
BLOCKING_ATTRS = frozenset(
    {
        "_dispatch",
        "_dispatch_routes",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "fsync",
        "load_snapshot",
        "save_snapshot",
        "view_at",
        "fetch_wal",
        "create_tenant",
        "delete_tenant",
        "fence_tenant",
        "promote",
        "reparent",
        "reseed",
        "flush",
        "submit",
        "submit_many",
        "checkpoint",
    }
)

#: Exception constructors a route handler must not raise bare.
DISALLOWED_RAISES = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "KeyError",
        "RuntimeError",
        "NotImplementedError",
        "OSError",
        "IOError",
    }
)

#: Classes whose raises face the embedding process, not HTTP clients.
ENVELOPE_EXEMPT_CLASSES = frozenset({"BackgroundServer"})


def _blocking_call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if (
            func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            return "time.sleep"
        if func.attr in BLOCKING_ATTRS:
            return func.attr
    return None


class AsyncBlockingChecker(Checker):
    name = "async-blocking"
    codes = (ASYNC_CODE,)
    description = (
        "async handlers must not call blocking names directly; hop "
        "through run_in_executor"
    )
    scope = ("/repro/service/server.py",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for outer in ast.walk(source.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call):
                    continue
                name = _blocking_call_name(node)
                if name is None:
                    continue
                findings.append(
                    self.finding(
                        source,
                        node,
                        ASYNC_CODE,
                        f"blocking call {name}(...) on the event loop in "
                        f"async {outer.name}(); dispatch it through "
                        "run_in_executor",
                    )
                )
        return findings


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


class ErrorEnvelopeChecker(Checker):
    name = "error-envelope"
    codes = (ENVELOPE_CODE,)
    description = (
        "route handlers raise the structured ServiceError family, never "
        "bare builtin exceptions"
    )
    scope = ("/repro/service/server.py",)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_name(node)
            if name is None or name not in DISALLOWED_RAISES:
                continue
            exempt = False
            for ancestor in source.ancestors(node):
                if isinstance(ancestor, ast.AsyncFunctionDef):
                    exempt = True  # lifecycle surface, not a route handler
                    break
                if (
                    isinstance(ancestor, ast.ClassDef)
                    and ancestor.name in ENVELOPE_EXEMPT_CLASSES
                ):
                    exempt = True
                    break
            if exempt:
                continue
            findings.append(
                self.finding(
                    source,
                    node,
                    ENVELOPE_CODE,
                    f"bare {name} raised in a route handler; raise "
                    "BadRequest/_ProtocolError (or the ServiceError "
                    "family) so the dispatcher can map it to the "
                    "structured error envelope",
                )
            )
        return findings
