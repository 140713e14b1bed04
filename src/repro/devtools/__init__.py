"""``repro check`` — the project-invariant static-analysis suite.

The service stack's invariants (monotonic-clock discipline, lock-guarded
state, durable writes, asyncio hygiene, structured errors, thread
lifecycle) are enforced mechanically on every change instead of being
re-derived by reviewers — the same spirit in which the DynStrClu
maintainer enforces its clustering invariants incrementally under
updates.  See docs/DEVTOOLS.md for the check codes, the ``# guarded-by:``
annotation convention and the ``# repro: allow[CODE]`` suppression
syntax.

Check codes
-----------
========== ================ ==================================================
REPRO101   monotonic        ``time.time()`` outside the event-timestamp
                            allowlist in ``repro.service``
REPRO201   guarded-field    ``# guarded-by:`` field touched outside its lock
REPRO301   durable-write    state file written outside ``write_durable``
REPRO401   async-blocking   blocking call on the asyncio loop in ``server.py``
REPRO501   error-envelope   bare builtin exception raised in a route handler
REPRO601   thread-hygiene   ``threading.Thread`` without an explicit ``name=``
REPRO602   thread-hygiene   thread stored on ``self`` but never joined
REPRO701   span-hygiene     tracer ``span()`` opened outside a ``with``
REPRO801   engine-surface   ``getattr()`` on an engine in ``repro.service``
REPRO802   import-layering  module-level ``asyncio`` or ``repro.service.server``
                            import outside ``server.py``
========== ================ ==================================================
"""

from __future__ import annotations

from typing import List

from repro.devtools.asyncio_hygiene import AsyncBlockingChecker, ErrorEnvelopeChecker
from repro.devtools.clocks import MonotonicDisciplineChecker
from repro.devtools.core import (
    Checker,
    CheckReport,
    Finding,
    SourceFile,
    iter_python_files,
    load_source,
    run_checks,
    select_checkers,
)
from repro.devtools.durability import DurableWriteChecker
from repro.devtools.layering import ImportLayeringChecker
from repro.devtools.locking import GuardedFieldChecker, ThreadHygieneChecker
from repro.devtools.spans import SpanHygieneChecker
from repro.devtools.surface import EngineSurfaceChecker

__all__ = [
    "Checker",
    "CheckReport",
    "Finding",
    "SourceFile",
    "all_checkers",
    "iter_python_files",
    "load_source",
    "run_checks",
    "select_checkers",
    "MonotonicDisciplineChecker",
    "GuardedFieldChecker",
    "DurableWriteChecker",
    "AsyncBlockingChecker",
    "ErrorEnvelopeChecker",
    "ThreadHygieneChecker",
    "SpanHygieneChecker",
    "EngineSurfaceChecker",
    "ImportLayeringChecker",
]


def all_checkers() -> List[Checker]:
    """Fresh instances of every project checker, in code order."""
    return [
        MonotonicDisciplineChecker(),
        GuardedFieldChecker(),
        DurableWriteChecker(),
        AsyncBlockingChecker(),
        ErrorEnvelopeChecker(),
        ThreadHygieneChecker(),
        SpanHygieneChecker(),
        EngineSurfaceChecker(),
        ImportLayeringChecker(),
    ]
