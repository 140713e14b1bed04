"""Run ``repro serve`` with the benchmark's layer tracing installed.

Usage: ``python3 perfbench/serve_traced.py BASE <repro serve arguments>``

Wraps the algorithm layers plus view publication and WAL append (see
:mod:`tracing`), gives every maintainer an ``OpCounter``, then
calls ``repro.cli.main(["serve", ...])``.  SIGUSR1 and SIGUSR2 write the
spans and counts so far to ``BASE.mark.json`` and ``BASE.end.json``, so the
benchmark can take the difference over its timed phase.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv: list) -> int:
    base = Path(argv[0])
    tracer = tracing.Tracer()
    counters: list = []
    tracing.install(tracer, tracing.core_targets() + tracing.service_targets())
    tracing.inject_counters(counters)

    def dump(signum, _frame) -> None:
        name = "mark" if signum == signal.SIGUSR1 else "end"
        counts: Counter = Counter()
        for counter in list(counters):
            counts.update(dict(counter.counts))
        path = base.with_suffix(f".{name}.json")
        tmp = base.with_suffix(f".{name}.tmp")
        tmp.write_text(json.dumps({"spans": tracer.snapshot(), "counts": dict(counts)}))
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGUSR2, dump)
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
