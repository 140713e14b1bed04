"""Helpers shared by the ``scripts/smoke_*.py`` gates.

The smoke scripts run as ``python scripts/<name>.py``, which puts this
directory on ``sys.path``, so each imports these with
``from _smoke import ...``.
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

from repro.service import ServiceClient


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def wait_healthy(port: int, timeout: float) -> None:
    try:
        ServiceClient.wait_until_healthy("127.0.0.1", port, timeout=timeout)
    except RuntimeError as exc:
        fail(str(exc))


def truncate_wal(path: Path, keep_entries: int) -> None:
    """Rewrite a WAL keeping its header block and the first N entries."""
    kept: list[str] = []
    entries = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                if entries >= keep_entries or not line.endswith("\n"):
                    continue
                entries += 1
            kept.append(line)
    if entries < keep_entries:
        fail(f"{path} holds only {entries} entries, needed {keep_entries}")
    path.write_text("".join(kept), encoding="utf-8")
