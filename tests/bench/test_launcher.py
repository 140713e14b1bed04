"""The one ``repro serve`` launcher: boot, health wait and teardown.

The launcher cases start real ``python -m repro serve`` children, as the
capacity runner and the smoke scripts do; the stop cases use small Python
children whose SIGTERM handling they choose.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.runner import SubprocessServer, stop_processes
from repro.service import ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _children_import_repro(monkeypatch):
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))


def test_durable_server_answers_health_and_stops(tmp_path):
    server = SubprocessServer(["--mu", "2"], tmp_path / "root")
    try:
        server.wait_healthy(timeout=30.0)
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.healthz()["status"] == "ok"
    finally:
        server.stop()
    assert server.process.poll() is not None


def test_stop_ends_a_sigstopped_server(tmp_path):
    server = SubprocessServer((), tmp_path / "root")
    try:
        server.wait_healthy(timeout=30.0)
        server.process.send_signal(signal.SIGSTOP)
    finally:
        server.stop()
    # it ended on SIGTERM, not on the kill that follows the stop timeout
    assert server.process.poll() == -signal.SIGTERM


def test_server_that_cannot_boot_raises_and_leaves_no_process():
    server = SubprocessServer(["--rho", "5"])  # serve rejects rho outside [0, 1)
    with pytest.raises(RuntimeError, match="never became healthy"):
        server.wait_healthy(timeout=1.0)
    assert server.process.poll() is not None


def _child(on_sigterm: str) -> subprocess.Popen:
    """A Python child that runs ``on_sigterm`` as its SIGTERM disposition."""
    code = (
        "import signal, sys, time\n"
        f"signal.signal(signal.SIGTERM, {on_sigterm})\n"
        "print('ready', flush=True)\n"
        "time.sleep(60)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    assert child.stdout.readline() == b"ready\n"
    return child


@pytest.mark.parametrize(
    "on_sigterm, stopped, returncode",
    [
        # a SIGSTOPped child runs its SIGTERM handler only once continued
        ("lambda *_: sys.exit(3)", True, 3),
        ("signal.SIG_IGN", False, -signal.SIGKILL),
    ],
    ids=["handler-runs-after-sigstop", "ignored-sigterm-is-killed"],
)
def test_stop_processes(monkeypatch, on_sigterm, stopped, returncode):
    monkeypatch.setattr(runner, "STOP_TIMEOUT_S", 2.0)
    child = _child(on_sigterm)
    try:
        if stopped:
            child.send_signal(signal.SIGSTOP)
        stop_processes(None, child)
        assert child.poll() == returncode
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
