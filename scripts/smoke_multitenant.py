#!/usr/bin/env python
"""Multi-tenant smoke gate: boot a 2-tenant server, drive it, assert isolation.

The CI counterpart of the v1 API's core promise:

1. start ``repro serve`` as a real subprocess (the v1 JSON/HTTP service);
2. drive tenants ``alpha`` and ``beta`` concurrently with ``repro loadgen``
   (``--tenant alpha --tenant beta --create-tenants``), whose multi-tenant
   mix rewrites each tenant's traffic into a disjoint string vertex space
   (``alpha:<v>`` / ``beta:<v>``);
3. assert isolation from the outside: both tenants applied their own
   updates, tenant A's vertices never appear in tenant B's group-by (and
   vice versa), and the untouched ``default`` tenant stayed empty.

Exits non-zero (with a diagnostic) on any violation — wired into CI as the
service smoke gate.  Run locally with::

    PYTHONPATH=src python scripts/smoke_multitenant.py
"""

from __future__ import annotations

import time

from repro.bench.runner import SubprocessServer
from repro.cli import main as repro_main
from repro.service import ServiceClient

from _smoke import SERVE_FLAGS, fail, wait_healthy

UPDATES_PER_TENANT = 300
TENANTS = ("alpha", "beta")


def main() -> int:
    server = SubprocessServer(SERVE_FLAGS)
    port = server.port
    try:
        wait_healthy(server, timeout=15.0)

        # drive both tenants through the real CLI (multi-tenant load mix)
        status = repro_main(
            [
                "loadgen",
                "--port",
                str(port),
                "--tenant",
                "alpha",
                "--tenant",
                "beta",
                "--create-tenants",
                "--dataset",
                "email",
                "--updates",
                str(UPDATES_PER_TENANT),
                "--query-ratio",
                "0.2",
            ]
        )
        if status != 0:
            fail(f"repro loadgen exited with status {status}")

        with ServiceClient("127.0.0.1", port) as admin:
            # wait for both tenants' ingest queues to drain so the asserted
            # views reflect the whole driven stream
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                rows = {row["tenant"]: row for row in admin.list_tenants()}
                if all(rows.get(t, {}).get("queue_depth", 1) == 0 for t in TENANTS):
                    break
                time.sleep(0.2)
            tenants = {row["tenant"]: row for row in admin.list_tenants()}
            for name in TENANTS:
                if name not in tenants:
                    fail(f"tenant {name!r} missing from /v1/tenants: {sorted(tenants)}")
                if tenants[name]["applied"] <= 0:
                    fail(f"tenant {name!r} applied no updates: {tenants[name]}")
            if tenants["default"]["applied"] != 0:
                fail(f"default tenant was polluted: {tenants['default']}")

            # cross-tenant probes: each tenant queried with the *other*
            # tenant's vertex space must see nothing at all
            probe_ids = list(range(200))
            for mine, other in (("alpha", "beta"), ("beta", "alpha")):
                client = admin.for_tenant(mine)
                own = client.group_by([f"{mine}:{v}" for v in probe_ids])
                if not own.groups:
                    fail(f"tenant {mine!r} sees none of its own vertices")
                leaked = client.group_by([f"{other}:{v}" for v in probe_ids])
                if leaked.groups:
                    fail(
                        f"isolation violated: tenant {mine!r} sees "
                        f"{other!r}'s vertices: {leaked.groups}"
                    )
                client.close()

        print(
            "SMOKE OK: 2 tenants driven "
            f"({tenants['alpha']['applied']} + {tenants['beta']['applied']} updates "
            "applied), no cross-tenant leakage, default tenant untouched"
        )
        return 0
    finally:
        server.stop()


if __name__ == "__main__":
    raise SystemExit(main())
