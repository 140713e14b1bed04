"""Every route in the server's table is documented in ``docs/API.md``."""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.server import ROUTES

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"

#: ``METHOD /path`` at the start of a heading's code span, before any query.
HEADING = re.compile(r"^#+ `([A-Z]+ /[^`?\[]*)")


def test_every_route_has_an_api_heading():
    documented = {
        match.group(1)
        for match in map(HEADING.match, API_DOC.read_text(encoding="utf-8").splitlines())
        if match
    }
    missing = [
        f"{route.method} {route.path}"
        for route in ROUTES
        if f"{route.method} {route.path}" not in documented
    ]
    assert missing == []
