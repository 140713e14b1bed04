"""Per-checker detection tests over positive/negative source fixtures.

Each checker runs directly (``checker.check(load_source(fixture))``) so
these tests pin *detection*: the bad fixture must produce exactly the
expected codes at the expected sites, and the good fixture must be clean.
Suppressions are applied by :func:`repro.devtools.run_checks`, not by the
checkers themselves — so findings here are pre-suppression.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools import (
    AsyncBlockingChecker,
    DurableWriteChecker,
    EngineSurfaceChecker,
    ErrorEnvelopeChecker,
    GuardedFieldChecker,
    ImportLayeringChecker,
    MonotonicDisciplineChecker,
    SpanHygieneChecker,
    ThreadHygieneChecker,
    load_source,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(checker, fixture: str):
    return checker.check(load_source(FIXTURES / fixture))


def codes(findings):
    return sorted(finding.code for finding in findings)


class TestMonotonicDiscipline:
    def test_bad_fixture_is_detected(self):
        findings = run(MonotonicDisciplineChecker(), "clock_bad.py")
        assert codes(findings) == ["REPRO101"] * 3
        # one of the three is the `from time import time` import itself
        assert any("time" in f.message for f in findings)

    def test_good_fixture_is_clean(self):
        assert run(MonotonicDisciplineChecker(), "clock_good.py") == []

    def test_pinned_names_are_allowed_not_invisible(self):
        from repro.devtools.clocks import wall_clock_references

        source = load_source(FIXTURES / "clock_good.py")
        violations, allowed = wall_clock_references(source)
        assert violations == []
        assert len(allowed) == 2  # published_at assignment + "ts" dict key


class TestGuardedField:
    def test_bad_fixture_is_detected(self):
        findings = run(GuardedFieldChecker(), "guarded_bad.py")
        assert codes(findings) == ["REPRO201"] * 2
        assert all("_lock" in finding.message for finding in findings)
        assert {"increment", "peek"} == {
            finding.message.split(".")[-1].rstrip(")")
            for finding in findings
        }

    def test_good_fixture_is_clean(self):
        assert run(GuardedFieldChecker(), "guarded_good.py") == []


class TestDurableWrite:
    def test_bad_fixture_is_detected(self):
        findings = run(DurableWriteChecker(), "durable_bad.py")
        assert codes(findings) == ["REPRO301"] * 4

    def test_good_fixture_is_clean(self):
        # write_durable itself, append-mode WAL opens and reads: all legal
        assert run(DurableWriteChecker(), "durable_good.py") == []


class TestAsyncBlocking:
    def test_bad_fixture_is_detected(self):
        findings = run(AsyncBlockingChecker(), "async_bad.py")
        assert codes(findings) == ["REPRO401"] * 3
        names = " ".join(finding.message for finding in findings)
        assert "time.sleep" in names and "_dispatch" in names and "open" in names

    def test_good_fixture_is_clean(self):
        # run_in_executor passes the callable by reference: no direct call
        assert run(AsyncBlockingChecker(), "async_good.py") == []


class TestErrorEnvelope:
    def test_bad_fixture_is_detected(self):
        findings = run(ErrorEnvelopeChecker(), "envelope_bad.py")
        assert codes(findings) == ["REPRO501"] * 2

    def test_good_fixture_is_clean(self):
        # project error families, async lifecycle and BackgroundServer
        # raises are all exempt
        assert run(ErrorEnvelopeChecker(), "envelope_good.py") == []


class TestThreadHygiene:
    def test_bad_fixture_is_detected(self):
        findings = run(ThreadHygieneChecker(), "threads_bad.py")
        assert codes(findings) == ["REPRO601", "REPRO601", "REPRO602"]

    def test_good_fixture_is_clean(self):
        assert run(ThreadHygieneChecker(), "threads_good.py") == []


class TestSpanHygiene:
    def test_bad_fixture_is_detected(self):
        findings = run(SpanHygieneChecker(), "spans_bad.py")
        assert codes(findings) == ["REPRO701"] * 3
        assert all("with" in finding.message for finding in findings)

    def test_good_fixture_is_clean(self):
        assert run(SpanHygieneChecker(), "spans_good.py") == []


class TestEngineSurface:
    def test_bad_fixture_is_detected(self):
        findings = run(EngineSurfaceChecker(), "surface_bad.py")
        # engine, self.engine and standby_engine: one finding each
        assert [finding.line for finding in findings] == [5, 9, 13]
        assert codes(findings) == ["REPRO801"] * 3

    def test_good_fixture_is_clean(self):
        # getattr(maintainer, "core_attachments", None) stays allowed
        assert run(EngineSurfaceChecker(), "surface_good.py") == []


class TestImportLayering:
    def test_bad_fixture_is_detected(self):
        findings = run(ImportLayeringChecker(), "layering_bad.py")
        # import asyncio, from asyncio, the lazy re-export, the server
        # module, and the server imported inside a module-level try
        assert [finding.line for finding in findings] == [3, 5, 6, 7, 10]
        assert codes(findings) == ["REPRO802"] * 5
        assert "asyncio" in findings[0].message
        assert "repro.service.server" in findings[2].message

    def test_good_fixture_is_clean(self):
        # function-level and TYPE_CHECKING imports of the server stay legal
        assert run(ImportLayeringChecker(), "layering_good.py") == []


class TestScoping:
    @pytest.mark.parametrize(
        "checker_class, in_scope, out_of_scope",
        [
            (
                MonotonicDisciplineChecker,
                "src/repro/service/engine.py",
                "src/repro/core/dynstrclu.py",
            ),
            (
                DurableWriteChecker,
                "src/repro/persistence/snapshot.py",
                "src/repro/core/config.py",
            ),
            (
                AsyncBlockingChecker,
                "src/repro/service/server.py",
                "src/repro/service/engine.py",
            ),
            (
                SpanHygieneChecker,
                "src/repro/service/sharding.py",
                "src/repro/devtools/spans.py",
            ),
            (
                EngineSurfaceChecker,
                "src/repro/service/server.py",
                "src/repro/devtools/surface.py",
            ),
            (
                ImportLayeringChecker,
                "src/repro/service/client.py",
                "src/repro/service/server.py",
            ),
        ],
    )
    def test_package_files_respect_checker_scope(
        self, checker_class, in_scope, out_of_scope
    ):
        repo = Path(__file__).resolve().parents[2]
        checker = checker_class()
        assert checker.applies_to(load_source(repo / in_scope))
        assert not checker.applies_to(load_source(repo / out_of_scope))

    def test_fixture_files_are_always_in_scope(self):
        # files outside the repro package are checked by every checker,
        # so fixtures exercise scoped checkers without path games
        source = load_source(FIXTURES / "async_bad.py")
        for checker_class in (
            MonotonicDisciplineChecker,
            GuardedFieldChecker,
            DurableWriteChecker,
            AsyncBlockingChecker,
            ErrorEnvelopeChecker,
            ThreadHygieneChecker,
            SpanHygieneChecker,
            EngineSurfaceChecker,
            ImportLayeringChecker,
        ):
            assert checker_class().applies_to(source)
