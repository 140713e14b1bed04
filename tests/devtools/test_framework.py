"""Framework tests: suppressions, selection, JSON output, cache, CLI.

These exercise :mod:`repro.devtools.core` (the machinery shared by every
checker) and the ``repro check`` CLI wiring — everything *around* the
individual checkers, which :mod:`tests.devtools.test_checkers` covers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import (
    DurableWriteChecker,
    Finding,
    all_checkers,
    load_source,
    run_checks,
    select_checkers,
)
from repro.devtools.core import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressions:
    def test_suppressed_fixture_produces_no_findings(self):
        report = run_checks([FIXTURES / "suppressed.py"], all_checkers())
        assert report.ok
        assert report.findings == []
        # inline allow[CODE], inline allow[*], and the comment-block form
        assert len(report.suppressed) == 3
        assert {f.code for f in report.suppressed} == {"REPRO301"}

    def test_unsuppressed_fixture_produces_findings(self):
        report = run_checks([FIXTURES / "durable_bad.py"], all_checkers())
        assert not report.ok
        assert [f.code for f in report.findings] == ["REPRO301"] * 4
        assert report.suppressed == []

    def test_suppression_comment_must_name_the_code(self, tmp_path):
        # an allow[] for a *different* code silences nothing
        bad = tmp_path / "wrong_code.py"
        bad.write_text(
            "import os\n"
            "\n"
            "def rotate(path):\n"
            "    # repro: allow[REPRO101] wrong code entirely\n"
            "    os.rename(path, path)\n",
            encoding="utf-8",
        )
        report = run_checks([bad], [DurableWriteChecker()])
        assert [f.code for f in report.findings] == ["REPRO301"]

    def test_comment_block_suppression_stops_at_code_lines(self, tmp_path):
        # an allow[] above an unrelated *code* line does not leak down
        bad = tmp_path / "leak.py"
        bad.write_text(
            "import os\n"
            "\n"
            "def rotate(path):\n"
            "    # repro: allow[REPRO301] covers only the next statement\n"
            "    os.rename(path, path)\n"
            "    os.replace(path, path)\n",
            encoding="utf-8",
        )
        report = run_checks([bad], [DurableWriteChecker()])
        assert len(report.findings) == 1
        assert report.findings[0].line == 6
        assert len(report.suppressed) == 1


class TestSelection:
    def test_select_by_checker_name(self):
        report = run_checks(
            [FIXTURES], all_checkers(), select=["durable-write"]
        )
        assert {f.code for f in report.findings} == {"REPRO301"}

    def test_select_by_code(self):
        report = run_checks([FIXTURES], all_checkers(), select=["REPRO601"])
        assert {f.code for f in report.findings} == {"REPRO601"}
        # REPRO602 shares the checker but is filtered out by the code token
        assert all(f.code != "REPRO602" for f in report.findings)

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="REPRO999"):
            select_checkers(all_checkers(), ["REPRO999"])

    def test_full_fixture_sweep_counts(self):
        report = run_checks([FIXTURES], all_checkers())
        by_code = {}
        for finding in report.findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        assert by_code == {
            "REPRO101": 3,
            "REPRO201": 2,
            "REPRO301": 4,
            "REPRO401": 3,
            "REPRO501": 2,
            "REPRO601": 2,
            "REPRO602": 1,
            "REPRO701": 3,
            "REPRO801": 3,
            # layering_bad.py's five, plus async_good.py, which stands in
            # for server.py and imports asyncio at module level
            "REPRO802": 6,
        }
        assert len(report.suppressed) == 3
        assert report.files_checked == len(list(FIXTURES.glob("*.py")))


class TestOutput:
    def test_json_document_shape(self):
        report = run_checks([FIXTURES / "guarded_bad.py"], all_checkers())
        document = json.loads(report.render_json())
        assert document["ok"] is False
        assert document["files_checked"] == 1
        assert document["errors"] == []
        assert document["suppressed"] == []
        for row in document["findings"]:
            assert set(row) == {"path", "line", "col", "code", "message"}
            assert row["code"] == "REPRO201"
            assert row["path"].endswith("guarded_bad.py")

    def test_human_rendering(self):
        report = run_checks([FIXTURES / "guarded_bad.py"], all_checkers())
        text = report.render_human()
        assert "REPRO201" in text
        assert text.endswith("2 finding(s) (0 suppressed) in 1 file(s)")
        rendered = Finding("a.py", 3, 7, "REPRO101", "msg").render()
        assert rendered == "a.py:3:7: REPRO101 msg"

    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        report = run_checks([broken], all_checkers())
        assert not report.ok
        assert report.findings == []
        assert len(report.errors) == 1 and "broken.py" in report.errors[0]


class TestSourceCache:
    def test_reparse_only_on_mtime_change(self, tmp_path):
        import os

        path = tmp_path / "cached.py"
        path.write_text("x = 1\n", encoding="utf-8")
        first = load_source(path)
        assert load_source(path) is first
        path.write_text("x = 2\n", encoding="utf-8")
        os.utime(path, ns=(0, path.stat().st_mtime_ns + 1_000_000_000))
        second = load_source(path)
        assert second is not first
        assert second.text == "x = 2\n"

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n", encoding="utf-8")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "keep.cpython-311.pyc.py").write_text("x = 1\n")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["keep.py"]


class TestCli:
    def test_check_command_fails_on_bad_fixture(self, capsys):
        code = main(["check", str(FIXTURES / "durable_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "REPRO301" in out and "4 finding(s)" in out

    def test_check_command_passes_on_good_fixture_json(self, capsys):
        code = main(
            ["check", "--format", "json", str(FIXTURES / "durable_good.py")]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True and document["findings"] == []

    def test_check_command_select_filter(self, capsys):
        code = main(
            ["check", "--select", "REPRO301", str(FIXTURES / "threads_bad.py")]
        )
        assert code == 0  # thread findings filtered out by the selector
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_command_rejects_unknown_selector(self, capsys):
        code = main(["check", "--select", "NOPE", str(FIXTURES)])
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    def test_check_command_clean_on_package_default(self, capsys):
        # the shipped tree must be clean: this is the same invocation the
        # CI static-analysis job gates on (default paths = the package)
        code = main(["check", "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["findings"] == []
        assert document["files_checked"] > 50
