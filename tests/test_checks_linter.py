"""The lint framework, one fixture per rule, and the baseline logic."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.checks.baseline import (
    BASELINE_VERSION,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.checks.linter import LintReport, Violation, lint_paths
from repro.checks.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(root: Path, relpath: str, source: str) -> LintReport:
    """Write one fixture module under a fake repo root and lint it."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths(root, paths=[path])


def rules_hit(report: LintReport) -> set[str]:
    return {v.rule for v in report.violations}


# -- determinism-wallclock ----------------------------------------------------
def test_wallclock_flagged_in_core(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        """
        import time
        start = time.time()
        tick = time.perf_counter()
        """,
    )
    assert [v.rule for v in report.violations] == ["determinism-wallclock"] * 2


def test_wallclock_allowed_in_serve_and_cli(tmp_path):
    for relpath in ("src/repro/serve/thing.py", "src/repro/cli.py"):
        report = lint_snippet(
            tmp_path, relpath, "import time\nstart = time.time()\n"
        )
        assert report.violations == []


def test_wallclock_from_import_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/sim/thing.py",
        "from time import perf_counter, sleep\n",
    )
    assert rules_hit(report) == {"determinism-wallclock"}
    assert "perf_counter" in report.violations[0].message
    # sleep is not a wall-clock *read*
    assert "sleep" not in report.violations[0].message


def test_datetime_now_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        "import datetime\nstamp = datetime.datetime.now()\n",
    )
    assert rules_hit(report) == {"determinism-wallclock"}


# -- determinism-rng ----------------------------------------------------------
def test_rng_imports_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/workloads/thing.py",
        """
        import random
        from numpy.random import default_rng
        """,
    )
    assert [v.rule for v in report.violations] == ["determinism-rng"] * 2


def test_np_random_attribute_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        "import numpy as np\nx = np.random.rand(4)\n",
    )
    assert rules_hit(report) == {"determinism-rng"}
    assert "np.random.rand" in report.violations[0].message


def test_rng_wrapper_module_is_allowlisted(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/sim/rng.py",
        "import numpy as np\ngen = np.random.default_rng(7)\n",
    )
    assert report.violations == []


# -- units-magic-literal ------------------------------------------------------
def test_magic_literal_flagged_with_named_constant(tmp_path):
    report = lint_snippet(
        tmp_path, "src/repro/mem/thing.py", "GRANULE = 2097152\n"
    )
    assert rules_hit(report) == {"units-magic-literal"}
    assert "VABLOCK_SIZE" in report.violations[0].message


def test_magic_literal_ignores_non_power_of_two_and_small(tmp_path):
    report = lint_snippet(
        tmp_path, "src/repro/mem/thing.py", "a = 5000\nb = 2048\nc = 100\n"
    )
    assert report.violations == []


def test_magic_literal_out_of_scope(tmp_path):
    report = lint_snippet(
        tmp_path, "src/repro/serve/thing.py", "CHUNK = 1048576\n"
    )
    assert report.violations == []


def test_magic_literal_waiver(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/gpu/thing.py",
        "CAP = 4096  # lint: allow(units-magic-literal) entry count\n",
    )
    assert report.violations == []


def test_waiver_does_not_silence_other_rules(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/gpu/thing.py",
        "CAP = 4096  # lint: allow(bare-except)\n",
    )
    assert rules_hit(report) == {"units-magic-literal"}


# -- units-int-ns -------------------------------------------------------------
def test_int_ns_division_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        "def f(clock, ns):\n    clock.advance(ns / 2)\n",
    )
    assert rules_hit(report) == {"units-int-ns"}
    assert "true division" in report.violations[0].message


def test_int_ns_float_literal_in_charge_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/sim/thing.py",
        "def f(timer):\n    timer.charge('cat', 1.5)\n",
    )
    assert rules_hit(report) == {"units-int-ns"}
    assert "float literal" in report.violations[0].message


def test_int_ns_round_guard_accepted(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        """
        def f(clock, timer, ns):
            clock.advance(round(ns / 2))
            clock.advance(int(ns * 1e9 / 3))
            timer.charge('cat', round(ns * 0.5))
            clock.advance(ns // 2)
        """,
    )
    assert report.violations == []


# -- generic rules ------------------------------------------------------------
def test_mutable_default_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/ext/thing.py",
        """
        def f(items=[], *, index={}):
            return items, index

        def g(items=None, count=0, name="x"):
            return items
        """,
    )
    assert [v.rule for v in report.violations] == ["mutable-default-arg"] * 2


def test_bare_except_flagged(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/serve/thing.py",
        """
        def f():
            try:
                return 1
            except:
                return 2

        def g():
            try:
                return 1
            except Exception:
                return 2
        """,
    )
    assert [v.rule for v in report.violations] == ["bare-except"]


# -- framework ----------------------------------------------------------------
def test_parse_error_reported_not_raised(tmp_path):
    report = lint_snippet(tmp_path, "src/repro/core/broken.py", "def f(:\n")
    assert report.violations == []
    assert len(report.parse_errors) == 1


def test_report_render_and_sorting(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        "import time\nB = 4096\nstart = time.time()\n",
    )
    assert [v.line for v in report.violations] == sorted(
        v.line for v in report.violations
    )
    rendered = report.render()
    assert "2 violation(s) in 1 file(s)" in rendered
    assert "src/repro/core/thing.py:2" in rendered


# -- baseline -----------------------------------------------------------------
def _viol(rule: str, path: str, message: str, line: int = 1) -> Violation:
    return Violation(rule=rule, path=path, line=line, message=message)


def test_baseline_roundtrip(tmp_path):
    path = tmp_path / "baseline.json"
    violations = [
        _viol("r1", "a.py", "m1"),
        _viol("r1", "a.py", "m1", line=9),
        _viol("r2", "b.py", "m2"),
    ]
    counts = save_baseline(path, violations)
    assert counts == {"r1::a.py::m1": 2, "r2::b.py::m2": 1}
    assert load_baseline(path) == counts


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


def test_baseline_version_mismatch_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        f'{{"version": {BASELINE_VERSION + 1}, "violations": {{}}}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError):
        load_baseline(path)


def test_baseline_diff_new_baselined_stale():
    baseline = {"r1::a.py::m1": 1, "r9::gone.py::old": 2}
    current = [
        _viol("r1", "a.py", "m1"),          # absorbed
        _viol("r1", "a.py", "m1", line=3),  # second occurrence: NEW
        _viol("r2", "b.py", "m2"),          # NEW
    ]
    diff = diff_against_baseline(current, baseline)
    assert len(diff.baselined) == 1
    assert len(diff.new) == 2
    assert diff.stale == {"r9::gone.py::old": 2}
    assert not diff.ok()
    assert not diff.ok(strict=True)


def test_baseline_diff_clean_and_strict():
    baseline = {"r9::gone.py::old": 1}
    diff = diff_against_baseline([], baseline)
    assert diff.ok()
    assert not diff.ok(strict=True)
    assert diff_against_baseline([], {}).ok(strict=True)


# -- the repository itself ----------------------------------------------------
def test_repo_is_lint_clean():
    """`uvmrepro check` must pass on the tree with an empty baseline."""
    report = lint_paths(REPO_ROOT)
    assert report.parse_errors == []
    baseline = load_baseline(REPO_ROOT / "checks_baseline.json")
    assert baseline == {}, "baseline must stay empty; fix or waive new findings"
    diff = diff_against_baseline(report.violations, baseline)
    assert diff.new == [], "\n".join(v.render() for v in diff.new)


# -- CLI verb -----------------------------------------------------------------
def test_cli_check_clean_on_repo(capsys):
    from repro.cli import main

    assert main(["check", "--root", str(REPO_ROOT), "--strict"]) == 0
    assert "0 new violation(s)" in capsys.readouterr().out


def test_cli_check_list_rules(capsys):
    from repro.cli import main

    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in default_rules():
        assert rule.name in out


def test_cli_check_fails_and_baselines(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "src/repro/core/bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nstart = time.time()\n", encoding="utf-8")

    root = ["check", "--root", str(tmp_path)]
    assert main(root) == 1
    assert "determinism-wallclock" in capsys.readouterr().out

    # grandfather it, then the default check passes but strict notices
    # once the violation is fixed and the entry goes stale
    assert main(root + ["--update-baseline"]) == 0
    capsys.readouterr()
    assert main(root) == 0
    bad.write_text("start = 0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(root) == 0
    assert main(root + ["--strict"]) == 1


# -- waiver extensions: module-level and expiry -------------------------------
def test_file_level_waiver_silences_whole_module(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        """
        # lint: allow-file(determinism-wallclock) replay tooling
        import time

        a = time.time()
        b = time.perf_counter()
        """,
    )
    assert report.violations == []


def test_file_level_waiver_is_rule_specific(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        """
        # lint: allow-file(bare-except)
        import time

        a = time.time()
        """,
    )
    assert rules_hit(report) == {"determinism-wallclock"}


def test_expired_waiver_stops_silencing(tmp_path):
    import datetime

    path = tmp_path / "src/repro/core/thing.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "import time\n"
        "t = time.time()  # lint: allow(determinism-wallclock, until=2026-06-30)\n",
        encoding="utf-8",
    )
    before = lint_paths(
        tmp_path, paths=[path], today=datetime.date(2026, 6, 30)
    )
    assert before.violations == []
    assert before.expired_waivers == []
    after = lint_paths(
        tmp_path, paths=[path], today=datetime.date(2026, 7, 1)
    )
    assert rules_hit(after) == {"determinism-wallclock"}
    assert len(after.expired_waivers) == 1
    assert "expired 2026-06-30" in after.expired_waivers[0]


def test_malformed_waiver_is_a_parse_error(tmp_path):
    report = lint_snippet(
        tmp_path,
        "src/repro/core/thing.py",
        """
        CAP = 4096  # lint: allow(units-magic-literal, until=not-a-date)
        """,
    )
    assert any("malformed lint waiver" in e for e in report.parse_errors)


def test_waiver_applies_to_flow_violations(tmp_path):
    source = """
    class S:
        def __init__(self, journal):
            self.journal = journal

        def finish(self, record):
            record.state = "done"{marker}
    """
    path = tmp_path / "src/repro/serve/service.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        textwrap.dedent(source.format(marker="")), encoding="utf-8"
    )
    flagged = lint_paths(tmp_path, paths=[path], rules=[], flow=True)
    assert rules_hit(flagged) == {"flow-journal-before-act"}
    path.write_text(
        textwrap.dedent(
            source.format(marker="  # lint: allow(flow-journal-before-act)")
        ),
        encoding="utf-8",
    )
    waived = lint_paths(tmp_path, paths=[path], rules=[], flow=True)
    assert waived.violations == []
