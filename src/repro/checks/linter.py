"""AST lint framework: parsed modules, rules, waivers, and reports.

The framework is deliberately tiny and dependency-free: a
:class:`ParsedModule` bundles one file's AST with its source lines and
inline waivers, a :class:`Rule` walks it and yields
:class:`Violation` records, and :func:`lint_paths` drives a rule set
over a file tree.  Codebase-specific per-statement rules live in
:mod:`repro.checks.rules`; package-wide flow rules (built on the
module/call graph of :mod:`repro.checks.graph` and the taint engine of
:mod:`repro.checks.dataflow`) live in :mod:`repro.checks.flow_rules`.
This module knows nothing about either.

Waivers
-------
A violation can be silenced at its source line with an inline marker::

    fault_buffer_capacity: int = 4096  # lint: allow(units-magic-literal) entry count

The marker names the rule explicitly, so a waiver never hides a
*different* problem appearing on the same line later.  Two extensions:

* **module-level** waivers silence a rule for the whole file::

      # lint: allow-file(flow-lock-discipline) probe thread owns this state

* **expiring** waivers carry a date after which they stop silencing
  (and ``--strict`` fails them outright, so they cannot quietly rot)::

      deadline = time.time() + 5  # lint: allow(determinism-wallclock, until=2026-12-31)

Waivers are for lines that are genuinely correct (e.g. a literal that
looks like a byte size but is an entry count); systematic debt belongs
in the baseline file instead (:mod:`repro.checks.baseline`).
"""

from __future__ import annotations

import ast
import datetime as _datetime
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

_WAIVER_RE = re.compile(r"#\s*lint:\s*allow(-file)?\(([^)]*)\)")
_UNTIL_RE = re.compile(r"^until\s*=\s*(\d{4}-\d{2}-\d{2})$")


def _today() -> _datetime.date:
    # the linter is operational tooling, not simulation state: waiver
    # expiry is judged against the real calendar by design.
    return _datetime.date.today()  # lint: allow(determinism-wallclock)


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style, relative to the lint root
    line: int
    message: str

    def key(self) -> str:
        """Baseline identity: stable across unrelated line drift."""
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One ``# lint: allow(...)`` marker."""

    rules: frozenset[str]
    line: int
    file_level: bool = False
    until: Optional[_datetime.date] = None

    def expired(self, today: _datetime.date) -> bool:
        return self.until is not None and today > self.until


class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    def __init__(self, root: Path, path: Path) -> None:
        self.abspath = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        self.waiver_errors: list[str] = []
        self.waivers: list[Waiver] = self._collect_waivers(self.lines)

    def _collect_waivers(self, lines: Sequence[str]) -> list[Waiver]:
        waivers: list[Waiver] = []
        for lineno, text in enumerate(lines, start=1):
            match = _WAIVER_RE.search(text)
            if not match:
                continue
            file_level = match.group(1) == "-file"
            rules: set[str] = set()
            until: Optional[_datetime.date] = None
            bad = False
            for token in match.group(2).split(","):
                token = token.strip()
                if not token:
                    continue
                until_match = _UNTIL_RE.match(token)
                if until_match:
                    try:
                        until = _datetime.date.fromisoformat(until_match.group(1))
                    except ValueError:
                        bad = True
                elif "=" in token:
                    bad = True
                else:
                    rules.add(token)
            if bad or not rules:
                self.waiver_errors.append(
                    f"{self.relpath}:{lineno}: malformed lint waiver {text.strip()!r}"
                )
                continue
            waivers.append(
                Waiver(
                    rules=frozenset(rules),
                    line=lineno,
                    file_level=file_level,
                    until=until,
                )
            )
        return waivers

    def waived(
        self, rule: str, line: int, today: Optional[_datetime.date] = None
    ) -> bool:
        today = today or _today()
        for waiver in self.waivers:
            if rule not in waiver.rules or waiver.expired(today):
                continue
            if waiver.file_level or waiver.line == line:
                return True
        return False

    def expired_waivers(
        self, today: Optional[_datetime.date] = None
    ) -> list[Waiver]:
        today = today or _today()
        return [w for w in self.waivers if w.expired(today)]


class Rule:
    """Base class: one named check over a parsed module.

    Subclasses set ``name``/``description`` and implement
    :meth:`check`.  ``scope`` optionally restricts the rule to relative
    path prefixes; an empty scope means the whole tree.
    """

    name: str = ""
    description: str = ""
    #: relative-path prefixes the rule applies to ("" = everywhere).
    scope: tuple[str, ...] = ()
    #: relative-path prefixes exempt from the rule.
    allowlist: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if self.scope and not any(relpath.startswith(p) for p in self.scope):
            return False
        return not any(relpath.startswith(p) for p in self.allowlist)

    def check(self, module: ParsedModule) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, module: ParsedModule, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.name,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            message=message,
        )


@dataclass
class LintReport:
    """Everything one lint run produced."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)
    #: "path:line: waiver for rule(s) ... expired YYYY-MM-DD" records;
    #: informational by default, failures under ``--strict``.
    expired_waivers: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [v.render() for v in self.violations]
        lines.append(
            f"{len(self.violations)} violation(s) in {self.files_checked} file(s)"
        )
        if self.parse_errors:
            lines.append(f"{len(self.parse_errors)} file(s) failed to parse:")
            lines.extend(f"  {e}" for e in self.parse_errors)
        if self.expired_waivers:
            lines.append(f"{len(self.expired_waivers)} expired waiver(s):")
            lines.extend(f"  {e}" for e in self.expired_waivers)
        return "\n".join(lines)


def iter_python_files(root: Path, paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories under ``root`` into sorted .py files."""
    seen: set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    root: Path,
    paths: Sequence[Path] | None = None,
    rules: Sequence[Rule] | None = None,
    flow: bool = False,
    analyses: Sequence[str] | None = None,
    today: Optional[_datetime.date] = None,
) -> LintReport:
    """Run ``rules`` over every python file in ``paths`` (under ``root``).

    ``root`` anchors the relative paths that scopes, allowlists, and the
    baseline key on; ``paths`` defaults to ``src/repro`` under it.

    With ``flow=True`` the package-wide flow analyses also run: the
    whole package under ``root`` is parsed into a
    :class:`~repro.checks.graph.ProjectGraph` (interprocedural context
    never shrinks with ``paths``), but flow findings are only *reported*
    for the files selected by ``paths``.  ``analyses`` narrows the flow
    families (``determinism``/``concurrency``/``protocol``/``units``).
    """
    from repro.checks.rules import default_rules

    root = root.resolve()
    today = today or _today()
    if rules is None:
        rules = default_rules()
    if paths is None:
        paths = [root / "src" / "repro"]
    report = LintReport()
    by_relpath: dict[str, ParsedModule] = {}
    for path in iter_python_files(root, paths):
        try:
            module = ParsedModule(root, path.resolve())
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            report.parse_errors.append(f"{path}: {exc}")
            continue
        report.files_checked += 1
        by_relpath[module.relpath] = module
        report.parse_errors.extend(module.waiver_errors)
        for waiver in module.expired_waivers(today):
            rules_text = ", ".join(sorted(waiver.rules))
            report.expired_waivers.append(
                f"{module.relpath}:{waiver.line}: waiver for {rules_text} "
                f"expired {waiver.until.isoformat()}"  # type: ignore[union-attr]
            )
        for rule in rules:
            if not rule.applies_to(module.relpath):
                continue
            for violation in rule.check(module):
                if not module.waived(violation.rule, violation.line, today):
                    report.violations.append(violation)
    if flow:
        _run_flow(root, report, by_relpath, analyses, today)
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return report


def _run_flow(
    root: Path,
    report: LintReport,
    by_relpath: dict[str, ParsedModule],
    analyses: Sequence[str] | None,
    today: _datetime.date,
) -> None:
    """Run the interprocedural analyses and fold findings into ``report``."""
    from repro.checks.flow_rules import default_flow_rules
    from repro.checks.graph import ProjectGraph

    graph = ProjectGraph.build(root)
    for rule in default_flow_rules(analyses):
        for violation in rule.check_project(graph):
            module = by_relpath.get(violation.path)
            if module is None:
                continue  # outside the linted file selection
            if not rule.applies_to(violation.path):
                continue
            if not module.waived(violation.rule, violation.line, today):
                report.violations.append(violation)
