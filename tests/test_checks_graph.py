"""Property tests for the module graph / call graph builder."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.checks.graph import ProjectGraph, dotted_chain, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def build_repo_graph() -> ProjectGraph:
    return ProjectGraph.build(REPO_ROOT)


# -- the whole-package property ----------------------------------------------
def test_every_source_file_parses_into_the_graph():
    graph = build_repo_graph()
    assert graph.parse_errors == []
    expected = {
        module_name_for(p.relative_to(REPO_ROOT).as_posix())
        for p in SRC.rglob("*.py")
    }
    assert set(graph.modules) == expected


def test_every_public_function_lands_in_the_graph():
    graph = build_repo_graph()
    for path in SRC.rglob("*.py"):
        relpath = path.relative_to(REPO_ROOT).as_posix()
        module = module_name_for(relpath)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    assert f"{module}.{node.name}" in graph.functions, relpath
            elif isinstance(node, ast.ClassDef):
                assert f"{module}.{node.name}" in graph.classes, relpath
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        qual = f"{module}.{node.name}.{item.name}"
                        assert qual in graph.functions, relpath


def test_call_order_covers_every_function_exactly_once():
    graph = build_repo_graph()
    order = graph.call_order()
    assert sorted(order) == sorted(graph.functions)


def test_known_edges_point_at_known_definitions():
    graph = build_repo_graph()
    for caller, callees in graph.edges.items():
        assert caller in graph.functions
        for callee in callees:
            # constructor edges resolve to __init__ when one exists and
            # stay on the class qualname otherwise.
            assert (
                callee in graph.functions or callee in graph.classes
            ), f"{caller} -> {callee}"


# -- name resolution ----------------------------------------------------------
def write_tree(root: Path, files: dict[str, str]) -> ProjectGraph:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return ProjectGraph.build(root)


def test_module_name_for():
    assert module_name_for("src/repro/serve/store.py") == "repro.serve.store"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"


def test_dotted_chain():
    expr = ast.parse("a.b.c", mode="eval").body
    assert dotted_chain(expr) == "a.b.c"
    call = ast.parse("f().x", mode="eval").body
    assert dotted_chain(call) is None


def test_resolves_imported_function_and_class_method(tmp_path):
    graph = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/util.py": """
                def helper():
                    return 1

                class Box:
                    def open(self):
                        return 2
                """,
            "src/repro/user.py": """
                from repro.util import Box, helper

                def use():
                    helper()
                    return Box()
                """,
        },
    )
    use = graph.functions["repro.user.use"]
    callees = {site.callee for site in use.calls}
    assert "repro.util.helper" in callees
    assert "repro.util.Box" in callees
    # no __init__ on Box, so the edge stays on the class qualname.
    assert graph.callees("repro.user.use") == {
        "repro.util.helper",
        "repro.util.Box",
    }


def test_resolves_relative_imports_and_self_methods(tmp_path):
    graph = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/a.py": """
                def leaf():
                    return 0
                """,
            "src/repro/pkg/b.py": """
                from .a import leaf

                class Runner:
                    def outer(self):
                        return self.inner() + leaf()

                    def inner(self):
                        return 1
                """,
        },
    )
    outer = "repro.pkg.b.Runner.outer"
    assert graph.callees(outer) == {"repro.pkg.b.Runner.inner", "repro.pkg.a.leaf"}


def test_builtin_calls_resolve_to_builtins_namespace(tmp_path):
    graph = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/m.py": """
                def f(x):
                    return hash(x) + len(str(x))
                """,
        },
    )
    f = graph.functions["repro.m.f"]
    callees = {site.callee for site in f.calls}
    assert {"builtins.hash", "builtins.len", "builtins.str"} <= callees
    assert all(
        not site.known for site in f.calls if site.callee.startswith("builtins.")
    )


def test_transitive_callees(tmp_path):
    graph = write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/m.py": """
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 0
                """,
        },
    )
    assert graph.transitive_callees("repro.m.a") == {
        "repro.m.b",
        "repro.m.c",
    }
    assert graph.callers("repro.m.c") == {"repro.m.b"}
