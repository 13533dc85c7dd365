"""Interprocedural flow rules: the analysis tier above the AST linter.

Four analysis families run over the package-wide
:class:`~repro.checks.graph.ProjectGraph` (most of them through the
taint engine of :mod:`repro.checks.dataflow`):

* **determinism taint** (``flow-determinism-taint``) - values born from
  wall clocks, ad-hoc RNG, builtin ``hash()``/``id()``, or
  order-nondeterministic iteration must never reach simulation state,
  ``SimRng`` seeds, content digests/cache keys, journal records, or the
  simulated clock.  Monotonic deadlines and wall-clock *record
  timestamps* are modeled as sanctioned sinks (``time.monotonic`` is
  not a source; ``*_at``/``*timestamp`` fields launder ``wallclock``) -
  the allowance is part of the model, not a waiver.
* **concurrency discipline** (``flow-lock-discipline``,
  ``flow-fork-capture``) - an attribute written under a
  ``threading.Lock``/``RLock``/``Condition`` anywhere must be accessed
  under the same lock everywhere (lock context propagates through the
  intra-class call graph, so helpers documented "lock held" are proven,
  not trusted); and no lock/file/socket handle may be captured into a
  ``multiprocessing.Process``.
* **protocol checks** (``flow-journal-before-act``,
  ``flow-hook-sentinel``) - in the serve layer every job-state mutation
  must be followed by a journal append/compact in the same function
  (the PR 5 write-ahead invariant, checked through call-graph
  summaries: ``self._journal_record(...)`` counts because it reaches
  ``journal.append``); and chaos/UVMSAN hooks stay None-sentinel
  zero-cost - every dereference is dominated by an ``is not None``
  guard.
* **units flow** (``flow-units-mix``) - ns/bytes/pages taints from
  :mod:`repro.units` constructors are tracked through assignments and
  call boundaries; adding, subtracting, or ordering values of different
  units is flagged.  The algebra cancels same-unit ratios
  (``size // PAGE_SIZE`` is a page *count*, not bytes).

All findings are ordinary :class:`~repro.checks.linter.Violation`
records: inline/module waivers, the baseline file, and the SARIF
emitter apply unchanged.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from repro.checks.dataflow import (
    AttrSink,
    CallSink,
    Flow,
    Labels,
    TaintEngine,
    TaintSpec,
)
from repro.checks.graph import FunctionInfo, ProjectGraph, dotted_chain
from repro.checks.linter import Violation

#: the analysis families, in the order ``--list-rules`` shows them.
FAMILIES = ("determinism", "concurrency", "protocol", "units")

_CORE_SCOPE = (
    "src/repro/core/",
    "src/repro/gpu/",
    "src/repro/mem/",
    "src/repro/sim/",
)


class FlowRule:
    """One package-wide analysis producing :class:`Violation` records."""

    name: str = ""
    family: str = ""
    description: str = ""
    scope: tuple[str, ...] = ()
    allowlist: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if self.scope and not any(relpath.startswith(p) for p in self.scope):
            return False
        return not any(relpath.startswith(p) for p in self.allowlist)

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        raise NotImplementedError  # pragma: no cover

    def violation(self, relpath: str, line: int, message: str) -> Violation:
        return Violation(rule=self.name, path=relpath, line=line, message=message)


# ---------------------------------------------------------------------------
# determinism taint
# ---------------------------------------------------------------------------

#: fields that legitimately hold wall-clock time: record timestamps.
_TIMESTAMP_RE = re.compile(r"(^|_)(at|ts|time|timestamp|stamp)s?$")

_SINK_HINTS = {
    "rng-seed": "SimRng seeds must be configuration, never runtime values",
    "cache-key": "content digests must be pure functions of the spec",
    "journal": "journal records must replay bit-identically",
    "sim-clock": "simulated time advances only by modeled costs",
    "sim-state": "simulation state must be reproducible under a fixed seed",
}


def _determinism_spec() -> TaintSpec:
    def launder(name: str, labels: Labels) -> Labels:
        if _TIMESTAMP_RE.search(name):
            return labels - {"wallclock"}
        return labels

    return TaintSpec(
        call_sources={
            "time.time": "wallclock",
            "time.time_ns": "wallclock",
            "datetime.datetime.now": "wallclock",
            "datetime.datetime.utcnow": "wallclock",
            "datetime.datetime.today": "wallclock",
            "datetime.date.today": "wallclock",
            # module-level RNG functions use hidden global state; an
            # explicitly *seeded* constructor (random.Random(seed),
            # numpy.random.default_rng(seed)) is deterministic and not
            # a source.
            "random.random": "random",
            "random.randint": "random",
            "random.randrange": "random",
            "random.uniform": "random",
            "random.choice": "random",
            "random.choices": "random",
            "random.sample": "random",
            "random.shuffle": "random",
            "random.getrandbits": "random",
            "random.gauss": "random",
            "random.seed": "random",
            "random.SystemRandom": "random",
            "numpy.random.random": "random",
            "numpy.random.rand": "random",
            "numpy.random.randn": "random",
            "numpy.random.randint": "random",
            "numpy.random.choice": "random",
            "numpy.random.shuffle": "random",
            "numpy.random.permutation": "random",
            "numpy.random.seed": "random",
            "os.urandom": "random",
            "uuid.uuid1": "random",
            "uuid.uuid4": "random",
            "secrets.*": "random",
            "builtins.hash": "hashseed",
            "builtins.id": "hashseed",
            "os.listdir": "unordered-fs",
            "os.scandir": "unordered-fs",
            "glob.glob": "unordered-fs",
            "glob.iglob": "unordered-fs",
        },
        sanitizers={
            # sorting restores a deterministic order (the *values* keep
            # any wallclock/random taint they carry).
            "builtins.sorted": frozenset(
                {"unordered-set", "unordered-fs", "iter-order"}
            ),
        },
        call_sinks=(
            CallSink(
                name="rng-seed",
                callee="repro.sim.rng.SimRng",
                args=(0,),
                kwargs=("seed",),
            ),
            CallSink(name="rng-seed", attrs=("fork",), receiver="rng"),
            CallSink(
                name="cache-key",
                attrs=(
                    "spec_digest",
                    "cache_key",
                    "stable_hash",
                    "content_key",
                ),
            ),
            CallSink(name="journal", attrs=("append",), receiver="journal"),
            CallSink(
                name="sim-clock",
                attrs=("advance", "advance_to"),
                receiver="clock",
                args=(0,),
            ),
        ),
        attr_sinks=(AttrSink(name="sim-state", scope=_CORE_SCOPE),),
        unordered_labels=frozenset({"unordered-set", "unordered-fs"}),
        iter_order_label="iter-order",
        set_literal_label="unordered-set",
        propagate_unknown_calls=True,
        kwarg_launder=launder,
    )


class DeterminismTaintRule(FlowRule):
    """Nondeterministic values must not reach reproducibility sinks."""

    name = "flow-determinism-taint"
    family = "determinism"
    description = (
        "wall-clock/random/hash()/iteration-order values flowing (possibly "
        "through calls) into SimRng seeds, content digests, journal records, "
        "the simulated clock, or simulation state; monotonic deadlines and "
        "record timestamps are sanctioned sinks"
    )

    #: internal bookkeeping labels that never constitute a finding on
    #: their own: holding a set is fine, *iterating* it into a sink is not.
    _SILENT = frozenset({"unordered-set", "unordered-fs"})

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        flows = TaintEngine(graph, _determinism_spec()).run()
        for flow in flows:
            labels = flow.labels - self._SILENT
            if not labels:
                continue
            if flow.sink == "sim-state" and labels == {"wallclock"} and (
                _TIMESTAMP_RE.search(flow.detail)
            ):
                continue  # sanctioned: a wall-clock record timestamp
            pretty = "+".join(sorted(labels))
            hint = _SINK_HINTS.get(flow.sink, "")
            yield self.violation(
                flow.relpath,
                flow.lineno,
                f"{pretty} value reaches {flow.sink} sink ({flow.detail}) "
                f"in {flow.function.rsplit('.', 1)[-1]}(); {hint}",
            )


# ---------------------------------------------------------------------------
# concurrency discipline
# ---------------------------------------------------------------------------

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (one level only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Access:
    __slots__ = ("attr", "method", "lineno", "held", "write")

    def __init__(
        self, attr: str, method: str, lineno: int, held: frozenset[str], write: bool
    ) -> None:
        self.attr = attr
        self.method = method
        self.lineno = lineno
        self.held = held
        self.write = write


class _MethodWalker(ast.NodeVisitor):
    """Collect self-attribute accesses with the held-lock set."""

    def __init__(
        self, owner: "_ClassAnalysis", method: str
    ) -> None:
        self.owner = owner
        self.method = method
        self.held: frozenset[str] = frozenset()

    # -- lock regions ---------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        added: set[str] = set()
        for item in node.items:
            lock = self._lock_of(item.context_expr)
            if lock is not None:
                added.add(lock)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        before = self.held
        self.held = before | added
        for stmt in node.body:
            self.visit(stmt)
        self.held = before

    visit_AsyncWith = visit_With

    def _lock_of(self, expr: ast.AST) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None and attr in self.owner.locks:
            return self.owner.locks[attr]
        return None

    # -- accesses and calls ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func_attr = _self_attr(node.func)
        if func_attr is not None:
            if func_attr in self.owner.methods:
                self.owner.intra_calls.append((self.method, func_attr, self.held))
            # the receiver ``self`` itself is not an attribute access.
        else:
            lock_recv = (
                self._lock_of(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if lock_recv is not None and isinstance(node.func, ast.Attribute):
                # self._lock.acquire()/release(): treat the rest of the
                # enclosing block conservatively as manual-locking; the
                # model does not narrow it, so skip discipline here.
                if node.func.attr in ("acquire", "release"):
                    self.owner.manual_lock_methods.add(self.method)
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and attr not in self.owner.locks:
            self.owner.accesses.append(
                _Access(
                    attr=attr,
                    method=self.method,
                    lineno=node.lineno,
                    held=self.held,
                    write=isinstance(node.ctx, (ast.Store, ast.Del)),
                )
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self._items[k] = v`` / ``del self._items[k]`` mutate the
        # container: count them as writes to the attribute.
        attr = _self_attr(node.value)
        if attr is not None and attr not in self.owner.locks and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            self.owner.accesses.append(
                _Access(
                    attr=attr,
                    method=self.method,
                    lineno=node.lineno,
                    held=self.held,
                    write=True,
                )
            )
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs run in unknown thread contexts; skip

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


class _ClassAnalysis:
    """Lock attrs, accesses, and intra-class call sites of one class."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.locks: dict[str, str] = {}  # attr -> canonical lock name
        self.accesses: list[_Access] = []
        self.intra_calls: list[tuple[str, str, frozenset[str]]] = []
        self.entry_methods: set[str] = set()
        self.manual_lock_methods: set[str] = set()
        self._find_locks()

    def _find_locks(self) -> None:
        for method in self.methods.values():
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign) or not isinstance(
                    stmt.value, ast.Call
                ):
                    continue
                chain = dotted_chain(stmt.value.func)
                if chain is None:
                    continue
                leaf = chain.rsplit(".", 1)[-1]
                if not any(f.endswith("." + leaf) for f in _LOCK_FACTORIES):
                    continue
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    canonical = attr
                    if leaf == "Condition" and stmt.value.args:
                        inner = _self_attr(stmt.value.args[0])
                        if inner is not None:
                            canonical = self.locks.get(inner, inner)
                    self.locks[attr] = canonical

    def analyze(self) -> None:
        for name, method in self.methods.items():
            walker = _MethodWalker(self, name)
            for stmt in method.body:
                walker.visit(stmt)
            if not name.startswith("_") or (
                name.startswith("__") and name.endswith("__")
            ):
                self.entry_methods.add(name)
        # a method referenced as a value (thread target, callback) can be
        # entered from anywhere - never a proven lock context.  Receivers
        # of direct calls (``self.m(...)``) are not value references.
        for method in self.methods.values():
            call_funcs = {
                id(node.func)
                for node in ast.walk(method)
                if isinstance(node, ast.Call)
            }
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in call_funcs
                ):
                    attr = _self_attr(node)
                    if attr in self.methods:
                        self.entry_methods.add(attr)
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in item.decorator_list:
                    if isinstance(deco, ast.Name) and deco.id == "property":
                        self.entry_methods.add(item.name)

    def construction_methods(self) -> set[str]:
        """Methods reachable only from ``__init__`` chains.

        Construction runs before the object is published to any other
        thread, so lock discipline does not apply yet (the same reason
        ``__init__`` itself is exempt).
        """
        callers: dict[str, set[str]] = {}
        for caller, callee, _held in self.intra_calls:
            callers.setdefault(callee, set()).add(caller)
        construction = {"__init__"}
        changed = True
        while changed:
            changed = False
            for name in self.methods:
                if name in construction or name in self.entry_methods:
                    continue
                sites = callers.get(name)
                if sites and sites <= construction:
                    construction.add(name)
                    changed = True
        return construction

    def effective_held(self) -> dict[str, frozenset[str]]:
        """Lock set provably held on *every* path into each method.

        Call sites inside construction-phase methods are ignored: they
        run single-threaded, so they neither grant nor weaken a lock
        context for concurrent entry.
        """
        construction = self.construction_methods()
        all_locks = frozenset(self.locks.values())
        sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for caller, callee, held in self.intra_calls:
            if caller in construction:
                continue
            sites.setdefault(callee, []).append((caller, held))
        effective: dict[str, frozenset[str]] = {}
        for name in self.methods:
            if name in self.entry_methods or name not in sites:
                effective[name] = frozenset()
            else:
                effective[name] = all_locks
        for _ in range(len(self.methods) + 1):
            changed = False
            for name, call_sites in sites.items():
                if name in self.entry_methods:
                    continue
                new: Optional[frozenset[str]] = None
                for caller, held in call_sites:
                    ctx = held | effective.get(caller, frozenset())
                    new = ctx if new is None else (new & ctx)
                new = new or frozenset()
                if new != effective.get(name):
                    effective[name] = new
                    changed = True
            if not changed:
                break
        return effective


class LockDisciplineRule(FlowRule):
    """Attributes written under a lock must always be accessed under it."""

    name = "flow-lock-discipline"
    family = "concurrency"
    description = (
        "attribute written under a threading lock somewhere but accessed "
        "without it elsewhere (lock context is propagated through the "
        "intra-class call graph; __init__ is construction and exempt)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        for module_name, module in sorted(graph.modules.items()):
            if not self.applies_to(module.relpath):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module.relpath, node)

    def _check_class(
        self, relpath: str, node: ast.ClassDef
    ) -> Iterator[Violation]:
        analysis = _ClassAnalysis(node)
        if not analysis.locks:
            return
        analysis.analyze()
        construction = analysis.construction_methods()
        effective = analysis.effective_held()
        guarded: dict[str, frozenset[str]] = {}
        for access in analysis.accesses:
            if access.method in construction or not access.write:
                continue
            if access.method in analysis.manual_lock_methods:
                continue
            held = access.held | effective.get(access.method, frozenset())
            if held:
                current = guarded.get(access.attr)
                guarded[access.attr] = held if current is None else (current & held)
        for attr, guard in sorted(guarded.items()):
            if not guard:
                # written under two different locks: every locked write
                # disagrees about the guard - report the writes.
                for access in analysis.accesses:
                    if access.attr == attr and access.write and access.held:
                        yield self.violation(
                            relpath,
                            access.lineno,
                            f"self.{attr} is written under different locks in "
                            f"{node.name}; pick one lock to guard it",
                        )
                continue
            lock_names = "/".join(sorted(guard))
            for access in analysis.accesses:
                if access.attr != attr or access.method in construction:
                    continue
                if access.method in analysis.manual_lock_methods:
                    continue
                held = access.held | effective.get(access.method, frozenset())
                if held & guard:
                    continue
                kind = "written" if access.write else "read"
                yield self.violation(
                    relpath,
                    access.lineno,
                    f"self.{attr} is {kind} in {node.name}.{access.method}() "
                    f"without self.{lock_names}, which guards its writes "
                    f"elsewhere",
                )


def _concurrency_spec() -> TaintSpec:
    return TaintSpec(
        call_sources={
            "threading.Lock": "lock",
            "threading.RLock": "lock",
            "threading.Condition": "lock",
            "threading.Semaphore": "lock",
            "builtins.open": "file-handle",
            "socket.socket": "socket",
            "socket.create_connection": "socket",
        },
        call_sinks=(
            CallSink(name="fork-capture", callee="multiprocessing.Process"),
            CallSink(name="fork-capture", attrs=("Process",)),
        ),
        propagate_unknown_calls=False,
    )


class ForkCaptureRule(FlowRule):
    """No lock/file/socket handle may cross a process spawn boundary."""

    name = "flow-fork-capture"
    family = "concurrency"
    description = (
        "a threading lock, open file, or socket created in the parent is "
        "passed into a multiprocessing.Process (fork-unsafe capture); "
        "worker arguments must be picklable mp primitives"
    )

    _LABELS = frozenset({"lock", "file-handle", "socket"})

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        flows = TaintEngine(graph, _concurrency_spec()).run()
        for flow in flows:
            if flow.sink != "fork-capture" or not (flow.labels & self._LABELS):
                continue
            pretty = "/".join(sorted(flow.labels & self._LABELS))
            yield self.violation(
                flow.relpath,
                flow.lineno,
                f"{pretty} handle captured into a worker Process in "
                f"{flow.function.rsplit('.', 1)[-1]}(); pass mp-safe "
                f"primitives instead",
            )
        # bound-method targets drag the whole lock-holding object across
        # the spawn; catch them syntactically.
        for fn in graph.functions.values():
            if not self.applies_to(fn.relpath):
                continue
            for site in fn.calls:
                if site.attr != "Process" and not (
                    site.callee and site.callee.endswith("multiprocessing.Process")
                ):
                    continue
                for kw in site.node.keywords:
                    if kw.arg == "target":
                        attr = _self_attr(kw.value)
                        if attr is not None:
                            yield self.violation(
                                fn.relpath,
                                site.node.lineno,
                                f"Process target self.{attr} captures self "
                                f"(and any locks it holds) across the spawn; "
                                f"use a module-level function",
                            )


# ---------------------------------------------------------------------------
# protocol checks
# ---------------------------------------------------------------------------


class JournalBeforeActRule(FlowRule):
    """Every job-state mutation is followed by a journal write."""

    name = "flow-journal-before-act"
    family = "protocol"
    description = (
        "a `.state = ...` mutation in the serve service layer with no "
        "journal append/compact later in the same function; the write-"
        "ahead invariant (journal before the service acts) would not "
        "survive a crash"
    )
    scope = ("src/repro/serve/service.py",)

    _JOURNAL_ATTRS = ("append", "compact")

    def _journaling_functions(self, graph: ProjectGraph) -> set[str]:
        direct: set[str] = set()
        for fn in graph.functions.values():
            for site in fn.calls:
                if site.attr in self._JOURNAL_ATTRS and site.receiver and (
                    "journal" in site.receiver.rsplit(".", 1)[-1]
                ):
                    direct.add(fn.qualname)
                    break
        journaling = set(direct)
        changed = True
        while changed:
            changed = False
            for fn in graph.functions.values():
                if fn.qualname in journaling:
                    continue
                if graph.callees(fn.qualname) & journaling:
                    journaling.add(fn.qualname)
                    changed = True
        return journaling

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        journaling = self._journaling_functions(graph)
        for fn in graph.functions.values():
            if not self.applies_to(fn.relpath):
                continue
            mutations = [
                stmt
                for stmt in ast.walk(fn.node)
                if isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Attribute) and t.attr == "state"
                    for t in stmt.targets
                )
            ]
            if not mutations:
                continue
            journal_lines = [
                site.node.lineno
                for site in fn.calls
                if (
                    site.attr in self._JOURNAL_ATTRS
                    and site.receiver
                    and "journal" in site.receiver.rsplit(".", 1)[-1]
                )
                or (site.known and site.callee in journaling)
            ]
            for mutation in mutations:
                if any(line >= mutation.lineno for line in journal_lines):
                    continue
                yield self.violation(
                    fn.relpath,
                    mutation.lineno,
                    f"job-state mutation in {fn.node.name}() is not followed "
                    f"by a journal append/compact in the same function "
                    f"(write-ahead invariant)",
                )


#: attributes that hold optional, zero-cost instrumentation hooks.
_HOOK_ATTRS = frozenset({"sanitizer", "chaos", "on_append"})


class _GuardChecker:
    """Track ``is not None`` guard regions for hook chains."""

    def __init__(self, rule: "HookSentinelRule", fn: FunctionInfo, graph: ProjectGraph):
        self.rule = rule
        self.fn = fn
        self.graph = graph
        self.aliases: set[str] = set()
        self.findings: list[tuple[int, str]] = []

    # -- condition analysis ---------------------------------------------------
    def _null_checks(self, test: ast.AST) -> tuple[frozenset[str], frozenset[str]]:
        """(chains non-None when true, chains non-None when false)."""
        chain = dotted_chain(test)
        if chain is not None:
            return frozenset({chain}), frozenset()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left = dotted_chain(test.left)
            is_none = isinstance(test.comparators[0], ast.Constant) and (
                test.comparators[0].value is None
            )
            if left is not None and is_none:
                if isinstance(test.ops[0], ast.IsNot):
                    return frozenset({left}), frozenset()
                if isinstance(test.ops[0], ast.Is):
                    return frozenset(), frozenset({left})
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            true_set, false_set = self._null_checks(test.operand)
            return false_set, true_set
        if isinstance(test, ast.BoolOp):
            out_true: frozenset[str] = frozenset()
            out_false: frozenset[str] = frozenset()
            for value in test.values:
                t, f = self._null_checks(value)
                if isinstance(test.op, ast.And):
                    out_true |= t
                else:
                    out_false |= f
            return (
                (out_true, frozenset())
                if isinstance(test.op, ast.And)
                else (frozenset(), out_false)
            )
        return frozenset(), frozenset()

    @staticmethod
    def _terminates(stmts: Sequence[ast.stmt]) -> bool:
        return bool(stmts) and isinstance(
            stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    # -- traversal ------------------------------------------------------------
    def run(self) -> list[tuple[int, str]]:
        self._block(self.fn.node.body, frozenset())
        return self.findings

    def _block(self, stmts: Sequence[ast.stmt], guarded: frozenset[str]) -> None:
        guarded = frozenset(guarded)
        for stmt in stmts:
            guarded = self._stmt(stmt, guarded)

    def _stmt(self, stmt: ast.stmt, guarded: frozenset[str]) -> frozenset[str]:
        if isinstance(stmt, ast.If):
            true_set, false_set = self._null_checks(stmt.test)
            self._expr(stmt.test, guarded)
            self._block(stmt.body, guarded | true_set)
            self._block(stmt.orelse, guarded | false_set)
            if self._terminates(stmt.body) and not stmt.orelse:
                return guarded | false_set
            if stmt.orelse and self._terminates(stmt.orelse):
                return guarded | true_set
            return guarded
        if isinstance(stmt, ast.Assert):
            true_set, _ = self._null_checks(stmt.test)
            self._expr(stmt.test, guarded)
            return guarded | true_set
        if isinstance(stmt, ast.While):
            true_set, _ = self._null_checks(stmt.test)
            self._expr(stmt.test, guarded)
            self._block(stmt.body, guarded | true_set)
            self._block(stmt.orelse, guarded)
            return guarded
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, guarded)
            self._block(stmt.body, guarded)
            self._block(stmt.orelse, guarded)
            return guarded
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, guarded)
            self._block(stmt.body, guarded)
            return guarded
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, guarded)
            for handler in stmt.handlers:
                self._block(handler.body, guarded)
            self._block(stmt.orelse, guarded)
            self._block(stmt.finalbody, guarded)
            return guarded
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value, guarded)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    value_chain = dotted_chain(stmt.value)
                    if value_chain is not None and (
                        value_chain.rsplit(".", 1)[-1] in _HOOK_ATTRS
                        or value_chain in self.aliases
                    ):
                        self.aliases.add(target.id)
                    else:
                        self.aliases.discard(target.id)
                elif isinstance(target, ast.Attribute):
                    # assigning TO the hook slot is installation, not use;
                    # still check the receiver expression.
                    self._expr(target.value, guarded)
            return guarded
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, guarded)
            elif isinstance(child, ast.stmt):
                self._stmt(child, guarded)
        return guarded

    def _expr(self, node: ast.AST, guarded: frozenset[str]) -> None:
        if isinstance(node, ast.BoolOp):
            acc = guarded
            for value in node.values:
                self._expr(value, acc)
                true_set, false_set = self._null_checks(value)
                acc = acc | (true_set if isinstance(node.op, ast.And) else false_set)
            return
        if isinstance(node, ast.IfExp):
            true_set, false_set = self._null_checks(node.test)
            self._expr(node.test, guarded)
            self._expr(node.body, guarded | true_set)
            self._expr(node.orelse, guarded | false_set)
            return
        if isinstance(node, ast.Call):
            chain = dotted_chain(node.func)
            if chain is not None:
                self._check_use(node, chain, guarded, calling=True)
            else:
                self._expr(node.func, guarded)
            for arg in node.args:
                self._expr(arg, guarded)
            for kw in node.keywords:
                self._expr(kw.value, guarded)
            return
        if isinstance(node, ast.Attribute):
            chain = dotted_chain(node)
            if chain is not None:
                self._check_use(node, chain, guarded, calling=False)
                return
            self._expr(node.value, guarded)
            return
        if isinstance(node, (ast.Lambda,)):
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                self._expr(child, guarded)

    def _check_use(
        self, node: ast.AST, chain: str, guarded: frozenset[str], calling: bool
    ) -> None:
        parts = chain.split(".")
        # alias call: ``hook(...)`` where hook = self.on_append
        if calling and len(parts) == 1 and parts[0] in self.aliases:
            if chain not in guarded:
                self.findings.append((node.lineno, chain))
            return
        for index, part in enumerate(parts):
            if part not in _HOOK_ATTRS or index == 0:
                continue
            prefix = ".".join(parts[: index + 1])
            # resolve module-ish prefixes away: ``chaos.active_plan`` is
            # the repro.chaos package, not a hook slot.
            qual, _known = self.graph.resolve_name(
                self.fn.module, parts[0], self.fn.class_name
            )
            if qual is not None and parts[0] != "self" and "." in (qual or ""):
                continue
            is_deref = index < len(parts) - 1
            is_hook_call = calling and index == len(parts) - 1
            if (is_deref or is_hook_call) and prefix not in guarded:
                self.findings.append((node.lineno, prefix))
            return


class HookSentinelRule(FlowRule):
    """Chaos/UVMSAN hooks stay zero-cost: every use is None-guarded."""

    name = "flow-hook-sentinel"
    family = "protocol"
    description = (
        "dereference or call of a None-sentinel instrumentation hook "
        "(.sanitizer / .chaos / .on_append) without a dominating "
        "`is not None` guard; hooks must cost nothing when disabled"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
            if not self.applies_to(fn.relpath):
                continue
            checker = _GuardChecker(self, fn, graph)
            for lineno, chain in checker.run():
                yield self.violation(
                    fn.relpath,
                    lineno,
                    f"unguarded use of None-sentinel hook {chain} in "
                    f"{fn.node.name}(); dominate it with "
                    f"`if {chain} is not None:`",
                )


# ---------------------------------------------------------------------------
# units flow
# ---------------------------------------------------------------------------

_UNIT_LABELS = frozenset({"u:ns", "u:bytes", "u:pages"})
_MIX_OPS = frozenset({"Add", "Sub", "Lt", "LtE", "Gt", "GtE"})


def _unit_binop(left: Labels, right: Labels, op: str) -> Labels:
    left_units = left & _UNIT_LABELS
    right_units = right & _UNIT_LABELS
    rest = (left | right) - _UNIT_LABELS
    if op in ("Div", "FloorDiv"):
        # bytes // bytes is a ratio (page counts and friends); a unit
        # divided by a plain number keeps its unit.
        return rest | (left_units if not right_units else frozenset())
    if op == "Mod":
        return rest | left_units
    return rest | left_units | right_units


def _unit_mix(left: Labels, right: Labels, op: str) -> Optional[Labels]:
    if op not in _MIX_OPS:
        return None
    left_units = left & _UNIT_LABELS
    right_units = right & _UNIT_LABELS
    if left_units and right_units and not (left_units & right_units):
        return left_units | right_units
    return None


def _units_spec() -> TaintSpec:
    return TaintSpec(
        name_sources={
            "repro.units.NS": "u:ns",
            "repro.units.US": "u:ns",
            "repro.units.MS": "u:ns",
            "repro.units.S": "u:ns",
            "repro.units.KiB": "u:bytes",
            "repro.units.MiB": "u:bytes",
            "repro.units.GiB": "u:bytes",
            "repro.units.PAGE_SIZE": "u:bytes",
            "repro.units.BIG_PAGE_SIZE": "u:bytes",
            "repro.units.VABLOCK_SIZE": "u:bytes",
        },
        call_sources={
            "repro.units.us": "u:ns",
            "repro.units.pages_to_bytes": "u:bytes",
            "repro.units.bytes_to_pages": "u:pages",
        },
        sanitizers={
            # leaving the unit system for human-facing rendering.
            "repro.units.ns_to_us": None,
            "repro.units.ns_to_ms": None,
            "repro.units.human_size": None,
            "repro.units.human_time_us": None,
            # converters strip the incoming unit; their call_sources
            # entry stamps the outgoing one.
            "repro.units.us": _UNIT_LABELS,
            "repro.units.pages_to_bytes": _UNIT_LABELS,
            "repro.units.bytes_to_pages": _UNIT_LABELS,
        },
        propagate_unknown_calls=False,
        mix=_unit_mix,
        binop_result=_unit_binop,
    )


class UnitsFlowRule(FlowRule):
    """ns/bytes/pages taints must never be added/subtracted/compared."""

    name = "flow-units-mix"
    family = "units"
    description = (
        "arithmetic (+, -, ordering) mixing ns-, bytes-, and pages-"
        "tainted values; unit taint follows repro.units constructors "
        "through assignments and call boundaries"
    )
    scope = _CORE_SCOPE

    def check_project(self, graph: ProjectGraph) -> Iterator[Violation]:
        flows = TaintEngine(graph, _units_spec()).run()
        pretty = {"u:ns": "ns", "u:bytes": "bytes", "u:pages": "pages"}
        for flow in flows:
            if flow.sink != "mix":
                continue
            units = " and ".join(
                sorted(pretty[l] for l in flow.labels if l in pretty)
            )
            yield self.violation(
                flow.relpath,
                flow.lineno,
                f"{flow.detail} combines {units} values in "
                f"{flow.function.rsplit('.', 1)[-1]}(); convert explicitly "
                f"via repro.units first",
            )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def default_flow_rules(
    analyses: Sequence[str] | None = None,
) -> list[FlowRule]:
    """The flow-rule set, optionally narrowed to named families."""
    rules: list[FlowRule] = [
        DeterminismTaintRule(),
        LockDisciplineRule(),
        ForkCaptureRule(),
        JournalBeforeActRule(),
        HookSentinelRule(),
        UnitsFlowRule(),
    ]
    if analyses is None:
        return rules
    wanted = set(analyses)
    unknown = wanted - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown analysis families {sorted(unknown)}; pick from {FAMILIES}"
        )
    return [rule for rule in rules if rule.family in wanted]
