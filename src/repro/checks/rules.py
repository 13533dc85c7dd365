"""Codebase-specific lint rules for the UVM reproduction.

Each rule encodes one of the conventions the simulator's correctness
rests on (see the package docstring).  The rule set intentionally errs
on the side of precision over recall: a rule that cries wolf gets
waived into noise, while a quiet, sharp rule keeps failing CI exactly
when a convention is broken.

Scopes and allowlists are expressed as repo-relative path prefixes.
The *simulation core* (``core/``, ``gpu/``, ``mem/``, ``sim/``,
``workloads/``, ``experiments/``, ``trace/``, ``ext/``) must be
deterministic and unit-disciplined; the *operational shell*
(``serve/``, ``cli.py``) legitimately reads wall clocks.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.checks.linter import ParsedModule, Rule, Violation

#: paths where wall-clock and ad-hoc randomness are legitimate: the
#: service layer measures real elapsed time, the CLI talks to humans,
#: and benchmarks time real execution.
_NONDETERMINISM_ALLOWLIST = (
    "src/repro/serve/",
    "src/repro/fleet/",
    "src/repro/cli.py",
    "benchmarks/",
)

def _root_name(node: ast.AST) -> str | None:
    """The leftmost Name of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class WallClockRule(Rule):
    """Forbid wall-clock reads in the deterministic simulation core.

    Simulated time is :class:`repro.sim.clock.SimClock` nanoseconds;
    any ``time.time()``/``datetime.now()`` in the core makes replays
    non-reproducible (and, as UVMBench observes for real UVM runs,
    quietly couples results to runtime variation).
    """

    name = "determinism-wallclock"
    description = (
        "wall-clock reads (time.*, datetime.now, ...) are forbidden in the "
        "simulation core; simulated time flows through sim.clock"
    )
    allowlist = _NONDETERMINISM_ALLOWLIST

    _TIME_ATTRS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                root = _root_name(node)
                if root == "time" and node.attr in self._TIME_ATTRS:
                    yield self.violation(
                        module, node, f"wall-clock read time.{node.attr}"
                    )
                elif root in ("datetime", "date") and node.attr in self._DATETIME_ATTRS:
                    yield self.violation(
                        module, node, f"wall-clock read {root}.{node.attr}"
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                names = sorted(
                    a.name for a in node.names if a.name in self._TIME_ATTRS
                )
                if names:
                    yield self.violation(
                        module,
                        node,
                        f"importing wall-clock functions from time: {names}",
                    )


class RngRule(Rule):
    """All randomness must flow through :mod:`repro.sim.rng`.

    Direct ``random``/``np.random`` use creates draws outside the named
    generator tree, so adding randomness in one component perturbs every
    other - exactly the cross-contamination ``SimRng.fork`` exists to
    prevent - and unseeded draws break bit-identical replay outright.
    """

    name = "determinism-rng"
    description = (
        "direct random/np.random use is forbidden; randomness flows through "
        "sim.rng.SimRng (fork a named stream)"
    )
    allowlist = _NONDETERMINISM_ALLOWLIST + ("src/repro/sim/rng.py",)

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            module, node, "import of the stdlib random module"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        module, node, "import from the stdlib random module"
                    )
                elif node.module in ("numpy.random", "numpy.random.mtrand"):
                    yield self.violation(module, node, "import from numpy.random")
            elif isinstance(node, ast.Attribute):
                value = node.value
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and _root_name(value) in ("np", "numpy")
                ):
                    yield self.violation(
                        module, node, f"direct numpy RNG use np.random.{node.attr}"
                    )


class MagicLiteralRule(Rule):
    """Byte-size magic numbers in the core must come from repro.units.

    A literal ``4096`` is ambiguous (page size? entry count?); the named
    constant is not.  Powers of two >= 4096 in ``core/``/``gpu/``/
    ``mem/`` are flagged; genuine non-byte counts carry an inline
    waiver explaining what the number actually is.
    """

    name = "units-magic-literal"
    description = (
        "power-of-two byte-size literal in the simulation core; use the "
        "named repro.units constant (PAGE_SIZE, BIG_PAGE_SIZE, VABLOCK_SIZE, "
        "KiB/MiB/GiB multiples)"
    )
    scope = ("src/repro/core/", "src/repro/gpu/", "src/repro/mem/")

    _NAMED = {
        4096: "PAGE_SIZE",
        65536: "BIG_PAGE_SIZE",
        1048576: "MiB",
        2097152: "VABLOCK_SIZE",
        1073741824: "GiB",
    }
    _THRESHOLD = 4096

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            if value < self._THRESHOLD or value & (value - 1):
                continue
            suggestion = self._NAMED.get(value)
            hint = (
                f"use repro.units.{suggestion}"
                if suggestion
                else "derive it from repro.units (KiB/MiB/GiB)"
            )
            yield self.violation(module, node, f"magic literal {value}; {hint}")


class IntNanosecondRule(Rule):
    """Clock/timer arguments must be integer-nanosecond expressions.

    ``units.py``'s contract: simulated time accumulates in integer
    nanoseconds so millions of events cannot drift.  An expression with
    true division or a float literal feeding ``clock.advance`` /
    ``timer.charge`` reintroduces float error unless explicitly rounded.
    """

    name = "units-int-ns"
    description = (
        "float arithmetic (true division / float literal) flowing into "
        "clock.advance/advance_to or timer.charge without round()/int()"
    )
    scope = (
        "src/repro/core/",
        "src/repro/gpu/",
        "src/repro/mem/",
        "src/repro/sim/",
    )
    #: the clock itself rounds at its boundary; the cost model's
    #: bandwidth formulas round at their return sites.
    allowlist = ("src/repro/sim/clock.py",)

    _GUARDS = {"round", "int"}

    def _unguarded(self, node: ast.AST) -> Iterator[ast.AST]:
        """Float-producing nodes in ``node`` not wrapped in round()/int()."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._GUARDS:
                return  # everything below is explicitly re-integered
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield node
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from self._unguarded(child)

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in ("advance", "advance_to"):
                duration_args = node.args[:1]
            elif func.attr == "charge":
                duration_args = node.args[1:2]
            else:
                continue
            for arg in duration_args:
                for bad in self._unguarded(arg):
                    kind = (
                        "true division"
                        if isinstance(bad, ast.BinOp)
                        else f"float literal {bad.value}"  # type: ignore[attr-defined]
                    )
                    yield self.violation(
                        module,
                        node,
                        f"{kind} in {func.attr}() duration; wrap in round()",
                    )


class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls - forbid them."""

    name = "mutable-default-arg"
    description = "mutable default argument ([], {}, set(), ...); use None"

    _MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}

    def _is_mutable(self, node: ast.AST | None) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        module,
                        default,
                        f"mutable default argument in {node.name}()",
                    )


class BareExceptRule(Rule):
    """Bare ``except:`` swallows KeyboardInterrupt/SystemExit - forbid it.

    Worker and supervisor paths that must survive arbitrary job failures
    catch ``Exception`` (or ``BaseException`` with an explicit report),
    never a bare clause.
    """

    name = "bare-except"
    description = "bare 'except:' clause; catch Exception (or narrower)"

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(module, node, "bare except clause")


def default_rules() -> list[Rule]:
    """The full rule set ``uvmrepro check`` runs."""
    return [
        WallClockRule(),
        RngRule(),
        MagicLiteralRule(),
        IntNanosecondRule(),
        MutableDefaultRule(),
        BareExceptRule(),
    ]
