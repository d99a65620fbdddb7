"""AST-based determinism lint for the simulator's own source.

The simulator's contract is bit-for-bit reproducibility: the same
(program, config, seed) triple must produce the same result on every
run, machine, and Python version.  The classic ways that contract rots
are all statically visible, so this pass walks the AST of every module
under ``src/repro`` and enforces:

* ``unseeded-random`` — no module-level :mod:`random` functions (they
  share hidden global state) and no ``random.Random()`` without a seed;
  all randomness must flow from an explicitly seeded instance;
* ``wall-clock`` — no reads of wall-clock time (``time.time``,
  ``time.monotonic``, ``time.perf_counter``, ``datetime.now``, ...)
  outside ``faults/watchdog.py``, whose whole job is wall-clock
  watchdogging.  Wall time leaking anywhere else can steer simulated
  behaviour by host load;
* ``set-iteration`` — no iteration directly over a set display,
  ``set(...)`` / ``frozenset(...)`` call, or set comprehension: set
  order is arbitrary (hash-seed dependent for str keys), so event
  handlers and protocol code must iterate ``sorted(...)`` instead;
* ``mutable-default`` — no mutable default arguments (``[]``, ``{}``,
  ``set()``, ...): state smuggled between calls through a default is
  both a correctness bug and a cross-run leak;
* ``swallow-simulation-error`` — an ``except`` handler that catches
  :class:`~repro.sim.engine.SimulationError` (directly, via
  ``Exception``, or bare) must contain a ``raise``: invariant
  violations must never be silently dropped by event callbacks.

Two further rules guard the *hot path* (performance, not determinism —
the simulator allocates one object per event and per cache line, so
accidental dicts and per-iteration containers dominate profiles):

* ``missing-slots`` — classes under ``sim/``, ``caches/``, and
  ``coherence/`` (the per-event / per-line instance factories) must
  declare ``__slots__``.  Enums, NamedTuples, and exception classes are
  exempt (they are not bulk-instantiated or need no dict anyway);
  dataclasses with field defaults cannot take ``__slots__`` on the
  Python 3.9 CI floor and carry acknowledgements instead;
* ``loop-allocation`` — no container literals, comprehensions, lambdas,
  or ``list()``/``dict()``/... constructor calls inside the loop bodies
  of the event engine's ``run`` / ``run_until`` and of the processor's
  ``_loop``: these dispatch loops run once per event (the processor
  loop takes nearly every event in place, through ``schedule``) and
  must not churn the allocator.

One rule guards the layering of the protocol spec registry:

* ``spec-purity`` — modules under ``coherence/specs/`` are pure data:
  consumed by the runtime protocol *and* by every static analyzer
  (model check, protolint, latbound, protodiff), so they must not
  import the runtime packages (``sim``, ``system``, ``processor``,
  ``experiments``) and must not call anything at module scope beyond
  the spec constructors (``make_spec``, ``ProtocolSpec``, ``Rule``,
  ``TransitionTable``) and the immutable containers they are built
  from.  A spec with side effects would make "statically verified"
  mean "verified against whatever the import happened to do".

One rule guards numeric soundness of the timing core:

* ``float-drift`` — in ``sim/`` (the event calendar and queued
  resources, where every quantity is an integer pclock count), no
  ``==`` / ``!=`` comparison involving a float expression (a float
  literal, a ``float(...)`` call, or a true division) and no in-place
  accumulation of one (``+=`` / ``-=`` / ``*=`` with a float operand,
  or ``/=`` anywhere): float rounding drifts with evaluation order, and
  simulated time must never inherit it.  Reporting-only ratios
  (returned, not stored back into timing state) are fine.

A finding may be acknowledged in place with a trailing
``# srclint: ok(<rule>)`` comment on the offending line (the
crash-isolation boundary in the experiment supervisor, for example,
exists to swallow errors).  Acknowledgements that no longer suppress
anything — the offending code was fixed or moved, the comment stayed —
are themselves reported as ``dead-ack`` *warnings*, so stale
suppressions cannot quietly mask a future regression on the same line;
``--strict`` escalates them to failures.  The lint runs from
``repro-1991 check --lint-src`` and CI, and must stay clean on
``src/repro``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: Module-level :mod:`random` callables that use the hidden global RNG.
#: (Seeding the global RNG via ``random.seed`` is equally banned: the
#: stream is process-wide and any import-order change perturbs it.)
_GLOBAL_RNG_EXEMPT = {"Random", "SystemRandom"}

#: Wall-clock reading callables of :mod:`time`.
_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
    "localtime", "gmtime",
}

#: Wall-clock reading constructors of :mod:`datetime` classes.
_DATETIME_FNS = {"now", "utcnow", "today"}

#: Exception names whose handlers can swallow a SimulationError.
_SWALLOWING_CATCHES = {"SimulationError", "Exception", "BaseException"}

#: Files allowed to read the wall clock: the watchdog *is* the wall
#: clock boundary (its readings feed abort decisions, never sim state).
_WALL_CLOCK_ALLOWED = ("faults/watchdog.py",)

#: Package subtrees whose classes are instantiated per event or per
#: cache line — the ``missing-slots`` rule's scope.
_HOT_PATH_DIRS = ("sim/", "caches/", "coherence/")

#: Base classes that exempt a class from ``missing-slots``: enums and
#: NamedTuples manage their own storage, Protocols are not instantiated.
_SLOTS_EXEMPT_BASES = {
    "Enum", "IntEnum", "IntFlag", "Flag", "NamedTuple", "Protocol",
}

#: Per-event dispatch loops guarded by ``loop-allocation``, by path
#: prefix: the event engine's ``run`` / ``run_until``, and the processor
#: loop, which fires nearly every event in place: its yield,
#: ``EventEngine.schedule(..., take=)``, hands it the next processor.
_EVENT_LOOP_FNS = {
    "sim/": ("run", "run_until"),
    "processor/processor.py": ("_loop",),
}

#: Scope of the ``spec-purity`` rule: the protocol spec registry.
_SPEC_DIR = "coherence/specs/"

#: Runtime packages a protocol spec must never import: specs feed both
#: the runtime and the static analyzers, so reaching into the simulator
#: from a spec would invert the layering.
_SPEC_FORBIDDEN_IMPORTS = (
    "repro.sim", "repro.system", "repro.processor", "repro.experiments",
)

#: Call targets a spec module may invoke at module scope: the spec
#: constructors and the immutable containers specs are built from.
_SPEC_ALLOWED_CALLS = {
    "make_spec", "ProtocolSpec", "Rule", "TransitionTable",
    "frozenset", "tuple", "dict", "dataclass", "field",
}

#: Container constructors whose calls allocate inside the event loop.
_ALLOC_CALLS = {"list", "dict", "set", "tuple", "frozenset", "bytearray"}

_OK_COMMENT = re.compile(r"#\s*srclint:\s*ok(?:\(([a-z-]+)\))?")

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class SrcIssue:
    """One finding, anchored to a source location."""

    path: str        # repo-relative (posix) path
    line: int
    col: int
    rule: str
    message: str
    severity: str = ERROR

    def __str__(self) -> str:
        tag = f" {self.severity}:" if self.severity != ERROR else ""
        return (
            f"{self.path}:{self.line}:{self.col} [{self.rule}]{tag} "
            f"{self.message}"
        )


class _Visitor(ast.NodeVisitor):
    def __init__(
        self, rel_path: str, source_lines: Sequence[str]
    ) -> None:
        self.rel_path = rel_path
        self.source_lines = source_lines
        self.issues: List[SrcIssue] = []
        #: local alias -> real module name, for ``random`` and ``time``.
        self.module_aliases: Dict[str, str] = {}
        #: names bound by ``from datetime import datetime/date``.
        self.datetime_names: Set[str] = set()
        #: line numbers whose ack comment suppressed at least one finding.
        self.used_acks: Set[int] = set()
        #: function/lambda nesting depth — 0 means the code runs at
        #: module import time (the ``spec-purity`` scope).
        self._func_depth = 0

    # -- helpers -----------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self._acknowledged(line, rule):
            return
        self.issues.append(
            SrcIssue(
                self.rel_path, line, getattr(node, "col_offset", 0) + 1,
                rule, message,
            )
        )

    def _acknowledged(self, line: int, rule: str) -> bool:
        if not 1 <= line <= len(self.source_lines):
            return False
        match = _OK_COMMENT.search(self.source_lines[line - 1])
        if match is None:
            return False
        if match.group(1) is None or match.group(1) == rule:
            self.used_acks.add(line)
            return True
        return False

    def _alias_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id)
        return None

    # -- imports -----------------------------------------------------------

    def _check_spec_import(self, node: ast.AST, module: str) -> None:
        if not self.rel_path.startswith(_SPEC_DIR):
            return
        for forbidden in _SPEC_FORBIDDEN_IMPORTS:
            if module == forbidden or module.startswith(forbidden + "."):
                self._flag(
                    node, "spec-purity",
                    f"protocol spec imports the runtime package "
                    f"{module!r}; specs are pure data shared by the "
                    f"runtime and every static analyzer and must not "
                    f"depend on the simulator",
                )
                return

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in ("random", "time", "datetime"):
                self.module_aliases[alias.asname or alias.name] = alias.name
            self._check_spec_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None:
            self._check_spec_import(node, node.module)
        if node.module == "random":
            # ``from random import randint`` severs the call site from
            # the module name, making seeding untrackable.
            for alias in node.names:
                if alias.name not in _GLOBAL_RNG_EXEMPT:
                    self._flag(
                        node, "unseeded-random",
                        f"'from random import {alias.name}' binds the "
                        f"hidden global RNG; import the module and use a "
                        f"seeded random.Random instance",
                    )
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date", "time"):
                    self.datetime_names.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FNS:
                    self._flag(
                        node, "wall-clock",
                        f"'from time import {alias.name}' imports a "
                        f"wall-clock read",
                    )
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.rel_path.startswith(_SPEC_DIR)
            and self._func_depth == 0
        ):
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name not in _SPEC_ALLOWED_CALLS:
                self._flag(
                    node, "spec-purity",
                    f"module-scope call to {name or '<expression>'}() in "
                    f"a protocol spec runs side effects at import time; "
                    f"specs must only invoke the spec constructors "
                    f"({', '.join(sorted(_SPEC_ALLOWED_CALLS))})",
                )
        if isinstance(func, ast.Attribute):
            owner = self._alias_of(func.value)
            if owner == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        self._flag(
                            node, "unseeded-random",
                            "random.Random() without a seed draws entropy "
                            "from the OS; pass an explicit seed",
                        )
                elif func.attr not in _GLOBAL_RNG_EXEMPT:
                    self._flag(
                        node, "unseeded-random",
                        f"random.{func.attr}() uses the hidden global "
                        f"RNG; use an explicitly seeded random.Random",
                    )
            elif owner == "time" and func.attr in _TIME_FNS:
                self._flag(
                    node, "wall-clock",
                    f"time.{func.attr}() reads the wall clock",
                )
            elif func.attr in _DATETIME_FNS:
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in self.datetime_names
                ) or (
                    isinstance(base, ast.Attribute)
                    and self._alias_of(base.value) == "datetime"
                ):
                    self._flag(
                        node, "wall-clock",
                        f"datetime {func.attr}() reads the wall clock",
                    )
        self.generic_visit(node)

    # -- iteration over sets -----------------------------------------------

    def _check_iterable(self, iterable: ast.expr) -> None:
        unordered = None
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            unordered = "a set display"
        elif isinstance(iterable, ast.Call) and isinstance(
            iterable.func, ast.Name
        ) and iterable.func.id in ("set", "frozenset"):
            unordered = f"{iterable.func.id}(...)"
        if unordered is not None:
            self._flag(
                iterable, "set-iteration",
                f"iterating {unordered} visits elements in arbitrary "
                f"(hash-dependent) order; wrap it in sorted()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for comp in node.generators:
            self._check_iterable(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions

    # -- float drift in timing code ----------------------------------------

    def _floatish(self, node: ast.expr) -> bool:
        """Syntactically float-valued: a float literal, ``float(...)``,
        a true division, or any expression containing one."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return True
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left) or self._floatish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand)
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.rel_path.startswith("sim/"):
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ) and any(self._floatish(operand) for operand in operands):
                self._flag(
                    node, "float-drift",
                    "exact equality against a float expression is "
                    "rounding-sensitive; simulated time is integer "
                    "pclocks — compare integers or use a tolerance",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.rel_path.startswith("sim/"):
            if isinstance(node.op, ast.Div):
                self._flag(
                    node, "float-drift",
                    "in-place division turns timing state into a float "
                    "accumulator; keep pclock counts integral",
                )
            elif isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ) and self._floatish(node.value):
                self._flag(
                    node, "float-drift",
                    "accumulating a float expression into timing state "
                    "drifts with evaluation order; keep pclock counts "
                    "integral",
                )
        self.generic_visit(node)

    # -- mutable defaults --------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                mutable = "a mutable literal"
            elif isinstance(default, ast.Call) and isinstance(
                default.func, ast.Name
            ) and default.func.id in ("list", "dict", "set", "bytearray"):
                mutable = f"{default.func.id}()"
            if mutable is not None:
                self._flag(
                    default, "mutable-default",
                    f"default argument is {mutable}, shared across every "
                    f"call; use None and create it in the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        if any(
            self.rel_path.startswith(prefix) and node.name in names
            for prefix, names in _EVENT_LOOP_FNS.items()
        ):
            self._check_loop_allocations(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    # -- hot-path performance ----------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.rel_path.startswith(_HOT_PATH_DIRS):
            self._check_slots(node)
        self.generic_visit(node)

    def _check_slots(self, node: ast.ClassDef) -> None:
        base_names = set()
        for base in node.bases:
            if isinstance(base, ast.Name):
                base_names.add(base.id)
            elif isinstance(base, ast.Attribute):
                base_names.add(base.attr)
        if base_names & _SLOTS_EXEMPT_BASES:
            return
        exc_suffixes = ("Error", "Exception", "Warning")
        if node.name.endswith(exc_suffixes) or any(
            name.endswith(exc_suffixes) for name in base_names
        ):
            return
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return
        self._flag(
            node, "missing-slots",
            f"class {node.name!r} lives on the per-event/per-line hot "
            f"path but declares no __slots__; every instance carries a "
            f"__dict__",
        )

    def _check_loop_allocations(self, func: ast.FunctionDef) -> None:
        flagged: Set[int] = set()
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            for child in ast.walk(loop):
                if child is loop or id(child) in flagged:
                    continue
                alloc = None
                if isinstance(child, (ast.List, ast.Dict, ast.Set)):
                    alloc = "a container literal"
                elif isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.DictComp,
                     ast.GeneratorExp),
                ):
                    alloc = "a comprehension"
                elif isinstance(child, ast.Lambda):
                    alloc = "a lambda"
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in _ALLOC_CALLS
                ):
                    alloc = f"{child.func.id}()"
                if alloc is not None:
                    flagged.add(id(child))
                    self._flag(
                        child, "loop-allocation",
                        f"{alloc} is allocated inside the event-dispatch "
                        f"loop of {func.name}(); hoist it out of the "
                        f"per-event path",
                    )

    # -- swallowed SimulationError -----------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = self._caught_names(node.type)
        if caught & _SWALLOWING_CATCHES or node.type is None:
            if not any(
                isinstance(child, ast.Raise) for child in ast.walk(node)
            ):
                what = ", ".join(sorted(caught)) if caught else "everything"
                self._flag(
                    node, "swallow-simulation-error",
                    f"handler catches {what} without re-raising; a "
                    f"SimulationError (invariant violation) would be "
                    f"silently dropped",
                )
        self.generic_visit(node)

    @staticmethod
    def _caught_names(node: Optional[ast.expr]) -> Set[str]:
        if node is None:
            return set()
        names: Set[str] = set()
        targets = node.elts if isinstance(node, ast.Tuple) else [node]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
        return names


def lint_source(source: str, rel_path: str) -> List[SrcIssue]:
    """Lint one module's source text (``rel_path`` is for reporting and
    the wall-clock allowlist)."""
    lines = source.splitlines()
    tree = ast.parse(source, filename=rel_path)
    visitor = _Visitor(rel_path, lines)
    visitor.visit(tree)
    issues = visitor.issues
    if rel_path.replace("\\", "/").endswith(_WALL_CLOCK_ALLOWED):
        issues = [i for i in issues if i.rule != "wall-clock"]
    issues.extend(_dead_acks(rel_path, lines, visitor.used_acks))
    return issues


def _dead_acks(
    rel_path: str, lines: Sequence[str], used: Set[int]
) -> List[SrcIssue]:
    """Explicit-rule ``srclint: ok(<rule>)`` comments that suppressed
    nothing.  Rule-less ``srclint: ok`` mentions (e.g. in docstrings
    describing the mechanism) are not flagged."""
    issues: List[SrcIssue] = []
    for lineno, text in enumerate(lines, start=1):
        if lineno in used:
            continue
        match = _OK_COMMENT.search(text)
        if match is None or match.group(1) is None:
            continue
        rule = match.group(1)
        issues.append(
            SrcIssue(
                rel_path, lineno, match.start() + 1, "dead-ack",
                f"'# srclint: ok({rule})' no longer suppresses any "
                f"{rule} finding on this line; remove the stale "
                f"acknowledgement",
                severity=WARNING,
            )
        )
    return issues


def failures(
    issues: Iterable[SrcIssue], strict: bool = False
) -> List[SrcIssue]:
    """The issues that should fail the check: errors always, warnings
    (currently only ``dead-ack``) under ``--strict``."""
    return [
        i for i in issues if strict or i.severity != WARNING
    ]


def lint_path(path: Path, root: Path) -> List[SrcIssue]:
    rel = path.relative_to(root).as_posix()
    return lint_source(path.read_text(encoding="utf-8"), rel)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_tree(root: Optional[Path] = None) -> List[SrcIssue]:
    """Lint every ``*.py`` under ``root`` (default: the repro package)."""
    root = Path(root) if root is not None else default_root()
    issues: List[SrcIssue] = []
    for path in sorted(root.rglob("*.py")):
        issues.extend(lint_path(path, root))
    return issues


def format_issues(issues: Iterable[SrcIssue]) -> str:
    issues = list(issues)
    if not issues:
        return "src lint: clean"
    lines = [f"src lint: {len(issues)} issue(s):"]
    lines.extend(f"  {issue}" for issue in issues)
    return "\n".join(lines)
