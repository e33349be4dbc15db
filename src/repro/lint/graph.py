"""Whole-program model: symbol table, import graph, approximate call graph.

:class:`ProjectGraph` parses every file of a lint run once and extracts
the per-module facts the cross-module rule pack (REP101..REP106,
:mod:`repro.lint.rules_xmod`) needs:

* a project-wide **symbol table** of functions/methods keyed by dotted
  qualname (``repro.perf.executor._pool_worker``);
* the **import graph** between project modules;
* an approximate **call graph**: call sites are resolved through import
  aliases, local definitions, and ``self.method`` within a class; calls
  through arbitrary objects stay unresolved (documented approximation);
* determinism-relevant facts per function -- wall-clock/env reads (with
  their noqa status, so a justified funnel stops taint), module-global
  writes, float-reduction parameters -- plus per-module RNG stream-name
  literals and schema-version literals.

Everything iterates in sorted order so analysis output is itself
deterministic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import dotted_name, noqa_suppressions

#: Wall-clock reads (shared with REP002); module-level so the taint
#: pass and the per-file rule can never drift apart.
WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Codes whose inline noqa sanctions a clock/env read as a funnel --
#: a suppressed source does not propagate taint (REP101).
_SOURCE_CODES = frozenset({"REP002", "REP009", "REP101"})

#: Method names that mutate their receiver in place (REP103).
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
}

#: Call names that mint/fetch a named RNG stream (REP102).
_STREAM_CALLEES = {"rng", "fresh"}

#: Integrity/artifact schema tags, e.g. ``"repro.perf.checkpoint/v1"``
#: or ``"repro-obs/1"`` (REP105).
SCHEMA_LITERAL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]{2,}/v?(\d+)$")


def module_name_for(path: str) -> str:
    """Dotted module name for a posix path (rooted at ``repro``)."""
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[idx:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


@dataclass
class ClockRead:
    """One wall-clock/env read inside a function."""

    resolved: str
    line: int
    col: int
    #: True when the line carries a noqa naming REP002/REP009/REP101
    #: (or a blanket noqa): the read is a sanctioned funnel and does
    #: not seed taint.
    suppressed: bool


@dataclass
class CallSite:
    """One call expression, before and after resolution."""

    raw: str
    line: int
    col: int
    #: A positional argument is a set literal / ``set()`` / ``frozenset()``
    #: (or a comprehension over one) -- unordered (REP104).
    unordered_arg: bool = False
    #: Filled by :meth:`ProjectGraph._bind`: project qualname, or None.
    callee: Optional[str] = None


@dataclass
class GlobalWrite:
    """A write to module-level state from inside a function (REP103)."""

    name: str
    line: int
    col: int


@dataclass
class StreamUse:
    """A statically-extracted RNG stream name or family (REP102)."""

    #: Exact name, or a glob pattern with ``*`` for dynamic segments.
    pattern: str
    #: True when the name came from an f-string (declared verbatim).
    family: bool
    line: int
    col: int


@dataclass
class SchemaUse:
    """A schema-version string literal occurrence (REP105)."""

    literal: str
    line: int
    col: int
    #: Constant name when this occurrence *defines* a module-level
    #: constant (``CACHE_SCHEMA = "repro.perf.cell-outcome/v1"``).
    const_def: Optional[str] = None

    @property
    def prefix(self) -> str:
        return self.literal.rsplit("/", 1)[0]

    @property
    def version(self) -> str:
        return self.literal.rsplit("/", 1)[1]


@dataclass
class SubmitIssue:
    """A lambda / locally-nested function handed to ``.submit`` (REP103)."""

    kind: str  # "lambda" | "nested"
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function/method (or the module body pseudo-function)."""

    qualname: str
    module: str
    path: str
    line: int
    col: int
    params: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    clock_reads: List[ClockRead] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    #: Parameters this function float-reduces (``sum(p)`` or a
    #: ``for v in p: acc += v`` loop) -- it is a *reduction helper*.
    reduces_params: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Per-module facts extracted in one AST walk."""

    name: str
    path: str
    source: str
    tree: ast.AST
    aliases: Dict[str, str] = field(default_factory=dict)
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    #: Raw dotted import origins with their statement locations.
    import_sites: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Project modules this module imports (bound by the graph).
    deps: Set[str] = field(default_factory=set)
    #: Names assigned at module level (mutable-state candidates).
    global_names: Set[str] = field(default_factory=set)
    #: Module-level string constants (for f-string stream prefixes).
    consts: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Set[str] = field(default_factory=set)
    stream_uses: List[StreamUse] = field(default_factory=list)
    schema_uses: List[SchemaUse] = field(default_factory=list)
    submit_issues: List[SubmitIssue] = field(default_factory=list)
    #: ``sum(...)`` over a statically-unordered collection (REP104).
    unordered_sums: List[Tuple[int, int]] = field(default_factory=list)
    #: The module body as a pseudo-function (import-time calls count).
    body: FunctionInfo = None  # type: ignore[assignment]


def _is_unordered(node: ast.expr) -> bool:
    """True for set displays, ``set()``/``frozenset()`` calls, and
    comprehensions/generators whose first iterable is one of those."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        if node.generators:
            return _is_unordered(node.generators[0].iter)
    return False


class _ModuleVisitor(ast.NodeVisitor):
    """One pass over a module, filling its :class:`ModuleInfo`."""

    def __init__(self, mod: ModuleInfo) -> None:
        self.mod = mod
        self.func_stack: List[FunctionInfo] = []
        self.declared_globals: List[Set[str]] = []
        self.local_defs: List[Set[str]] = []
        self.name_stack: List[str] = []
        self.class_stack: List[str] = []

    # -- helpers ----------------------------------------------------

    def _targets(self) -> List[FunctionInfo]:
        """Facts attach to every enclosing function (closure writes and
        reads count against the function that will ship the closure),
        or to the module body at top level."""
        return self.func_stack if self.func_stack else [self.mod.body]

    def _resolve(self, dotted: Optional[str]) -> Optional[str]:
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.mod.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def _source_suppressed(self, lineno: int) -> bool:
        codes = self.mod.suppressions.get(lineno, frozenset())
        if codes is None:
            return True
        return bool(codes & _SOURCE_CODES)

    # -- imports ----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.mod.import_sites.append(
                (alias.name, node.lineno, node.col_offset)
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self.mod.name.rsplit(".", node.level)[0] if (
                self.mod.name.count(".") >= node.level
            ) else self.mod.name
            module = f"{base}.{node.module}" if node.module else base
        else:
            module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                origin = module
            else:
                origin = f"{module}.{alias.name}" if module else alias.name
            self.mod.import_sites.append(
                (origin, node.lineno, node.col_offset)
            )
        self.generic_visit(node)

    # -- definitions ------------------------------------------------

    def _visit_def(self, node) -> None:
        qual = ".".join([self.mod.name, *self.name_stack, node.name])
        if self.local_defs:
            self.local_defs[-1].add(node.name)
        args = node.args
        params = tuple(
            a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        info = FunctionInfo(
            qualname=qual,
            module=self.mod.name,
            path=self.mod.path,
            line=node.lineno,
            col=node.col_offset,
            params=params,
        )
        self.mod.functions.setdefault(qual, info)
        self.func_stack.append(info)
        self.declared_globals.append(set())
        self.local_defs.append(set())
        self.name_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.name_stack.pop()
        self.local_defs.pop()
        self.declared_globals.pop()
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join([self.mod.name, *self.name_stack, node.name])
        self.mod.classes.add(qual)
        self.name_stack.append(node.name)
        self.class_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.class_stack.pop()
        self.name_stack.pop()

    def visit_Global(self, node: ast.Global) -> None:
        if self.declared_globals:
            self.declared_globals[-1].update(node.names)

    # -- assignments (module globals + writes) ----------------------

    def _record_write(self, name: str, node: ast.AST) -> None:
        for fn in self._targets():
            if fn is not self.mod.body:
                fn.global_writes.append(
                    GlobalWrite(name, node.lineno, node.col_offset)
                )

    def _record_candidate(self, base: ast.expr, node: ast.AST) -> None:
        """A write through a dotted base (``core.SHARED``): record it as
        a *candidate*; REP103 keeps only names that resolve to a module
        global in the bound graph, so local attribute chains drop out."""
        if not self.func_stack:
            return
        dotted = dotted_name(base)
        resolved = self._resolve(dotted)
        if resolved and "." in resolved:
            self._record_write(resolved, node)

    def _handle_assign_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if not self.func_stack:
                self.mod.global_names.add(target.id)
            elif (
                self.declared_globals
                and target.id in self.declared_globals[-1]
            ):
                self._record_write(target.id, node)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                if (
                    self.func_stack
                    and target.value.id in self.mod.global_names
                ):
                    self._record_write(target.value.id, node)
            elif isinstance(target.value, ast.Attribute):
                self._record_candidate(target.value, node)
        elif isinstance(target, ast.Attribute):
            self._record_candidate(target, node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_assign_target(elt, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_assign_target(target, node)
        if not self.func_stack:
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                name = node.targets[0].id
                self.mod.consts[name] = node.value.value
                if SCHEMA_LITERAL_RE.match(node.value.value):
                    self.mod.schema_uses.append(
                        SchemaUse(
                            node.value.value,
                            node.value.lineno,
                            node.value.col_offset,
                            const_def=name,
                        )
                    )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._handle_assign_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_assign_target(node.target, node)
        self.generic_visit(node)

    # -- expressions ------------------------------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and SCHEMA_LITERAL_RE.match(node.value):
            already = any(
                u.line == node.lineno and u.col == node.col_offset
                for u in self.mod.schema_uses
            )
            if not already:
                self.mod.schema_uses.append(
                    SchemaUse(node.value, node.lineno, node.col_offset)
                )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self._resolve(dotted_name(node))
        if resolved == "os.environ":
            for fn in self._targets():
                fn.clock_reads.append(
                    ClockRead(
                        resolved,
                        node.lineno,
                        node.col_offset,
                        self._source_suppressed(node.lineno),
                    )
                )
        self.generic_visit(node)

    def _extract_stream(self, arg: ast.expr) -> Optional[StreamUse]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return StreamUse(arg.value, False, arg.lineno, arg.col_offset)
        if isinstance(arg, ast.Name) and arg.id in self.mod.consts:
            return StreamUse(
                self.mod.consts[arg.id], False, arg.lineno, arg.col_offset
            )
        if isinstance(arg, ast.JoinedStr):
            parts: List[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                elif isinstance(value, ast.FormattedValue) and isinstance(
                    value.value, ast.Name
                ) and value.value.id in self.mod.consts:
                    parts.append(self.mod.consts[value.value.id])
                else:
                    parts.append("*")
            pattern = "".join(parts)
            return StreamUse(pattern, "*" in pattern, arg.lineno, arg.col_offset)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        resolved = self._resolve(dotted)
        raw = resolved or dotted or ""
        if (
            dotted
            and dotted.startswith("self.")
            and dotted.count(".") == 1
            and self.class_stack
        ):
            raw = ".".join(
                [self.mod.name, self.class_stack[-1], dotted.split(".", 1)[1]]
            )
        unordered = any(_is_unordered(a) for a in node.args)
        if raw:
            for fn in self._targets():
                fn.calls.append(
                    CallSite(raw, node.lineno, node.col_offset, unordered)
                )
        if resolved in WALLCLOCK_CALLS or resolved == "os.getenv":
            for fn in self._targets():
                fn.clock_reads.append(
                    ClockRead(
                        resolved,
                        node.lineno,
                        node.col_offset,
                        self._source_suppressed(node.lineno),
                    )
                )
        # in-place mutation of module state (REP103)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            base = node.func.value
            if isinstance(base, ast.Name):
                if self.func_stack and base.id in self.mod.global_names:
                    self._record_write(base.id, node)
            elif isinstance(base, ast.Attribute):
                self._record_candidate(base, node)
        # .submit(<lambda or locally nested def>, ...)
        is_submit = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "submit"
        ) or (isinstance(node.func, ast.Name) and node.func.id == "submit")
        if is_submit and node.args:
            first = node.args[0]
            if isinstance(first, ast.Lambda):
                self.mod.submit_issues.append(
                    SubmitIssue("lambda", first.lineno, first.col_offset)
                )
            elif (
                isinstance(first, ast.Name)
                and self.local_defs
                and any(first.id in defs for defs in self.local_defs)
            ):
                self.mod.submit_issues.append(
                    SubmitIssue("nested", first.lineno, first.col_offset)
                )
        # named RNG stream extraction
        is_stream_call = (
            isinstance(node.func, ast.Name) and node.func.id in _STREAM_CALLEES
        ) or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _STREAM_CALLEES
        ) or (resolved or "").endswith("generator_from_seed") or (
            dotted == "generator_from_seed"
        )
        if is_stream_call and node.args:
            use = self._extract_stream(node.args[0])
            if use is not None:
                self.mod.stream_uses.append(use)
        # float reduction via builtin sum
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            if node.args:
                arg = node.args[0]
                if _is_unordered(arg):
                    self.mod.unordered_sums.append(
                        (node.lineno, node.col_offset)
                    )
                if isinstance(arg, ast.Name) and self.func_stack:
                    fn = self.func_stack[-1]
                    if arg.id in fn.params:
                        fn.reduces_params.add(arg.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # ``for v in p: acc += v`` over a parameter = reduction helper.
        if isinstance(node.iter, ast.Name) and self.func_stack:
            fn = self.func_stack[-1]
            if node.iter.id in fn.params:
                loop_vars = {
                    n.id for n in ast.walk(node.target)
                    if isinstance(n, ast.Name)
                }
                for stmt in ast.walk(node):
                    if (
                        isinstance(stmt, ast.AugAssign)
                        and isinstance(stmt.op, ast.Add)
                        and isinstance(stmt.value, ast.Name)
                        and stmt.value.id in loop_vars
                    ):
                        fn.reduces_params.add(node.iter.id)
        self.generic_visit(node)


class ProjectGraph:
    """The bound whole-program model over one lint run's files."""

    def __init__(self, config) -> None:
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo across all modules (module bodies
        #: included under ``<mod>.<module>``).
        self.functions: Dict[str, FunctionInfo] = {}
        #: callee qualname -> set of caller qualnames.
        self.callers: Dict[str, Set[str]] = {}

    # -- construction -----------------------------------------------

    @classmethod
    def build(
        cls,
        entries: Sequence[Tuple[str, str, ast.AST]],
        config,
    ) -> "ProjectGraph":
        """Build and bind a graph from ``(posix_path, source, tree)``."""
        from repro.lint.rules import collect_aliases

        graph = cls(config)
        for path, source, tree in entries:
            name = module_name_for(path)
            mod = ModuleInfo(name=name, path=path, source=source, tree=tree)
            mod.aliases = collect_aliases(tree)
            mod.suppressions = noqa_suppressions(source)
            mod.body = FunctionInfo(
                qualname=f"{name}.<module>",
                module=name,
                path=path,
                line=1,
                col=0,
            )
            # module-level names must be known before the main walk so
            # in-function mutations of them can be recognised.
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            mod.global_names.add(target.id)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(stmt.target, ast.Name):
                        mod.global_names.add(stmt.target.id)
            _ModuleVisitor(mod).visit(tree)
            graph.modules[name] = mod
        graph._bind()
        return graph

    def _bind(self) -> None:
        for name in sorted(self.modules):
            mod = self.modules[name]
            for fn in [*mod.functions.values(), mod.body]:
                self.functions[fn.qualname] = fn
        all_classes: Set[str] = set()
        for mod in self.modules.values():
            all_classes |= mod.classes
        for name in sorted(self.modules):
            mod = self.modules[name]
            # imports -> project deps
            for origin, _, _ in mod.import_sites:
                dep = self._module_prefix(origin)
                if dep and dep != name:
                    mod.deps.add(dep)
            # call sites -> project functions
            for fn in [*mod.functions.values(), mod.body]:
                for site in fn.calls:
                    site.callee = self._bind_call(site.raw, name, all_classes)
                    if site.callee is not None:
                        self.callers.setdefault(site.callee, set()).add(
                            fn.qualname
                        )

    def _module_prefix(self, origin: str) -> Optional[str]:
        parts = origin.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate
        return None

    def _bind_call(
        self, raw: str, module: str, all_classes: Set[str]
    ) -> Optional[str]:
        for candidate in (raw, f"{module}.{raw}"):
            if candidate in self.functions:
                return candidate
            if candidate in all_classes:
                init = f"{candidate}.__init__"
                if init in self.functions:
                    return init
        return None

    # -- queries ----------------------------------------------------

    def iter_functions(self, module: str) -> List[FunctionInfo]:
        mod = self.modules[module]
        out = [mod.functions[q] for q in sorted(mod.functions)]
        out.append(mod.body)
        return out

    def reachable(
        self, entrypoints: Sequence[str]
    ) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
        """Forward closure over call edges from ``entrypoints``.

        Returns ``qualname -> (entrypoint, chain)`` where ``chain`` is
        the call path from the entrypoint to the function.  Entrypoints
        absent from the graph are ignored (fixture trees).
        """
        out: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        queue: List[str] = []
        for ep in sorted(entrypoints):
            if ep in self.functions and ep not in out:
                out[ep] = (ep, (ep,))
                queue.append(ep)
        while queue:
            qual = queue.pop(0)
            entry, chain = out[qual]
            fn = self.functions[qual]
            callees = sorted(
                {s.callee for s in fn.calls if s.callee is not None}
            )
            for callee in callees:
                if callee not in out:
                    out[callee] = (entry, chain + (callee,))
                    queue.append(callee)
        return out
