"""Determinism/correctness rules (``REPxxx``) and the rule registry.

Each rule is a small AST pass tuned to this codebase's reproducibility
contract: every random draw goes through the named-stream registry in
:mod:`repro.sim.rng`, no wall-clock leaks into simulated time, no
unordered iteration feeds scheduling or placement decisions, and errors
are never silently swallowed.

Rules subclass :class:`Rule` and register themselves with
:func:`register`; the engine instantiates the registry once and runs
every selected rule over each parsed file.  A rule reports hits by
yielding :class:`Violation` objects from :meth:`Rule.check`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Type

#: Pseudo-code used for files that fail to parse; always enabled.
PARSE_ERROR_CODE = "REP000"

#: ``# repro: noqa[CODES] justification`` suppression comments.
NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def noqa_suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed codes (``None`` = all codes)."""
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = NOQA_RE.search(line)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def render(self) -> str:
        """``path:line:col: CODE message`` (1-based column, like flake8)."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
        }


class FileContext:
    """Per-file state shared by every rule during one lint pass."""

    def __init__(self, path: str, config) -> None:
        #: Posix-style path as handed to the engine (used in reports).
        self.path = path
        self.config = config
        #: Local name -> fully dotted origin, e.g. ``np -> numpy``,
        #: ``perf_counter -> time.perf_counter``.  Filled by the engine
        #: before rules run.
        self.aliases: Dict[str, str] = {}

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Expand the leading segment of ``dotted`` through import aliases."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains; ``None`` for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def collect_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local import names to their dotted origins for one module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.partition(".")[0]] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def path_matches(path: str, patterns: Sequence[str]) -> bool:
    """True when ``path`` equals, ends with, or sits under any pattern."""
    slashed = "/" + path.strip("/")
    for pat in patterns:
        p = "/" + pat.strip("/")
        if slashed == p or slashed.endswith(p) or (p + "/") in (slashed + "/"):
            return True
    return False


class Rule:
    """Base class: one code, one summary, one AST pass."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: ``"file"`` rules run per parsed module; ``"project"`` rules run
    #: once over the whole-program :class:`repro.lint.graph.ProjectGraph`
    #: (they subclass ``ProjectRule`` in :mod:`repro.lint.rules_xmod`).
    scope: str = "file"

    def applies_to(self, ctx: FileContext) -> bool:
        """Path-level gate; rules scoped by config override this."""
        return True

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def hit(self, node: ast.AST, message: str, ctx: FileContext) -> Violation:
        return Violation(
            code=self.code,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


#: code -> rule instance, populated by :func:`register`.
REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    rule = cls()
    if not rule.code or rule.code in REGISTRY:
        raise ValueError(f"duplicate or empty rule code {rule.code!r}")
    REGISTRY[rule.code] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    return [REGISTRY[code] for code in sorted(REGISTRY)]


# --------------------------------------------------------------------------
# The rules.
# --------------------------------------------------------------------------

#: Legacy module-level numpy.random draw/state functions (REP001).
_NP_CONSTRUCTORS = {
    "default_rng", "Generator", "RandomState", "PCG64", "PCG64DXSM",
    "MT19937", "Philox", "SFC64", "SeedSequence", "BitGenerator",
}

_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState", "numpy.random.PCG64",
    "numpy.random.PCG64DXSM", "numpy.random.MT19937",
    "numpy.random.SeedSequence", "random.Random", "random.SystemRandom",
}


@register
class ModuleLevelRandom(Rule):
    """REP001: ``random`` / legacy ``numpy.random`` module state.

    The stdlib ``random`` module and legacy ``numpy.random.*`` functions
    share hidden global state: any import order change or extra draw
    shifts every downstream number.  All draws must come from named
    streams handed out by ``repro.sim.rng.RngRegistry``.
    """

    code = "REP001"
    name = "module-level-random"
    summary = "random / numpy.random module-level state outside repro/sim/rng.py"

    def applies_to(self, ctx: FileContext) -> bool:
        return not path_matches(ctx.path, ctx.config.rng_allowed)

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.hit(
                            node,
                            "stdlib 'random' has hidden global state; draw "
                            "from a named RngRegistry stream instead",
                            ctx,
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.hit(
                        node,
                        "import from stdlib 'random'; use "
                        "repro.sim.rng streams instead",
                        ctx,
                    )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve(dotted_name(node.func))
                if (
                    resolved
                    and resolved.startswith("numpy.random.")
                    and resolved.rsplit(".", 1)[1] not in _NP_CONSTRUCTORS
                ):
                    yield self.hit(
                        node,
                        f"legacy module-level '{resolved}' mutates numpy's "
                        "global RNG state; use a named RngRegistry stream",
                        ctx,
                    )


@register
class WallClock(Rule):
    """REP002: wall-clock reads inside the deterministic core.

    Simulated components must consume ``sim.now`` only; a real-clock
    read makes run timing (and anything derived from it) irreproducible.
    """

    code = "REP002"
    name = "wall-clock"
    summary = "wall-clock call (time.time, datetime.now, perf_counter) in deterministic core"

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.wallclock_paths)

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(dotted_name(node.func))
            if resolved in _WALLCLOCK:
                yield self.hit(
                    node,
                    f"wall-clock call '{resolved}' in deterministic core; "
                    "use the simulation clock (sim.now)",
                    ctx,
                )


@register
class UnorderedIteration(Rule):
    """REP003: iterating a set / ``dict.keys()`` without a sort key.

    Set iteration order depends on insertion history and hash seeding;
    feeding it into event scheduling or placement decisions makes runs
    diverge.  Iterate ``sorted(...)`` or the dict itself (insertion
    ordered) instead.
    """

    code = "REP003"
    name = "unordered-iteration"
    summary = "iteration over bare set / dict.keys() without an explicit sort key"

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        iters: List[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                iters.append(node.iter)
        for it in iters:
            if isinstance(it, ast.Set):
                yield self.hit(
                    it,
                    "iteration over a set literal has no deterministic "
                    "order; wrap in sorted(...)",
                    ctx,
                )
            elif isinstance(it, ast.Call):
                if isinstance(it.func, ast.Name) and it.func.id in (
                    "set", "frozenset",
                ):
                    yield self.hit(
                        it,
                        f"iteration over {it.func.id}(...) has no "
                        "deterministic order; wrap in sorted(...)",
                        ctx,
                    )
                elif (
                    isinstance(it.func, ast.Attribute)
                    and it.func.attr == "keys"
                    and not it.args
                ):
                    yield self.hit(
                        it,
                        "iterate the mapping directly (insertion-ordered) "
                        "or sorted(d) instead of d.keys()",
                        ctx,
                    )


@register
class FloatEquality(Rule):
    """REP004: ``==`` / ``!=`` against a float literal.

    Exact float comparison silently breaks when a computation is
    reordered (e.g. a vectorized reduction).  Compare with a tolerance,
    or suppress with ``# repro: noqa[REP004]`` where exactness of a
    sentinel value is the point.
    """

    code = "REP004"
    name = "float-equality"
    summary = "float == / != comparison (use a tolerance or noqa an exact sentinel)"

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            ):
                yield self.hit(
                    node,
                    "exact float ==/!= comparison; use math.isclose / a "
                    "tolerance, or noqa an intentional sentinel check",
                    ctx,
                )


@register
class MutableDefault(Rule):
    """REP005: mutable default argument.

    A mutable default is shared across calls, so one run's state leaks
    into the next -- the classic aliasing bug, and a determinism hazard
    when the default accumulates draws or samples.
    """

    code = "REP005"
    name = "mutable-default"
    summary = "mutable default argument ([], {}, set())"

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                    and not default.args
                    and not default.keywords
                ):
                    yield self.hit(
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside",
                        ctx,
                    )


@register
class SilentExcept(Rule):
    """REP006: bare ``except:`` / silent ``except Exception: pass``.

    A swallowed :class:`SimulationError` turns a determinism violation
    into silently-wrong results.  Catch the narrowest type that can
    actually occur, and never discard it without acting.
    """

    code = "REP006"
    name = "silent-except"
    summary = "bare except / except Exception with a pass-only body"

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in body
        )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.hit(
                    node,
                    "bare 'except:' catches SystemExit and hides "
                    "SimulationError; name the exception type",
                    ctx,
                )
                continue
            names = []
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                d = dotted_name(t)
                if d:
                    names.append(d.rsplit(".", 1)[-1])
            if (
                any(n in ("Exception", "BaseException") for n in names)
                and self._is_silent(node.body)
            ):
                yield self.hit(
                    node,
                    "'except Exception' with a pass-only body swallows "
                    "SimulationError; narrow the type or handle it",
                    ctx,
                )


@register
class RngBypass(Rule):
    """REP007: Generator construction bypassing the stream registry.

    Components must not mint their own generators or re-seed existing
    ones: stream derivation lives in ``repro.sim.rng`` so adding one
    noise source never shifts another component's numbers.
    """

    code = "REP007"
    name = "rng-bypass"
    summary = "RNG construction / re-seeding bypassing repro.sim.rng"

    def applies_to(self, ctx: FileContext) -> bool:
        return not path_matches(ctx.path, ctx.config.rng_allowed)

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(dotted_name(node.func))
            if resolved in _RNG_CONSTRUCTORS:
                yield self.hit(
                    node,
                    f"'{resolved}' bypasses the named-stream registry; "
                    "use repro.sim.rng (RngRegistry / generator_from_seed)",
                    ctx,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "seed"
                and node.args
            ):
                yield self.hit(
                    node,
                    "re-seeding a generator in place desynchronizes its "
                    "stream; derive a fresh named stream instead",
                    ctx,
                )


@register
class PrintInLibrary(Rule):
    """REP008: ``print()`` in library code.

    Library components report through monitor/report paths; stray
    prints corrupt machine-readable output (CSV/JSON) and break
    byte-identical report comparisons.
    """

    code = "REP008"
    name = "print-in-library"
    summary = "print() outside CLI / report code"

    def applies_to(self, ctx: FileContext) -> bool:
        return not path_matches(ctx.path, ctx.config.print_allowed)

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.hit(
                    node,
                    "print() in library code; route output through the "
                    "monitor/report layers or the CLI",
                    ctx,
                )


@register
class EnvRead(Rule):
    """REP009: environment reads inside the deterministic core.

    ``os.environ`` makes simulator behavior depend on the invoking
    shell.  Configuration must flow through explicit parameters so a
    seed fully determines a run.
    """

    code = "REP009"
    name = "env-read"
    summary = "os.environ / os.getenv read in deterministic core"

    def applies_to(self, ctx: FileContext) -> bool:
        return path_matches(ctx.path, ctx.config.wallclock_paths)

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if ctx.resolve(dotted_name(node)) == "os.environ":
                    yield self.hit(
                        node,
                        "os.environ read in deterministic core; pass "
                        "configuration explicitly",
                        ctx,
                    )
            elif isinstance(node, ast.Call):
                if ctx.resolve(dotted_name(node.func)) == "os.getenv":
                    yield self.hit(
                        node,
                        "os.getenv in deterministic core; pass "
                        "configuration explicitly",
                        ctx,
                    )


@register
class UnstableSortKey(Rule):
    """REP010: sorting by ``hash`` / ``id``.

    ``hash`` of str/bytes is salted per process and ``id`` is an
    allocation address: both orderings change run to run, so any
    decision derived from them is irreproducible.
    """

    code = "REP010"
    name = "unstable-sort-key"
    summary = "sorted()/.sort() keyed on hash() or id()"

    @staticmethod
    def _key_is_unstable(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id in ("hash", "id"):
            return True
        if isinstance(key, ast.Lambda):
            return any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id in ("hash", "id")
                for n in ast.walk(key.body)
            )
        return False

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            is_sort = (
                isinstance(node.func, ast.Name) and node.func.id == "sorted"
            ) or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"
            )
            if not is_sort:
                continue
            for kw in node.keywords:
                if kw.arg == "key" and self._key_is_unstable(kw.value):
                    yield self.hit(
                        node,
                        "sort keyed on hash()/id() is salted per process; "
                        "key on a stable field instead",
                        ctx,
                    )


@register
class JustifiedNoqa(Rule):
    """REP011: suppressions in audited files must be narrow and justified.

    The files in ``noqa-justify`` are the sanctioned funnels through
    which real time enters the tree (``repro.obs.runtime.wall_now``, the
    supervisor's deadline clock).  Every ``# repro: noqa`` there must
    name the code(s) it suppresses and say *why* after the bracket, so
    each exemption stays an auditable one-liner instead of a blanket
    waiver.  Detection lives in the engine on raw source lines -- this
    rule cannot be silenced by the very noqa comment it audits -- so
    ``check`` here is a no-op that exists to document the code in
    ``--list-rules``.
    """

    code = "REP011"
    name = "justified-noqa"
    summary = "noqa in audited files without named codes + justification"

    def applies_to(self, ctx: FileContext) -> bool:
        return False

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[Violation]:
        return iter(())
