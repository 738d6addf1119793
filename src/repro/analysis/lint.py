"""``repro-check``: AST linter for determinism & concurrency invariants.

Usage (also the CI ``analysis`` job)::

    PYTHONPATH=src python -m repro.analysis.lint src tests benchmarks

Walks every ``.py`` file under the given paths, infers each file's
*role* from its path (``src`` / ``tests`` / ``benchmarks`` /
``examples``), and applies the rules of :mod:`repro.analysis.rules`
that are active for that role.  Exit status is 0 iff no unsuppressed
findings (suppressions: :mod:`repro.analysis.suppressions`).

The checks are deliberately syntactic — no type inference, no imports
of the checked code — so the linter runs in milliseconds on the whole
tree and never executes project code.  Where a check needs dataflow
(e.g. "this name holds a set"), it tracks only same-scope assignments;
the runtime sanitizers (:mod:`repro.analysis.sanitize`) cover what
static analysis cannot see.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import RULES, Rule
from repro.analysis.suppressions import (
    InlineSuppressions,
    Whitelist,
    WhitelistError,
    parse_inline,
)

#: Default name of the committed whitelist file (looked up in the
#: current working directory when ``--whitelist`` is not given).
DEFAULT_WHITELIST = "repro-check.allow"

#: D101 — wall-clock callables (canonical dotted names).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: D101 — the ONE module allowed to read the wall clock: the telemetry
#: shim :mod:`repro.obs.clockio`.  Everything else (including the
#: serving layer's WallClock) imports ``wall_now`` from there, so a
#: determinism audit of wall-time flow starts from a single site.
WALL_CLOCK_SANCTIONED = ("obs/clockio.py",)

#: D102 — members of numpy.random that are *not* global-state legacy API.
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: C202 — modules allowed to call label_grid directly: the labelling
#: core itself, the content-addressed cache that wraps it, and the
#: online dynamic-fault subsystem, which maintains labels incrementally
#: (its arrays are intentionally mutable — caching them is wrong).
LABEL_GRID_SANCTIONED = (
    "core/labelling.py",
    "core/model_cache.py",
    "/online/",
)

#: C203 — cache accessors whose return values are process-shared.
CACHED_FUNCS = frozenset({"cached_labelled", "cached_class_assets"})
#: C203 — ndarray methods that mutate in place.
ARRAY_MUTATORS = frozenset(
    {"setflags", "fill", "sort", "put", "itemset", "resize", "partition"}
)

#: P301 — pool/executor submission methods.
POOL_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def role_of(rel_path: str) -> str:
    """Infer a file's role from its path parts (default: ``src``)."""
    parts = Path(rel_path).parts
    for role in ("tests", "benchmarks", "examples"):
        if role in parts:
            return role
    return "src"


class _Scope:
    """Per-function dataflow the syntactic checks track."""

    def __init__(self, is_worker: bool = False):
        self.set_names: set[str] = set()
        self.cache_names: set[str] = set()
        self.nested_funcs: set[str] = set()
        self.is_worker = is_worker


class _Checker(ast.NodeVisitor):
    def __init__(self, rel_path: str, role: str, active: dict[str, Rule]):
        self.rel_path = rel_path
        self.role = role
        self.active = active
        self.findings: list[Finding] = []
        self.aliases: dict[str, str] = {}
        self.module_mutables: set[str] = set()
        self.scopes: list[_Scope] = [_Scope()]

    # -- helpers -----------------------------------------------------------

    def flag(self, node: ast.AST, rule_id: str, message: str) -> None:
        if rule_id in self.active:
            self.findings.append(
                Finding(
                    self.rel_path,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0) + 1,
                    rule_id,
                    message,
                )
            )

    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, through import aliases."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(self.aliases.get(node.id, node.id))
            return ".".join(reversed(parts))
        return None

    def base_name(self, node: ast.AST) -> str | None:
        """The root Name of a Subscript/Attribute chain (dataflow key)."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in self.scopes[-1].set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            # Set algebra (s | t, s - t, ...) stays a set if a side is one.
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- scopes ------------------------------------------------------------

    @staticmethod
    def _is_worker_name(name: str) -> bool:
        stripped = name.lstrip("_")
        return stripped.startswith("evaluate_") or name.endswith("_star")

    def _visit_function(self, node) -> None:
        if len(self.scopes) > 1:
            self.scopes[-1].nested_funcs.add(node.name)
        self.scopes.append(_Scope(is_worker=self._is_worker_name(node.name)))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments (dataflow + C201/C203) --------------------------------

    def _track_assignment(self, targets: Iterable[ast.AST], value: ast.AST) -> None:
        scope = self.scopes[-1]
        value_is_set = self.is_set_expr(value)
        value_is_cached = (
            isinstance(value, ast.Call)
            and isinstance(value.func, (ast.Name, ast.Attribute))
            and (self.dotted(value.func) or "").rsplit(".", 1)[-1] in CACHED_FUNCS
        )
        for target in targets:
            if isinstance(target, ast.Name):
                scope.set_names.discard(target.id)
                scope.cache_names.discard(target.id)
                if value_is_set:
                    scope.set_names.add(target.id)
                if value_is_cached:
                    scope.cache_names.add(target.id)
                if len(self.scopes) == 1 and isinstance(
                    value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
                ):
                    if not target.id.isupper() and not target.id.startswith("_"):
                        self.module_mutables.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)) and value_is_cached:
                # labelled, mccs, walls = cached_class_assets(...)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        scope.cache_names.add(elt.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_assignment(node.targets, node.value)
        for target in node.targets:
            # C201: arr.flags.writeable = True
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
                and isinstance(node.value, ast.Constant)
                and node.value.value is True
            ):
                self.flag(
                    node, "C201", "re-enables writes via .flags.writeable = True"
                )
            # C203: writing into a cache-obtained object
            if isinstance(target, ast.Subscript):
                base = self.base_name(target)
                if base in self.scopes[-1].cache_names:
                    self.flag(
                        node,
                        "C203",
                        f"writes into {base!r}, obtained from a shared "
                        "model cache (copy before mutating)",
                    )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_assignment([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        base = self.base_name(node.target)
        if base in self.scopes[-1].cache_names:
            self.flag(
                node,
                "C203",
                f"augmented assignment mutates {base!r}, obtained from a "
                "shared model cache",
            )
        self.generic_visit(node)

    # -- calls (D101/D102/C201/C202/C203/P301/D103) ------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = self.dotted(node.func)
        if name is not None:
            self._check_call_name(node, name)
        self._check_pool_submission(node)
        self._check_materialized_set(node)
        self.generic_visit(node)

    def _check_call_name(self, node: ast.Call, name: str) -> None:
        if name in WALL_CLOCK_CALLS:
            if not any(s in self.rel_path for s in WALL_CLOCK_SANCTIONED):
                self.flag(
                    node,
                    "D101",
                    f"wall-clock call {name}() in library code (results "
                    "must be pure functions of spec + seed); wall time "
                    "flows through repro.obs.clockio.wall_now only",
                )
        if name.startswith("random.") and name.count(".") == 1:
            self.flag(
                node,
                "D102",
                f"{name}() draws from process-global RNG state; route "
                "randomness through repro.util.rng",
            )
        if name.startswith("numpy.random."):
            member = name.split(".")[2]
            if member not in NP_RANDOM_ALLOWED:
                self.flag(
                    node,
                    "D102",
                    f"legacy numpy.random.{member}() uses global state; "
                    "use repro.util.rng (SeedSequence/Generator) streams",
                )
        if name.rsplit(".", 1)[-1] == "label_grid":
            if not any(s in self.rel_path for s in LABEL_GRID_SANCTIONED):
                self.flag(
                    node,
                    "C202",
                    "direct label_grid() call; route through "
                    "core.model_cache.cached_labelled so revisited "
                    "patterns hit the content-addressed cache",
                )
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "setflags":
                for kw in node.keywords:
                    if (
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        self.flag(
                            node,
                            "C201",
                            "setflags(write=True) re-enables writes on a "
                            "frozen array",
                        )
            if attr in ARRAY_MUTATORS:
                base = self.base_name(node.func.value)
                if base in self.scopes[-1].cache_names:
                    self.flag(
                        node,
                        "C203",
                        f".{attr}() mutates {base!r}, obtained from a "
                        "shared model cache",
                    )

    def _check_pool_submission(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_METHODS
        ):
            return
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                self.flag(
                    arg,
                    "P301",
                    f"lambda submitted to pool .{node.func.attr}(); pool "
                    "work must be a picklable module-level function",
                )
            elif (
                isinstance(arg, ast.Name)
                and arg.id in self.scopes[-1].nested_funcs
            ):
                self.flag(
                    arg,
                    "P301",
                    f"nested function {arg.id!r} submitted to pool "
                    f".{node.func.attr}(); closures do not pickle",
                )

    def _check_materialized_set(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
        ):
            return
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp):
            arg = arg.generators[0].iter
        if self.is_set_expr(arg):
            self.flag(
                node,
                "D103",
                f"{node.func.id}() materializes set iteration order "
                "(PYTHONHASHSEED-dependent for str/tuple elements); "
                "wrap in sorted()",
            )

    # -- loops & comprehensions (D103) -------------------------------------

    def visit_ListComp(self, node: ast.ListComp) -> None:
        if self.is_set_expr(node.generators[0].iter):
            self.flag(
                node,
                "D103",
                "list comprehension over a set bakes hash order into an "
                "ordered result; wrap the iterable in sorted()",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter) and self._body_builds_sequence(node.body):
            self.flag(
                node,
                "D103",
                "loop over a set appends to an ordered sequence; iterate "
                "sorted(...) instead",
            )
        self.generic_visit(node)

    @staticmethod
    def _body_builds_sequence(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("append", "extend", "insert")
                ):
                    return True
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return True
        return False

    # -- worker globals (P302) ---------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and self.scopes[-1].is_worker
            and node.id in self.module_mutables
        ):
            self.flag(
                node,
                "P302",
                f"worker function reads module-global mutable {node.id!r}; "
                "pass it through the task/spec or freeze it as an "
                "UPPER_CASE constant",
            )
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self.scopes[-1].is_worker:
            self.flag(
                node,
                "P302",
                "worker function declares 'global'; worker state never "
                "propagates back to the parent process",
            )
        self.generic_visit(node)


def _module_mutables_prepass(tree: ast.Module) -> set[str]:
    """Lowercase module-level names bound to mutable literals."""
    out: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.isupper()
                    and not target.id.startswith("_")
                ):
                    out.add(target.id)
    return out


def lint_source(
    source: str, rel_path: str, role: str | None = None
) -> list[Finding]:
    """Lint one file's source; returns findings after inline suppression.

    ``role`` overrides path-based inference (tests use this to exercise
    rules without building directory trees).
    """
    role = role or role_of(rel_path)
    active = {rid: r for rid, r in RULES.items() if role in r.roles}
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rel_path,
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                "E999",
                f"syntax error: {exc.msg}",
            )
        ]
    checker = _Checker(rel_path, role, active)
    checker.module_mutables = _module_mutables_prepass(tree)
    checker.visit(tree)

    inline = parse_inline(source)
    findings = [
        f
        for f in checker.findings
        if f.rule_id not in inline.by_line.get(f.line, set())
    ]
    for lineno, rules_text in inline.unjustified:
        findings.append(
            Finding(
                rel_path,
                lineno,
                1,
                "S001",
                f"disable={rules_text} has no '-- reason'; unjustified "
                "suppressions do not suppress",
            )
        )
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def lint_paths(
    paths: Sequence[str], whitelist: Whitelist | None = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; whitelist-filtered."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        rel = os.path.relpath(file_path).replace(os.sep, "/")
        source = file_path.read_text(encoding="utf-8")
        for f in lint_source(source, rel):
            if whitelist is not None and whitelist.allows(rel, f.rule_id):
                continue
            findings.append(f)
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Determinism & concurrency invariant linter.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests", "benchmarks"])
    parser.add_argument(
        "--whitelist",
        default=None,
        help=f"suppression whitelist file (default: ./{DEFAULT_WHITELIST} "
        "when present)",
    )
    parser.add_argument(
        "--no-whitelist",
        action="store_true",
        help="ignore any whitelist file (show every finding)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES.values():
            print(f"{r.id}  [{','.join(sorted(r.roles))}]  {r.summary}")
            print(f"      {r.rationale}")
        return 0

    whitelist = None
    if not args.no_whitelist:
        path = args.whitelist or (
            DEFAULT_WHITELIST if os.path.exists(DEFAULT_WHITELIST) else None
        )
        if path is not None:
            try:
                whitelist = Whitelist.load(path)
            except WhitelistError as exc:
                print(exc, file=sys.stderr)
                return 2

    findings = lint_paths(args.paths or ["src", "tests", "benchmarks"], whitelist)
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col)):
        print(f.render())
    if whitelist is not None:
        for entry in whitelist.unused():
            print(
                f"note: {whitelist.path}:{entry.lineno}: whitelist entry "
                f"({entry.pattern} {entry.rule_id}) matched nothing",
                file=sys.stderr,
            )
    if findings:
        print(f"repro-check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
