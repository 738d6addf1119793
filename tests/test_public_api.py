"""Integration tests through the top-level public API, and the guard
that keeps ``src/`` down to code something runs."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
#: Trees whose references keep a library name alive: the library, the
#: benchmarks, the examples and the perf harness.  Tests do not count.
CALLERS = ("src", "benchmarks", "examples", "perfbench")
#: Subpackages whose API exists for the tests and CI.
TEST_FACING = ("analysis",)
#: Documented entry points nothing in the tree calls: the one call that
#: regenerates every table, and the live clock (DESIGN.md "Clock
#: sanctioning").
ENTRY_POINTS = {"experiments/harness.py:run_all", "serve/clock.py:WallClock"}
#: A ``"module:attr"`` registry path names ``attr``.
REGISTRY_PATH = re.compile(r"^[\w.]+:(\w+)$")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def _owned(top: ast.stmt):
    """(owner, node) pairs covering one top-level statement.

    The owner is the top-level def's name, ``Class.method`` inside a
    method of a top-level class, and ``None`` at module level.
    """
    if isinstance(top, ast.ClassDef):
        for node in top.body:
            owner = f"{top.name}.{node.name}" if isinstance(node, FUNCS) else top.name
            yield owner, node
        for node in (*top.decorator_list, *top.bases, *top.keywords):
            yield top.name, node
    else:
        yield (top.name if isinstance(top, DEFS) else None), top


def _mentions(tree: ast.Module) -> dict[str, set]:
    """Name -> the owners (see :func:`_owned`) of the code mentioning it.

    A mention is a name, an attribute or a registry path.  Import
    statements are not mentions, so a re-export keeps nothing alive.
    """
    found = defaultdict(set)
    for top in tree.body:
        for owner, sub in _owned(top):
            for node in ast.walk(sub):
                if isinstance(node, ast.Name):
                    found[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    found[node.attr].add(owner)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = REGISTRY_PATH.match(node.value)
                    if match:
                        found[match.group(1)].add(owner)
    return found


def _has_caller(name: str, owner: str, home: Path, mentions: dict[Path, dict]) -> bool:
    """``name`` is mentioned outside the body of its def ``owner``."""
    for path, found in mentions.items():
        owners = found.get(name, set())
        if path == home:
            owners = {
                o for o in owners
                if o is None or (o != owner and not o.startswith(owner + "."))
            }
        if owners:
            return True
    return False


def test_every_library_name_has_a_caller():
    """Each top-level function and class under ``src/repro``, and each
    public method and property of those classes, is mentioned outside
    its own body by the library, a benchmark, an example or the perf
    harness.  Test-only helpers belong in the tests.  The rule goes by
    name: a same-named mention anywhere keeps a method alive.  Dunders
    and ``_private`` methods are exempt."""
    files = [path for root in CALLERS for path in (REPO / root).rglob("*.py")]
    mentions = {path: _mentions(ast.parse(path.read_text())) for path in files}
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] in TEST_FACING:
            continue
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, DEFS):
                continue
            defs = [(top.name, top.name)]
            if isinstance(top, ast.ClassDef):
                defs += [
                    (node.name, f"{top.name}.{node.name}")
                    for node in top.body
                    if isinstance(node, FUNCS) and not node.name.startswith("_")
                ]
            for name, owner in defs:
                key = f"{rel.as_posix()}:{owner}"
                if key not in ENTRY_POINTS and not _has_caller(
                    name, owner, path, mentions
                ):
                    unused.append(key)
    assert not unused, f"no caller outside tests: {unused}"


class TestEndToEnd:
    def test_quickstart_from_docstring(self):
        faults = np.zeros((10, 10, 10), dtype=bool)
        faults[5, 5, 5] = True
        service = repro.RoutingService(faults, mode="mcc")
        result = service.route((0, 0, 0), (9, 9, 9))
        assert result.delivered and result.is_minimal()

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_full_pipeline_composes(self):
        faults = np.zeros((8, 8, 8), dtype=bool)
        for cell in [(4, 4, 4), (4, 5, 4), (5, 4, 4)]:
            faults[cell] = True
        labelled = repro.label_grid(faults)
        mccs = repro.extract_mccs(labelled)
        walls = repro.build_walls(mccs)
        assert len(walls) == len(mccs) * 3
        assert repro.minimal_path_exists_lemma1((0, 0, 0), (7, 7, 7), labelled)

    def test_theorem_vs_oracle_via_api(self):
        faults = np.zeros((6, 6), dtype=bool)
        faults[2, 3] = True
        evaluator = repro.ConditionEvaluator(faults)
        assert evaluator.exists((0, 0), (5, 5))
        assert not evaluator.exists((2, 0), (2, 5))

    def test_distributed_pipeline_via_api(self):
        faults = np.zeros((6, 6), dtype=bool)
        faults[3, 3] = True
        pipe = repro.DistributedMCCPipeline(repro.Mesh2D(6), faults)
        assert pipe.route((0, 0), (5, 5))["status"] == "delivered"

    def test_orientation_roundtrip_via_api(self):
        o = repro.Orientation.for_pair((5, 1), (2, 4), (6, 6))
        assert o.signs == (-1, 1)
        assert o.map_coord(o.map_coord((5, 1))) == (5, 1)

    def test_baselines_via_api(self):
        faults = np.zeros((5, 5), dtype=bool)
        faults[2, 0] = True
        assert not repro.ecube_succeeds(faults, (0, 0), (4, 0))
        assert np.array_equal(repro.rfb_unsafe(faults), faults)
        blind = repro.RoutingService(faults, mode="blind")
        assert blind.route((0, 0), (4, 4)).delivered
