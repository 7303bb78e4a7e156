"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import treedim

PACKAGE = Path(treedim.__file__).parent


def _absolute_imports(path: Path) -> set[str]:
    """Top-level module of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_absolute_import_is_stdlib_or_treedim():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    imported = {path.name: _absolute_imports(path) for path in sources}
    assert "struct" in imported["rank.py"]
    allowed = set(sys.stdlib_module_names) | {"treedim"}
    outside = {name: sorted(mods - allowed) for name, mods in imported.items()}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_no_rationals_in_the_runtime():
    # Parameter points, functionals and Jacobians all live in GF(p).
    sources = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in sources if "fractions" in _absolute_imports(p)] == []


def _uses(path: Path, module: str, name: str) -> list[int]:
    """Lines that name ``module.name`` or import ``name`` from ``module``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == module
            and any(alias.name == name for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


def test_no_joint_state_enumeration_in_the_runtime():
    # The oracle sketches its Jacobian and a latent-class rank builds only
    # the rows it ranks: no code path lists every joint state.
    sources = sorted(PACKAGE.glob("*.py"))
    uses = {path.name: _uses(path, "itertools", "product") for path in sources}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_every_cardinality_product_is_capped():
    # A full product of huge cardinalities takes seconds: every bound goes
    # through model.capped_product or model.neighbor_bound, which stop once
    # the answer is settled.
    sources = sorted(PACKAGE.glob("*.py"))
    uses = {path.name: _uses(path, "math", "prod") for path in sources}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def _names(path: Path) -> set[str]:
    """Every identifier a source file names, defines or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_points_are_drawn_and_passed_only_in_rank():
    # One module fixes the point format and the draw order: no other one
    # draws field elements, completes a block or runs the passes.
    private = {"_inside", "_gradient", "_full_block", "field_draws"}
    sources = sorted(PACKAGE.glob("*.py"))
    uses = {p.name: sorted(_names(p) & private) for p in sources if p.name != "rank.py"}
    assert {name: found for name, found in uses.items() if found} == {}
    assert {"_inside", "_gradient", "field_draws"} <= _names(PACKAGE / "rank.py")


def _module_limits(path: Path) -> set[str]:
    """Module-level names ending in ``_LIMIT`` that a source file assigns."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.endswith("_LIMIT")}


def test_one_cost_limit_shared_by_both_engines():
    # The latent-class ranks and the oracle refuse by Jacobian cells, under
    # one constant and one error class, both in rank; the oracle refuses
    # through rank.check_cells, so it names neither the constant nor the
    # helper that writes the message's figures.
    sources = sorted(PACKAGE.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    limits = {p.name: sorted(_module_limits(p)) for p in sources}
    assert {name: found for name, found in limits.items() if found} == {
        "rank.py": ["CELL_LIMIT"]
    }
    errors = {
        name: sorted(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name.endswith("LimitError")
        )
        for name, tree in trees.items()
    }
    assert {name: found for name, found in errors.items() if found} == {
        "rank.py": ["CellLimitError"]
    }
    named = set()
    for node in ast.walk(trees["oracle.py"]):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    assert "check_cells" in named
    assert named.isdisjoint({"CELL_LIMIT", "_figure"})


def _scopes(tree: ast.AST, match) -> list[str]:
    """Dotted name of the enclosing scope of each node that ``match`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if match(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def _callers(tree: ast.AST, name: str) -> list[str]:
    """Dotted name of the enclosing function of each call to ``name``."""

    def calls(node):  # a Name has an id, an Attribute an attr
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name == getattr(
            func, "id", getattr(func, "attr", None)
        )

    return _scopes(tree, calls)


def test_validity_is_checked_once_at_construction():
    # A TreeModel validates itself when built, so no stage asks again: only
    # model.py names the check, and only TreeModel.__post_init__ runs it.
    sources = sorted(PACKAGE.glob("*.py"))
    check = {"require_valid", "validate"}
    uses = {p.name: sorted(_names(p) & check) for p in sources}
    assert {name: found for name, found in uses.items() if found} == {
        "model.py": ["require_valid"]
    }
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    assert _callers(tree, "require_valid") == ["TreeModel.__post_init__"]


def test_each_engine_ranks_in_one_function():
    # Each engine settles its row bound and the cell-limit refusal once per
    # call, before any draw, in the function that runs its trials.
    callers = {}
    for name in ("rank.py", "oracle.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        callers[name] = {f: _callers(tree, f) for f in ("exact_rank", "check_cells")}
    assert callers == {
        "rank.py": {
            "exact_rank": ["lc_rank_trials"],
            "check_cells": ["lc_rank_trials"],
        },
        "oracle.py": {
            "exact_rank": ["oracle_effective_dimension"],
            "check_cells": ["oracle_effective_dimension"],
        },
    }


def test_one_neighbor_bound():
    # check_regular and regularize share one neighbor bound: no other code
    # in model.py takes a max of cardinalities or multiplies them out.
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    assert _callers(tree, "neighbor_bound") == ["check_regular", "regularize"]
    assert _callers(tree, "max") == []
    assert _callers(tree, "capped_product") == []


def test_one_writer_of_error_lines():
    # Every CLI failure goes through iface._error, which escapes line breaks
    # and cuts a long message: no other code spells out an error: line.
    def spells(node):  # an f-string's literal parts are constants too
        value = getattr(node, "value", None)
        return isinstance(value, str) and value.startswith("error: ")

    sources = sorted(PACKAGE.glob("*.py"))
    found = {
        p.name: _scopes(ast.parse(p.read_text(encoding="utf-8")), spells)
        for p in sources
    }
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "iface.py": ["_error"]
    }


def test_one_layout_per_shape_from_a_bounded_memo():
    # A _Slots layout compiles a struct and builds ints as wide as a row:
    # only the bounded memo builds one, so no kernel pays for it per call.
    tree = ast.parse((PACKAGE / "rank.py").read_text(encoding="utf-8"))
    assert _callers(tree, "_Slots") == ["_layout"]
    (memo,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_layout"
    ]
    (cache,) = memo.decorator_list
    assert ast.unparse(cache.func) == "functools.lru_cache"
    (size,) = cache.keywords
    assert size.arg == "maxsize" and isinstance(size.value.value, int)
