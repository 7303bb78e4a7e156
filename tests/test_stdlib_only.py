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


def _product_uses(path: Path) -> list[int]:
    """Lines that name ``itertools.product`` or import it from itertools."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "product"
            and isinstance(node.value, ast.Name)
            and node.value.id == "itertools"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(alias.name == "product" for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


def test_no_joint_state_enumeration_in_the_runtime():
    # The oracle sketches its Jacobian and a latent-class rank builds only
    # the rows it ranks: no code path lists every joint state.
    sources = sorted(PACKAGE.glob("*.py"))
    uses = {path.name: _product_uses(path) for path in sources}
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
