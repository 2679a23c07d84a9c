"""Shape rules on the package source, checked on its syntax trees: no module
rebinds an outer name, the attack, harness and bounds modules keep every
function at the top level of a module or class, and the harness names an
attack only in its table of attacks."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "efxlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_rebinds_an_outer_name(path):
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, (ast.Nonlocal, ast.Global))]
    assert found == []


@pytest.mark.parametrize("name", ["offline_simon.py", "classical.py", "harness.py",
                                  "bounds.py"])
def test_attack_module_nests_no_function(name):
    nested = []
    for outer in ast.walk(_tree(SRC / name)):
        if isinstance(outer, FUNCTIONS):
            nested += [f"{name}:{node.lineno}" for node in ast.walk(outer)
                       if node is not outer and isinstance(node, FUNCTIONS)]
    assert nested == []


def _names_the_attack(node: ast.expr) -> bool:
    return getattr(node, "attr", getattr(node, "id", None)) == "attack"


def _is_literal(node: ast.expr) -> bool:
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_harness_tests_an_attack_name_only_in_its_table():
    # what the harness knows about an attack is its ATTACKS row, so no code
    # outside that table compares the config's attack with a name or names
    tree = _tree(SRC / "harness.py")
    tables = [node for node in tree.body if isinstance(node, ast.AnnAssign)
              and getattr(node.target, "id", None) == "ATTACKS"]
    assert len(tables) == 1
    inside = {id(node) for node in ast.walk(tables[0])}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in inside:
            operands = [node.left] + node.comparators
            if any(map(_names_the_attack, operands)) and any(map(_is_literal, operands)):
                found.append(f"harness.py:{node.lineno}")
    assert found == []
