"""Shape rules on the package source, checked on its syntax trees: no module
rebinds an outer name, and the attack modules keep every function at the
top level of a module or class."""

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


@pytest.mark.parametrize("name", ["offline_simon.py", "classical.py"])
def test_attack_module_nests_no_function(name):
    nested = []
    for outer in ast.walk(_tree(SRC / name)):
        if isinstance(outer, FUNCTIONS):
            nested += [f"{name}:{node.lineno}" for node in ast.walk(outer)
                       if node is not outer and isinstance(node, FUNCTIONS)]
    assert nested == []
