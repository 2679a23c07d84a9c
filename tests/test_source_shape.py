"""Shape rules on the package source, checked on its syntax trees: no module
rebinds an outer name, every module keeps every function at the top level
of a module or class, every cache holds one entry, no comprehension
encrypts block by block, the harness names an attack only in its table
of attacks, no function is there only for its own test, every
parameter is read, and every attribute a class stores is read."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import efxlab

SRC = Path(__file__).resolve().parents[1] / "src" / "efxlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_rebinds_an_outer_name(path):
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
             if isinstance(node, (ast.Nonlocal, ast.Global))]
    assert found == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_attack_module_nests_no_function(path):
    nested = []
    for outer in ast.walk(_tree(path)):
        if isinstance(outer, FUNCTIONS):
            nested += [f"{path.name}:{node.lineno}" for node in ast.walk(outer)
                       if node is not outer and isinstance(node, FUNCTIONS)]
    assert nested == []


def _holds_one_entry(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "maxsize" and getattr(keyword.value, "value", None) == 1
        for keyword in decorator.keywords)


def test_every_cache_holds_one_entry():
    # a cache keeps only its last key (one shape of a sweep at a time), so no
    # functools.lru_cache or cache in the package grows with the keys a run visits
    caches = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            for decorator in node.decorator_list if isinstance(node, FUNCTIONS) else []:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                    caches.append((f"{path.name}:{node.lineno}", _holds_one_entry(decorator)))
    assert caches and [site for site, one in caches if not one] == []


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _callee(node: ast.Call):
    return getattr(node.func, "attr", getattr(node.func, "id", None))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_comprehension_encrypts_block_by_block(path):
    # a whole codebook is composed from the layer tables (ciphers.codebook_with),
    # not one Python cipher evaluation per block
    found = []
    for comprehension in ast.walk(_tree(path)):
        if isinstance(comprehension, COMPREHENSIONS):
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(comprehension)
                      if isinstance(node, ast.Call) and _callee(node) == "encrypt_with"]
    assert found == []


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


# functions that nothing in the package references and efxlab does not export,
# each with the reason it stays
TEST_ONLY_ALLOWED = {
    **dict.fromkeys(("hadamard", "apply_xor_oracle", "apply_inplace_perm", "measure",
                     "decrypt_with", "classical_period_find"),
                    "traced by name by benchmarks/bench_trace.py"),
    **dict.fromkeys(("efx_required_resources", "extqsearch_classical_time"),
                    "read only by acceptance criteria 10 and 11"),
}


def _names_read(tree: ast.AST) -> Counter:
    return Counter(getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_has_a_caller_in_the_package():
    # code whose only caller is its own test goes: every function or method is
    # named in the package outside its own body, exported, or allowed above;
    # special methods are called by the language
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]
    read = sum(map(_names_read, trees), Counter())
    unreferenced = {node.name for tree in trees for node in ast.walk(tree)
                    if isinstance(node, FUNCTIONS)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and read[node.name] == _names_read(node)[node.name]}
    assert unreferenced - set(efxlab.__all__) == set(TEST_ONLY_ALLOWED)


# parameters that no body reads, each with the reason the signature keeps it
UNREAD_ALLOWED = {
    ("ciphers.py", "_em_layers", "k"): "every ConstructionSpec.layers takes (components, k)",
    ("harness.py", "_run_exhaustive", "rng"):
        "every Attack.run takes (cfg, instance, rng, trial_seed)",
}


def test_every_parameter_is_read():
    # an argument that nothing reads is a second way to call the function for
    # no effect: every parameter of every def is read in its own body
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, FUNCTIONS):
                args = node.args
                params = (args.posonlyargs + args.args + args.kwonlyargs
                          + [arg for arg in (args.vararg, args.kwarg) if arg])
                read = {name.id for stmt in node.body for name in ast.walk(stmt)
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
                unread |= {(path.name, node.name, arg.arg) for arg in params
                           if arg.arg not in ("self", "cls") and arg.arg not in read}
    assert unread == set(UNREAD_ALLOWED)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(target, "id", getattr(target, "attr", None)) == "dataclass"
               for target in (d.func if isinstance(d, ast.Call) else d
                              for d in cls.decorator_list))


def test_every_stored_attribute_is_read():
    # a field that nothing in the package loads is state kept for the tests
    # alone: every attribute a class assigns on self or declares as a
    # dataclass field is loaded as an attribute somewhere in the package
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]
    stored = set()
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        if _is_dataclass(cls):
            stored |= {(cls.name, stmt.target.id) for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)}
        stored |= {(cls.name, node.attr) for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and getattr(node.value, "id", None) == "self"}
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {(cls, name) for cls, name in stored if name not in loaded} == set()
