"""Every span name the benchmark tracer wraps must exist in efxlab.

benchmarks/bench_trace.py is parsed, not imported, and its TRACED table is
resolved the way the tracer resolves it: a function by module attribute, a
"Class.method" by the class's own dictionary.
"""

import ast
import importlib
from pathlib import Path

TRACE_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"


def _traced_table() -> dict:
    for node in ast.parse(TRACE_FILE.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in bench_trace.py")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert table
    missing = []
    for module_name, targets in table.items():
        module = importlib.import_module(f"efxlab.{module_name}")
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, target, None))
            if not found:
                missing.append(f"{module_name}.{target}")
    assert missing == []
