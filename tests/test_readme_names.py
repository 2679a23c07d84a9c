"""Every module-qualified name the README puts in backticks must exist in
efxlab, so deleting a symbol cannot leave the README naming it."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("offline_simon", "qsim", "ciphers", "harness", "gf2", "classical", "bounds")
NAME = re.compile(rf"({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def _readme_names() -> list:
    """(module, dotted attribute) of each backticked span outside the code
    blocks that starts with a module name, call arguments dropped."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    return sorted({match.groups() for span in spans if (match := NAME.match(span))})


def test_every_readme_name_resolves():
    names = _readme_names()
    assert len(names) >= 18
    missing = []
    for module_name, dotted in names:
        obj = importlib.import_module(f"efxlab.{module_name}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"{module_name}.{dotted}")
    assert missing == []
