"""The package exports, and the gate library's reach inside src/efxlab."""

import ast
from pathlib import Path

import efxlab
from efxlab import ciphers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "efxlab"
# the StateVector gate library: qsim keeps it as the tests' reference only
GATES = ("StateVector", "hadamard", "apply_xor_oracle", "apply_inplace_perm", "measure")


def test_every_exported_name_resolves():
    assert efxlab.__all__
    assert all(hasattr(efxlab, name) for name in efxlab.__all__)
    for sampler in ("simon_samples", "simon_subroutine", "simon_full"):
        assert sampler in efxlab.__all__
    assert "MeasurementOutcome" in efxlab.__all__  # amplitude_amplify returns it
    for removed in ("KeyDerivation", "test_key_guess", "KeyGuess") + GATES:
        assert removed not in efxlab.__all__
        assert not hasattr(efxlab, removed)


def test_no_module_but_qsim_names_the_gate_library():
    # names, attributes and imports; prose in strings and comments does not count
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "qsim.py"]
    assert "harness.py" in {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            names |= {alias.name for alias in getattr(node, "names", ())
                      if isinstance(alias, ast.alias)}
            found += [f"{path.name}:{node.lineno} {name}" for name in names & set(GATES)]
    assert found == []


def test_related_key_is_the_fixpoint_free_xor_one():
    # every key of every width kappa <= 16 stays a key of that width
    for k in range(1 << ciphers.MAX_BITS):
        related = efxlab.derive_related_key(k)
        assert related == k ^ 1 and related != k
        assert related.bit_length() <= max(1, k.bit_length())
