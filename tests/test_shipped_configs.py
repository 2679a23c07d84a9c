"""The shipped configs' reports keep the bytes the benchmark pins.

SHIPPED_CONFIG_DIGESTS in benchmarks/run.py and DEFAULT_SEED in
benchmarks/bench_workloads.py are parsed, not imported, and each config runs
as `benchmarks/run.py --check-configs` runs it. efx_kpa (about 11 s) is left
to --check-configs; the others take under 2 s each.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from efxlab import harness

ROOT = Path(__file__).resolve().parents[1]


def _assigned(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path.name}")


DIGESTS = _assigned(ROOT / "benchmarks" / "run.py", "SHIPPED_CONFIG_DIGESTS")
SEED = _assigned(ROOT / "benchmarks" / "bench_workloads.py", "DEFAULT_SEED")


@pytest.mark.parametrize("name", ["em_q2", "efx_exact_tiny", "guess_and_em", "efx_tensor"])
def test_shipped_config_report_bytes(name):
    cfg = harness.parse_config((ROOT / "configs" / f"{name}.cfg").read_text())
    cfg.seed = SEED
    report = harness.report_json(harness.run_attack(cfg))
    assert hashlib.sha256(report.encode()).hexdigest().startswith(DIGESTS[name])
