"""The shipped configs' and the benchmark workloads' reports keep the bytes
the benchmark pins.

SHIPPED_CONFIG_DIGESTS in benchmarks/run.py, DEFAULT_SEED and the Workload
entries in benchmarks/bench_workloads.py are parsed, not imported. Each
shipped config runs as `benchmarks/run.py --check-configs` runs it; efx_kpa
(about 11 s) is left to --check-configs, the others take under 2 s each.
Each workload config runs its default-seed report as the benchmark's digest
check does and must match benchmarks/digests.json. The 2XOR config, which
the benchmark does not run, is pinned here at 3 trials.
"""

import ast
import hashlib
import json
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


# configs/two_xor.cfg, the paper's own construction, is not among the
# benchmark's shipped configs: its report at 3 trials and its own seed
TWO_XOR_DIGEST = "4e1d355e1cd897bd3af1ca70dfc955ffbb703ade21b42c6211776de7ed5b4cd1"


def test_two_xor_config_report_bytes():
    cfg = harness.parse_config((ROOT / "configs" / "two_xor.cfg").read_text())
    cfg.trials = 3
    report = harness.report_json(harness.run_attack(cfg))
    assert hashlib.sha256(report.encode()).hexdigest() == TWO_XOR_DIGEST
    assert json.loads(report)["summary"]["planted_rate"] == 1.0


def _workload_configs() -> dict:
    """(workload, config label) -> (config text, digest trials)."""
    configs = {}
    for node in ast.walk(ast.parse((ROOT / "benchmarks" / "bench_workloads.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            fields = {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords
                      if kw.arg in ("name", "configs", "digest_trials")}
            for label, text in fields["configs"]:
                configs[fields["name"], label] = (text, fields["digest_trials"])
    return configs


WORKLOAD_CONFIGS = _workload_configs()
WORKLOAD_DIGESTS = {(workload, label): digest for workload, labels in
                    json.loads((ROOT / "benchmarks" / "digests.json").read_text()).items()
                    for label, digest in labels.items()}


@pytest.mark.parametrize("workload, label", sorted(WORKLOAD_DIGESTS),
                         ids=[f"{w}-{label}" for w, label in sorted(WORKLOAD_DIGESTS)])
def test_workload_report_bytes(workload, label):
    text, trials = WORKLOAD_CONFIGS[workload, label]
    cfg = harness.parse_config(text)
    cfg.seed = SEED
    cfg.trials = trials
    report = harness.report_json(harness.run_attack(cfg))
    assert hashlib.sha256(report.encode()).hexdigest() == WORKLOAD_DIGESTS[workload, label]
