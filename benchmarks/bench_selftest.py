"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/bench_selftest.py

The file name keeps it out of the default ``pytest`` collection of the
repository's own suite; pass the path to run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import efxlab  # noqa: E402
from efxlab import harness  # noqa: E402

from bench_trace import PACKAGE, Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def bindings():
    """Every attribute of every loaded efxlab module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tracer_restores_every_binding():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = [key for key, value in bindings().items() if value is not before.get(key)]
        # re-exported and imported-by-name copies are wrapped too
        for key in [("efxlab", "make_permutation"), ("efxlab.harness", "make_permutation"),
                    ("efxlab.classical", "encrypt_with"),
                    ("efxlab.offline_simon", "encrypt_with"),
                    ("efxlab.ciphers", "IdealCipher", "permutation"),
                    ("efxlab.qsim", "StateVector", "__init__")]:
            assert key in wrapped
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_reports_identical(name):
    workload = WORKLOADS[name]
    configs = [harness.parse_config(workload.config_text(i, 5, 2))
               for i in range(len(workload.configs))]
    plain = [harness.report_json(harness.run_attack(cfg)) for cfg in configs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.report_json(harness.run_attack(cfg)) for cfg in configs]
    finally:
        tracer.uninstall()
    assert traced == plain
    rows, root_s = tracer.summary()
    assert rows["harness.run_attack"]["calls"] == len(configs)
    # self times partition the root spans' time
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(root_s)


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer._wrapper("m.outer", lambda f: f() + f())
    inner = tracer._wrapper("m.inner", lambda: 1)
    assert outer(inner) == 2
    rows, root_s = tracer.summary()
    assert rows["m.inner"]["calls"] == 2
    assert rows["m.outer"]["self_s"] == pytest.approx(
        rows["m.outer"]["total_s"] - rows["m.inner"]["total_s"])
    assert root_s == rows["m.outer"]["total_s"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = run_bench("--workload", "q2_classical", "--seed", "3", "--seconds", "0.5",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name):
    proc = run_bench("--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["metadata"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(d["ok"] for d in meta["digests"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "cpa_tensor", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
