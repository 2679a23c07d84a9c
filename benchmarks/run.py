"""efxlab benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed S --seconds X --trace 0|1
    python3 benchmarks/run.py --check-configs
    python3 benchmarks/run.py --print-digests

Run it from the repository root. Workloads are defined in
``bench_workloads.py``; metric names and units are declared in the root
``BENCHMARK.json`` and every run prints exactly the declared set.

``--trace 0`` prints the end-to-end metrics: trials per second, the median
and tail host time of one trial, the trial process's peak RSS, set-up time
(median over several fresh processes, from process start to the first
trial) and the success rate of the workload's default-seed report. Times
are scaled to the reference speed of the kernels in ``bench_speed.py``,
which this process times between stretches of trials, while the trial
process waits, and around each set-up process; the unscaled figures are in
the metadata.
``--trace 1`` prints per-layer metrics from spans around efxlab's public
functions (``bench_trace.py``), the tracing overhead and the time no span
covers.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds metadata that is not gated (versions,
commit, ``src/`` line count, workload parameters, the tail percentile and
its sample count, ``failed_share``). The exit code is 0 only when every
trial passed its checks and every report digest matched.

``--check-configs`` regenerates the reports of the shipped configs in
``configs/`` and compares their sha256 with the recorded baseline prefixes.
``--print-digests`` prints each workload's default-seed report digests in the
format of ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_speed import SpeedProbe
from bench_worker import PROBE_REQUEST
from bench_workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench_worker.py"

# set-up time is the median over this many fresh processes
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150

# sha256 prefixes of `efxlab attack --config configs/<name>.cfg` reports
SHIPPED_CONFIG_DIGESTS = {
    "efx_exact_tiny": "23afb3fcacdb102e",
    "efx_kpa": "665f39a1e40009df",
    "efx_tensor": "cb7e45baf29e6943",
    "em_q2": "ed8db658acca8418",
    "guess_and_em": "f2ae8c7b0024dc8e",
}

# spans whose calls and self time are reported by name
SPAN_STATS = {
    "offline_simon.exact_pass_probability": ("calls", "self_s"),
    "offline_simon.register_distribution": ("calls", "self_s"),
    "offline_simon.GuessFamily.maps": ("calls", "self_s"),
    "offline_simon.build_database": ("self_s",),
    "offline_simon.generalized_offline_simon": ("self_s",),
    "offline_simon.em_q2_attack": ("self_s",),
    "qsim.hadamard_qubit": ("calls", "self_s"),
    "qsim.hadamard": ("calls", "self_s"),
    "qsim.apply_xor_oracle": ("calls", "self_s"),
    "qsim.measure": ("calls", "self_s"),
    "qsim.simon_subroutine": ("calls", "self_s"),
    "qsim.StateVector": ("calls", "self_s"),
    "ciphers.make_permutation": ("calls", "self_s"),
    "ciphers.encrypt_with": ("calls", "self_s"),
    "gf2.nullspace_members": ("calls", "self_s"),
    "gf2.recover_period": ("calls", "self_s"),
    "classical.guess_and_em_attack": ("self_s",),
    "harness.run_trial": ("self_s",),
    "harness.build_instance": ("self_s",),
    "harness.report_json": ("self_s",),
}
MODULES = ("harness", "ciphers", "offline_simon", "qsim", "gf2", "classical")


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def nearest_rank(values, percentile: float):
    """(value, trials beyond it) at the nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def completed(raw: dict):
    """Indices of the trials that raised nothing and passed every check."""
    return [i for i in range(raw["attempted"]) if str(i) not in raw["failures"]]


def trial_timing(raw: dict, scale, percentile: float) -> dict:
    """Throughput, median and tail of the completed trials, each time scaled."""
    ok = completed(raw)
    trial_s = [raw["trial_s"][i] * scale[i] for i in ok]
    return {
        "trials_per_s": len(ok) / sum(w * f for w, f in zip(raw["work_s"], scale)),
        "trial_ms_p50": 1000.0 * statistics.median(trial_s),
        "trial_ms_tail": 1000.0 * nearest_rank(trial_s, percentile)[0],
    }


def end_to_end(raw: dict, setups, workload) -> dict:
    """Trial times scaled to the reference speed of the workload's kernels."""
    return {
        **trial_timing(raw, raw["scale"], workload.tail_percentile),
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
        "success_rate": raw["success_rate"],
    }


def per_layer(trace: dict) -> dict:
    rows = trace["rows"]
    zero = {"calls": 0, "self_s": 0.0}
    out = {}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = rows.get(name, zero)[stat]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(r["self_s"] for name, r in rows.items()
                                      if name.startswith(module + "."))
    counters = trace["counters"]
    hq_bytes = counters.get("qsim.hadamard_qubit.bytes", 0)
    out["qsim.hadamard_qubit.bytes_computed"] = hq_bytes
    out["qsim.hadamard_qubit.gbps_computed"] = ratio(
        hq_bytes / 1e9, out["qsim.hadamard_qubit.self_s"])
    perm_calls = counters.get("ciphers.IdealCipher.permutation.calls", 0)
    out["ciphers.IdealCipher.permutation.calls"] = perm_calls
    out["ciphers.materialize_hit_ratio"] = ratio(
        counters.get("ciphers.IdealCipher.permutation.hits", 0), perm_calls)
    counts = trace["counts"]
    out["offline_simon.trials"] = counts["offline_trials"]
    out["offline_simon.searches_per_trial"] = ratio(counts["searches"], counts["offline_trials"])
    out["offline_simon.scan.guesses"] = counts["scanned_guesses"]
    out["offline_simon.scan.pass_ratio"] = ratio(counts["passing_guesses"],
                                                 counts["scanned_guesses"])
    out["trace.trials"] = trace["trials"]
    out["trace.spans"] = trace["spans"]
    out["trace.untraced_s"] = trace["untraced_s"]
    out["trace.traced_s"] = trace["traced_s"]
    out["trace.overhead_s"] = trace["traced_s"] - trace["untraced_s"]
    out["trace.unattributed_s"] = trace["traced_s"] - trace["root_s"]
    return out


def spawn(workload, seed: int, seconds: float, trace: int, probe=None):
    """Run one worker process to completion; (its JSON result, set-up seconds).

    Without a probe the worker only sets up. With one, the worker's probe
    requests are answered with ``probe.measure()`` while it waits.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload.name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if probe is None and not trace:
        cmd.append("--setup-only")
    # one thread per process: the load model is a single client on one thread
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    lines = []
    started = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if probe is not None and line.strip() == PROBE_REQUEST:
                    proc.stdin.write(f"{probe.measure()!r}\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
        finally:
            watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {''.join(lines).strip()}")
    raw = json.loads(lines[-1])
    return raw, raw["ready_monotonic"] - started


def measure_setups(workload, seed: int):
    """Set-up seconds of fresh processes, (scaled, unscaled), one entry each.

    Start-up runs the interpreter and faults in the pages of numpy and
    efxlab, so both speed kernels, timed before and after each process,
    scale it.
    """
    probe = SpeedProbe(("python", "memory"))
    scaled, raw = [], []
    before = probe.measure()
    for _ in range(SETUP_SAMPLES):
        seconds = spawn(workload, seed, 0.0, 0)[1]
        after = probe.measure()
        raw.append(seconds)
        scaled.append(seconds * (before + after) / 2)
        before = after
    return scaled, raw


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload, raw: dict, args, failed: int, probe) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    meta = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "configs": {label: text for label, text in workload.configs},
        "digest_seed": DEFAULT_SEED, "digest_trials": workload.digest_trials,
        "digests": raw["digests"], "failures": raw["failures"],
        "failed_share": {"value": failed / raw["attempted"], "unit": "fraction"},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_commit": git_commit(), "src_lines": src_lines,
        "load": "closed loop, one client, one thread",
    }
    if args.trace:
        meta["trace_missing"] = raw["trace"]["missing"]
    else:
        samples = [raw["trial_s"][i] for i in completed(raw)]
        meta["trial_ms_tail"] = {"percentile": workload.tail_percentile,
                                 "samples": len(samples),
                                 "beyond": nearest_rank(samples, workload.tail_percentile)[1]
                                 if samples else 0}
        meta["speed_probe"] = {"kernels": workload.speed_kernels,
                               "probes": len(probe.ratios),
                               "median_scale": statistics.median(raw["scale"])}
    return meta


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    # every process on one CPU, so the speed probe runs where the trials run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, setups_raw = ([], []) if args.trace else measure_setups(workload, args.seed)
    probe = None if args.trace else SpeedProbe(workload.speed_kernels)
    raw, _ = spawn(workload, args.seed, args.seconds, args.trace, probe)

    digests_ok = all(d["ok"] for d in raw["digests"])
    failed = raw["attempted"] if not digests_ok else len(raw["failures"])
    meta = metadata(workload, raw, args, failed, probe)
    values = {}
    if failed < raw["attempted"]:
        if args.trace:
            values = per_layer(raw["trace"])
        else:
            values = end_to_end(raw, setups, workload)
            meta["unscaled"] = {**trial_timing(raw, [1.0] * raw["attempted"],
                                               workload.tail_percentile),
                                "setup_s": statistics.median(setups_raw)}
        units = declared_metrics(args.trace)
        if set(values) != set(units):
            raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} "
                               f"do not match BENCHMARK.json")
        values = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


def check_configs() -> int:
    """Regenerate the shipped configs' reports and compare digest prefixes."""
    sys.path.insert(0, str(ROOT / "src"))
    from efxlab import harness

    ok = True
    for name, prefix in SHIPPED_CONFIG_DIGESTS.items():
        cfg = harness.parse_config((ROOT / "configs" / f"{name}.cfg").read_text())
        cfg.seed = DEFAULT_SEED
        got = hashlib.sha256(harness.report_json(harness.run_attack(cfg)).encode()).hexdigest()
        match = got.startswith(prefix)
        ok = ok and match
        print(f"{name}: {got[:16]} {'ok' if match else 'MISMATCH, expected ' + prefix}")
    return 0 if ok else 1


def print_digests() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from efxlab import harness
    from bench_worker import digest_check

    print(json.dumps({name: {c["config"]: c["sha256"]
                             for c in digest_check(harness, w, DEFAULT_SEED)["checks"]}
                      for name, w in WORKLOADS.items()}, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-configs", action="store_true")
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "efxlab").is_dir():
        print(f"no efxlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.check_configs:
        return check_configs()
    if args.print_digests:
        return print_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
