"""Child process of the benchmark: set up one workload, run its trials, report.

    python3 benchmarks/bench_worker.py --workload NAME --seed S --seconds X
        --trace 0|1 [--setup-only]

The last line of standard output is one JSON object of raw measurements;
``run.py`` turns it into metrics. Load is one client in a closed loop: each
trial starts when the previous one has finished, on one thread.

``--trace 0`` times trials for ``--seconds``; between stretches of trials
it writes ``probe`` and waits for the parent to reply with the scale its
``bench_speed.py`` kernel measured. ``--trace 1`` times
trials for half of ``--seconds`` untraced, then replays the same trials with
spans on and requires their reports to be byte-identical to the untraced
ones. Either way the run ends by re-running trial 0 (its report must repeat
byte for byte) and by checking the sha256 of the workload's default-seed
report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".benchmark-runs"

# the speed probe runs again once a stretch of trials has lasted this long
PROBE_EVERY_S = 0.25
PROBE_REQUEST = "probe"


def load_configs(harness, workload, seed: int, trials: int):
    """Parse and validate each config of the workload, as the CLI does."""
    configs = []
    for index in range(len(workload.configs)):
        cfg = harness.parse_config(workload.config_text(index, seed, trials))
        errors = cfg.validate()
        if errors:
            raise SystemExit(f"{workload.name}: invalid config: {'; '.join(errors)}")
        configs.append(cfg)
    return configs


class Loop:
    """Outcomes of one closed loop of trials, one entry per trial index."""

    def __init__(self) -> None:
        self.trial_s = []  # host time of the run_trial calls
        self.work_s = []  # trial plus writing its reports
        # report texts, None when the trial raised; the dicts are not kept,
        # so the garbage collector's work does not grow as the loop runs
        self.reports = []
        self.scale = []  # speed-probe scale of the trial's stretch
        self.failures = {}  # trial index -> reason
        self.wall_s = 0.0

    def run(self, harness, configs, index: int) -> None:
        """One benchmark trial: run_trial for every config at this index."""
        start = time.perf_counter()
        try:
            trials = [harness.run_trial(cfg, index) for cfg in configs]
        except Exception as exc:  # a raising trial counts as failed, the loop goes on
            trials = None
            self.failures[index] = f"{type(exc).__name__}: {exc}"
        self.trial_s.append(time.perf_counter() - start)
        self.reports.append(None if trials is None else
                            [harness.report_json(t) for t in trials])
        self.work_s.append(time.perf_counter() - start)


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.

    ``ru_maxrss`` is not used: at exec, Linux carries the parent's high-water
    RSS over into it, so it would report the benchmark parent's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def probe_parent() -> float:
    """Have the parent time its speed kernel while this process waits."""
    print(PROBE_REQUEST, flush=True)
    return float(sys.stdin.readline())


def timed_loop(harness, configs, seconds: float, probe=None) -> Loop:
    """Run trials 0, 1, 2, ... back to back until ``seconds`` have passed.

    With a probe, it runs after every stretch of at least PROBE_EVERY_S; a
    stretch's trials get the mean scale of the probes on either side. It
    does not run before the first trial, so the first stretch takes the
    scale of the probe after it.
    """
    loop = Loop()
    start = time.perf_counter()
    before = None
    stretch_start = start
    index = 0
    while True:
        loop.run(harness, configs, index)
        index += 1
        now = time.perf_counter()
        done = now - start >= seconds
        if done or now - stretch_start >= PROBE_EVERY_S:
            after = probe() if probe else 1.0
            scale = after if before is None else (before + after) / 2
            loop.scale += [scale] * (index - len(loop.scale))
            before, stretch_start = after, time.perf_counter()
        if done:
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def replay_traced(harness, configs, untraced: Loop, tracer) -> Loop:
    """Re-run the untraced loop's trials with spans on; reports must not change."""
    loop = Loop()
    tracer.install()
    try:
        start = time.perf_counter()
        for index in range(len(untraced.reports)):
            tracer.trial = index
            loop.run(harness, configs, index)
        loop.wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for index, (a, b) in enumerate(zip(untraced.reports, loop.reports)):
        if a is not None and b is not None and a != b:
            loop.failures[index] = "traced report differs from untraced"
    return loop


def report_counts(configs, loop: Loop) -> dict:
    """Counts read from the trial reports of the offline Simon configs."""
    trials = searches = passing = guesses = 0
    for texts in loop.reports:
        for cfg, text in zip(configs, texts or ()):
            if cfg.attack != "offline_simon":
                continue
            trial = json.loads(text)
            u_eff = cfg.n if cfg.alpha > 0 else cfg.u
            kappa_eff = 0 if cfg.construction == "EM" else cfg.kappa
            trials += 1
            searches += trial["meta"]["searches"]
            passing += trial["meta"]["passing_count"]
            # every trial scans the whole guess space of 2^(kappa + n - u)
            guesses += 1 << (kappa_eff + cfg.n - u_eff)
    return {"offline_trials": trials, "searches": searches,
            "passing_guesses": passing, "scanned_guesses": guesses}


def digest_check(harness, workload, default_seed: int) -> dict:
    """sha256 of each config's default-seed report against the recorded one."""
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
    checks = []
    successes = trials = 0
    for (label, _), cfg in zip(workload.configs, load_configs(
            harness, workload, default_seed, workload.digest_trials)):
        report = harness.run_attack(cfg)
        got = hashlib.sha256(harness.report_json(report).encode()).hexdigest()
        checks.append({"config": label, "sha256": got,
                       "expected": recorded.get(label), "ok": got == recorded.get(label)})
        successes += report["summary"]["successes"]
        trials += report["summary"]["trials"]
    return {"checks": checks, "success_rate": successes / trials}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from efxlab import harness
    from bench_workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    configs = load_configs(harness, workload, args.seed, 0)
    out = {"ready_monotonic": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        from bench_trace import Tracer

        Loop().run(harness, configs, 0)  # fill lazy caches before both passes
        loop = timed_loop(harness, configs, args.seconds / 2)
        tracer = Tracer()
        traced = replay_traced(harness, configs, loop, tracer)
        rows, root_s = tracer.summary()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(TRACE_DIR / f"trace-{workload.name}.jsonl")
        out["trace"] = {"rows": rows, "root_s": root_s, "counters": dict(tracer.counters),
                        "spans": len(tracer.spans), "missing": tracer.missing,
                        "traced_s": traced.wall_s, "untraced_s": loop.wall_s,
                        "trials": len(loop.reports), "counts": report_counts(configs, loop)}
        failures = {**loop.failures, **traced.failures}
    else:
        loop = timed_loop(harness, configs, args.seconds, probe_parent)
        out["maxrss_kb"] = peak_rss_kb()
        failures = dict(loop.failures)

    again = Loop()
    again.run(harness, configs, 0)
    if loop.reports[0] is not None and again.reports[0] != loop.reports[0]:
        failures[0] = "a second run gave a different report"
    digests = digest_check(harness, workload, DEFAULT_SEED)
    out.update(trial_s=loop.trial_s, work_s=loop.work_s, scale=loop.scale,
               attempted=len(loop.reports),
               failures={str(k): v for k, v in sorted(failures.items())},
               digests=digests["checks"], success_rate=digests["success_rate"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
