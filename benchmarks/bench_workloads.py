"""The benchmark's workloads: which efxlab configs each one runs, and why.

A workload is one or more attack configs. One benchmark trial runs
``harness.run_trial`` once for every config of the workload, at the same
trial index, so the ``q2_classical`` workload interleaves its two attacks.
The base seed of the timed trials comes from ``--seed``; the report whose
digest is checked always uses ``DEFAULT_SEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # each config is the flat ``key = value`` text the CLI reads, without
    # ``seed`` and ``trials``, which the benchmark sets
    configs: Tuple[Tuple[str, str], ...]
    # trials per config in the default-seed report whose sha256 is recorded
    digest_trials: int
    # trial_ms_tail reports this nearest-rank percentile; it is fixed per
    # workload (not derived from the trial count of a run) so that runs of
    # different speed report the same statistic; it is chosen so that at
    # least ten trials lie beyond it in one run of the recorded length
    # (cpa_tensor and q2_classical keep p95: their p99 and p97 spread 12 to
    # 19 % between runs, against 5 to 11 % at p95)
    tail_percentile: float
    # the bench_speed kernels whose costs are most like the workload's
    speed_kernels: Tuple[str, ...]

    def config_text(self, index: int, seed: int, trials: int) -> str:
        return f"{self.configs[index][1]}\nseed = {seed}\ntrials = {trials}\n"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="kpa_tensor",
        why="known-plaintext offline Simon at u=4 (efx_kpa parameters): the "
            "per-guess register distribution and span DP dominate; the "
            "batched scan must speed this up",
        configs=(("efx_kpa", "attack = offline_simon\nconstruction = EFX\n"
                  "n = 4\nkappa = 4\nu = 4\nc = 6\nmode = TENSOR\n"
                  "alpha = 0.0625"),),
        digest_trials=20,
        tail_percentile=95.0,
        speed_kernels=("python",),
    ),
    Workload(
        name="cpa_tensor",
        why="chosen-plaintext offline Simon at u=2 (efx_tensor parameters): "
            "64 guesses a trial, so per-guess overhead and lazy cipher "
            "materialization weigh more than the DP",
        configs=(("efx_tensor", "attack = offline_simon\nconstruction = EFX\n"
                  "n = 4\nkappa = 4\nu = 2\nc = 6\nmode = TENSOR"),),
        digest_trials=50,
        tail_percentile=95.0,
        speed_kernels=("python",),
    ),
    Workload(
        name="exact_joint",
        why="EXACT offline Simon on a 19-qubit joint state: dense Hadamard "
            "kernels and joint-circuit gathers dominate; the only workload "
            "whose peak memory moves",
        configs=(("efx_exact_19q", "attack = offline_simon\nconstruction = EFX\n"
                  "n = 3\nkappa = 3\nu = 2\nc = 3\nmode = EXACT"),),
        digest_trials=8,
        tail_percentile=60.0,
        speed_kernels=("memory",),
    ),
    Workload(
        name="q2_classical",
        why="superposition Simon on EM n=8 interleaved with the classical "
            "guess-and-peel on EFX n=6: sparse StateVector gates, GF(2) "
            "period recovery, no offline scan",
        configs=(("em_q2_n8", "attack = em_q2\nconstruction = EM\n"
                  "n = 8\nkappa = 1\nc = 16\nmode = TENSOR"),
                 ("guess_and_em_n6", "attack = guess_and_em\nconstruction = EFX\n"
                  "n = 6\nkappa = 6\ndata = 16")),
        digest_trials=20,
        tail_percentile=95.0,
        speed_kernels=("python", "memory"),
    ),
)}
