"""Experiment orchestration: flat-file configs, seeded trial runners, sweeps,
and the invariant-check gate.

Every output is a pure function of (config, seed): trial seeds derive from
the base seed and the trial index, reports are serialized with sorted keys,
and nothing records wall-clock time or paths.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, classical, gf2, offline_simon, qsim
from .ciphers import (
    SPECS,
    ConstructionKind,
    KeyMaterial,
    derive_seed,
    key_widths,
    make_construction,
    make_ideal_cipher,
    make_permutation,
    report_keys,
)

ATTACK_KINDS = ("offline_simon", "grover_meets_simon", "em_q2",
                "guess_and_em", "exhaustive")


@dataclass
class ExperimentConfig:
    attack: str = "offline_simon"
    construction: str = "EFX"
    n: int = 4
    kappa: int = 4
    u: int = 2
    c: int = 6
    mode: str = "TENSOR"
    alpha: float = 0.0
    trials: int = 1
    seed: int = 1
    max_searches: int = 3
    data: int = 0  # chosen-plaintext budget D for the classical attack
    qubit_cap: int = qsim.DEFAULT_QUBIT_CAP

    def validate(self) -> List[str]:
        errors = []
        if self.attack not in ATTACK_KINDS:
            errors.append(f"attack: unknown kind {self.attack!r}")
        try:
            kind = ConstructionKind(self.construction)
        except ValueError:
            errors.append(f"construction: unknown kind {self.construction!r}")
            kind = None
        if not 1 <= self.n <= 16:
            errors.append(f"n: {self.n} out of range [1, 16]")
        if not 1 <= self.kappa <= 16:
            errors.append(f"kappa: {self.kappa} out of range [1, 16]")
        if self.attack == "offline_simon" and not 0 <= self.u <= self.n:
            errors.append(f"u: {self.u} out of range [0, n]")
        if self.c < 1:
            errors.append(f"c: {self.c} must be at least 1")
        if self.mode not in ("TENSOR", "EXACT"):
            errors.append(f"mode: {self.mode!r} is not TENSOR or EXACT")
        if not 0.0 <= self.alpha < 1.0:
            errors.append(f"alpha: {self.alpha} out of [0, 1)")
        if self.trials < 0:
            errors.append(f"trials: {self.trials} must be nonnegative")
        if self.max_searches < 1:
            errors.append(f"max_searches: {self.max_searches} must be at least 1")
        if kind is not None:
            spec = SPECS[kind]
            if self.attack in ATTACK_KINDS and self.attack not in spec.attacks:
                errors.append(f"construction: {self.attack} does not support {kind.value}")
            if spec.full_domain and self.attack == "offline_simon" \
                    and self.effective_u != self.n:
                errors.append(f"u: {kind.value} needs the full domain (u = n)")
            if self.mode == "EXACT" and self.attack in ("offline_simon", "grover_meets_simon"):
                search_bits = self.effective_kappa + self.n - self.effective_u
                register_bits = self.effective_u + self.n
                needed = register_bits if search_bits == 0 else \
                    search_bits + self.c * register_bits
                if needed > self.qubit_cap:
                    errors.append(f"mode: EXACT joint state needs {needed} qubits, "
                                  f"cap is {self.qubit_cap}")
        if self.qubit_cap > qsim.DEFAULT_QUBIT_CAP:
            errors.append(
                f"qubit_cap: {self.qubit_cap} is over the limit of {qsim.DEFAULT_QUBIT_CAP}; "
                f"an EXACT state of {self.qubit_cap} qubits needs "
                f"{offline_simon.JOINT_BYTES_PER_AMPLITUDE << self.qubit_cap:,} bytes")
        if self.attack == "em_q2" and self.n > qsim.SIMON_INPUT_CAP:
            errors.append(f"n: em_q2 simulates Simon on {self.n} input qubits, "
                          f"cap is {qsim.SIMON_INPUT_CAP}")
        if self.attack == "guess_and_em" and self.data < 2:
            errors.append("data: guess_and_em needs a query budget of at least 2")
        if self.attack in ("guess_and_em", "exhaustive") and self.data > (1 << self.n):
            errors.append("data: cannot exceed the codebook")
        return errors

    @property
    def effective_u(self) -> int:
        """Input bits of the database: known-plaintext runs and
        grover_meets_simon use the full domain."""
        if self.alpha > 0 or self.attack == "grover_meets_simon":
            return self.n
        return self.u

    @property
    def effective_kappa(self) -> int:
        """Inner-key bits the search guesses (0 for a kind without an inner key)."""
        return self.kappa if SPECS[ConstructionKind(self.construction)].keyed else 0


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format (# starts a comment)."""
    cfg = ExperimentConfig()
    known = {f: type(getattr(cfg, f)) for f in cfg.__dataclass_fields__}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        typ = known[key]
        try:
            if typ is int:
                setattr(cfg, key, int(value))
            elif typ is float:
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {value!r} for {key}") from None
    return cfg


def build_instance(kind: ConstructionKind, n: int, kappa: int, trial_seed: int):
    """Fresh construction with random components and keys for one trial."""
    spec = SPECS[kind]
    rng = np.random.default_rng(derive_seed(trial_seed, "keys"))
    if spec.keyed:
        comps = [make_ideal_cipher(n, kappa, derive_seed(trial_seed, label))
                 for label in spec.components]
    else:
        comps = [make_permutation(n, derive_seed(trial_seed, label))
                 for label in spec.components]
    km = KeyMaterial(**{name: int(rng.integers(1 << bits))
                        for name, bits in key_widths(kind, n, kappa)})
    return make_construction(kind, comps, km)


def true_keys(instance) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    return report_keys(instance.kind, instance.key_material)


def run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """One seeded trial: fresh instance, fresh rng substream, one attack run."""
    trial_seed = derive_seed(cfg.seed, "trial", trial)
    kind = ConstructionKind(cfg.construction)
    instance = build_instance(kind, cfg.n, cfg.kappa, trial_seed)
    rng = np.random.default_rng(derive_seed(trial_seed, "attack"))
    if cfg.attack == "offline_simon":
        known = None
        if cfg.alpha > 0.0:
            mask_rng = np.random.default_rng(derive_seed(trial_seed, "mask"))
            known = [x for x in range(1 << cfg.n)
                     if mask_rng.random() >= cfg.alpha]
        report = offline_simon.offline_simon_attack(
            instance, cfg.u, cfg.c, cfg.mode, rng, known_inputs=known,
            max_searches=cfg.max_searches, seed=trial_seed, cap=cfg.qubit_cap)
    elif cfg.attack == "grover_meets_simon":
        report = offline_simon.grover_meets_simon_attack(
            instance, cfg.c, rng, mode=cfg.mode,
            max_searches=cfg.max_searches, seed=trial_seed, cap=cfg.qubit_cap)
    elif cfg.attack == "em_q2":
        report = offline_simon.em_q2_attack(instance, cfg.c, rng, seed=trial_seed)
    elif cfg.attack == "guess_and_em":
        report = classical.guess_and_em_attack(instance, cfg.data, rng, seed=trial_seed)
    elif cfg.attack == "exhaustive":
        pairs = [(x, instance.encrypt(x)) for x in range(max(2, cfg.data))]
        report = classical.exhaustive_search(instance, pairs, seed=trial_seed)
    else:
        raise ValueError(f"unknown attack {cfg.attack!r}")
    out = report.to_json_dict()
    k, k1, k2 = true_keys(instance)
    out["planted"] = {"k": k, "k1": k1, "k2": k2}
    out["recovered_planted"] = bool(
        report.success and (out["k"], out["k1"], out["k2"]) == (k, k1, k2))
    return out


def run_attack(cfg: ExperimentConfig) -> dict:
    """Run all trials and assemble the aggregate report (deterministic in seed)."""
    errors = cfg.validate()
    if errors:
        raise ValueError("; ".join(errors))
    trials = [run_trial(cfg, i) for i in range(cfg.trials)]
    n_ok = sum(1 for t in trials if t["success"])

    def mean(*keys: str) -> float:
        if not trials:
            return 0.0
        total = 0.0
        for t in trials:
            for key in keys:
                if key in t:
                    total += t[key]
                    break
        return total / len(trials)

    n_planted = sum(1 for t in trials if t["recovered_planted"])
    summary = {
        "trials": cfg.trials,
        "successes": n_ok,
        "success_rate": (n_ok / cfg.trials) if cfg.trials else 0.0,
        "planted_rate": (n_planted / cfg.trials) if cfg.trials else 0.0,
        "mean_online_queries": mean("D"),
        "mean_offline_evals": mean("offline_evals", "T"),
        "mean_sim_time_units": mean("sim_time_units", "time_units"),
    }
    return {"config": asdict(cfg), "summary": summary, "trials": trials}


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("u", "alpha", "D", "n")

SWEEP_COLUMNS = ["axis", "value", "attack", "construction", "n", "kappa", "u",
                 "c", "mode", "trials", "success_rate", "planted_rate", "mean_online",
                 "mean_offline", "mean_sim_time", "mean_search_time",
                 "iterations", "iterations_formula", "ref_time",
                 "fidelity_bound", "bound_times_base", "bound_ok"]


def iterations_formula(n: int, kappa: int, u: int) -> int:
    return qsim.search_iterations(kappa + n - u)


def reference_time(n: int, kappa: int, u: int) -> float:
    return n * (1 << u) + n ** 3 * 2.0 ** ((kappa + n - u) / 2.0)


def sweep(cfg: ExperimentConfig, axis: str, values: Sequence[float]) -> List[dict]:
    """One attack run per axis value; rows carry measured and reference columns."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    rows = []
    base_rate = None
    if axis == "alpha":
        base_cfg = ExperimentConfig(**{**asdict(cfg), "alpha": 0.0})
        errors = base_cfg.validate()
        if errors:
            raise ValueError("alpha sweep baseline invalid: " + "; ".join(errors))
        base_rate = run_attack(base_cfg)["summary"]["success_rate"]
    for idx, value in enumerate(values):
        point = dict(asdict(cfg))
        if axis == "u":
            point["u"] = int(value)
        elif axis == "alpha":
            point["alpha"] = float(value)
        elif axis == "D":
            point["data"] = int(value)
        else:
            point["n"] = int(value)
        point_cfg = ExperimentConfig(**point)
        errors = point_cfg.validate()
        if errors:
            raise ValueError(f"sweep point {idx} ({axis}={value}): " + "; ".join(errors))
        report = run_attack(point_cfg)
        summary = report["summary"]
        trials = report["trials"]

        def tmean(key: str) -> float:
            vals = [t.get("meta", {}).get(key, 0) for t in trials]
            return sum(vals) / len(vals) if vals else 0.0

        iters = trials[0].get("iterations", 0) if trials else 0
        row = {
            "axis": axis, "value": value,
            "attack": point_cfg.attack, "construction": point_cfg.construction,
            "n": point_cfg.n, "kappa": point_cfg.kappa, "u": point_cfg.u,
            "c": point_cfg.c, "mode": point_cfg.mode, "trials": point_cfg.trials,
            "success_rate": summary["success_rate"],
            "planted_rate": summary["planted_rate"],
            "mean_online": summary["mean_online_queries"],
            "mean_offline": summary["mean_offline_evals"],
            "mean_sim_time": summary["mean_sim_time_units"],
            "mean_search_time": tmean("search_time_units"),
            "iterations": iters,
            "iterations_formula": iterations_formula(
                point_cfg.n, point_cfg.effective_kappa, point_cfg.effective_u),
            "ref_time": reference_time(
                point_cfg.n, point_cfg.effective_kappa, point_cfg.effective_u),
            "fidelity_bound": "",
            "bound_times_base": "",
            "bound_ok": "",
        }
        if axis == "alpha":
            fb = offline_simon.fidelity_bound(point_cfg.c, float(value))
            row["fidelity_bound"] = fb
            row["bound_times_base"] = fb * base_rate
            row["bound_ok"] = summary["success_rate"] >= fb * base_rate - 1e-12
        rows.append(row)
    return rows


def sweep_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suites


def _suite_unitarity() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(11, "verify-unitarity"))
    from .ciphers import make_permutation as mk_perm
    for rep in range(20):
        sv = qsim.StateVector([("a", 3), ("b", 3)])
        raw = rng.normal(size=sv.amps.size) + 1j * rng.normal(size=sv.amps.size)
        sv.amps = raw / np.linalg.norm(raw)
        qsim.hadamard(sv, "a")
        table = [int(rng.integers(8)) for _ in range(8)]
        qsim.apply_xor_oracle(sv, table, "a", "b")
        perm = mk_perm(3, derive_seed(11, "perm", rep))
        qsim.apply_inplace_perm(sv, perm, "b")
        if abs(sv.norm_squared() - 1.0) > qsim.NORM_TOL:
            return False, f"norm drifted to {sv.norm_squared()}"
        before = sv.amps.copy()
        qsim.hadamard(sv, "a")
        qsim.hadamard(sv, "a")
        if np.max(np.abs(sv.amps - before)) > 1e-9:
            return False, "H twice is not the identity"
    return True, "gates preserve the norm"


def _suite_orthogonality() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(12, "verify-orthogonality"))
    n = 6
    for rep in range(20):
        s = int(rng.integers(1, 1 << n))
        f = _random_periodic(n, s, rng)
        for _ in range(8):
            y = qsim.simon_subroutine(f, rng, out_bits=n)
            if gf2.dot(y, s) != 0:
                return False, f"sample {y} not orthogonal to period {s}"
    return True, "all samples orthogonal to the planted period"


def _random_periodic(n: int, s: int, rng: np.random.Generator) -> List[int]:
    size = 1 << n
    values = list(rng.permutation(size))
    f = [-1] * size
    vi = 0
    for x in range(size):
        if f[x] < 0:
            f[x] = f[x ^ s] = int(values[vi])
            vi += 1
    return f


def _suite_oracle_equivalence() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(13, "verify-oracle-equivalence"))
    n = 2
    size = 1 << n
    checked = 0
    from itertools import product
    for table in product(range(size), repeat=size):
        truth = _promise_classification(list(table), n)
        if truth is None:
            continue
        checked += 1
        got = qsim.simon_full(list(table), 24, rng, out_bits=n)
        if truth.status != got.status or truth.period != got.period:
            return False, f"disagreement on f={table}: {truth} vs {got}"
    return True, f"agreed with the collision oracle on {checked} functions"


def _promise_classification(f: List[int], n: int) -> Optional[gf2.PeriodResult]:
    """Ground truth by exhaustive collision search; None if f breaks the promise."""
    size = 1 << n
    if len(set(f)) == size:
        return gf2.INJECTIVE
    periods, _ = qsim.verified_periods(f, [])
    if len(periods) != 1:
        return None
    s = periods[0]
    for x in range(size):
        for y in range(x + 1, size):
            if f[x] == f[y] and y != (x ^ s):
                return None
    return gf2.PeriodResult("period", s)


def _suite_bounds_grid() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(14, "verify-bounds"))
    for _ in range(2000):
        n = int(rng.integers(2, 12))
        kappa = int(rng.integers(1, 16))
        d = float(2.0 ** rng.uniform(0, n))
        t = float(2.0 ** rng.uniform(0, 2 * (kappa + n)))
        b1, b2 = bounds.efx_classical_bound(bounds.BoundParams(n=n, kappa=kappa, D=d, T=t))
        if not (0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0):
            return False, f"bound escaped [0,1] at n={n} kappa={kappa} D={d} T={t}"
        q = float(2.0 ** rng.uniform(0, kappa))
        qb = bounds.quantum_distinguish_bound(q, kappa)
        if not 0.0 <= qb <= 1.0:
            return False, f"quantum bound escaped [0,1] at q={q} kappa={kappa}"
    return True, "bounds clamp to [0,1] across the random grid"


VERIFY_SUITES = {
    "unitarity": _suite_unitarity,
    "orthogonality": _suite_orthogonality,
    "oracle-equivalence": _suite_oracle_equivalence,
    "bounds-grid": _suite_bounds_grid,
}


def verify(suites: Optional[Sequence[str]] = None) -> Tuple[bool, List[dict]]:
    """Run the invariant suites; returns (all_passed, machine-readable results)."""
    names = list(suites) if suites else list(VERIFY_SUITES)
    results = []
    all_ok = True
    for name in names:
        if name not in VERIFY_SUITES:
            raise ValueError(f"unknown suite {name!r}")
        try:
            ok, detail = VERIFY_SUITES[name]()
        except Exception as exc:  # a broken invariant may surface as an exception
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"suite": name, "passed": ok, "detail": detail})
        all_ok = all_ok and ok
    return all_ok, results
