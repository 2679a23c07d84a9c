"""Experiment orchestration: flat-file configs, seeded trial runners, sweeps,
and the invariant-check gate.

Every output is a pure function of (config, seed): trial seeds derive from
the base seed and the trial index, reports are serialized with sorted keys,
and nothing records wall-clock time or paths.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, classical, gf2, offline_simon, qsim
from .ciphers import (
    MAX_BITS,
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

# run_attack holds every trial's report until the last one ends, then its JSON
# text: about 5.4 KB a trial by tracemalloc (100 trials of each shipped config,
# caches warm) and 6.0 KB by peak RSS (efx_tensor, 2,100 trials against 100),
# so a run at the cap peaks near 1.2 GB
MAX_TRIALS = 200_000


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
        row = ATTACKS.get(self.attack)
        if row is None:
            errors.append(f"attack: unknown kind {self.attack!r}")
        try:
            kind = ConstructionKind(self.construction)
        except ValueError:
            errors.append(f"construction: unknown kind {self.construction!r}")
            kind = None
        # one inclusive range per integer field but seed (any int); u and data,
        # where the attack reads them, are bounded by n once n is in range
        ranges = {"n": (1, MAX_BITS), "kappa": (1, MAX_BITS),
                  "c": (1, offline_simon.MAX_REGISTERS), "trials": (0, MAX_TRIALS),
                  "max_searches": (1, 1 << offline_simon.MAX_SEARCH_BITS),
                  "qubit_cap": (1, qsim.DEFAULT_QUBIT_CAP)}
        if 1 <= self.n <= MAX_BITS:
            if row and "u" in row.reads and self.effective_u == self.u:
                ranges["u"] = (0, self.n)
            if row and "data" in row.reads:
                ranges["data"] = (row.min_data, 1 << self.n)
        bad = set()
        for name, (lo, hi) in ranges.items():
            value = getattr(self, name)
            if lo <= value <= hi:
                continue
            bad.add(name)
            error = f"{name}: {bounds._bounded(value)} out of range [{lo}, {hi}]"
            if name == "qubit_cap" and hi < value <= 64:
                # the bytes are named up to a 64-bit address space
                error += (f"; an EXACT state of {value} qubits needs "
                          f"{offline_simon.JOINT_BYTES_PER_AMPLITUDE << value:,} bytes")
            errors.append(error)
        if self.mode not in ("TENSOR", "EXACT"):
            errors.append(f"mode: {self.mode!r} is not TENSOR or EXACT")
        if not 0.0 <= self.alpha < 1.0:
            errors.append(f"alpha: {self.alpha} out of [0, 1)")
        if kind is not None and row is not None:
            spec = SPECS[kind]
            if self.attack not in spec.attacks:
                errors.append(f"construction: {self.attack} does not support {kind.value}")
            if spec.full_domain and "u" in row.reads and self.effective_u != self.n:
                errors.append(f"u: {kind.value} needs the full domain (u = n)")
            if row.key_space is not None and not bad & {"n", "kappa", "c"}:
                label, bits = row.key_space(self, dict(key_widths(kind, self.n, self.kappa)))
                if bits > offline_simon.MAX_SEARCH_BITS:
                    errors.append(f"search space: {label} = {bits} bits, "
                                  f"over the limit of {offline_simon.MAX_SEARCH_BITS}")
            if row.search and not bad & {"n", "kappa", "c", "u"}:
                errors += offline_simon.search_limits(
                    self.effective_kappa + self.n - self.effective_u, self.effective_u,
                    self.n, self.c, self.mode, self.qubit_cap)
        if row and row.simon_cap is not None and "n" not in bad and self.n > row.simon_cap:
            errors.append(f"n: {self.attack} simulates Simon on {self.n} input qubits, "
                          f"cap is {row.simon_cap}")
        return errors

    @property
    def effective_u(self) -> int:
        """Input bits of the database: known-plaintext runs and a search that
        does not read u (grover_meets_simon) use the full domain."""
        row = ATTACKS.get(self.attack)
        if self.alpha > 0 or (row and row.search and "u" not in row.reads):
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
        try:
            setattr(cfg, key, known[key](value))  # int, float or str
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


@dataclass(frozen=True)
class Attack:
    """What the harness knows about one attack: one row of ATTACKS.

    run(cfg, instance, rng, trial_seed) runs a trial, naming the entry point
    through its module so that a patched attribute (a tracer's wrapper, a
    test's stub) is what runs. validate() bounds u and data (from min_data),
    and a sweep takes an axis, only where reads names the field. A search
    that does not read u runs over the full domain. key_space(cfg, key widths)
    is the (label, bits) of a classical key search; simon_cap caps Simon's inputs.
    """

    run: Callable
    reads: Tuple[str, ...]
    search: bool = False
    min_data: int = 0
    key_space: Optional[Callable] = None
    simon_cap: Optional[int] = None


def _run_offline_simon(cfg: ExperimentConfig, instance, rng, trial_seed: int):
    known = None
    if cfg.alpha > 0.0:
        mask_rng = np.random.default_rng(derive_seed(trial_seed, "mask"))
        known = [x for x in range(1 << cfg.n) if mask_rng.random() >= cfg.alpha]
    return offline_simon.offline_simon_attack(
        instance, cfg.u, cfg.c, cfg.mode, rng, known_inputs=known,
        max_searches=cfg.max_searches, seed=trial_seed)


def _run_exhaustive(cfg: ExperimentConfig, instance, rng, trial_seed: int):
    pairs = [(x, instance.encrypt(x)) for x in range(max(2, cfg.data))]
    return classical.exhaustive_search(instance, pairs, seed=trial_seed)


_SEARCH_READS = ("n", "kappa", "c", "mode", "max_searches")

# SPECS[kind].attacks names the kinds that each attack accepts
ATTACKS: Dict[str, Attack] = {
    "offline_simon": Attack(_run_offline_simon, _SEARCH_READS + ("u", "alpha"), search=True),
    "grover_meets_simon": Attack(
        lambda cfg, instance, rng, seed: offline_simon.grover_meets_simon_attack(
            instance, cfg.c, rng, mode=cfg.mode, max_searches=cfg.max_searches, seed=seed),
        _SEARCH_READS, search=True),
    "em_q2": Attack(
        lambda cfg, instance, rng, seed: offline_simon.em_q2_attack(
            instance, cfg.c, rng, seed=seed),
        ("n", "c"), simon_cap=qsim.SIMON_INPUT_CAP),
    "guess_and_em": Attack(
        lambda cfg, instance, rng, seed: classical.guess_and_em_attack(
            instance, cfg.data, rng, seed=seed),
        ("n", "kappa", "data"), min_data=2,
        key_space=lambda cfg, widths: ("kappa + n", cfg.effective_kappa + cfg.n)),
    "exhaustive": Attack(
        _run_exhaustive, ("n", "kappa", "data"),
        key_space=lambda cfg, widths: (" + ".join(widths), sum(widths.values()))),
}


def run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """One seeded trial: fresh instance, fresh rng substream, one attack run."""
    trial_seed = derive_seed(cfg.seed, "trial", trial)
    instance = build_instance(ConstructionKind(cfg.construction), cfg.n, cfg.kappa, trial_seed)
    if cfg.attack not in ATTACKS:
        raise ValueError(f"unknown attack {cfg.attack!r}")
    rng = np.random.default_rng(derive_seed(trial_seed, "attack"))
    report = ATTACKS[cfg.attack].run(cfg, instance, rng, trial_seed)
    out = report.to_json_dict()
    k, k1, k2 = true_keys(instance)
    out["planted"] = {"k": k, "k1": k1, "k2": k2}
    out["recovered_planted"] = bool(
        report.success and (out["k"], out["k1"], out["k2"]) == (k, k1, k2))
    return out


def _mean(values: Sequence[float]) -> float:
    """Mean of values added one by one from 0.0 in order; 0.0 for none."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def run_attack(cfg: ExperimentConfig) -> dict:
    """Run all trials and assemble the aggregate report (deterministic in seed)."""
    if errors := cfg.validate():
        raise ValueError("; ".join(errors))
    trials = [run_trial(cfg, i) for i in range(cfg.trials)]
    n_ok = sum(1 for t in trials if t["success"])
    n_planted = sum(1 for t in trials if t["recovered_planted"])
    summary = {
        "trials": cfg.trials,
        "successes": n_ok,
        "success_rate": (n_ok / cfg.trials) if cfg.trials else 0.0,
        "planted_rate": (n_planted / cfg.trials) if cfg.trials else 0.0,
        "mean_online_queries": _mean([t["D"] for t in trials]),
        "mean_offline_evals": _mean([t.get("offline_evals", t.get("T")) for t in trials]),
        "mean_sim_time_units": _mean([t.get("sim_time_units", t.get("time_units"))
                                      for t in trials]),
    }
    return {"config": asdict(cfg), "summary": summary, "trials": trials}


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweeps

# each sweep axis: the config field and type its values set; the attacks that
# read the field are the rows of ATTACKS whose reads name it
SWEEP_AXES = {"u": ("u", int), "alpha": ("alpha", float), "D": ("data", int), "n": ("n", int)}

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
    """One attack run per axis value; rows carry measured and reference columns.

    The search reference columns are filled for the attacks that search only,
    and the fidelity columns on the alpha axis only; u, D and n take integer
    values. The u column is the u the run used (effective_u), as the
    reference columns use it.
    An axis whose field the attack does not read, and an invalid baseline or
    point, are refused before any trial.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}")
    field, typ = SWEEP_AXES[axis]
    if cfg.attack in ATTACKS:
        if field not in ATTACKS[cfg.attack].reads:
            raise ValueError(f"axis {axis}: {cfg.attack} does not read {field}")
        if field == "u" and cfg.alpha > 0:
            raise ValueError(f"axis u: {cfg.attack} does not read u at alpha > 0 (u = n)")
    if typ is int:
        for value in values:
            if not float(value).is_integer():
                raise ValueError(f"{axis} takes integer values, got {value}")
    base_cfg = replace(cfg, alpha=0.0) if axis == "alpha" else None
    if base_cfg is not None and (errors := base_cfg.validate()):
        raise ValueError("alpha sweep baseline invalid: " + "; ".join(errors))
    points = [replace(cfg, **{field: typ(value)}) for value in values]
    for idx, (value, point_cfg) in enumerate(zip(values, points)):
        if errors := point_cfg.validate():
            raise ValueError(f"sweep point {idx} ({axis}={value}): " + "; ".join(errors))
    base_rate = None if base_cfg is None else run_attack(base_cfg)["summary"]["success_rate"]
    rows = []
    for value, point_cfg in zip(values, points):
        report = run_attack(point_cfg)
        summary = report["summary"]
        trials = report["trials"]
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update({"axis": axis, "value": value,
                    "success_rate": summary["success_rate"],
                    "planted_rate": summary["planted_rate"],
                    "mean_online": summary["mean_online_queries"],
                    "mean_offline": summary["mean_offline_evals"],
                    "mean_sim_time": summary["mean_sim_time_units"],
                    "mean_search_time": _mean([t.get("meta", {}).get("search_time_units", 0)
                                               for t in trials]),
                    "iterations": trials[0].get("iterations", 0) if trials else 0})
        for col in ("attack", "construction", "n", "kappa", "c", "mode", "trials"):
            row[col] = getattr(point_cfg, col)
        row["u"] = point_cfg.effective_u
        if ATTACKS[point_cfg.attack].search:
            search = (point_cfg.n, point_cfg.effective_kappa, point_cfg.effective_u)
            row["iterations_formula"] = iterations_formula(*search)
            row["ref_time"] = reference_time(*search)
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
    for _ in range(20):
        raw = rng.normal(size=1 << 6)
        amps = raw / np.linalg.norm(raw)
        before = amps.copy()
        for q in range(6):
            qsim.hadamard_qubit(amps, q)
        if abs(float(amps @ amps) - 1.0) > qsim.NORM_TOL:
            return False, f"norm drifted to {float(amps @ amps)}"
        for q in range(6):
            qsim.hadamard_qubit(amps, q)
        if np.max(np.abs(amps - before)) > 1e-9:
            return False, "H twice is not the identity"
    # an orthonormal V makes each guess test sign * (I - 2 V V^T) an
    # orthogonal involution, which the two-vector EXACT search relies on;
    # on the registers' orbits it acts per class as sign * (I - 2 V_r W^T),
    # which must be one too under the orbit-weighted norm, with the sign that
    # folds() returns. Two payload bits give every class of c <= 4 registers
    for u, c in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)):
        basis = offline_simon._test_reflection(u, c)[1]
        if not np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-9):
            return False, f"test reflection basis at u = {u}, c = {c} is not orthonormal"
        tables = offline_simon._orbit_tables(u, 2, c)
        sign, folds = tables.folds()
        for code, (offset, rows, cols), (v_r, fold) in zip(tables.codes, tables.classes, folds):
            weights = tables.weights[offset:offset + rows * cols:cols]
            block = rng.normal(size=(rows, 3))
            once = sign * block + v_r @ (fold @ block)
            twice = sign * once + v_r @ (fold @ once)
            where = f"folded test at u = {u}, c = {c}, class {code}"
            if np.max(np.abs(twice - block)) > 1e-9:
                return False, f"{where} is not an involution"
            if not np.allclose(weights @ np.square(once), weights @ np.square(block),
                               atol=1e-9):
                return False, f"{where} changes the norm"
    return True, ("H keeps the norm and undoes itself; the test bases are orthonormal "
                  "and every folded test is a norm-keeping involution")


def _suite_orthogonality() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(12, "verify-orthogonality"))
    n = 6
    for rep in range(20):
        s = int(rng.integers(1, 1 << n))
        f = _random_periodic(n, s, rng)
        for y in qsim.simon_samples(f, 8, rng, out_bits=n):
            if gf2.dot(y, s) != 0:
                return False, f"sample {y} not orthogonal to period {s}"
    return True, "all samples orthogonal to the planted period"


def _random_periodic(n: int, s: int, rng: np.random.Generator) -> List[int]:
    """A random function of period s: one distinct value per coset {x, x ^ s}."""
    values = rng.permutation(1 << n)
    return [int(values[min(x, x ^ s)]) for x in range(1 << n)]


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
    """Ground truth by exhaustive search: injective, or one period s with every
    value on one pair {x, x ^ s}; None if f breaks the promise."""
    size = 1 << n
    if len(set(f)) == size:
        return gf2.INJECTIVE
    periods, _ = qsim.verified_periods(f, [])
    if len(periods) != 1 or len(set(f)) != size // 2:
        return None
    return gf2.PeriodResult("period", periods[0])


def _suite_bounds_grid() -> Tuple[bool, str]:
    rng = np.random.default_rng(derive_seed(14, "verify-bounds"))
    for _ in range(2000):
        n = int(rng.integers(2, 12))
        kappa = int(rng.integers(1, 16))
        d = float(2.0 ** rng.uniform(0, n))
        t = float(2.0 ** rng.uniform(0, 2 * (kappa + n)))
        b1, b2 = bounds.efx_classical_bound(n, kappa, D=d, T=t)
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
    results = []
    for name in suites or VERIFY_SUITES:
        if name not in VERIFY_SUITES:
            raise ValueError(f"unknown suite {name!r}")
        try:
            ok, detail = VERIFY_SUITES[name]()
        except Exception as exc:  # a broken invariant may surface as an exception
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"suite": name, "passed": ok, "detail": detail})
    return all(result["passed"] for result in results), results
