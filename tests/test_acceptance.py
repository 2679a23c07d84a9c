"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Success throughout means recovery of the planted key material (the per-trial
instances are generated from seeds, so every run of this suite is
deterministic). Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math

import numpy as np
import pytest

from efxlab import bounds, gf2, harness, qsim
from efxlab.ciphers import ConstructionKind, derive_seed
from efxlab.classical import curve_log2_time, tradeoff_curve
from efxlab.harness import ExperimentConfig, build_instance, run_attack, true_keys
from efxlab.offline_simon import (
    build_database_kpa,
    database_overlap,
    em_q2_attack,
    fidelity_bound,
    offline_simon_attack,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_periodic(n, s, rng):
    size = 1 << n
    values = rng.permutation(size)
    f = [-1] * size
    vi = 0
    for x in range(size):
        if f[x] < 0:
            f[x] = f[x ^ s] = int(values[vi])
            vi += 1
    return f


def collision_oracle(f, n):
    """Exhaustive classification; None when f breaks the one-period promise."""
    size = 1 << n
    if len(set(f)) == size:
        return gf2.INJECTIVE
    periods = [s for s in range(1, size)
               if all(f[x] == f[x ^ s] for x in range(size))]
    if len(periods) != 1:
        return None
    s = periods[0]
    for x in range(size):
        for y in range(x + 1, size):
            if f[x] == f[y] and y != (x ^ s):
                return None
    return gf2.PeriodResult("period", s)


def test_criterion_01_simon_correctness():
    rng = np.random.default_rng(derive_seed(1, "acceptance"))
    n, c, trials = 8, 12, 1000
    recovered = 0
    for _ in range(trials):
        s = int(rng.integers(1, 1 << n))
        f = random_periodic(n, s, rng)
        samples = [qsim.simon_subroutine(f, rng, out_bits=n) for _ in range(c)]
        assert all(gf2.dot(y, s) == 0 for y in samples), "sample not orthogonal"
        result = qsim.recover_period_verified(f, samples)
        recovered += result.status == "period" and result.period == s
    rate = recovered / trials
    report(1, rate >= 0.99,
           f"period recovered in {rate:.1%} of {trials} trials (n={n}, c={c}), "
           "all samples orthogonal")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(derive_seed(2, "acceptance"))
    target = 10_000
    checked = 0
    agreed = 0
    # exhaustive over n = 1 and n = 2, random fill at n = 3
    for n in (1, 2):
        size = 1 << n
        for table in itertools.product(range(size), repeat=size):
            truth = collision_oracle(list(table), n)
            if truth is None:
                continue
            got = qsim.simon_full(list(table), n + 4, rng, out_bits=n)
            checked += 1
            agreed += (got.status, got.period) == (truth.status, truth.period)
    n = 3
    size = 1 << n
    while checked < target:
        if rng.random() < 0.5:
            f = [int(v) for v in rng.permutation(size)]
        else:
            f = random_periodic(n, int(rng.integers(1, size)), rng)
        truth = collision_oracle(f, n)
        if truth is None:
            continue
        got = qsim.simon_full(f, n + 4, rng, out_bits=n)
        checked += 1
        agreed += (got.status, got.period) == (truth.status, truth.period)
    report(2, agreed == checked,
           f"quantum pipeline agreed with the collision oracle on "
           f"{agreed}/{checked} promise functions with n <= 3")


def test_criterion_03_amplification_curve():
    rng = np.random.default_rng(derive_seed(3, "acceptance"))
    trials = 10_000
    all_ok = True
    details = []
    for m in range(4, 11):
        p = 2.0 ** -m
        t = qsim.grover_iterations(p)
        target = qsim.amplify_success_probability(p, t)
        prep = np.full(1 << m, (1 << m) ** -0.5, dtype=complex)
        marked = int(rng.integers(1 << m))
        hits = sum(qsim.amplitude_amplify(prep, [marked], t, rng).value == marked
                   for _ in range(trials))
        rate = hits / trials
        sigma = math.sqrt(target * (1.0 - target) / trials)
        ok = abs(rate - target) <= 3.0 * sigma + 1e-12
        all_ok = all_ok and ok
        details.append(f"2^{m}: {rate:.4f}~{target:.4f}")
    report(3, all_ok, "measured success matches the closed-form curve within "
           "3 sigma at " + ", ".join(details))


def test_criterion_04_em_q2_attack():
    n, c, trials = 6, 12, 200
    hits = 0
    for t in range(trials):
        seed = derive_seed(4, "acceptance", t)
        inst = build_instance(ConstructionKind.EM, n, 1, seed)
        rng = np.random.default_rng(seed)
        rep = em_q2_attack(inst, c, rng, seed=seed)
        assert rep.online_queries == c, "quantum query count drifted"
        hits += rep.success and (rep.k1, rep.k2) == true_keys(inst)[1:]
    rate = hits / trials
    report(4, rate >= 0.95,
           f"key recovered in {rate:.1%} of {trials} trials, "
           f"quantum queries = c = {c} in every trial")


def test_criterion_05_efx_end_to_end():
    n = kappa = 4
    u, c, trials = 2, 6, 200
    ref_time = n * (1 << u) + n ** 3 * 2.0 ** ((kappa + n - u) / 2)
    hits = 0
    time_ok = True
    for t in range(trials):
        seed = derive_seed(5, "acceptance", t)
        inst = build_instance(ConstructionKind.EFX, n, kappa, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, u, c, "TENSOR", rng, seed=seed)
        assert rep.online_queries == 4, "online query count drifted"
        assert rep.amplification_iterations == 6, "iteration count drifted"
        time_ok = time_ok and (ref_time / 4 <= rep.sim_time_units <= ref_time * 4)
        hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    rate = hits / trials
    report(5, rate >= 0.90 and time_ok,
           f"full key recovered in {rate:.1%} of {trials} trials; D=4, "
           f"iterations=6, sim time within x4 of {ref_time:.0f} in every trial")


def test_criterion_06_offline_property_and_tradeoff_slope():
    n = kappa = 4
    c, trials = 6, 30
    cfg = ExperimentConfig(attack="offline_simon", construction="EFX", n=n,
                           kappa=kappa, u=0, c=c, mode="TENSOR",
                           trials=trials, seed=derive_seed(6, "acceptance"))
    rows = harness.sweep(cfg, "u", [0, 1, 2, 3, 4])
    online_ok = all(row["mean_online"] == float(1 << u)
                    for row, u in zip(rows, range(5)))
    iters = [row["iterations"] for row in rows]
    formula = [harness.iterations_formula(n, kappa, u) for u in range(5)]
    per_iter = n ** 3 + 4 * c
    log2_t = [math.log2(t * per_iter) for t in iters]
    xbar = 2.0
    ybar = sum(log2_t) / 5
    slope = sum((u - xbar) * (y - ybar) for u, y in zip(range(5), log2_t)) / \
        sum((u - xbar) ** 2 for u in range(5))
    dt2 = [(1 << u) * (t * per_iter) ** 2 for u, t in zip(range(5), iters)]
    dt2_ok = max(dt2) / min(dt2) <= 2.0
    window_ok = all(row["ref_time"] / 4 <= row["mean_sim_time"] <= row["ref_time"] * 4
                    for row in rows)
    report(6, online_ok and iters == formula and abs(slope + 0.5) < 0.05
           and dt2_ok and window_ok,
           f"online = 2^u at every point, iterations = formula {formula}, "
           f"search-time slope {slope:.3f} (target -1/2), D*T^2 spread "
           f"{max(dt2) / min(dt2):.2f}x, mean time within x4 of reference at every u")


def test_criterion_07_kpa_fidelity_degradation():
    n = 4
    c, trials = 6, 500
    base_seed = derive_seed(7, "acceptance")
    rates = {}
    for alpha in (0.0, 1 / 64, 1 / 32, 1 / 16):
        hits = 0
        for t in range(trials):
            seed = derive_seed(base_seed, alpha, t)
            inst = build_instance(ConstructionKind.EFX, n, n, seed)
            rng = np.random.default_rng(seed)
            known = None
            if alpha > 0:
                mask_rng = np.random.default_rng(derive_seed(seed, "mask"))
                known = [x for x in range(1 << n) if mask_rng.random() >= alpha]
            rep = offline_simon_attack(inst, n, c, "TENSOR", rng,
                                       known_inputs=known, seed=seed)
            hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
        rates[alpha] = hits / trials
    ok = True
    details = []
    for alpha, rate in rates.items():
        floor = fidelity_bound(c, alpha) * rates[0.0]
        sigma = math.sqrt(max(rate * (1 - rate), floor * (1 - floor)) / trials)
        ok = ok and rate >= floor - 3 * sigma
        details.append(f"a={alpha:.4f}: {rate:.3f}>={floor:.3f}")
    # overlap evaluator against explicitly constructed register vectors
    inst_full = build_instance(ConstructionKind.EFX, n, n, base_seed)
    inst_part = build_instance(ConstructionKind.EFX, n, n, base_seed)
    full = build_database_kpa(inst_full, range(16), c)
    partial = build_database_kpa(inst_part, [x for x in range(16) if x % 5], c)
    vf = np.zeros(16 * 16)
    vp = np.zeros(16 * 16)
    for x in range(16):
        vf[x | (full.payload[x] << 4)] = 0.25
        vp[x | (partial.payload[x] << 4)] = 0.25
    expected = float(vf @ vp) ** c
    overlap_ok = abs(database_overlap(full, partial) - expected) < 1e-12
    report(7, ok and overlap_ok,
           "KPA success respects the missing-data bound (" + ", ".join(details)
           + f"); overlap evaluator exact to {abs(database_overlap(full, partial) - expected):.1e}")


def test_criterion_08_defx_and_ecbc_mac():
    n = kappa = 4
    c, trials = 8, 200
    rates = {}
    for kind in (ConstructionKind.DEFX, ConstructionKind.ECBC3):
        hits = 0
        for t in range(trials):
            seed = derive_seed(8, "acceptance", kind.value, t)
            inst = build_instance(kind, n, kappa, seed)
            rng = np.random.default_rng(seed)
            rep = offline_simon_attack(inst, n, c, "TENSOR", rng, seed=seed)
            hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
        rates[kind.value] = hits / trials
    ok = all(rate >= 0.85 for rate in rates.values())
    report(8, ok, "DEFX recovered at {DEFX:.1%}, ECBC mapped onto it and "
           "recovered (k, k1, k2) at {ECBC3:.1%}".format(**rates))


def test_criterion_09_exact_tensor_agreement():
    # success throughout the suite means planted-key recovery; at these tiny
    # sizes codebook-equivalent keys are common and hit both modes alike
    n = kappa = 2
    u, c, trials = 1, 3, 200
    rates = {}
    consistent = {}
    for mode in ("TENSOR", "EXACT"):
        hits = flag = 0
        for t in range(trials):
            seed = derive_seed(9, "acceptance", t)
            inst = build_instance(ConstructionKind.EFX, n, kappa, seed)
            rng = np.random.default_rng(derive_seed(seed, mode))
            rep = offline_simon_attack(inst, u, c, mode, rng, seed=seed)
            hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
            flag += rep.success
        rates[mode] = hits / trials
        consistent[mode] = flag / trials
    p1, p2 = rates["TENSOR"], rates["EXACT"]
    sigma = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / trials)
    ok = abs(p1 - p2) <= 3 * sigma
    report(9, ok,
           f"planted-key recovery TENSOR={p1:.3f} vs EXACT={p2:.3f} "
           f"(|diff|={abs(p1 - p2):.3f} <= 3 sigma={3 * sigma:.3f}; "
           f"self-consistent success {consistent['TENSOR']:.2f}/"
           f"{consistent['EXACT']:.2f})")


def test_criterion_10_gap_certificate_and_curves():
    n = 4
    kappa = 2 * n
    efx_at_full = curve_log2_time("classical-efx", n, kappa, float(n))
    q1_at_full = curve_log2_time("quantum-q1", n, kappa, float(n))
    exponents_ok = efx_at_full / n == 2.5 and q1_at_full / n == 1.0
    quantum_cost = 2.0 ** q1_at_full
    certificate_ok = bounds.extqsearch_classical_time(quantum_cost) < 2.0 ** efx_at_full

    def coords(kind, points):
        rows = tradeoff_curve(kind, n, kappa, points)
        return [(x, y) for _, x, y, _ in rows]

    curves_ok = (
        coords("classical-efx", [0.0, n / 2, float(n)])
        == [(0.0, 3.0), (0.5, 2.5), (1.0, 2.5)]
        and coords("classical-fx", [0.0, float(n)]) == [(0.0, 3.0), (1.0, 2.0)]
        and coords("quantum-q1", [0.0, float(n)]) == [(0.0, 1.5), (1.0, 1.0)]
        and coords("quantum-q2", [0.0, float(n)]) == [(0.0, 1.0), (1.0, 1.0)])
    report(10, exponents_ok and certificate_ok and curves_ok,
           f"classical floor exponent {efx_at_full / n:.2f}n vs quantum {q1_at_full / n:.2f}n; "
           f"squared quantum cost 2^{2 * q1_at_full:.0f} < classical 2^{efx_at_full:.0f}; "
           "reference polyline coordinates reproduced exactly")


def test_criterion_11_bound_evaluators():
    rng = np.random.default_rng(derive_seed(11, "acceptance"))
    clamp_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        kappa = int(rng.integers(1, 16))
        d = float(2.0 ** rng.uniform(0, n))
        t = float(2.0 ** rng.uniform(0, 3 * (kappa + n)))
        b1, b2 = bounds.efx_classical_bound(n, kappa, D=d, T=t)
        qb = bounds.quantum_distinguish_bound(float(2.0 ** rng.uniform(0, kappa)),
                                              kappa)
        clamp_ok = clamp_ok and 0 <= b1 <= 1 and 0 <= b2 <= 1 and 0 <= qb <= 1
    roundtrip_ok = True
    for target in (0.05, 0.3, 0.9):
        dt_floor, t_floor = bounds.efx_required_resources(4, 8, target)
        _, b2 = bounds.efx_classical_bound(4, 8, D=1.0, T=t_floor)
        best = 0.0
        for i in range(65):
            log2_d = 2.0 * i / 64
            d = min(2.0 ** log2_d, dt_floor)
            b1, _ = bounds.efx_classical_bound(4, 8, D=d, T=dt_floor / d)
            best = max(best, b1)
        roundtrip_ok = roundtrip_ok and b2 >= target - 1e-9 and best >= target - 1e-6
    report(11, clamp_ok and roundtrip_ok,
           "both classical bounds and the quantum bound clamp to [0,1] on a "
           "10^4-point grid; resource floors round-trip at three targets")


def test_criterion_12_determinism_gate():
    ok, results = harness.verify()
    verify_ok = ok
    cfg = ExperimentConfig(attack="offline_simon", construction="EFX", n=4,
                           kappa=4, u=2, c=6, mode="TENSOR", trials=10,
                           seed=derive_seed(12, "acceptance"))
    a = harness.report_json(run_attack(cfg))
    b = harness.report_json(run_attack(cfg))
    rows_a = harness.sweep_csv(harness.sweep(cfg, "u", [1, 2]))
    rows_b = harness.sweep_csv(harness.sweep(cfg, "u", [1, 2]))
    identical = a == b and rows_a == rows_b
    report(12, verify_ok and identical,
           f"verify suites all pass ({len(results)} suites); repeated runs "
           "produce byte-identical reports and sweep tables")
