from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efxlab import classical
from efxlab.ciphers import (
    ConstructionKind,
    derive_seed,
    key_material,
    layer_inverse_table,
    layer_table,
    pair_check,
    report_keys,
)
from efxlab.classical import (
    classical_period_find,
    curve_log2_time,
    exhaustive_search,
    guess_and_em_attack,
    tradeoff_curve,
)
from efxlab.harness import build_instance, true_keys


def random_periodic_table(n, s, rng):
    size = 1 << n
    values = rng.permutation(size)
    f = [-1] * size
    vi = 0
    for x in range(size):
        if f[x] < 0:
            f[x] = f[x ^ s] = int(values[vi])
            vi += 1
    return f


def test_period_find_injective():
    rng = np.random.default_rng(0)
    res = classical_period_find(lambda x: x, 4, 1 << 4, rng)
    assert res.status == "injective"


def test_period_find_periodic_with_collision_check():
    rng = np.random.default_rng(1)
    for trial in range(20):
        s = int(rng.integers(1, 64))
        f = random_periodic_table(6, s, rng)
        res = classical_period_find(f.__getitem__, 6, 64, rng)
        assert res.status == "period"
        assert res.period == s


def test_period_find_budget_exhausted():
    rng = np.random.default_rng(2)
    res = classical_period_find(lambda x: x, 6, 3, rng)
    assert res.status == "exhausted"


def test_period_find_birthday_regime():
    rng = np.random.default_rng(3)
    n = 10
    counts = []
    for trial in range(200):
        s = int(rng.integers(1, 1 << n))
        f = random_periodic_table(n, s, rng)
        queries = 0

        def counted(x):
            nonlocal queries
            queries += 1
            return f[x]

        res = classical_period_find(counted, n, 1 << n, rng)
        assert res.status == "period"
        counts.append(queries)
    median = sorted(counts)[100]
    assert 2 ** 4 <= median <= 2 ** 7, median


def test_exhaustive_search_efx():
    inst = build_instance(ConstructionKind.EFX, 2, 2, 42)
    pairs = [(x, inst.encrypt(x)) for x in range(4)]
    rep = exhaustive_search(inst, pairs)
    assert rep.success
    # the returned tuple must be consistent with the whole codebook sample
    km = inst.key_material
    assert (rep.k, rep.k1, rep.k2) == (km.k, km.k1, km.k2) or rep.success
    # planted key is always in the consistency class it searched
    assert rep.offline_evals <= len(pairs) * 2 * (1 << (2 + 2 + 2))
    with pytest.raises(ValueError):
        exhaustive_search(inst, pairs[:1])


def test_exhaustive_search_consistency_recheck():
    from efxlab.ciphers import KeyMaterial, encrypt_with

    inst = build_instance(ConstructionKind.EFX, 2, 2, 43)
    pairs = [(x, inst.encrypt(x)) for x in range(4)]
    rep = exhaustive_search(inst, pairs)
    km = KeyMaterial(k=rep.k, k1=rep.k1, k2=rep.k2)
    for pt, ct in pairs:
        assert encrypt_with(inst.kind, inst.components, km, pt) == ct


def test_guess_and_em_recovers_efx():
    hits = 0
    trials = 40
    for t in range(trials):
        seed = derive_seed(50, t)
        inst = build_instance(ConstructionKind.EFX, 4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = guess_and_em_attack(inst, 16, rng, seed=seed)
        assert rep.success  # planted key always tried and always passes
        hits += (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.9


def test_guess_and_em_small_d_difference_matching():
    hits = 0
    trials = 30
    for t in range(trials):
        seed = derive_seed(51, t)
        inst = build_instance(ConstructionKind.EFX, 4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = guess_and_em_attack(inst, 4, rng, seed=seed)
        assert rep.success
        hits += (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.8


def test_guess_and_em_false_positive_audit():
    # recovered keys that differ from the planted tuple must still reproduce
    # the recorded pairs, and at n=8 with D=2^4 they are rare
    wrong = 0
    trials = 15
    for t in range(trials):
        seed = derive_seed(52, t)
        inst = build_instance(ConstructionKind.EFX, 8, 4, seed)
        rng = np.random.default_rng(seed)
        rep = guess_and_em_attack(inst, 16, rng, seed=seed)
        assert rep.success
        wrong += (rep.k, rep.k1, rep.k2) != true_keys(inst)
    assert wrong / trials < 0.1


def test_guess_and_em_counter_shape():
    # measured (D, T) stays within a factor 8 of the reference curve at n=4
    kappa = n = 4
    for log2_d in (2, 3, 4):
        d = 1 << log2_d
        evals = []
        for t in range(20):
            seed = derive_seed(53, log2_d, t)
            inst = build_instance(ConstructionKind.EFX, n, kappa, seed)
            rng = np.random.default_rng(seed)
            rep = guess_and_em_attack(inst, d, rng, seed=seed)
            assert rep.online_queries == d
            evals.append(rep.offline_evals)
        mean_t = sum(evals) / len(evals)
        ref = 2.0 ** curve_log2_time("classical-efx", n, kappa, log2_d)
        assert ref / 8 <= mean_t <= ref * 8, (log2_d, mean_t, ref)


def test_guess_and_em_validation():
    inst = build_instance(ConstructionKind.EFX, 4, 4, 99)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        guess_and_em_attack(inst, 1, rng)
    with pytest.raises(ValueError):
        guess_and_em_attack(inst, 32, rng)


def test_tradeoff_curve_headline_points():
    n = 4
    kappa = 2 * n
    rows = tradeoff_curve("classical-efx", n, kappa, [0.0, n / 2.0, float(n)])
    coords = [(x, y) for _, x, y, _ in rows]
    assert coords == [(0.0, 3.0), (0.5, 2.5), (1.0, 2.5)]
    rows = tradeoff_curve("classical-fx", n, kappa, [0.0, float(n)])
    assert [(x, y) for _, x, y, _ in rows] == [(0.0, 3.0), (1.0, 2.0)]
    rows = tradeoff_curve("quantum-q1", n, kappa, [0.0, float(n)])
    assert [(x, y) for _, x, y, _ in rows] == [(0.0, 1.5), (1.0, 1.0)]
    rows = tradeoff_curve("quantum-q2", n, kappa, [0.0, float(n)])
    assert [(x, y) for _, x, y, _ in rows] == [(0.0, 1.0), (1.0, 1.0)]


def test_tradeoff_curve_fx_endpoints():
    n, kappa = 4, 8
    assert curve_log2_time("classical-fx", n, kappa, float(n)) == kappa
    assert curve_log2_time("classical-fx", n, kappa, 0.0) == kappa + n
    assert curve_log2_time("classical-efx", n, kappa, 0.0) == kappa + n


def test_efx_curve_kink_and_flat_region():
    n, kappa = 6, 6
    flat = kappa + n / 2
    for log2_d in np.linspace(n / 2, n, 5):
        assert curve_log2_time("classical-efx", n, kappa, float(log2_d)) == flat
    before = [curve_log2_time("classical-efx", n, kappa, float(v))
              for v in np.linspace(0, n / 2, 5)]
    assert all(before[i] > before[i + 1] for i in range(4))


def test_q1_curve_is_half_the_fx_exponent():
    n, kappa = 4, 8
    for log2_d in np.linspace(0, (kappa + n) / 3.0, 7):
        fx = curve_log2_time("classical-fx", n, kappa, float(log2_d))
        q1 = curve_log2_time("quantum-q1", n, kappa, float(log2_d))
        assert abs(q1 - fx / 2.0) < 1e-12


def test_tradeoff_curve_measured_rows_and_empty_grid():
    assert tradeoff_curve("quantum-q1", 4, 4, [2.0]) == [("quantum-q1", 0.5, 0.75, "formula")]
    with pytest.raises(ValueError):
        tradeoff_curve("quantum-q1", 4, 4, [])
    with pytest.raises(ValueError):
        tradeoff_curve("nope", 4, 4, [0.0])


def test_exhaustive_search_fails_on_contradictory_pairs():
    # one plaintext, two ciphertexts: no key sends 0 to both
    inst = build_instance(ConstructionKind.EFX, 3, 2, 42)
    y = inst.encrypt(0)
    rep = exhaustive_search(inst, [(0, y), (0, y ^ 1)], seed=7).to_json_dict()
    assert not rep["success"] and (rep["k"], rep["k1"], rep["k2"]) == (None, None, None)
    assert rep["D"] == 2 and rep["T"] > 0 and rep["seed"] == 7


@pytest.mark.parametrize("D", [4, 8])
def test_guess_and_em_fails_when_no_key_verifies(monkeypatch, D):
    # the difference pass alone (D = 4) and the codebook scan before it (D = 8)
    checked = []

    def reject(instance, km, pairs):
        checked.append(km)
        return False, 1

    monkeypatch.setattr(classical, "pair_check", reject)
    inst = build_instance(ConstructionKind.EFX, 3, 2, 42)
    rep = guess_and_em_attack(inst, D, np.random.default_rng(3), seed=3)
    assert checked and not rep.success
    assert (rep.k, rep.k1, rep.k2) == (None, None, None)
    assert rep.online_queries == D and rep.time_units == rep.offline_evals + D


def test_tradeoff_curve_refuses_a_zero_bit_block():
    with pytest.raises(ValueError) as refused:
        tradeoff_curve("quantum-q1", 0, 4, [0.0])
    assert str(refused.value) == "n=0 must be at least 1 and kappa=4 nonnegative"


def _reference_guess_and_em(instance, D, rng, seed=0):
    """guess_and_em_attack as three closures over one counter, peeling each
    point lazily on first use: the reference for the straight-line attack.
    Its difference pass steps by the largest power of two at most D."""
    n = instance.n
    size = 1 << n
    pts = list(range(D))
    cts = [instance.encrypt(x) for x in pts]
    pairs = list(zip(pts, cts))
    evals = 0
    mem_peak = 0
    kind = instance.kind

    def report(km):
        k, k1, k2 = report_keys(kind, km)
        return classical.ClassicalReport(
            success=True, k=k, k1=k1, k2=k2, online_queries=D, offline_evals=evals,
            time_units=evals + D, mem_cells=mem_peak, seed=seed)

    guesses = range(1 << instance.kappa) if instance.kappa else [None]
    for guess in guesses:
        _, inner, outer = instance.layers(guess)
        fwd = layer_table(inner, n).__getitem__
        outer_inv = layer_inverse_table(outer, n).__getitem__ if outer else None
        wvals: Dict[int, int] = {}

        def peel_cached(x):
            nonlocal evals
            w = wvals.get(x)
            if w is None:
                w = cts[x]
                if outer_inv is not None:
                    w = outer_inv(w)
                    evals += 1
                wvals[x] = w
            return w

        def g_value(x):
            nonlocal evals
            evals += 1
            return peel_cached(x) ^ fwd(x)

        def candidate(x, k1) -> Optional[classical.ClassicalReport]:
            nonlocal evals
            evals += 1
            km = key_material(kind, guess, k1, peel_cached(x) ^ fwd(x ^ k1))
            ok, spent = pair_check(instance, km, pairs)
            evals += spent
            return report(km) if ok else None

        if D == size:
            order = rng.permutation(D)
            seen: Dict[int, int] = {}
            failed_collisions = 0
            for xi in order:
                x = int(xi)
                v = g_value(x)
                if v in seen:
                    for k1 in (seen[v] ^ x, 0):
                        hit = candidate(x, k1)
                        if hit:
                            return hit
                    failed_collisions += 1
                    if failed_collisions >= 2:
                        break
                seen[v] = x
            mem_peak = max(mem_peak, len(seen))
        for x in pts:
            peel_cached(x)
        diff_index: Dict[int, List[int]] = {}
        for x in range(0, D - 1, 2):
            diff_index.setdefault(wvals[x] ^ wvals[x ^ 1], []).append(x)
        mem_peak = max(mem_peak, len(diff_index))
        for z0 in range(0, size, 1 << (D.bit_length() - 1)):
            z1 = z0 ^ 1
            evals += 2
            target = fwd(z0) ^ fwd(z1)
            for x in diff_index.get(target, []):
                for k1 in (x ^ z0, x ^ z1):
                    hit = candidate(x, k1)
                    if hit:
                        return hit
    return classical.ClassicalReport(
        success=False, k=None, k1=None, k2=None, online_queries=D, offline_evals=evals,
        time_units=evals + D, mem_cells=mem_peak, seed=seed)


_GUESS_AND_EM_KINDS = (ConstructionKind.EM, ConstructionKind.FX, ConstructionKind.EFX,
                       ConstructionKind.TWO_XOR)


@st.composite
def _guess_and_em_cases(draw):
    kind = draw(st.sampled_from(_GUESS_AND_EM_KINDS))
    n = draw(st.integers(2, 6))
    kappa = draw(st.integers(1, 4))
    D = draw(st.integers(2, 1 << n))
    return kind, n, kappa, D, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(_guess_and_em_cases())
def test_guess_and_em_matches_the_closure_reference(case):
    # every counter, the key and the rng draws: the full-codebook scan charges
    # a peel only for the points it reads, and its seen table counts toward
    # mem_cells only when the guess goes on to the difference pass
    kind, n, kappa, D, seed = case
    reports = [attack(build_instance(kind, n, kappa, seed), D,
                      np.random.default_rng(seed), seed=seed).to_json_dict()
               for attack in (guess_and_em_attack, _reference_guess_and_em)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind", [ConstructionKind.EFX, ConstructionKind.TWO_XOR])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_guess_and_em_succeeds_at_every_data_size(kind, n):
    # the planted key verifies once the difference pass reaches its k1, and
    # the offline grid reaches every k1 whether or not D is a power of two
    for D in range(2, (1 << n) + 1):
        for t in range(20):
            seed = derive_seed(54, n, D, t)
            inst = build_instance(kind, n, n, seed)
            rep = guess_and_em_attack(inst, D, np.random.default_rng(seed), seed=seed)
            assert rep.success, (D, t)
