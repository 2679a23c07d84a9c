import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efxlab import ciphers, gf2, offline_simon, qsim
from efxlab.ciphers import ConstructionKind, KeyMaterial, derive_seed, make_construction
from efxlab.harness import build_instance, true_keys
from efxlab.offline_simon import (
    GuessFamily,
    GuessMaps,
    KeyGuess,
    build_database_cpa,
    build_database_kpa,
    database_overlap,
    em_q2_attack,
    exact_pass_probability,
    fidelity_bound,
    generalized_offline_simon,
    grover_meets_simon_attack,
    guess_family_for,
    offline_simon_attack,
    register_distribution,
)
from efxlab.offline_simon import test_key_guess as check_key_guess


def efx_instance(n, kappa, seed):
    return build_instance(ConstructionKind.EFX, n, kappa, seed)


# ---------------------------------------------------------------------------
# databases


def test_cpa_database_full_codebook():
    inst = efx_instance(4, 4, 1)
    db = build_database_cpa(inst, 4, 3)
    assert inst.online_forward == 16
    assert db.alpha == 0.0
    assert db.c == 3
    assert db.payload == tuple(inst._raw_encrypt(x) for x in range(16))
    # report keys are completed from these pairs, so they must stay Python ints
    assert all(type(v) is int for pair in db.known_pairs() for v in pair)


def test_cpa_database_single_point():
    inst = efx_instance(4, 4, 2)
    db = build_database_cpa(inst, 0, 2)
    assert inst.online_forward == 1
    assert db.payload == (inst._raw_encrypt(0),)


def test_cpa_database_payload_matches_direct_reencryption():
    inst = efx_instance(4, 4, 3)
    db = build_database_cpa(inst, 3, 2)
    for x in range(8):
        assert db.payload[x] == inst._raw_encrypt(x << 1)


def test_kpa_database_matches_cpa_when_everything_known():
    a = efx_instance(4, 4, 4)
    b = efx_instance(4, 4, 4)
    full = build_database_cpa(a, 4, 2)
    known = build_database_kpa(b, range(16), 2)
    assert known.payload == full.payload
    assert known.alpha == 0.0


def test_kpa_database_degenerate_and_partial():
    inst = efx_instance(4, 4, 5)
    db = build_database_kpa(inst, [], 2)
    assert db.alpha == 1.0
    assert all(v == 0 for v in db.payload)
    inst2 = efx_instance(4, 4, 6)
    db2 = build_database_kpa(inst2, [x for x in range(16) if x != 7], 3)
    assert db2.missing == {7}
    assert db2.alpha == 1 / 16


def test_database_overlap_closed_form():
    inst = efx_instance(4, 4, 7)
    full = build_database_kpa(inst, range(16), 4)
    inst2 = efx_instance(4, 4, 7)
    partial = build_database_kpa(inst2, [x for x in range(16) if x not in (3, 9)], 4)
    zeros_hit = sum(1 for x in (3, 9) if full.payload[x] == 0)
    expected = (1 - (2 - zeros_hit) / 16) ** 4
    assert abs(database_overlap(full, partial) - expected) < 1e-12


def test_database_overlap_against_explicit_tensor_states():
    # independent oracle: build the per-register vectors and take inner products
    inst = efx_instance(2, 2, 8)
    full = build_database_kpa(inst, range(4), 2)
    inst2 = efx_instance(2, 2, 8)
    partial = build_database_kpa(inst2, [0, 2], 2)

    def reg_vector(db):
        v = np.zeros(4 * 4)
        for x in range(4):
            v[x | (db.payload[x] << 2)] = 0.5
        return v

    expected = float(reg_vector(full) @ reg_vector(partial)) ** full.c
    assert abs(database_overlap(full, partial) - expected) < 1e-12


def test_database_overlap_distance_bound():
    rng = np.random.default_rng(9)
    for trial in range(30):
        inst_a = efx_instance(4, 4, 100 + trial)
        inst_b = efx_instance(4, 4, 100 + trial)
        missing = {int(x) for x in rng.choice(16, size=2, replace=False)}
        full = build_database_kpa(inst_a, range(16), 6)
        partial = build_database_kpa(inst_b, [x for x in range(16) if x not in missing], 6)
        ip = database_overlap(full, partial)
        alpha = len(missing) / 16
        assert 2 * (1 - ip) <= 2 * 6 * alpha + 1e-12


def test_database_overlap_shape_mismatch():
    a = build_database_cpa(efx_instance(4, 4, 10), 4, 2)
    b = build_database_cpa(efx_instance(4, 4, 10), 3, 2)
    with pytest.raises(ValueError):
        database_overlap(a, b)


def test_fidelity_bound_values():
    assert fidelity_bound(6, 0.0) == 1.0
    assert abs(fidelity_bound(8, 1 / 64) - 0.25) < 1e-12
    assert fidelity_bound(8, 1 / 8) == 0.0
    with pytest.raises(ValueError):
        fidelity_bound(4, -0.1)


# ---------------------------------------------------------------------------
# per-register test statistics


def brute_force_pass_probability(dists, u):
    """Oracle: enumerate every c-tuple of outcomes with its probability."""
    total = 0.0
    for tup in itertools.product(*[range(len(d)) for d in dists]):
        p = 1.0
        for d, y in zip(dists, tup):
            p *= d[y]
        if len(gf2._reduced_rows(list(tup), u)) < u:
            total += p
    return total


def test_exact_pass_probability_matches_tuple_enumeration():
    rng = np.random.default_rng(11)
    for u, c in [(1, 4), (2, 3), (2, 4), (3, 2)]:
        for _ in range(5):
            dists = []
            for _ in range(c):
                d = rng.random(1 << u)
                d /= d.sum()
                dists.append(d)
            exact = exact_pass_probability(dists, u)
            brute = brute_force_pass_probability(dists, u)
            assert abs(exact - brute) < 1e-12


def test_correct_guess_passes_with_probability_one():
    for seed in range(10):
        inst = efx_instance(4, 4, 200 + seed)
        km = inst.key_material
        db = build_database_cpa(inst, 2, 6)
        fam = guess_family_for(inst, 2)
        guess = KeyGuess(y1=km.k1 & 3, y2=km.k)
        passes, prob = check_key_guess(db, guess, fam)
        assert passes and prob == 1.0


def test_wrong_inner_key_pass_probability_small():
    # payload collisions push the fluke rate above the uniform-sample estimate,
    # so the envelope at c=8 sits near 0.3; more samples drive it down fast and
    # it always stays far below the 0.5 classification threshold
    rng = np.random.default_rng(12)
    for seed in range(10):
        inst = efx_instance(4, 4, 300 + seed)
        km = inst.key_material
        fam = guess_family_for(inst, 4)
        wrong = (km.k + 1 + int(rng.integers(14))) % 16
        db8 = build_database_cpa(inst, 4, 8)
        _, prob8 = check_key_guess(db8, KeyGuess(y1=0, y2=wrong), fam)
        assert prob8 <= 0.40
        db16 = dataclasses.replace(db8, c=16)
        _, prob16 = check_key_guess(db16, KeyGuess(y1=0, y2=wrong), fam)
        assert prob16 <= 0.05
        assert prob16 <= prob8


def test_single_register_single_bit_hand_enumeration():
    # u=1, c=1: a periodic register samples y=0 always, so rank<1 always holds
    dist = register_distribution(np.array([5, 5]), 1)
    assert np.allclose(dist, [1.0, 0.0])
    assert exact_pass_probability([dist], 1) == 1.0


# ---------------------------------------------------------------------------
# attacks


def test_offline_simon_attack_efx_tensor():
    hits = 0
    trials = 60
    for t in range(trials):
        seed = derive_seed(500, t)
        inst = efx_instance(4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, 2, 6, "TENSOR", rng, seed=seed)
        assert rep.online_queries == 4
        assert rep.amplification_iterations == 6
        hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.85


def test_offline_simon_attack_em_exact_degenerates_to_simon():
    # at n=3 a noticeable fraction of random permutations carries a
    # translation symmetry, so the recovered key may be a codebook-equivalent
    # one; success therefore asserts codebook reproduction, and planted-key
    # recovery only a loose floor
    consistent = 0
    planted = 0
    trials = 40
    for t in range(trials):
        seed = derive_seed(600, t)
        inst = build_instance(ConstructionKind.EM, 3, 1, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, 3, 7, "EXACT", rng, seed=seed)
        assert rep.amplification_iterations == 0
        if rep.success:
            km = KeyMaterial(k1=rep.k1, k2=rep.k2)
            assert all(ciphers.encrypt_with(inst.kind, inst.components, km,
                                            None, x) == inst._raw_encrypt(x)
                       for x in range(8))
            consistent += 1
            planted += (rep.k1, rep.k2) == true_keys(inst)[1:]
    assert consistent / trials >= 0.95
    assert planted / trials >= 0.7


def test_iteration_count_formula():
    inst = efx_instance(4, 4, 700)
    rng = np.random.default_rng(0)
    rep = offline_simon_attack(inst, 2, 6, "TENSOR", rng)
    assert rep.amplification_iterations == qsim.grover_iterations(2.0 ** -6) == 6


def test_database_reuse_online_queries_independent_of_iterations():
    for u in (1, 2, 3):
        inst = efx_instance(4, 4, 800 + u)
        rng = np.random.default_rng(u)
        rep = offline_simon_attack(inst, u, 6, "TENSOR", rng)
        assert rep.online_queries == (1 << u)


def test_success_implies_recorded_codebook_reproduced():
    for t in range(20):
        seed = derive_seed(900, t)
        inst = efx_instance(4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, 2, 6, "TENSOR", rng, seed=seed)
        if rep.success:
            km = KeyMaterial(k=rep.k, k1=rep.k1, k2=rep.k2)
            for x in range(4):
                pt = x << 2
                assert ciphers.encrypt_with(inst.kind, inst.components, km,
                                            None, pt) == inst._raw_encrypt(pt)


def test_defx_requires_full_domain():
    inst = build_instance(ConstructionKind.DEFX, 4, 4, 1000)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        offline_simon_attack(inst, 2, 6, "TENSOR", rng)


def test_defx_attack():
    hits = 0
    trials = 30
    for t in range(trials):
        seed = derive_seed(1100, t)
        inst = build_instance(ConstructionKind.DEFX, 4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, 4, 8, "TENSOR", rng, seed=seed)
        hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.85


def test_ecbc3_attack_recovers_key_and_message_blocks():
    hits = 0
    trials = 30
    for t in range(trials):
        seed = derive_seed(1200, t)
        inst = build_instance(ConstructionKind.ECBC3, 4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = offline_simon_attack(inst, 4, 8, "TENSOR", rng, seed=seed)
        hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.85


def test_exact_mode_qubit_cap():
    inst = efx_instance(4, 4, 1300)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        offline_simon_attack(inst, 2, 6, "EXACT", rng)  # 42 qubits


def test_exact_and_tensor_modes_run_at_tiny_sizes():
    for mode in ("TENSOR", "EXACT"):
        hits = 0
        for t in range(30):
            seed = derive_seed(1400, mode, t)
            inst = efx_instance(2, 2, seed)
            rng = np.random.default_rng(seed)
            rep = offline_simon_attack(inst, 1, 3, mode, rng, seed=seed)
            hits += rep.success
        assert hits > 0


# ---------------------------------------------------------------------------
# grover-meets-simon and the EM superposition attack


def test_gms_attack_fx_counters_and_recovery():
    hits = 0
    trials = 25
    c = 8
    for t in range(trials):
        seed = derive_seed(1500, t)
        inst = build_instance(ConstructionKind.FX, 4, 4, seed)
        rng = np.random.default_rng(seed)
        rep = grover_meets_simon_attack(inst, c, rng, seed=seed)
        assert rep.query_model == "Q2"
        assert rep.online_queries == 2 * c * rep.amplification_iterations * rep.searches
        hits += rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert hits / trials >= 0.85


def test_gms_em_degenerates_to_simon():
    inst = build_instance(ConstructionKind.EM, 4, 1, 1600)
    rng = np.random.default_rng(5)
    rep = grover_meets_simon_attack(inst, 8, rng)
    assert rep.amplification_iterations == 0
    assert rep.success and (rep.k1, rep.k2) == true_keys(inst)[1:]


def test_gms_wrong_key_pass_rate_small():
    inst = build_instance(ConstructionKind.FX, 4, 4, 1700)
    db = offline_simon._database_from_oracle(inst, 4, 16)
    fam = guess_family_for(inst, 4)
    km = inst.key_material
    for wrong in range(16):
        if wrong == km.k:
            continue
        _, prob = check_key_guess(db, KeyGuess(y1=0, y2=wrong), fam)
        assert prob <= 0.05


def test_em_q2_attack_success_rate_and_counters():
    hits = 0
    trials = 40
    for t in range(trials):
        seed = derive_seed(1800, t)
        inst = build_instance(ConstructionKind.EM, 6, 1, seed)
        rng = np.random.default_rng(seed)
        rep = em_q2_attack(inst, 12, rng, seed=seed)
        assert rep.online_queries == 12
        if rep.success:
            km = inst.key_material
            assert (rep.k1, rep.k2) == (km.k1, km.k2)
            hits += 1
    assert hits / trials >= 0.9


def test_em_q2_degenerate_constant_function():
    perm = ciphers.Permutation(3, list(range(8)), list(range(8)))
    inst = make_construction(ConstructionKind.EM, [perm], KeyMaterial(k1=0, k2=0))
    rng = np.random.default_rng(0)
    rep = em_q2_attack(inst, 8, rng)
    assert not rep.success
    assert any("degenerate" in f for f in rep.flags)


# ---------------------------------------------------------------------------
# the generalized engine


def test_generalized_engine_reproduces_fx_attack():
    inst = build_instance(ConstructionKind.FX, 4, 4, 1900)
    e = inst.components[0]
    db = build_database_cpa(inst, 4, 8)

    inner = np.array([[e.forward(k, x) for x in range(16)] for k in range(16)])
    identity = np.tile(np.arange(16), (16, 1))
    family = GuessFamily(u=4, n_out=4, kappa_bits=4, suffix_bits=0,
                         relabel=identity, inner=inner, peel=identity)
    rng = np.random.default_rng(3)
    outcome = generalized_offline_simon(db, family, rng)
    assert outcome.recovered is not None
    assert outcome.measured_guess == inst.key_material.k


def test_generalized_engine_no_periodic_member_fails():
    rng = np.random.default_rng(4)
    # payloads drawn to be injective; XOR masks constant so nothing is periodic
    db = offline_simon.QueryDatabase(4, 4, 6, tuple(range(16)))
    identity = np.tile(np.arange(16), (4, 1))
    family = GuessFamily(u=4, n_out=4, kappa_bits=2, suffix_bits=0, relabel=identity,
                         inner=np.repeat(np.arange(4)[:, None], 16, axis=1), peel=identity)
    outcome = generalized_offline_simon(db, family, rng)
    assert outcome.recovered is None


def test_attack_report_json_stable_fields():
    inst = efx_instance(4, 4, 2000)
    rng = np.random.default_rng(1)
    rep = offline_simon_attack(inst, 2, 6, "TENSOR", rng, seed=77)
    blob = rep.to_json_dict()
    assert set(blob) == {"success", "k", "k1", "k2", "D", "offline_evals",
                         "iterations", "sim_time_units", "mode", "seed", "meta"}
    json.dumps(blob)  # serializable
    assert blob["seed"] == 77 and blob["mode"] == "TENSOR"


def test_verifier_tries_every_nullspace_member():
    # one register at u = 10 leaves at least a 9-dimensional nullspace, so the
    # period is one of 512 or more candidates
    from efxlab.harness import parse_config, run_attack
    cfg = parse_config("attack = offline_simon\nconstruction = EFX\nn = 10\n"
                       "kappa = 1\nu = 10\nc = 1\nmode = TENSOR\ntrials = 3\nseed = 5")
    assert cfg.validate() == []
    assert run_attack(cfg)["summary"]["successes"] == 3


# ---------------------------------------------------------------------------
# properties


@st.composite
def register_and_maps(draw):
    u = draw(st.integers(0, 5))
    n_out = draw(st.integers(1, 4))
    values = st.integers(0, (1 << n_out) - 1)
    payload = draw(st.lists(values, min_size=1 << u, max_size=1 << u))
    maps = GuessMaps(relabel=np.array(draw(st.permutations(range(1 << u)))),
                     peel=np.array(draw(st.permutations(range(1 << n_out)))),
                     xor=np.array(draw(st.lists(values, min_size=1 << u, max_size=1 << u))))
    return u, n_out, payload, maps


@settings(max_examples=150, deadline=None)
@given(register_and_maps())
def test_register_distribution_matches_gate_level_simulation(case):
    u, n_out, payload, maps = case
    # gate level: write the transformed register, Hadamard every input qubit
    vec = np.zeros(1 << (u + n_out), dtype=np.complex128)
    for x, w in enumerate(payload):
        xp = int(maps.relabel[x])
        vec[xp | ((int(maps.peel[w]) ^ int(maps.xor[xp])) << u)] = (1 << u) ** -0.5
    for q in range(u):
        qsim.hadamard_qubit(vec, q)
    born = np.bincount(np.arange(vec.size) & ((1 << u) - 1),
                       weights=np.abs(vec) ** 2, minlength=1 << u)
    dist = register_distribution(offline_simon.transformed_payload(payload, maps), u)
    assert np.allclose(dist, born, atol=1e-12)
    # stacked maps give the same row for every guess they hold
    stacked = GuessMaps(*(np.stack([t, t]) for t in maps))
    rows = register_distribution(offline_simon.transformed_payload(payload, stacked), u)
    assert np.array_equal(rows, np.stack([dist, dist]))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_exact_and_tensor_agree_without_search_register(n, c, seed):
    # EM at u = n guesses nothing, so EXACT samples the scan's distribution
    reports = {}
    for mode in ("TENSOR", "EXACT"):
        inst = build_instance(ConstructionKind.EM, n, 1, seed)
        rep = offline_simon_attack(inst, n, c, mode, np.random.default_rng(seed), seed=seed)
        reports[mode] = {k: v for k, v in rep.to_json_dict().items() if k != "mode"}
    assert reports["TENSOR"] == reports["EXACT"]


# ---------------------------------------------------------------------------
# the EXACT joint circuit against a reference in the plain register layout


def _reference_hadamard(amps, q):
    view = amps.reshape(-1, 2, 1 << q)
    hi, lo = view[:, 0, :].copy(), view[:, 1, :].copy()
    view[:, 0, :] = (hi + lo) * qsim.INV_SQRT2
    view[:, 1, :] = (hi - lo) * qsim.INV_SQRT2


def _reference_search(db, family, iterations, excluded, rng):
    """One search on a complex128 state laid out guess register lowest, then
    per register its input (u bits) under its payload (n_out bits)."""
    m, u, n, c = family.search_bits, db.u, db.n_out, db.c
    reg, space = u + n, 1 << family.search_bits

    def forward(maps, idx, base, *rows):
        image, inputs = np.zeros_like(idx), np.zeros_like(idx)
        for i in range(c):
            off = base + i * reg
            x = (idx >> off) & ((1 << u) - 1)
            x2, w2 = maps.apply(x, (idx >> (off + u)) & ((1 << n) - 1), *rows)
            image |= (x2 << off) | (w2 << (off + u))
            inputs |= x << (i * u)
        return image, inputs

    def inverse(image):
        out = np.empty_like(image)
        out[image] = np.arange(image.size)
        return out

    idx = np.arange(1 << (m + c * reg))
    guess = idx & (space - 1)
    fwd, inputs = forward(family.maps(np.arange(space)), idx, m, guess)
    fwd |= guess
    bwd = inverse(fwd)
    deficient = np.array([gf2.rank([(key >> (i * u)) & ((1 << u) - 1) for i in range(c)], u) < u
                          for key in range(1 << (c * u))])
    good = deficient[inputs] & ~np.isin(guess, list(excluded))
    vec = np.zeros(1 << reg, dtype=np.complex128)
    vec[np.arange(1 << u) | (np.array(db.payload) << u)] = (1 << u) ** -0.5
    amps = np.full(space, space ** -0.5, dtype=np.complex128)
    for _ in range(c):
        amps = np.kron(vec, amps)
    in_qubits = [m + i * reg + j for i in range(c) for j in range(u)]
    for _ in range(iterations):
        amps = amps[bwd]
        for q in in_qubits:
            _reference_hadamard(amps, q)
        amps[good] = -amps[good]
        for q in in_qubits:
            _reference_hadamard(amps, q)
        amps = amps[fwd]
        mat = amps.reshape(-1, space)
        mat[:] = 2.0 * mat.mean(axis=1, keepdims=True) - mat
    probs = (np.abs(amps) ** 2).reshape(-1, space).sum(axis=0)
    g = int(rng.choice(space, p=probs / probs.sum()))
    branch = amps.reshape(-1, space)[:, g]
    idx = np.arange(branch.size)
    state = branch[inverse(forward(family.maps(g), idx, 0)[0])]
    for i in range(c):
        for j in range(u):
            _reference_hadamard(state, i * reg + j)
    for i in range(c):
        values = (idx >> (i * reg)) & ((1 << u) - 1)
        probs = np.bincount(values, weights=np.abs(state) ** 2, minlength=1 << u)
        y = int(rng.choice(1 << u, p=probs / probs.sum()))
        state = np.where(values == y, state, 0.0)


class _RecordingRng:
    """Keeps every distribution it is asked to sample. It replays given
    outcomes, or else draws uniformly among the outcomes within a factor 1000
    of the likeliest, so that rare branches get compared too."""

    def __init__(self, seed=None, replay=None):
        self.rng = np.random.default_rng(seed)
        self.replay = replay
        self.dists, self.outcomes = [], []

    def choice(self, size, p):
        if self.replay:
            value = self.replay[len(self.dists)]
        else:
            value = self.rng.choice(np.flatnonzero(p >= 1e-3 * np.max(p)))
        self.dists.append(np.asarray(p))
        self.outcomes.append(int(value))
        return value


def _small_exact_instances():
    out = []
    for kind in (ConstructionKind.EFX, ConstructionKind.FX, ConstructionKind.DEFX):
        for n, kappa, c in itertools.product(range(1, 4), range(1, 4), range(1, 4)):
            for u in ([n] if kind == ConstructionKind.DEFX else range(n + 1)):
                if 0 < kappa + n - u and kappa + n - u + c * (u + n) <= 12:
                    out.append((kind, n, kappa, u, c))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_small_exact_instances()), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_joint_circuit_matches_reference_layout(case, iterations, seed, data):
    kind, n, kappa, u, c = case
    inst = build_instance(kind, n, kappa, seed)
    db = build_database_cpa(inst, u, c)
    family = guess_family_for(inst, u)
    excluded = data.draw(st.sets(st.integers(0, (1 << family.search_bits) - 1),
                                 max_size=(1 << family.search_bits) - 1))
    circuit = offline_simon._JointCircuit(db, family)
    assert circuit.initial.dtype == np.float64
    drawn = _RecordingRng(seed)
    g, samples = circuit.run_search(drawn, iterations, excluded)
    assert drawn.outcomes == [g] + samples
    replayed = _RecordingRng(replay=drawn.outcomes)
    _reference_search(db, family, iterations, excluded, replayed)
    assert len(replayed.dists) == len(drawn.dists) == 1 + c
    for ours, ref in zip(drawn.dists, replayed.dists):
        assert np.allclose(ours, ref, rtol=0.0, atol=1e-12)


def test_joint_circuit_memory_per_amplitude():
    import tracemalloc

    inst = efx_instance(3, 3, 11)
    db = build_database_cpa(inst, 2, 3)
    family = guess_family_for(inst, 2)
    offline_simon._rank_deficient_table(2, 3)
    tracemalloc.start()
    try:
        circuit = offline_simon._JointCircuit(db, family)
        assert circuit.total == 19
        circuit.run_search(np.random.default_rng(0), qsim.search_iterations(4), set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * (1 << 19)
