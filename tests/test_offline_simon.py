import dataclasses
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efxlab import ciphers, gf2, offline_simon, qsim
from efxlab.ciphers import ConstructionKind, KeyMaterial, derive_seed, make_construction
from efxlab.harness import (
    ExperimentConfig,
    build_instance,
    parse_config,
    report_json,
    run_attack,
    true_keys,
)
from efxlab.offline_simon import (
    GuessFamily,
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
    transformed_payload,
)


def efx_instance(n, kappa, seed):
    return build_instance(ConstructionKind.EFX, n, kappa, seed)


def pass_probability(db, g, family):
    """Exact chance that guess g's c post-Hadamard samples have rank below u,
    computed as the attack's scan computes it."""
    dist = register_distribution(transformed_payload(db.payload, family, np.array([g]))[0], db.u)
    return exact_pass_probability(dist, db.u, db.c)


# ---------------------------------------------------------------------------
# databases


def test_cpa_database_full_codebook():
    inst = efx_instance(4, 4, 1)
    db = build_database_cpa(inst, 4, 3)
    assert inst.online_forward == 16
    assert db.missing == frozenset()
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
    assert len(known.missing) / len(known.payload) == 0.0


def test_kpa_database_degenerate_and_partial():
    inst = efx_instance(4, 4, 5)
    db = build_database_kpa(inst, [], 2)
    assert len(db.missing) / len(db.payload) == 1.0
    assert all(v == 0 for v in db.payload)
    inst2 = efx_instance(4, 4, 6)
    db2 = build_database_kpa(inst2, [x for x in range(16) if x != 7], 3)
    assert db2.missing == {7}
    assert len(db2.missing) / len(db2.payload) == 1 / 16


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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(2, 7), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_planted_guess_keeps_the_missing_data_bound(n, kappa, c, seed, data):
    # the planted guess passes the full database with probability 1, so under
    # a known-plaintext mask it passes at least with the squared overlap of
    # the full and the masked database states, which fidelity_bound bounds
    size = 1 << n
    missing = data.draw(st.sets(st.integers(0, size - 1), max_size=size // 2))
    inst = efx_instance(n, kappa, seed)
    full = build_database_kpa(inst, range(size), c)
    partial = build_database_kpa(inst, [x for x in range(size) if x not in missing], c)
    family = guess_family_for(inst, n)
    planted = inst.key_material.k
    assert pass_probability(full, planted, family) == 1.0
    overlap = database_overlap(full, partial)
    assert pass_probability(partial, planted, family) >= overlap ** 2 - 1e-12
    assert overlap ** 2 >= fidelity_bound(c, len(missing) / size) - 1e-12


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
        if len(gf2._reduced_rows(list(tup))) < u:
            total += p
    return total


@st.composite
def distribution_and_copies(draw):
    """A random distribution over u-bit outcomes (zeros included) and c copies
    with c * u <= 8."""
    u = draw(st.integers(1, 4))
    c = draw(st.integers(1, 8 // u))
    weights = draw(st.lists(st.integers(0, 1000), min_size=1 << u, max_size=1 << u)
                   .filter(any))
    return np.array(weights) / sum(weights), u, c


@settings(max_examples=100, deadline=None)
@given(distribution_and_copies())
def test_exact_pass_probability_matches_tuple_enumeration(case):
    dist, u, c = case
    exact = exact_pass_probability(dist, u, c)
    assert abs(exact - brute_force_pass_probability([dist] * c, u)) < 1e-12


def tuple_span_pass_probability(dist, u, c):
    """Reference: the span DP keyed by each span's canonical basis tuple, with
    a local dict for its transitions; the numbered DP must equal it bit for bit."""
    grown = {}
    dp = {(): 1.0}
    for _ in range(c):
        new = {}
        for basis, pr in dp.items():
            for y, py in enumerate(dist):
                if py <= 0.0:
                    continue
                if (basis, y) not in grown:
                    grown[basis, y] = tuple(gf2._reduced_rows(list(basis) + [y]))
                b2 = grown[basis, y]
                new[b2] = new.get(b2, 0.0) + pr * float(py)
        dp = new
    return sum(p for basis, p in dp.items() if len(basis) < u)


@st.composite
def sparse_distribution_and_copies(draw):
    """A random distribution over u-bit outcomes, u = 1..5, with about half
    its entries zero, and c = 1..7 copies."""
    u = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, 1000) | st.just(0), min_size=1 << u,
                            max_size=1 << u).filter(any))
    return np.array(weights) / sum(weights), u, draw(st.integers(1, 7))


@settings(max_examples=100, deadline=None)
@given(sparse_distribution_and_copies())
def test_exact_pass_probability_equals_the_tuple_span_dp(case):
    # the numbered spans change the DP's keys, not its float order
    dist, u, c = case
    assert exact_pass_probability(dist, u, c) == tuple_span_pass_probability(dist, u, c)


@pytest.mark.parametrize("u, c", [(u, c) for u in range(1, 13) for c in range(1, 13)
                                  if u * c <= 12])
def test_rank_deficient_table_is_the_rank_of_each_tuple(u, c):
    mask = (1 << u) - 1
    expected = [gf2.rank([(key >> (i * u)) & mask for i in range(c)]) < u
                for key in range(1 << (u * c))]
    assert offline_simon._rank_deficient_table(u, c).tolist() == expected
    # Simon's criterion, apart from any row reduction: a tuple is deficient
    # exactly when some nonzero t is orthogonal to every sample
    keys = np.arange(1 << (u * c))
    samples = [(keys >> (i * u)) & mask for i in range(c)]
    orthogonal = np.zeros(keys.size, dtype=bool)
    for t in range(1, 1 << u):
        orthogonal |= np.logical_and.reduce([np.bitwise_count(y & t) & 1 == 0
                                             for y in samples])
    assert orthogonal.tolist() == expected


def test_correct_guess_passes_with_probability_one():
    for seed in range(10):
        inst = efx_instance(4, 4, 200 + seed)
        km = inst.key_material
        db = build_database_cpa(inst, 2, 6)
        fam = guess_family_for(inst, 2)
        guess = km.k | ((km.k1 & 3) << fam.kappa_bits)
        assert pass_probability(db, guess, fam) == 1.0


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
        prob8 = pass_probability(db8, wrong, fam)
        assert prob8 <= 0.40
        db16 = dataclasses.replace(db8, c=16)
        prob16 = pass_probability(db16, wrong, fam)
        assert prob16 <= 0.05
        assert prob16 <= prob8


def test_single_register_single_bit_hand_enumeration():
    # u=1, c=1: a periodic register samples y=0 always, so rank<1 always holds
    dist = register_distribution(np.array([5, 5]), 1)
    assert np.allclose(dist, [1.0, 0.0])
    assert exact_pass_probability(dist, 1, 1) == 1.0


def dense_register_distribution(h, u):
    """Reference: the autocorrelation A(s) = #{x : h(x) = h(x ^ s)} from one
    comparison of the whole table per s, then the same integer Walsh sums."""
    xs = np.arange(1 << u)
    autocorrelation = np.stack([(h == h[..., xs ^ s]).sum(axis=-1) for s in xs], axis=-1)
    return qsim.walsh(autocorrelation) / float(1 << (2 * u))


@st.composite
def payload_stacks(draw):
    """A stack of 1-3 payload tables over u = 0..8 input bits, each of one
    kind: chosen-plaintext (random n_out-bit values), known-plaintext
    (placeholder zeros at the missing inputs), constant, or with an exact
    period s (h(x) = h(x ^ s))."""
    u = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = 1 << u
    rows = []
    for kind in draw(st.lists(st.sampled_from(["cpa", "kpa", "constant", "periodic"]),
                              min_size=1, max_size=3)):
        values = rng.integers(0, 1 << draw(st.integers(max(u, 1), 12)), size)
        if kind == "kpa":
            values[rng.random(size) < draw(st.sampled_from([0.0625, 0.5, 0.9]))] = 0
        elif kind == "constant":
            values[:] = values[0]
        elif kind == "periodic":
            period = int(rng.integers(size))
            values = values[np.minimum(np.arange(size), np.arange(size) ^ period)]
        rows.append(values)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(rows, dtype=dtype) if len(rows) > 1 else rows[0].astype(dtype), u


@settings(max_examples=200, deadline=None)
@given(payload_stacks())
def test_register_distribution_equals_the_dense_autocorrelation(case):
    h, u = case
    assert np.array_equal(register_distribution(h, u), dense_register_distribution(h, u))


def test_scan_rows_are_the_per_guess_distributions_across_chunks():
    # EFX n = 12, kappa = 1, u = 1: 4,096 guesses, mapped 256 at a time
    inst = efx_instance(12, 1, 5)
    db = build_database_cpa(inst, 1, 3)
    family = guess_family_for(inst, 1)
    dists = offline_simon._scan_distributions(db, family)
    assert dists.shape == (4096, 2)
    for g in range(4096):
        row = register_distribution(transformed_payload(db.payload, family, np.array([g]))[0], 1)
        assert np.array_equal(dists[g], row)


# the three workload shapes that scan guesses (kpa_tensor, cpa_tensor and
# exact_joint), three trials each at the digest seed; the reports see the
# scan's floats only through pass/fail decisions, so these pin the floats
SCAN_SHAPES = [
    "construction = EFX\nn = 4\nkappa = 4\nu = 4\nc = 6\nalpha = 0.0625",
    "construction = EFX\nn = 4\nkappa = 4\nu = 2\nc = 6",
    "construction = EFX\nn = 3\nkappa = 3\nu = 2\nc = 3\nmode = EXACT",
]
# sha256 of every _scan_distributions result's bytes and of every
# exact_pass_probability value's hex form, in call order; recorded while the
# scan compared whole tables and the DP read each outcome through row[y]
SCAN_DIGEST = "29d47e1253989ffb672886e82e0ad0cfc171ea926e00dead9643aea581f99405"
PASS_DIGEST = "16b62817d31ba2d6f3b0cf517f1c424996276d3c7c2039034ad7169ca0ccdee4"


def test_scan_and_pass_probability_floats_are_pinned(monkeypatch):
    scans, passes = hashlib.sha256(), hashlib.sha256()
    scan, pass_probability = offline_simon._scan_distributions, exact_pass_probability

    def recorded_scan(db, family):
        dists = scan(db, family)
        scans.update(dists.tobytes())
        return dists

    def recorded_pass_probability(dist, u, c):
        p = pass_probability(dist, u, c)
        passes.update(p.hex().encode())
        return p

    monkeypatch.setattr(offline_simon, "_scan_distributions", recorded_scan)
    monkeypatch.setattr(offline_simon, "exact_pass_probability", recorded_pass_probability)
    for text in SCAN_SHAPES:
        run_attack(parse_config(text + "\ntrials = 3\nseed = 2024"))
    assert (scans.hexdigest(), passes.hexdigest()) == (SCAN_DIGEST, PASS_DIGEST)


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
            assert all(ciphers.encrypt_with(inst.kind, inst.components, km, x)
                       == inst._raw_encrypt(x) for x in range(8))
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
                assert ciphers.encrypt_with(inst.kind, inst.components, km, pt) \
                    == inst._raw_encrypt(pt)


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


@pytest.mark.parametrize("kind, n, kappa, u, c, qubits", [
    (ConstructionKind.EFX, 4, 4, 2, 6, 42),
    (ConstructionKind.EM, 14, 1, 14, 6, 28),  # no search register: one register
])
def test_exact_over_the_cap_is_rejected_before_the_scan(monkeypatch, kind, n, kappa, u, c,
                                                        qubits):
    def no_family(instance, u):
        raise AssertionError("the guess family was built")

    monkeypatch.setattr(offline_simon, "guess_family_for", no_family)
    inst = build_instance(kind, n, kappa, 1350)
    with pytest.raises(ValueError, match=f"needs {qubits} qubits"):
        offline_simon_attack(inst, u, c, "EXACT", np.random.default_rng(0))


@pytest.mark.parametrize("kind, n, kappa, u, c, mode", [
    (ConstructionKind.EFX, 8, 1, 8, 4, "TENSOR"),
    # 2^16 inner keys: building their family takes about 20 s and 1 GB
    (ConstructionKind.EFX, 8, 16, 8, 4, "TENSOR"),
    (ConstructionKind.EM, 13, 1, 13, 2, "EXACT"),  # 26 qubits, under the cap
])
def test_span_dp_over_the_limit_is_rejected_before_the_scan(monkeypatch, kind, n, kappa,
                                                            u, c, mode):
    def no_family(instance, u):
        raise AssertionError("the guess family was built")

    monkeypatch.setattr(offline_simon, "guess_family_for", no_family)
    inst = build_instance(kind, n, kappa, 1360)
    transitions = offline_simon.span_dp_transitions(u, c)
    assert transitions > offline_simon.MAX_SPAN_DP_TRANSITIONS
    with pytest.raises(ValueError, match=f"span DP: u = {u}, c = {c} caches {transitions:,} "
                                         "transitions"):
        offline_simon_attack(inst, u, c, mode, np.random.default_rng(0))


@pytest.mark.parametrize("config", [
    "construction = EFX\nn = 8\nkappa = 16\nu = 2",  # 22 search bits
    "construction = EFX\nn = 4\nkappa = 4\nu = 2\nc = 5\nmode = EXACT",  # 36 qubits
    "construction = EFX\nn = 8\nkappa = 1\nu = 8\nc = 4",  # 27,700,736 transitions
    "construction = EFX\nn = 10\nkappa = 16\nu = 10\nc = 2",  # 2^26 family entries
])
def test_validate_and_the_engine_refuse_with_one_message(monkeypatch, config):
    def no_family(instance, u):
        raise AssertionError("the guess family was built")

    monkeypatch.setattr(offline_simon, "guess_family_for", no_family)
    cfg = parse_config(config)
    (error,) = cfg.validate()
    inst = build_instance(ConstructionKind(cfg.construction), cfg.n, cfg.kappa, 1370)
    with pytest.raises(ValueError) as refused:
        offline_simon_attack(inst, cfg.u, cfg.c, cfg.mode, np.random.default_rng(0))
    assert str(refused.value) == error
    db = build_database_cpa(inst, cfg.u, cfg.c)
    with pytest.raises(ValueError) as refused:
        generalized_offline_simon(inst, db, np.random.default_rng(0), mode=cfg.mode,
                                  build_time=0)
    assert str(refused.value) == error


@pytest.mark.parametrize("u, c", [(1, 4), (2, 3), (3, 2), (3, 5), (4, 6)])
def test_span_dp_transitions_counts_the_cache(u, c):
    step, dims = offline_simon._spans(u, c)
    assert len(step) == offline_simon.span_dp_transitions(u, c) >> u
    assert all(len(row) == 1 << u for row in step)
    assert max(dims[:len(step)]) < c and max(map(max, step)) < len(dims)


def test_span_dp_keeps_the_transitions_of_one_shape():
    # a sweep's points take turns, as with the orbit tables: after a DP at
    # u = 5, c = 6 (11,968 transitions) one at u = 2, c = 3 leaves only its own
    for u, c in [(5, 6), (2, 3)]:
        exact_pass_probability(np.full(1 << u, 1.0 / (1 << u)), u, c)
    assert offline_simon._spans.cache_info().currsize == 1
    assert len(offline_simon._spans(2, 3)[0]) << 2 == offline_simon.span_dp_transitions(2, 3)


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
    db = build_database_cpa(inst, 4, 16)
    fam = guess_family_for(inst, 4)
    km = inst.key_material
    for wrong in range(16):
        if wrong == km.k:
            continue
        prob = pass_probability(db, wrong, fam)
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


def test_em_q2_key_check_charges_the_completion_and_the_pairs_tried(monkeypatch):
    inst = build_instance(ConstructionKind.EM, 4, 1, 1850)
    k1, c = inst.key_material.k1, 8
    codebook = [inst._raw_encrypt(x) for x in range(16)]
    for period in (k1, k1 ^ 1 or 2):  # the planted period, then a wrong nonzero one
        monkeypatch.setattr(gf2, "recover_period",
                            lambda samples, n, period=period: gf2.PeriodResult("period", period))
        rep = em_q2_attack(inst, c, np.random.default_rng(0))
        k2 = codebook[0] ^ inst.components[0].table[period]
        tried = next((x + 1 for x in range(16)
                      if inst.components[0].table[x ^ period] ^ k2 != codebook[x]), 16)
        # c oracle calls, one to complete k2, one per codebook pair tried
        assert rep.offline_evals == c + 1 + tried
        if period == k1:
            assert rep.success and (rep.k, rep.k1, rep.k2) == (None, k1, inst.key_material.k2)
            assert tried == 16 and rep.flags == []
        else:
            assert not rep.success and (rep.k1, rep.k2) == (None, None)
            assert tried < 16 and rep.flags == ["period-verification-failed"]


def test_em_q2_degenerate_constant_function():
    perm = ciphers.Permutation(3, list(range(8)))
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

    # FX has no relabel or outer layer: the family is the inner cipher's tables
    inner = np.array([e.permutation(k).table for k in range(16)])
    identity = np.tile(np.arange(16), (16, 1))
    family = guess_family_for(inst, 4)
    assert (family.kappa_bits, family.suffix_bits) == (4, 0)
    for got, want in ((family.relabel, identity), (family.inner, inner),
                      (family.peel, identity)):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    rep = generalized_offline_simon(inst, db, np.random.default_rng(3), build_time=64, seed=5,
                                    online_queries=16)
    assert rep.success and (rep.k, rep.k1, rep.k2) == true_keys(inst)
    assert rep.seed == 5 and rep.sim_time_units == 64 + rep.search_time_units


def test_generalized_engine_no_periodic_member_fails(monkeypatch):
    inst = build_instance(ConstructionKind.FX, 4, 2, 1950)  # 2 search bits
    # payloads drawn to be injective; XOR masks constant so nothing is periodic
    db = offline_simon.QueryDatabase(4, 4, 6, tuple(range(16)))
    identity = np.tile(np.arange(16), (4, 1))
    family = GuessFamily(kappa_bits=2, suffix_bits=0, relabel=identity,
                         inner=np.repeat(np.arange(4)[:, None], 16, axis=1), peel=identity)
    monkeypatch.setattr(offline_simon, "guess_family_for", lambda instance, u: family)
    rep = generalized_offline_simon(inst, db, np.random.default_rng(4), build_time=64,
                                    online_queries=0)
    assert rep.passing_count == 0
    assert not rep.success and (rep.k, rep.k1, rep.k2) == (None, None, None)
    assert rep.searches == 3


def test_generalized_engine_refuses_an_unknown_mode_and_too_many_registers():
    inst = efx_instance(3, 2, 1)
    db = build_database_cpa(inst, 2, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^unknown mode 'FOO'$"):
        generalized_offline_simon(inst, db, rng, mode="FOO", build_time=0)
    with pytest.raises(ValueError, match="^1025 registers, limit is 1024$"):
        generalized_offline_simon(inst, dataclasses.replace(db, c=1025), rng, build_time=0)


def test_kpa_run_with_no_known_pair_spends_no_verification():
    # each search measures a guess, has no recorded pair to verify it against
    # and excludes it, so the run stops after max_searches searches, charged
    # only their iterations and sampling passes: 3 * (1 * 2 * 3 + 3) * 2
    inst = efx_instance(3, 2, 5)
    rep = offline_simon_attack(inst, 3, 3, "TENSOR", np.random.default_rng(0),
                               known_inputs=[])
    assert qsim.search_iterations(2) == 1 and ciphers.SPECS[inst.kind].evals == 2
    assert not rep.success and rep.searches == 3 and rep.online_queries == 0
    assert rep.offline_evals == 54


def test_attack_report_json_stable_fields():
    inst = efx_instance(4, 4, 2000)
    rng = np.random.default_rng(1)
    rep = offline_simon_attack(inst, 2, 6, "TENSOR", rng, seed=77)
    blob = rep.to_json_dict()
    assert set(blob) == {"success", "k", "k1", "k2", "D", "offline_evals",
                         "iterations", "sim_time_units", "mode", "seed", "meta"}
    json.dumps(blob)  # serializable
    assert blob["seed"] == 77 and blob["mode"] == "TENSOR"


@pytest.mark.parametrize("passing_count", [0, 1, 2, 5])
@pytest.mark.parametrize("flags", [[], ["degenerate-undetermined"],
                                   ["degenerate-injective", "period-verification-failed"]])
def test_attack_report_reads_ambiguity_from_the_passing_count(passing_count, flags):
    rep = offline_simon.AttackReport(
        success=False, k=None, k1=None, k2=None, online_queries=0, offline_evals=0,
        amplification_iterations=0, sim_time_units=0, mode="EXACT", seed=0,
        passing_count=passing_count, flags=list(flags))
    ambiguous = passing_count > 1
    meta = rep.to_json_dict()["meta"]
    assert rep.ambiguous is meta["ambiguous"] is ambiguous
    assert meta["passing_count"] == passing_count
    # the derived flag comes first, the stored ones follow in their order
    assert meta["flags"] == ["ambiguous-passing-set"] * ambiguous + flags
    assert rep.flags == flags  # serializing leaves the stored flags alone


def test_verifier_tries_every_nullspace_member():
    # one register at u = 10 leaves at least a 9-dimensional nullspace, so the
    # period is one of 512 or more candidates
    cfg = parse_config("attack = offline_simon\nconstruction = EFX\nn = 10\n"
                       "kappa = 1\nu = 10\nc = 1\nmode = TENSOR\ntrials = 3\nseed = 5")
    assert cfg.validate() == []
    assert run_attack(cfg)["summary"]["successes"] == 3


# configs the shipped configs and benchmark workloads do not cover: TENSOR on
# every kind the search attacks, searches without a search register (m = 0)
# or without iterations, EXACT with and without iterations, known plaintexts
# at alpha = 0.5, max_searches of 1 and 3, and grover_meets_simon; six trials
# each at seed 33
ENGINE_GRID = [
    "construction = EM\nn = 3\nkappa = 1\nu = 2\nc = 3",
    "construction = FX\nn = 3\nkappa = 2\nu = 2\nc = 3",
    "construction = EFX\nn = 3\nkappa = 2\nu = 1\nc = 2",
    "construction = TWO_XOR\nn = 3\nkappa = 2\nu = 2\nc = 3",
    "construction = DEFX\nn = 2\nkappa = 2\nu = 2\nc = 2",
    "construction = ECBC3\nn = 2\nkappa = 2\nu = 2\nc = 2",
    "construction = EFX\nn = 2\nkappa = 2\nu = 1\nc = 3\nmode = EXACT",
    "construction = FX\nn = 2\nkappa = 1\nu = 2\nc = 2\nmode = EXACT",
    "construction = EM\nn = 2\nkappa = 1\nu = 2\nc = 2",
    "construction = EM\nn = 2\nkappa = 1\nu = 2\nc = 2\nmode = EXACT",
    "construction = EFX\nn = 3\nkappa = 2\nu = 3\nc = 3\nalpha = 0.5\nmax_searches = 1",
    "construction = EFX\nn = 3\nkappa = 2\nu = 3\nc = 3\nalpha = 0.5\nmax_searches = 3",
    "construction = EFX\nn = 3\nkappa = 3\nu = 2\nc = 2\nmax_searches = 1",
    "construction = EFX\nn = 3\nkappa = 3\nu = 2\nc = 2\nmax_searches = 3",
    "attack = grover_meets_simon\nconstruction = FX\nn = 3\nkappa = 2\nc = 3",
    "attack = grover_meets_simon\nconstruction = EFX\nn = 3\nkappa = 2\nc = 3",
]
# sha256 of the grid's report_json texts, concatenated in grid order; recorded
# while the engine still charged each search's cost inside its loop
ENGINE_GRID_DIGEST = "7a015ae0dfdb8c0de0356da6c2978ca3111889dfe187950af6e33b72fe4056e2"


def test_engine_reports_on_the_grid_are_pinned():
    digest = hashlib.sha256()
    for text in ENGINE_GRID:
        cfg = parse_config(text + "\ntrials = 6\nseed = 33")
        digest.update(report_json(run_attack(cfg)).encode())
    assert digest.hexdigest() == ENGINE_GRID_DIGEST


# ---------------------------------------------------------------------------
# properties


@st.composite
def register_and_family(draw):
    """A payload and a family of random tables: up to one key bit and one
    suffix bit, relabel and peel permutations, arbitrary inner values."""
    u = draw(st.integers(0, 5))
    n_out = draw(st.integers(1, 4))
    kappa_bits, suffix_bits = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    values = st.integers(0, (1 << n_out) - 1)
    payload = draw(st.lists(values, min_size=1 << u, max_size=1 << u))
    width = 1 << (u + suffix_bits)

    def tables(strategy):
        return np.array([draw(strategy) for _ in range(1 << kappa_bits)])

    family = GuessFamily(kappa_bits, suffix_bits,
                         relabel=tables(st.permutations(range(1 << u))),
                         inner=tables(st.lists(values, min_size=width, max_size=width)),
                         peel=tables(st.permutations(range(1 << n_out))))
    return u, n_out, payload, family


@settings(max_examples=150, deadline=None)
@given(register_and_family())
def test_register_distribution_matches_gate_level_simulation(case):
    u, n_out, payload, family = case
    space = 1 << family.search_bits
    xs, ws = np.arange(1 << u), np.array(payload)
    x_rows, w_rows = family.maps(np.arange(space)[:, None], xs, ws)
    dists = register_distribution(transformed_payload(payload, family, np.arange(space)), u)
    for g in range(space):
        y1, y2 = g >> family.kappa_bits, g & ((1 << family.kappa_bits) - 1)
        # gate level: write the transformed register, Hadamard every input qubit
        vec = np.zeros(1 << (u + n_out), dtype=np.complex128)
        for x, w in enumerate(payload):
            xp = int(family.relabel[y2, x])
            w2 = int(family.peel[y2, w]) ^ int(family.inner[y2, (xp << family.suffix_bits) | y1])
            vec[xp | (w2 << u)] = (1 << u) ** -0.5
        for q in range(u):
            qsim.hadamard_qubit(vec, q)
        born = np.bincount(np.arange(vec.size) & ((1 << u) - 1),
                           weights=np.abs(vec) ** 2, minlength=1 << u)
        dist = register_distribution(transformed_payload(payload, family, np.array([g]))[0], u)
        assert np.allclose(dist, born, atol=1e-12)
        # an array of guesses gives, row by row, what scalar maps calls give
        x2, w2 = family.maps(g, xs, ws)
        assert np.array_equal(x_rows[g], x2) and np.array_equal(w_rows[g], w2)
        assert np.array_equal(dists[g], dist)


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

    def forward(g, idx, base):
        image, inputs = np.zeros_like(idx), np.zeros_like(idx)
        for i in range(c):
            off = base + i * reg
            x = (idx >> off) & ((1 << u) - 1)
            x2, w2 = family.maps(g, x, (idx >> (off + u)) & ((1 << n) - 1))
            image |= (x2 << off) | (w2 << (off + u))
            inputs |= x << (i * u)
        return image, inputs

    def inverse(image):
        out = np.empty_like(image)
        out[image] = np.arange(image.size)
        return out

    idx = np.arange(1 << (m + c * reg))
    guess = idx & (space - 1)
    fwd, inputs = forward(guess, idx, m)
    fwd |= guess
    bwd = inverse(fwd)
    deficient = np.array([gf2.rank([(key >> (i * u)) & ((1 << u) - 1) for i in range(c)]) < u
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
    state = branch[inverse(forward(g, idx, 0)[0])]
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
    drawn = _RecordingRng(seed)
    g, samples = circuit.run_search(drawn, iterations, excluded)
    assert drawn.outcomes == [g] + samples
    replayed = _RecordingRng(replay=drawn.outcomes)
    _reference_search(db, family, iterations, excluded, replayed)
    assert len(replayed.dists) == len(drawn.dists) == 1 + c
    for ours, ref in zip(drawn.dists, replayed.dists):
        assert np.allclose(ours, ref, rtol=0.0, atol=1e-12)


def test_exact_qubit_budget_has_one_formula():
    for kind, n, kappa, u, c in _small_exact_instances():
        qubits = offline_simon.exact_qubits(kappa + n - u, u, n, c)
        cfg = ExperimentConfig(construction=kind.value, n=n, kappa=kappa, u=u, c=c,
                               mode="EXACT", qubit_cap=qubits)
        assert cfg.validate() == [], cfg
        cfg.qubit_cap -= 1
        (error,) = cfg.validate()
        assert error.startswith("mode:") and f"needs {qubits} qubits" in error
        inst = build_instance(kind, n, kappa, 7)
        circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c),
                                              guess_family_for(inst, u))
        # the guesses times every register state of the expansion; a vector
        # holds one amplitude per multiset of c register states
        assert (1 << circuit.m) * circuit.tables.orbit.size == 1 << qubits, cfg
        assert circuit.size == math.comb((1 << (u + n)) + c - 1, c), cfg
        assert np.array_equal(np.unique(circuit.tables.orbit), np.arange(circuit.size))


def _search_bytes(circuit):
    """Bytes a search may hold beyond the cached orbit tables: the table S
    at 8 B and the int32 maps at 4 B per amplitude over the orbits, 64 B per
    orbit for the register-space vectors (A, B, the shared first step, the
    test's work buffer and its int64 index), and 16 B per register state for
    the measured branch's expansion (the float64 state and its index)."""
    return (12 * (1 << circuit.m) * circuit.size + 64 * circuit.size
            + 16 * circuit.tables.orbit.size)


@pytest.mark.parametrize("kappa, u, c", [(3, 2, 3), (1, 3, 3)])
def test_joint_circuit_memory_per_amplitude(kappa, u, c):
    import tracemalloc

    # EFX n = 3 at 19 qubits: 5,984 orbits of 32,768 register states at
    # u = 2 and 45,760 of 262,144 at u = 3 (the test's V holds 22 of 64 and
    # 168 of 512 tuples)
    inst = efx_instance(3, kappa, 11)
    db = build_database_cpa(inst, u, c)
    family = guess_family_for(inst, u)
    # the orbit tables and their folded tests are cached per shape
    offline_simon._orbit_tables(u, 3, c).folds()
    # at least one iteration, so the test step runs even where m = 1 needs none
    iterations = max(1, qsim.search_iterations(family.search_bits))
    tracemalloc.start()
    try:
        circuit = offline_simon._JointCircuit(db, family)
        assert (1 << circuit.m) * circuit.tables.orbit.size == 1 << 19
        rng = np.random.default_rng(0)
        first, _ = circuit.run_search(rng, iterations, set())
        circuit.run_search(rng, iterations, {first})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S and the maps over the orbits, register-space vectors and the measured
    # branch's expansion; JOINT_BYTES_PER_AMPLITUDE of the dense layout bounds it
    assert peak < _search_bytes(circuit) < offline_simon.JOINT_BYTES_PER_AMPLITUDE * (1 << 19)


def _dense_images(circuit, g):
    """Full-layout index of the image of every register tuple under guess g:
    the dense layout (low bits first: the c payloads, then the c inputs,
    register 0 lowest) in which the circuit used to scatter and gather."""
    c, u, n = circuit.db.c, circuit.db.u, circuit.db.n_out
    index = np.arange(1 << (c * (u + n)))
    image = np.zeros_like(index)
    for i in range(c):
        x2, w2 = circuit.family.maps(g, (index >> (c * n + i * u)) & ((1 << u) - 1),
                                     (index >> (i * n)) & ((1 << n) - 1))
        image |= (x2 << (c * n + i * u)) | (w2 << (i * n))
    return image


def _expanded(circuit, vectors):
    """Orbit vectors (one per row) with every register state's amplitude."""
    return np.asarray(vectors)[..., circuit.tables.orbit]


def _dense_test(circuit, h, full):
    """F_h^T T F_h applied to a full-layout vector: scatter through guess h's
    images, apply the reference operator to the input-tuple rows, gather."""
    u, c = circuit.db.u, circuit.db.c
    image = _dense_images(circuit, h)
    moved = np.empty_like(full)
    moved[image] = full
    operator = _test_operator_reference(u, c)
    return (operator @ moved.reshape(1 << (c * u), -1)).reshape(-1)[image]


def _test_operator_reference(u, c):
    """H diag((-1)^[rank < u]) H over the packed c*u-bit tuples, from
    hadamard_qubit passes over the rows of an identity matrix."""
    size = 1 << (c * u)
    mat = np.eye(size)
    for q in range(c * u, 2 * c * u):
        qsim.hadamard_qubit(mat.reshape(-1), q)
    mat[offline_simon._rank_deficient_table(u, c)] *= -1.0
    for q in range(c * u, 2 * c * u):
        qsim.hadamard_qubit(mat.reshape(-1), q)
    return mat


@pytest.mark.parametrize("u, c", [(u, c) for u in range(9) for c in range(1, 9)
                                  if c * u <= 8])
def test_test_reflection_is_the_hadamard_sandwich(u, c):
    sign, basis = offline_simon._test_reflection(u, c)
    size = 1 << (c * u)
    assert basis.shape[0] == size and 2 * basis.shape[1] <= size
    assert not basis.flags.writeable
    operator = sign * (np.eye(size) - 2.0 * basis @ basis.T)
    assert np.allclose(operator, _test_operator_reference(u, c), rtol=0.0, atol=1e-12)
    # an orthogonal involution
    assert np.allclose(operator, operator.T, rtol=0.0, atol=1e-12)
    assert np.allclose(operator @ operator, np.eye(size), rtol=0.0, atol=1e-12)
    if u == 0 or c < u:
        # no tuple is deficient at u = 0, every one is below u: I and -I
        assert basis.shape[1] == 0 and sign == (1.0 if u == 0 else -1.0)


def _folded_reflection(u, c, code):
    """(V_r, W^T, weights) of the test on the rows of class code, by a sort
    and rank of its own: the reference for _OrbitTables.folds.

    A row is a class's input part: one multiset of inputs per payload group.
    V_r is _test_reflection's V at the row's representative input tuple
    (inputs ascending within each group), W sums V over every input tuple
    that folds onto the row, and weights counts the register tuples of the
    row's orbits.
    """
    _, basis = offline_simon._test_reflection(u, c)
    pattern = offline_simon._pattern(code, c)
    keys = np.arange(1 << (c * u))
    # a stand-in payload per group keeps the groups apart while sorting
    groups = np.repeat(np.arange(len(pattern)), pattern)
    regs = list(np.sort([(int(groups[i]) << u) | ((keys >> (i * u)) & ((1 << u) - 1))
                         for i in range(c)], axis=0))
    binom = offline_simon._binomials((1 << u) + c, c)
    row = offline_simon._orbit_parts(regs, u, binom)[1]
    rows = math.prod(int(binom[(1 << u) + m - 1, m]) for m in pattern)
    rep = np.zeros(rows, dtype=np.int64)
    rep[row] = sum((s & ((1 << u) - 1)) << (i * u) for i, s in enumerate(regs))
    order = np.argsort(row, kind="stable")
    fold = np.add.reduceat(basis[order], np.searchsorted(row[order], np.arange(rows)), axis=0)
    arrangements = math.factorial(c) // math.prod(math.factorial(m) for m in pattern)
    weights = np.bincount(row, minlength=rows) * float(arrangements)
    return np.ascontiguousarray(basis[rep]), np.ascontiguousarray(fold.T), weights


@pytest.mark.parametrize("u, c, n_out", [
    (u, c, n_out) for u in range(10) for c in range(1, 17) for n_out in range(1, 17)
    if c * u <= 9 and c * (u + n_out) <= 16])
def test_orbit_tables_fold_the_test_as_the_reference_does(u, c, n_out):
    tables = offline_simon._orbit_tables(u, n_out, c)
    got_sign, folds = tables.folds()
    sign = offline_simon._test_reflection(u, c)[0]
    assert got_sign == sign
    assert len(folds) == len(tables.codes) == len(tables.classes)
    for code, (offset, rows, cols), (basis, fold) in zip(tables.codes, tables.classes, folds):
        ref_basis, ref_fold, ref_weights = _folded_reflection(u, c, code)
        # bit for bit: summed in the same order, scaled by the same factor
        assert np.array_equal(basis, ref_basis), code
        assert np.array_equal(fold, -2.0 * sign * ref_fold), code
        assert np.array_equal(tables.weights[offset:offset + rows * cols:cols], ref_weights)
        assert not basis.flags.writeable and not fold.flags.writeable
    # the tables own the one copy: no cache keeps V or the rank table
    assert tables.folds()[1] is folds
    assert not hasattr(offline_simon._test_reflection, "cache_info")
    assert not hasattr(offline_simon._rank_deficient_table, "cache_info")


@pytest.mark.parametrize("block", [1 << 4, offline_simon._TEST_BLOCK])
def test_test_step_leaves_excluded_guesses_bit_for_bit(monkeypatch, block):
    # 2^4 entries test one guess at a time; the default block holds all four
    # guesses of the 136 orbits of the 2^8 register states
    monkeypatch.setattr(offline_simon, "_TEST_BLOCK", block)
    inst = efx_instance(2, 2, 3)
    db = build_database_cpa(inst, 2, 2)
    circuit = offline_simon._JointCircuit(db, guess_family_for(inst, 2))
    assert circuit.size == 136
    assert circuit.block == (1 if block < circuit.size else 4)
    excluded = {1, 2}
    state = np.random.default_rng(4).standard_normal(circuit.size)
    out = np.empty((1 << circuit.m, circuit.size))
    circuit._test(state, excluded, out)
    full = _expanded(circuit, state)
    for h in range(1 << circuit.m):
        if h in excluded:
            assert np.array_equal(out[h], state)
            continue
        # O_h = F_h^T T F_h on every register state of the expansion
        assert np.allclose(_expanded(circuit, out[h]), _dense_test(circuit, h, full),
                           rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("block", [1 << 4, 1 << 9, offline_simon._TEST_BLOCK])
def test_joint_circuit_maps_are_bare_orbit_permutations(monkeypatch, block):
    # each guess's map is its bare orbit permutation, whatever the block: the
    # orbit of a register tuple's image is the permuted orbit of the tuple
    # (the test adds the slot offsets itself); building the maps leaves the
    # measured branch's placement, now through its built row, as it was
    monkeypatch.setattr(offline_simon, "_TEST_BLOCK", block)
    inst = efx_instance(2, 2, 3)
    db = build_database_cpa(inst, 2, 2)
    circuit = offline_simon._JointCircuit(db, guess_family_for(inst, 2))
    branch = np.random.default_rng(6).standard_normal(circuit.size)
    branch /= np.sqrt(circuit.tables.weights @ np.square(branch))
    space = 1 << circuit.m
    unmapped = [circuit._sample_branch(branch, g, np.random.default_rng(g))
                for g in range(space)]
    assert circuit.maps is None
    circuit._build_maps()
    assert circuit.maps.shape == (space, circuit.size)
    orbit = circuit.tables.orbit
    for g in range(space):
        assert np.array_equal(np.sort(circuit.maps[g]), np.arange(circuit.size))
        assert np.array_equal(circuit.maps[g][orbit], orbit[_dense_images(circuit, g)])
        assert circuit._sample_branch(branch, g, np.random.default_rng(g)) == unmapped[g]


@pytest.mark.parametrize("n, kappa, u, c, block", [(2, 8, 1, 3, 128), (3, 3, 2, 3, 2)])
def test_joint_circuit_stacks_whole_guesses_into_a_block(n, kappa, u, c, block):
    # many guesses over few orbits share one block: 512 guesses of 120
    # orbits are tested 128 at a time, so a test pays the per-block overhead
    # 4 times, not 512; the exact_joint shape tests two 5,984-orbit guesses
    inst = efx_instance(n, kappa, 11)
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c),
                                          guess_family_for(inst, u))
    assert circuit.block == block
    assert block * circuit.size <= offline_simon._TEST_BLOCK < 2 * block * circuit.size


@pytest.mark.parametrize("excluded", [set(), {1}, {1, 2}, {0, 1}, {0, 1, 2, 3}])
@pytest.mark.parametrize("block", [1 << 4, 1 << 9, offline_simon._TEST_BLOCK])
def test_test_step_sums_the_rows_in_guess_order(monkeypatch, block, excluded):
    # one guess per block (the 1-D index path), two blocks of two guesses and
    # one block of four: the test writes every guess's row, O_h state or, for
    # an excluded guess, state itself bit for bit, untested excluded blocks
    # included; and the one sum the search takes of them adds the rows in
    # guess order, as np.mean adds them
    monkeypatch.setattr(offline_simon, "_TEST_BLOCK", block)
    inst = efx_instance(2, 2, 3)
    db = build_database_cpa(inst, 2, 2)
    circuit = offline_simon._JointCircuit(db, guess_family_for(inst, 2))
    assert circuit.block == {1 << 4: 1, 1 << 9: 2}.get(block, 4)
    state = np.random.default_rng(5).standard_normal(circuit.size)
    rows = np.full((1 << circuit.m, circuit.size), np.nan)
    assert circuit._test(state, excluded, rows) is None
    full = _expanded(circuit, state)
    for h in range(1 << circuit.m):
        if h in excluded:
            assert np.array_equal(rows[h], state)
            continue
        assert np.allclose(_expanded(circuit, rows[h]), _dense_test(circuit, h, full),
                           rtol=0.0, atol=1e-12)
    in_order = rows[0].copy()
    for row in rows[1:]:
        in_order += row
    assert np.array_equal(np.add.reduce(rows, axis=0), in_order)
    assert np.array_equal(in_order / (1 << circuit.m), np.mean(rows, axis=0))


@pytest.mark.parametrize("block", [1 << 4, 1 << 9])
def test_test_step_writes_only_the_blocks_it_is_given(monkeypatch, block):
    # one guess a block and two: the blocks from starts get the rows a full
    # test writes, excluded guess 3 included, and every other row is left
    monkeypatch.setattr(offline_simon, "_TEST_BLOCK", block)
    inst = efx_instance(2, 2, 3)
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, 2, 2),
                                          guess_family_for(inst, 2))
    state = np.random.default_rng(7).standard_normal(circuit.size)
    full = np.empty((1 << circuit.m, circuit.size))
    circuit._test(state, {3}, full)
    rows = np.full_like(full, np.nan)
    circuit._test(state, {3}, rows, [2])
    written = set(range(2, 2 + circuit.block))
    for h in range(1 << circuit.m):
        if h in written:
            assert np.array_equal(rows[h], full[h])
        else:
            assert np.isnan(rows[h]).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_small_exact_instances()), st.integers(0, 2 ** 32 - 1), st.data())
def test_orbit_test_matches_the_dense_reference(case, seed, data):
    # every guess's row, expanded to every register state, is the dense
    # F_h^T T F_h of the expanded state; excluded rows are the state itself
    kind, n, kappa, u, c = case
    inst = build_instance(kind, n, kappa, seed)
    family = guess_family_for(inst, u)
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c), family)
    space = 1 << circuit.m
    excluded = data.draw(st.sets(st.integers(0, space - 1), max_size=space - 1))
    state = np.random.default_rng(seed).standard_normal(circuit.size)
    rows = np.full((space, circuit.size), np.nan)
    circuit._test(state, excluded, rows)
    full = _expanded(circuit, state)
    for h in range(space):
        if h in excluded:
            assert np.array_equal(rows[h], state)
        else:
            assert np.allclose(_expanded(circuit, rows[h]), _dense_test(circuit, h, full),
                               rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_small_exact_instances()), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_amplified_branches_are_symmetric(case, iterations, seed, data):
    # every branch, expanded, is unchanged by each permutation of the c
    # registers (applied to their inputs and payloads alike)
    kind, n, kappa, u, c = case
    inst = build_instance(kind, n, kappa, seed)
    family = guess_family_for(inst, u)
    excluded = data.draw(st.sets(st.integers(0, (1 << family.search_bits) - 1),
                                 max_size=(1 << family.search_bits) - 1))
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c), family)
    branches = circuit._amplify(iterations, excluded)
    # axes: guess, inputs x_{c-1}..x_0, payloads w_{c-1}..w_0
    full = _expanded(circuit, branches).reshape((-1,) + (1 << u,) * c + (1 << n,) * c)
    for perm in itertools.permutations(range(c)):
        axes = [0] + [1 + p for p in perm] + [1 + c + p for p in perm]
        assert np.array_equal(full, full.transpose(axes))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_small_exact_instances()), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_joint_circuit_keeps_the_state_normalised(case, iterations, seed, data):
    # the branches' orbit-weighted squared norms sum to 1 before the draw
    # normalises them, and each equals its expansion's squared norm
    kind, n, kappa, u, c = case
    inst = build_instance(kind, n, kappa, seed)
    family = guess_family_for(inst, u)
    excluded = data.draw(st.sets(st.integers(0, (1 << family.search_bits) - 1),
                                 max_size=(1 << family.search_bits) - 1))
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c), family)
    branches = circuit._amplify(iterations, excluded)
    norms = np.square(branches) @ circuit.tables.weights
    assert abs(np.sum(norms) - 1.0) <= 1e-12
    assert np.allclose(norms, np.square(_expanded(circuit, branches)).sum(axis=1),
                       rtol=0.0, atol=1e-12)


def _row_mean_branches(circuit, iterations, excluded):
    """The branches A - S[g] with every iteration's guess mean taken by
    np.mean over the rows the test keeps."""
    a = np.zeros(circuit.size)
    a[circuit.start] = circuit.amp
    b = np.zeros_like(a)
    rows = np.empty((1 << circuit.m, circuit.size))
    for _ in range(iterations):
        circuit._test(a, excluded, rows)
        a, b = b + 2.0 * np.mean(rows, axis=0), -a
    return a - rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_small_exact_instances()), st.integers(2, 3),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_shared_first_step_matches_a_fresh_circuit(case, iterations, seed, data):
    kind, n, kappa, u, c = case
    inst = build_instance(kind, n, kappa, seed)
    family = guess_family_for(inst, u)
    db = build_database_cpa(inst, u, c)
    space = 1 << family.search_bits
    guesses = st.sets(st.integers(0, space - 1), max_size=space - 1)
    earlier, excluded = data.draw(guesses), data.draw(guesses)
    # any block size the layout allows, one guess per block included
    block = data.draw(st.sampled_from([1 << k for k in range(family.search_bits + 1)]))
    used = offline_simon._JointCircuit(db, family)
    fresh = offline_simon._JointCircuit(db, family)
    used.block = fresh.block = block
    used.run_search(np.random.default_rng(seed + 1), iterations, earlier)
    assert used.first is not None and fresh.first is None
    assert (used.run_search(np.random.default_rng(seed), iterations, excluded)
            == fresh.run_search(np.random.default_rng(seed), iterations, excluded))
    branches = fresh._amplify(iterations, excluded)
    reference = _row_mean_branches(fresh, iterations, excluded)
    if not excluded:
        assert np.array_equal(branches, reference)
    norms = np.einsum("ij,ij->i", branches, branches)
    assert np.allclose(norms, np.einsum("ij,ij->i", reference, reference),
                       rtol=0.0, atol=1e-12)


def test_zero_iteration_search_holds_register_vectors_only():
    import tracemalloc

    # EFX n = 3, kappa = 1, u = 3 has one guess bit and no iterations: the
    # search needs neither the maps of every guess nor the tested rows, only
    # register-space vectors over the orbits and the measured branch's
    # expansion to every register state
    inst = efx_instance(3, 1, 11)
    db = build_database_cpa(inst, 3, 3)
    family = guess_family_for(inst, 3)
    assert qsim.search_iterations(family.search_bits) == 0
    offline_simon._orbit_tables(3, 3, 3)
    tracemalloc.start()
    try:
        circuit = offline_simon._JointCircuit(db, family)
        assert (1 << circuit.m) * circuit.tables.orbit.size == 1 << 19
        rng = np.random.default_rng(0)
        first, _ = circuit.run_search(rng, 0, set())
        circuit.run_search(rng, 0, {first})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circuit.maps is None
    assert peak < 64 * circuit.size + 16 * circuit.tables.orbit.size < 16 * (1 << 19)


@pytest.mark.parametrize("n, kappa, built, bound", [(8, 2, True, 18.0), (10, 1, False, 24.1)])
def test_measured_branch_memory_at_one_register(n, kappa, built, bound):
    import tracemalloc

    # c = 1 has no symmetry, so every orbit is a register state. Once the
    # maps are built the measured branch is placed through its guess's row
    # (17.1 B per register state, 25.1 B when the rows held slot offsets);
    # a search without iterations builds no maps and places it through its
    # guess's images alone (20.0 B, 24.1 B before)
    inst = efx_instance(n, kappa, 11)
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, n, 1),
                                          guess_family_for(inst, n))
    assert circuit.size == circuit.tables.orbit.size == 1 << (2 * n)
    if built:
        circuit._build_maps()
    assert (circuit.maps is None) != built
    branch = np.random.default_rng(1).standard_normal(circuit.size)
    branch /= np.sqrt(circuit.tables.weights @ np.square(branch))
    tracemalloc.start()
    try:
        samples = circuit._sample_branch(branch, (1 << circuit.m) - 1, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == 1
    assert peak < bound * circuit.size


def test_a_24_qubit_search_stays_small():
    import tracemalloc

    # EFX n = 4, kappa = 4, u = 2, c = 3: 64 guesses and 2^18 register states
    # (45,760 orbits), 6 iterations; the orbit tables are built inside the
    # traced search. Measured peak: 39.0 MB, where the dense layout needed
    # about 26 B for each of the 2^24 joint amplitudes (436 MB)
    inst = efx_instance(4, 4, 11)
    db = build_database_cpa(inst, 2, 3)
    family = guess_family_for(inst, 2)
    assert offline_simon.exact_qubits(family.search_bits, 2, 4, 3) == 24
    offline_simon._orbit_tables.cache_clear()
    tracemalloc.start()
    try:
        circuit = offline_simon._JointCircuit(db, family)
        guess, samples = circuit.run_search(np.random.default_rng(0),
                                            qsim.search_iterations(family.search_bits), set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= guess < 64 and len(samples) == 3
    assert peak < 44_000_000


def test_orbit_tables_of_one_shape_stay_in_memory():
    # EXACT searches at two shapes, as a sweep over n runs them: the cache
    # keeps the last shape's tables, and nothing keeps the first's
    shapes = [(2, 2, 2, 2), (3, 1, 2, 2)]
    first = None
    for n, kappa, u, c in shapes:
        inst = efx_instance(n, kappa, 11)
        report = offline_simon.offline_simon_attack(inst, u, c, "EXACT",
                                                    np.random.default_rng(0))
        assert report.mode == "EXACT" and report.searches >= 1
        first = first or weakref.ref(offline_simon._orbit_tables(u, n, c))
    assert offline_simon._orbit_tables.cache_info().currsize == 1
    assert first() is None
    # only the table build reads the binomials, so they are not cached apart
    assert not hasattr(offline_simon._binomials, "cache_info")


# run_search outputs (guess, samples) of two searches, the second excluding the
# first guess, for (kind, n, kappa, u, c, seed); recorded before the joint
# circuit lost its inverse map, so a change to any amplitude or draw shows here
PINNED_EXACT_DRAWS = {
    (ConstructionKind.EFX, 2, 2, 2, 2, 1): [(1, [3, 1]), (1, [1, 1])],
    (ConstructionKind.EFX, 2, 2, 2, 2, 2): [(1, [0, 2]), (0, [3, 3])],
    (ConstructionKind.EFX, 3, 1, 2, 2, 1): [(1, [3, 0]), (3, [0, 1])],
    (ConstructionKind.EFX, 3, 1, 2, 2, 2): [(0, [1, 3]), (0, [2, 3])],
    (ConstructionKind.FX, 2, 1, 1, 3, 1): [(2, [1, 0, 1]), (1, [0, 0, 0])],
    (ConstructionKind.FX, 2, 1, 1, 3, 2): [(1, [0, 0, 0]), (3, [0, 0, 0])],
    (ConstructionKind.DEFX, 2, 3, 2, 2, 1): [(4, [1, 0]), (6, [1, 2])],
    (ConstructionKind.DEFX, 2, 3, 2, 2, 2): [(2, [0, 3]), (2, [3, 3])],
    (ConstructionKind.FX, 1, 3, 0, 3, 1): [(8, [0, 0, 0]), (4, [0, 0, 0])],
    (ConstructionKind.FX, 1, 3, 0, 3, 2): [(4, [0, 0, 0]), (9, [0, 0, 0])],
}


@pytest.mark.parametrize("kind, n, kappa, u, c, seed", PINNED_EXACT_DRAWS)
def test_joint_circuit_draws_are_pinned(kind, n, kappa, u, c, seed):
    assert (kind, n, kappa, u, c) in _small_exact_instances()
    inst = build_instance(kind, n, kappa, seed)
    family = guess_family_for(inst, u)
    circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c), family)
    rng = np.random.default_rng(seed)
    iterations = qsim.search_iterations(family.search_bits)
    first = circuit.run_search(rng, iterations, set())
    second = circuit.run_search(rng, iterations, {first[0]})
    assert [first, second] == PINNED_EXACT_DRAWS[kind, n, kappa, u, c, seed]


# sha256 over run_search's (guess, samples) of two searches, the second
# excluding the first guess, for every _small_exact_instances() case at seeds
# 1 and 2; recorded while the test step was still 2*c*u Hadamard passes, so a
# change to any draw on the grid shows here even when amplitudes move by
# rounding
EXACT_GRID_DIGEST = "cb37371168de9e88d26dec6d6d889ddeb9fa5cc18cd63b5066c34e465f5d38b8"


@pytest.mark.parametrize("block", [1 << 4, 1 << 9, offline_simon._TEST_BLOCK])
def test_joint_circuit_draws_on_the_grid_are_pinned(monkeypatch, block):
    monkeypatch.setattr(offline_simon, "_TEST_BLOCK", block)
    digest = hashlib.sha256()
    for kind, n, kappa, u, c in _small_exact_instances():
        for seed in (1, 2):
            inst = build_instance(kind, n, kappa, seed)
            family = guess_family_for(inst, u)
            circuit = offline_simon._JointCircuit(build_database_cpa(inst, u, c), family)
            rng = np.random.default_rng(seed)
            iterations = qsim.search_iterations(family.search_bits)
            first = circuit.run_search(rng, iterations, set())
            second = circuit.run_search(rng, iterations, {first[0]})
            digest.update(repr((kind.value, n, kappa, u, c, seed, first, second)).encode())
    assert digest.hexdigest() == EXACT_GRID_DIGEST
