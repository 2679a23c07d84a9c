import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efxlab import ciphers
from efxlab.ciphers import (
    SPECS,
    ConstructionKind,
    KeyMaterial,
    Permutation,
    codebook_check,
    codebook_with,
    complete_key,
    decrypt_with,
    derive_related_key,
    encrypt_with,
    key_widths,
    layer_inverse_table,
    make_construction,
    make_ideal_cipher,
    make_permutation,
    pair_check,
    report_keys,
)
from efxlab.harness import build_instance
from efxlab.offline_simon import guess_family_for, transformed_payload


def identity_permutation(n):
    return Permutation(n, list(range(1 << n)))


def identity_cipher(n, kappa):
    """Ideal cipher whose every key is the identity permutation."""
    cipher = make_ideal_cipher(n, kappa, 0)
    for key in range(1 << kappa):
        cipher.cache[key] = identity_permutation(n)
    return cipher


def test_permutation_one_bit():
    for seed in range(20):
        p = make_permutation(1, seed)
        assert p.table in ([0, 1], [1, 0])


def test_permutation_deterministic():
    assert make_permutation(3, 12345).table == make_permutation(3, 12345).table


def test_permutation_inverse_and_dump():
    p = make_permutation(4, 99)
    assert sorted(p.table) == list(range(16))
    assert all(p.inverse_table[p.table[x]] == x for x in range(16))


def _assert_stdlib_shuffle(n, seed):
    p = make_permutation(n, seed)
    expected = list(range(1 << n))
    random.Random(seed).shuffle(expected)
    assert p.table == expected
    assert all(p.inverse_table[y] == x for x, y in enumerate(p.table))


@pytest.mark.parametrize("n", range(1, 13))
def test_permutation_inverse_is_built_on_first_read(n):
    p = make_permutation(n, 6007 + n)
    assert p._inverse is None  # make_permutation builds no inverse list
    inverse = p.inverse_table
    assert p.inverse_table is inverse
    assert [inverse[y] for y in p.table] == list(range(1 << n))
    assert [p.table[x] for x in inverse] == list(range(1 << n))
    # a Permutation built from a copy of the table reads the same inverse
    q = Permutation(n, list(p.table))
    assert q.n == n and q.inverse_table == inverse


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 64 - 1))
def test_permutation_is_the_stdlib_shuffle(n, seed):
    # the in-module draw must give random.shuffle's table, on which every
    # pinned report digest rests
    _assert_stdlib_shuffle(n, seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_permutation_is_the_stdlib_shuffle_at_max_bits(seed):
    _assert_stdlib_shuffle(ciphers.MAX_BITS, seed)


def test_permutation_uniformity_chi_square():
    # sweep seeds, count each of the 24 permutations of 4 elements
    sweeps = 100_000
    counts = {}
    for seed in range(sweeps):
        key = tuple(make_permutation(2, seed).table)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = sweeps / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 23 degrees of freedom; 3-sigma-ish ceiling is ~50
    assert chi2 < 50, chi2


def test_permutation_range_errors():
    with pytest.raises(ValueError):
        make_permutation(0, 1)
    with pytest.raises(ValueError):
        make_permutation(17, 1)


def test_ideal_cipher_determinism_and_roundtrip():
    e = make_ideal_cipher(4, 4, 2024)
    t1 = e.permutation(5).table
    t2 = make_ideal_cipher(4, 4, 2024).permutation(5).table
    assert t1 == t2
    for k in range(16):
        perm = e.permutation(k)
        assert all(perm.inverse_table[perm.table[x]] == x for x in range(16))


def test_ideal_cipher_distinct_keys_differ():
    differing = 0
    for seed in range(50):
        e = make_ideal_cipher(4, 4, seed)
        if e.permutation(0).table != e.permutation(1).table:
            differing += 1
    assert differing == 50


def test_ideal_cipher_range_errors():
    with pytest.raises(ValueError):
        make_ideal_cipher(0, 4, 1)
    with pytest.raises(ValueError):
        make_ideal_cipher(4, 17, 1)
    e = make_ideal_cipher(2, 2, 1)
    with pytest.raises(ValueError):
        e.permutation(4)


def _efx_instance(n, kappa, seed, k, k1, k2):
    e1 = make_ideal_cipher(n, kappa, ciphers.derive_seed(seed, "E1"))
    e2 = make_ideal_cipher(n, kappa, ciphers.derive_seed(seed, "E2"))
    return make_construction(ConstructionKind.EFX, [e1, e2],
                             KeyMaterial(k=k, k1=k1, k2=k2))


class _RelatedKeyView:
    """Cipher view whose key k acts as pi(k) of the base cipher."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.kappa = base.kappa

    def permutation(self, key):
        return self.base.permutation(derive_related_key(key))


def test_two_xor_is_an_efx_instance():
    n = kappa = 4
    e = make_ideal_cipher(n, kappa, 31337)
    for k, z in itertools.product(range(16), range(16)):
        tx = make_construction(ConstructionKind.TWO_XOR, [e], KeyMaterial(k=k, k1=z))
        efx = make_construction(ConstructionKind.EFX,
                                [e, _RelatedKeyView(e)],
                                KeyMaterial(k=k, k1=z, k2=z))
        assert all(tx._raw_encrypt(x) == efx._raw_encrypt(x) for x in range(16))


def test_efx_identity_stubs_collapse():
    e = identity_cipher(3, 3)
    inst = make_construction(ConstructionKind.EFX, [e, e],
                             KeyMaterial(k=0, k1=0b101, k2=0b011))
    assert all(inst._raw_encrypt(x) == (0b101 ^ 0b011 ^ x) for x in range(8))


def test_ecbc3_identity_stubs_collapse():
    e = identity_cipher(3, 3)
    inst = make_construction(ConstructionKind.ECBC3, [e],
                             KeyMaterial(k=0, k1=0, k2=0))
    assert all(inst._raw_encrypt(x) == x for x in range(8))


def test_em_identity_case():
    perm = identity_permutation(4)
    inst = make_construction(ConstructionKind.EM, [perm], KeyMaterial(k1=0, k2=0))
    assert all(inst._raw_encrypt(x) == x for x in range(16))


def test_defx_equals_efx_of_inner_cipher():
    n = kappa = 4
    seed = 777
    comps = [make_ideal_cipher(n, kappa, ciphers.derive_seed(seed, i))
             for i in (1, 2, 3)]
    km = KeyMaterial(k=9, k1=5, k2=12)
    defx = make_construction(ConstructionKind.DEFX, comps, km)
    efx = make_construction(ConstructionKind.EFX, comps[1:], km)
    e1 = comps[0]
    for x in range(16):
        assert defx._raw_encrypt(x) == efx._raw_encrypt(e1.permutation(km.k).table[x])


def test_efx_matches_hand_rolled_table_composition():
    n = kappa = 3
    inst = _efx_instance(n, kappa, 4242, k=5, k1=3, k2=6)
    e1, e2 = inst.components
    t1 = e1.permutation(5).table
    t2 = e2.permutation(5).table
    for x in range(8):
        assert inst._raw_encrypt(x) == t2[6 ^ t1[3 ^ x]]


def _all_kind_instances(n=4, seed=515):
    e = make_ideal_cipher(n, n, seed)
    comps3 = [make_ideal_cipher(n, n, ciphers.derive_seed(seed, i)) for i in range(3)]
    perm = make_permutation(n, seed)
    return [
        make_construction(ConstructionKind.EM, [perm], KeyMaterial(k1=3, k2=9)),
        make_construction(ConstructionKind.FX, [e], KeyMaterial(k=7, k1=3, k2=9)),
        make_construction(ConstructionKind.EFX, comps3[:2], KeyMaterial(k=7, k1=3, k2=9)),
        make_construction(ConstructionKind.TWO_XOR, [e], KeyMaterial(k=7, k1=3)),
        make_construction(ConstructionKind.DEFX, comps3, KeyMaterial(k=7, k1=3, k2=9)),
        make_construction(ConstructionKind.ECBC3, [e], KeyMaterial(k=7, k1=3, k2=9)),
    ]


def test_encrypt_decrypt_roundtrip_all_kinds():
    for inst in _all_kind_instances():
        if inst.kind == ConstructionKind.ECBC3:  # forward-only
            continue
        kind, comps, km = inst.kind, inst.components, inst.key_material
        for x in range(16):
            assert decrypt_with(kind, comps, km, inst._raw_encrypt(x)) == x
            assert inst._raw_encrypt(decrypt_with(kind, comps, km, x)) == x


def test_em_decrypt_matches_table_inversion():
    perm = make_permutation(4, 2)
    inst = make_construction(ConstructionKind.EM, [perm], KeyMaterial(k1=6, k2=13))
    inverse = [0] * 16
    for x, y in enumerate(perm.table):
        inverse[y] = x
    for y in range(16):
        assert decrypt_with(inst.kind, inst.components, inst.key_material, y) == \
            inverse[y ^ 13] ^ 6


def test_ecbc3_decrypt_errors():
    e = make_ideal_cipher(4, 4, 9)
    inst = make_construction(ConstructionKind.ECBC3, [e], KeyMaterial(k=1, k1=2, k2=3))
    with pytest.raises(ValueError):
        decrypt_with(inst.kind, inst.components, inst.key_material, 0)


def test_counters():
    inst = _all_kind_instances()[2]
    for x in range(5):
        inst.encrypt(x)
    inst._raw_encrypt(5)
    assert inst.online_forward == 5


def test_instances_deterministic_in_seed_and_material():
    a = _efx_instance(4, 4, 808, k=3, k1=1, k2=2)
    b = _efx_instance(4, 4, 808, k=3, k1=1, k2=2)
    assert all(a._raw_encrypt(x) == b._raw_encrypt(x) for x in range(16))


def test_derive_related_key():
    assert derive_related_key(0) == 1
    assert derive_related_key(255) == 254
    assert all(derive_related_key(k) != k for k in range(256))


def test_make_construction_validation():
    e = make_ideal_cipher(4, 4, 1)
    with pytest.raises(ValueError):
        make_construction(ConstructionKind.EFX, [e], KeyMaterial(k=0, k1=0, k2=0))
    with pytest.raises(ValueError):
        make_construction(ConstructionKind.FX, [e], KeyMaterial(k=99, k1=0, k2=0))


# ---------------------------------------------------------------------------
# the construction registry against hand-written reference formulas


def fwd(cipher, key, x):
    return cipher.permutation(key).table[x]


def bwd(cipher, key, y):
    return cipher.permutation(key).inverse_table[y]


def reference_encrypt(kind, comps, km, x):
    if kind == ConstructionKind.EM:
        return comps[0].table[x ^ km.k1] ^ km.k2
    if kind == ConstructionKind.FX:
        return fwd(comps[0], km.k, x ^ km.k1) ^ km.k2
    if kind == ConstructionKind.EFX:
        e1, e2 = comps
        return fwd(e2, km.k, km.k2 ^ fwd(e1, km.k, km.k1 ^ x))
    if kind == ConstructionKind.TWO_XOR:
        e = comps[0]
        kb = derive_related_key(km.k)
        return fwd(e, kb, fwd(e, km.k, x ^ km.k1) ^ km.k1)
    if kind == ConstructionKind.DEFX:
        e1, e2, e3 = comps
        return fwd(e3, km.k, km.k2 ^ fwd(e2, km.k, km.k1 ^ fwd(e1, km.k, x)))
    assert kind == ConstructionKind.ECBC3
    e = comps[0]
    kb = derive_related_key(km.k)
    v = fwd(e, km.k, x)
    v = fwd(e, km.k, km.k1 ^ v)
    v = fwd(e, km.k, km.k2 ^ v)
    return fwd(e, kb, v)


def reference_decrypt(kind, comps, km, y):
    if kind == ConstructionKind.EM:
        return comps[0].inverse_table[y ^ km.k2] ^ km.k1
    if kind == ConstructionKind.FX:
        return bwd(comps[0], km.k, y ^ km.k2) ^ km.k1
    if kind == ConstructionKind.EFX:
        e1, e2 = comps
        return km.k1 ^ bwd(e1, km.k, km.k2 ^ bwd(e2, km.k, y))
    if kind == ConstructionKind.TWO_XOR:
        e = comps[0]
        kb = derive_related_key(km.k)
        return bwd(e, km.k, bwd(e, kb, y) ^ km.k1) ^ km.k1
    assert kind == ConstructionKind.DEFX
    e1, e2, e3 = comps
    return bwd(e1, km.k, km.k1 ^ bwd(e2, km.k, km.k2 ^ bwd(e3, km.k, y)))


REFERENCE_LAYERS = {ConstructionKind.EM: 1, ConstructionKind.FX: 1, ConstructionKind.EFX: 2,
                    ConstructionKind.TWO_XOR: 2, ConstructionKind.DEFX: 3,
                    ConstructionKind.ECBC3: 4}

REFERENCE_ATTACKS = {
    ConstructionKind.EM: {"offline_simon", "grover_meets_simon", "em_q2",
                          "guess_and_em", "exhaustive"},
    ConstructionKind.FX: {"offline_simon", "grover_meets_simon", "guess_and_em", "exhaustive"},
    ConstructionKind.EFX: {"offline_simon", "grover_meets_simon", "guess_and_em", "exhaustive"},
    ConstructionKind.TWO_XOR: {"offline_simon", "grover_meets_simon", "guess_and_em",
                               "exhaustive"},
    ConstructionKind.DEFX: {"offline_simon", "exhaustive"},
    ConstructionKind.ECBC3: {"offline_simon"},
}


def _random_instances():
    for kind in REFERENCE_LAYERS:
        for n, kappa in ((3, 2), (4, 4), (5, 3)):
            for seed in range(4):
                yield build_instance(kind, n, kappa, ciphers.derive_seed("registry", n, seed))


def test_registry_covers_every_kind():
    assert set(SPECS) == set(ConstructionKind)
    for kind, spec in SPECS.items():
        assert set(spec.attacks) == REFERENCE_ATTACKS[kind], kind
        if kind in REFERENCE_LAYERS:
            assert spec.evals == REFERENCE_LAYERS[kind]


def test_declared_costs_match_the_layers():
    # evals prices every offline_evals and sim_time_units charge and
    # full_domain sets the u = n refusal; both must follow from the layers
    for kind in ConstructionKind:
        inst = build_instance(kind, 4, 4, ciphers.derive_seed("costs", kind.value))
        relabel, inner, outer = inst.layers(inst.key_material.k)
        assert SPECS[kind].evals == len(relabel) + len(inner) + len(outer), kind
        assert SPECS[kind].full_domain == bool(relabel), kind


def test_spec_encrypt_decrypt_match_reference_formulas():
    for inst in _random_instances():
        kind, comps, km = inst.kind, inst.components, inst.key_material
        assert sum(len(layer) for layer in inst.layers(km.k)) == SPECS[kind].evals
        for x in range(1 << inst.n):
            y = reference_encrypt(kind, comps, km, x)
            assert encrypt_with(kind, comps, km, x) == y
            if kind != ConstructionKind.ECBC3:
                assert decrypt_with(kind, comps, km, y) == x
                assert decrypt_with(kind, comps, km, x) == reference_decrypt(kind, comps, km, x)


def _drawn_key_material(data, kind, n, kappa):
    """Key material for kind with every field drawn, k1 = 0 among the draws."""
    fields = {}
    for name, bits in key_widths(kind, n, kappa):
        values = st.integers(0, (1 << bits) - 1)
        fields[name] = data.draw(st.just(0) | values if name == "k1" else values, name)
    return KeyMaterial(**fields)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(ConstructionKind) + ["bare EM"]), st.integers(1, 8),
       st.integers(1, 4), st.integers(0, 2 ** 32), st.data())
def test_codebook_with_and_codebook_check_follow_the_per_pair_path(kind, n, kappa, seed,
                                                                   data):
    if kind == "bare EM":
        # EM over a hand-built identity, as in test_em_q2_degenerate_constant_function
        kind, comps = ConstructionKind.EM, [Permutation(n, list(range(1 << n)))]
    else:
        comps = build_instance(kind, n, kappa, seed).components
    km = _drawn_key_material(data, kind, n, kappa)
    other = _drawn_key_material(data, kind, n, kappa)
    inst = make_construction(kind, comps, km)
    codebook = codebook_with(kind, comps, km)
    for key in (km, other):
        assert codebook_with(kind, comps, key) == \
            [encrypt_with(kind, comps, key, x) for x in range(1 << n)]
        assert codebook_check(inst, key, codebook) == pair_check(inst, key, enumerate(codebook))
    assert codebook_check(inst, km, codebook) == (True, SPECS[kind].evals << n)
    # one wrong entry: the check stops there, charging the pairs up to it
    corrupted, miss = list(codebook), data.draw(st.integers(0, (1 << n) - 1), "miss")
    corrupted[miss] ^= data.draw(st.integers(1, (1 << n) - 1), "flip")
    assert codebook_check(inst, km, corrupted) == \
        pair_check(inst, km, enumerate(corrupted)) == (False, SPECS[kind].evals * (miss + 1))


@pytest.mark.parametrize("kind", list(ConstructionKind), ids=lambda kind: kind.value)
def test_guess_family_peel_is_the_outer_inverse(kind):
    # peel scatters each key's composed outer table; ECBC3's outer layer is
    # two permutations, EM's and FX's is empty
    for n, kappa in ((1, 1), (3, 2), (5, 3)):
        inst = build_instance(kind, n, kappa, ciphers.derive_seed("peel", kind.value, n))
        family = guess_family_for(inst, n)
        expected = np.array([layer_inverse_table(inst.layers(k)[2], n)
                             for k in range(1 << inst.kappa)])
        assert family.peel.dtype == np.int32 and np.array_equal(family.peel, expected)


def test_guess_maps_at_planted_guess_make_the_database_periodic():
    for inst in _random_instances():
        kind, km = inst.kind, inst.key_material
        k, w1, _ = report_keys(kind, km)
        for u in range(inst.n + 1):
            if SPECS[kind].full_domain and u != inst.n:
                continue
            shift = inst.n - u
            payload = tuple(reference_encrypt(kind, inst.components, km, x << shift)
                            for x in range(1 << u))
            family = guess_family_for(inst, u)
            planted = (k or 0) | ((w1 & ((1 << shift) - 1)) << family.kappa_bits)
            h = transformed_payload(payload, family, np.array([planted]))[0]
            period = w1 >> shift
            assert all(h[x] == h[x ^ period] for x in range(1 << u)), (kind, u)


def test_key_completion_from_one_pair_recovers_planted_key():
    for inst in _random_instances():
        kind, comps, km = inst.kind, inst.components, inst.key_material
        k, w1, w2 = report_keys(kind, km)
        pt = 5 % (1 << inst.n)
        ct = reference_encrypt(kind, comps, km, pt)
        completed, evals = complete_key(kind, comps, k, w1, pt, ct)
        assert report_keys(kind, completed) == (k, w1, w2)
        assert evals == (0 if kind == ConstructionKind.TWO_XOR else REFERENCE_LAYERS[kind])
        assert all(reference_encrypt(kind, comps, completed, x) ==
                   reference_encrypt(kind, comps, km, x) for x in range(1 << inst.n))
