import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efxlab import gf2, harness, qsim
from efxlab.ciphers import Permutation, make_permutation


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


def test_hadamard_single_qubit():
    sv = qsim.StateVector([("q", 1)])
    qsim.hadamard(sv, "q")
    assert np.allclose(sv.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    sv = qsim.StateVector([("a", 3), ("b", 2)])
    raw = rng.normal(size=32) + 1j * rng.normal(size=32)
    sv.amps = raw / np.linalg.norm(raw)
    before = sv.amps.copy()
    qsim.hadamard(sv, "a")
    qsim.hadamard(sv, "a")
    assert np.max(np.abs(sv.amps - before)) < 1e-9


def test_hadamard_coset_support():
    # |x0> + |x0 xor s| with x0=01, s=11 maps onto exactly {y : y.s = 0}
    sv = qsim.StateVector([("q", 2)])
    amps = np.zeros(4, complex)
    amps[0b01] = amps[0b10] = 1 / math.sqrt(2)
    sv.amps = amps
    qsim.hadamard(sv, "q")
    support = {i for i, a in enumerate(sv.amps) if abs(a) > 1e-12}
    assert support == {0b00, 0b11}


def test_hadamard_matches_brute_force_on_dense_state():
    rng = np.random.default_rng(5)
    sv = qsim.StateVector([("a", 2), ("b", 3)])
    raw = rng.normal(size=32) + 1j * rng.normal(size=32)
    sv.amps = raw / np.linalg.norm(raw)
    ref = sv.amps.copy()
    qsim.hadamard(sv, "b")
    start, size = 2, 3
    out = np.zeros_like(ref)
    for b in range(32):
        reg = (b >> start) & 7
        base = b & ~(7 << start)
        for y in range(8):
            sign = -1 if ((reg & y).bit_count() & 1) else 1
            out[base | (y << start)] += ref[b] * sign * 2 ** (-1.5)
    assert np.allclose(sv.amps, out)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hadamard_qubit_is_the_scaled_butterfly_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    for q in range(6):
        amps = rng.standard_normal(1 << 6).astype(dtype)
        if dtype is np.complex128:
            amps += 1j * rng.standard_normal(1 << 6)
        pairs = amps.reshape(-1, 2, 1 << q)
        hi, lo = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        qsim.hadamard_qubit(amps, q)
        assert amps.dtype == dtype
        assert np.array_equal(pairs[:, 0, :], (hi + lo) * qsim.INV_SQRT2)
        assert np.array_equal(pairs[:, 1, :], (hi - lo) * qsim.INV_SQRT2)


def test_xor_oracle_constant_zero_identity():
    sv = qsim.StateVector([("in", 3), ("out", 3)])
    qsim.hadamard(sv, "in")
    before = sv.amps.copy()
    qsim.apply_xor_oracle(sv, [0] * 8, "in", "out")
    assert np.array_equal(sv.amps, before)


def test_xor_oracle_involution():
    rng = np.random.default_rng(1)
    sv = qsim.StateVector([("in", 3), ("out", 3)])
    raw = rng.normal(size=64) + 1j * rng.normal(size=64)
    sv.amps = raw / np.linalg.norm(raw)
    before = sv.amps.copy()
    f = [int(rng.integers(8)) for _ in range(8)]
    qsim.apply_xor_oracle(sv, f, "in", "out")
    qsim.apply_xor_oracle(sv, f, "in", "out")
    assert np.allclose(sv.amps, before)


def test_xor_oracle_builds_query_state():
    rng = np.random.default_rng(2)
    f = [int(rng.integers(8)) for _ in range(8)]
    sv = qsim.StateVector([("in", 3), ("out", 3)])
    qsim.hadamard(sv, "in")
    qsim.apply_xor_oracle(sv, f, "in", "out")
    expected = np.zeros(64, complex)
    for x in range(8):
        expected[x | (f[x] << 3)] = 8 ** -0.5
    assert np.allclose(sv.amps, expected)


def test_xor_oracle_size_mismatch():
    sv = qsim.StateVector([("in", 2), ("out", 2)])
    with pytest.raises(ValueError):
        qsim.apply_xor_oracle(sv, [0] * 8, "in", "out")
    with pytest.raises(ValueError):
        qsim.apply_xor_oracle(sv, [9, 0, 0, 0], "in", "out")


def test_inplace_perm_identity_and_inverse():
    rng = np.random.default_rng(3)
    sv = qsim.StateVector([("a", 3)])
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    sv.amps = raw / np.linalg.norm(raw)
    before = sv.amps.copy()
    qsim.apply_inplace_perm(sv, Permutation(3, list(range(8)), list(range(8))), "a")
    assert np.array_equal(sv.amps, before)
    p = make_permutation(3, 17)
    p_inv = Permutation(3, p.inverse_table, p.table)
    qsim.apply_inplace_perm(sv, p, "a")
    qsim.apply_inplace_perm(sv, p_inv, "a")
    assert np.allclose(sv.amps, before)


def test_inplace_perm_composes_on_payload():
    rng = np.random.default_rng(4)
    g = [int(rng.integers(8)) for _ in range(8)]
    p = make_permutation(3, 23)
    sv = qsim.StateVector([("in", 3), ("out", 3)])
    qsim.hadamard(sv, "in")
    qsim.apply_xor_oracle(sv, g, "in", "out")
    qsim.apply_inplace_perm(sv, p, "out")
    expected = np.zeros(64, complex)
    for x in range(8):
        expected[x | (p.table[g[x]] << 3)] = 8 ** -0.5
    assert np.allclose(sv.amps, expected)


def test_measure_deterministic_state():
    sv = qsim.StateVector([("q", 1)])
    sv.amps = np.array([0.0, 1.0], complex)
    outcome, _ = qsim.measure(sv, "q", np.random.default_rng(0))
    assert outcome.value == 1 and outcome.probability == 1.0


def test_measure_born_frequencies():
    rng = np.random.default_rng(99)
    hits = 0
    trials = 100_000
    for _ in range(trials):
        sv = qsim.StateVector([("q", 1)])
        qsim.hadamard(sv, "q")
        outcome, _ = qsim.measure(sv, "q", rng)
        hits += outcome.value == 0
    assert abs(hits / trials - 0.5) < 0.005


def test_measure_zero_norm_error():
    sv = qsim.StateVector([("q", 2)])
    sv.amps = np.zeros(4, complex)
    with pytest.raises(ValueError):
        qsim.measure(sv, "q", np.random.default_rng(0))


def test_output_measurement_collapses_to_preimage_pair():
    rng = np.random.default_rng(6)
    n, s = 4, 0b1010
    f = random_periodic(n, s, rng)
    sv = qsim.StateVector([("in", n), ("out", n)])
    qsim.hadamard(sv, "in")
    qsim.apply_xor_oracle(sv, f, "in", "out")
    outcome, _ = qsim.measure(sv, "out", rng)
    support = {i & 15 for i, a in enumerate(sv.amps) if abs(a) > 1e-12}
    assert len(support) == 2
    x0, x1 = sorted(support)
    assert x0 ^ x1 == s
    assert all(abs(abs(sv.amps[x | (outcome.value << n)]) - 2 ** -0.5) < 1e-12
               for x in support)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
def test_simon_subroutine_orthogonality_exact(n, seed, spare_bits):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 1 << n))
    f = random_periodic(n, s, rng)
    for _ in range(20):
        y = qsim.simon_subroutine(f, rng, out_bits=n + spare_bits)
        assert gf2.dot(y, s) == 0


# simon_subroutine outputs for fixed seeds, recorded before StateVector lost
# its dense form; a change to any gate's sums or to the rng draws shows here
PINNED_SIMON_DRAWS = {
    1: [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    2: [1, 3, 3, 2, 1, 2, 2, 2, 2, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 3, 0],
    3: [2, 7, 5, 5, 6, 4, 4, 6, 0, 2, 4, 6, 0, 5, 0, 0, 5, 5, 0, 0, 3, 3, 4, 4,
        0, 0, 1, 0, 2, 3, 7, 2, 7, 5, 5, 0, 7, 6, 7, 1, 1, 1, 0, 3, 5, 6, 5, 6],
}


@pytest.mark.parametrize("n", sorted(PINNED_SIMON_DRAWS))
def test_simon_subroutine_draws_are_pinned(n):
    rng = np.random.default_rng(20261018 + n)
    got = []
    for s in range(1 << n):  # s = 0: a permutation, else a function with period s
        f = random_periodic(n, s, rng) if s else rng.permutation(1 << n).tolist()
        got += [qsim.simon_subroutine(f, rng, out_bits=n + (s & 1)) for _ in range(6)]
    assert got == PINNED_SIMON_DRAWS[n]


def test_simon_subroutine_injective_uniform():
    rng = np.random.default_rng(8)
    n = 3
    f = [int(v) for v in rng.permutation(8)]
    counts = np.zeros(8)
    trials = 8000
    for _ in range(trials):
        counts[qsim.simon_subroutine(f, rng, out_bits=n)] += 1
    expected = trials / 8
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # 7 degrees of freedom; 3-sigma-ish ceiling
    assert chi2 < 30, chi2


def test_simon_subroutine_constant_function():
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert qsim.simon_subroutine([3, 3, 3, 3], rng, out_bits=2) == 0


def test_simon_full_periodic_and_injective():
    rng = np.random.default_rng(10)
    n = 8
    hits = 0
    for _ in range(60):
        s = int(rng.integers(1, 1 << n))
        f = random_periodic(n, s, rng)
        res = qsim.simon_full(f, 12, rng, out_bits=n)
        hits += res.status == "period" and res.period == s
    assert hits == 60
    f = [int(v) for v in rng.permutation(1 << n)]
    assert qsim.simon_full(f, 12, rng, out_bits=n).status == "injective"


def test_simon_full_matches_collision_oracle_small():
    rng = np.random.default_rng(11)
    n = 2
    size = 1 << n
    import itertools
    for table in itertools.product(range(size), repeat=size):
        f = list(table)
        injective = len(set(f)) == size
        periods = [s for s in range(1, size)
                   if all(f[x] == f[x ^ s] for x in range(size))]
        clean = all(f[x] != f[y] or y == (x ^ periods[0])
                    for x in range(size) for y in range(size) if x < y) \
            if len(periods) == 1 else False
        if injective:
            assert qsim.simon_full(f, 10, rng, out_bits=n).status == "injective"
        elif len(periods) == 1 and clean:
            res = qsim.simon_full(f, 10, rng, out_bits=n)
            assert res.status == "period" and res.period == periods[0]


def test_simon_input_cap():
    with pytest.raises(ValueError):
        qsim.simon_subroutine([0] * (1 << 13), np.random.default_rng(0))


def test_grover_iterations():
    assert qsim.grover_iterations(1.0) == 0
    assert qsim.grover_iterations(0.25) == 1
    assert qsim.grover_iterations(2.0 ** -10) == 25
    with pytest.raises(ValueError):
        qsim.grover_iterations(0.0)


def test_amplitude_amplify_exact_case():
    # 4 items, one marked, one iteration: success probability exactly 1
    prep = np.full(4, 0.5, complex)
    rng = np.random.default_rng(12)
    for _ in range(20):
        outcome = qsim.amplitude_amplify(prep, lambda i: i == 2, 1, rng)
        assert outcome.value == 2
        assert abs(outcome.probability - 1.0) < 1e-12


def test_amplitude_amplify_matches_closed_form():
    m = 10
    p = 2.0 ** -m
    t = qsim.grover_iterations(p)
    prep = np.full(1 << m, (1 << m) ** -0.5, complex)
    rng = np.random.default_rng(13)
    trials = 2000
    hits = sum(qsim.amplitude_amplify(prep, lambda i: i == 5, t, rng).value == 5
               for _ in range(trials))
    target = qsim.amplify_success_probability(p, t)
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(hits / trials - target) < 3 * sigma + 1e-9


def test_amplitude_amplify_all_marked():
    prep = np.full(8, 8 ** -0.5, complex)
    rng = np.random.default_rng(14)
    outcome = qsim.amplitude_amplify(prep, lambda i: True, 0, rng)
    assert 0 <= outcome.value < 8


def test_unitarity_random_circuits():
    rng = np.random.default_rng(15)
    for rep in range(20):
        sv = qsim.StateVector([("a", 3), ("b", 3)])
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        sv.amps = raw / np.linalg.norm(raw)
        qsim.hadamard(sv, "a")
        qsim.apply_xor_oracle(sv, [int(rng.integers(8)) for _ in range(8)], "a", "b")
        qsim.apply_inplace_perm(sv, make_permutation(3, rep), "b")
        qsim.hadamard(sv, "b")
        assert abs(sv.norm_squared() - 1.0) < 1e-9


def test_state_vector_validation_and_dump():
    with pytest.raises(ValueError):
        qsim.StateVector([("a", 30)])
    with pytest.raises(ValueError):
        qsim.StateVector([("a", 2), ("a", 2)])
    sv = qsim.StateVector([("a", 1), ("b", 1)])
    with pytest.raises(ValueError):
        sv.register_range("c")


def _hadamard_sparse_loop(amps, start, size, nz):
    """The per-nonzero Hadamard loop the sparse kernel must reproduce bit for bit."""
    m = 1 << size
    mask = m - 1
    scale = qsim.INV_SQRT2 ** size
    xs = np.arange(m)
    parity = np.bitwise_count(xs[:, None] & xs[None, :]) & 1
    signs = np.where(parity == 0, 1, -1).astype(np.float64)
    offsets = xs << start
    out = np.zeros(amps.size, dtype=np.complex128)
    bases = np.unique(nz & ~(mask << start))
    for b in nz:
        b = int(b)
        reg = (b >> start) & mask
        base = b & ~(mask << start)
        out[base + offsets] += (amps[b] * scale) * signs[reg]
    return out, (bases[:, None] + offsets[None, :]).ravel()


@pytest.mark.parametrize("block", [qsim._ACCUMULATE_BLOCK, 16])
@pytest.mark.parametrize("total,start,size", [
    (4, 0, 2), (6, 2, 3), (8, 0, 5), (8, 3, 5), (10, 4, 1), (12, 0, 8), (12, 6, 6),
])
def test_hadamard_sparse_is_bit_identical_to_the_loop(monkeypatch, block, total,
                                                       start, size):
    monkeypatch.setattr(qsim, "_ACCUMULATE_BLOCK", block)
    rng = np.random.default_rng(total * 100 + start * 10 + size)
    for count in (1, 2, 7, 40):
        # a shuffled support with shared bases that may list exact zeros
        bases = rng.integers(1 << total, size=1 + count // 3) & ~(((1 << size) - 1) << start)
        nz = np.unique(rng.choice(bases, size=count)
                       | (rng.integers(1 << size, size=count) << start))
        rng.shuffle(nz)
        amps = np.zeros(1 << total, dtype=np.complex128)
        amps[nz] = rng.normal(size=nz.size) + 1j * rng.normal(size=nz.size)
        amps[nz[::5]] = 0.0
        want, want_idx = _hadamard_sparse_loop(amps, start, size, nz)
        idx, vals = qsim._hadamard_sparse(nz, amps[nz], start, size)
        assert np.array_equal(idx, want_idx)
        got = np.zeros_like(want)
        got[idx] = vals
        assert np.array_equal(got, want)


def _dense_hadamard(psi, start, size):
    m = 1 << size
    ys = np.arange(m)
    walsh = np.where(np.bitwise_count(ys[:, None] & ys[None, :]) & 1, -1.0, 1.0)
    cube = psi.reshape(-1, m, 1 << start)
    return np.einsum("hml,ym->hyl", cube, walsh * 2.0 ** (-size / 2)).ravel()


def _dense_relabel(psi, dst):
    out = np.zeros_like(psi)
    out[dst] = psi
    return out


@st.composite
def gate_sequences(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)
                 .filter(lambda s: sum(s) <= 8))
    names = [f"r{i}" for i in range(len(sizes))]
    reg = st.integers(0, len(sizes) - 1)
    gates = draw(st.lists(st.tuples(st.sampled_from(("h", "xor", "perm")), reg, reg),
                          max_size=6))
    return list(zip(names, sizes)), gates, draw(reg), draw(st.booleans()), \
        draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(gate_sequences())
# a sparse state whose Hadamard result goes dense, on the top register, where
# the dense butterflies once wrote into the read-only amps view
@example(([("r0", 2), ("r1", 3)], [("h", 1, 0), ("h", 1, 0)], 0, False, 0))
def test_gates_match_a_dense_reference(case):
    layout, gates, measured, start_dense, seed = case
    rng = np.random.default_rng(seed)
    sv = qsim.StateVector(layout)
    every = np.arange(1 << sv.num_qubits)
    psi = np.zeros(every.size, dtype=np.complex128)
    psi[0] = 1.0
    if start_dense:
        psi = rng.normal(size=every.size) + 1j * rng.normal(size=every.size)
        psi[rng.random(every.size) < 0.7] = 0.0
        psi[0] += 1.0
        psi /= np.linalg.norm(psi)
        sv.amps = psi.copy()
    bits = {name: sv.register_range(name) for name, _ in layout}

    def field(name):
        start, size = bits[name]
        return (every >> start) & ((1 << size) - 1)

    for kind, a, b in gates:
        name_a, name_b = layout[a][0], layout[b][0]
        start, size = bits[name_a]
        if kind == "h":
            qsim.hadamard(sv, name_a)
            psi = _dense_hadamard(psi, start, size)
        elif kind == "xor" and a != b:
            out_start, out_size = bits[name_b]
            f = rng.integers(1 << out_size, size=1 << size)
            qsim.apply_xor_oracle(sv, f.tolist(), name_a, name_b)
            psi = _dense_relabel(psi, every ^ (f[field(name_a)] << out_start))
        elif kind == "perm":
            perm = make_permutation(size, int(rng.integers(1 << 30)))
            qsim.apply_inplace_perm(sv, perm, name_a)
            table = np.asarray(perm.table)
            cleared = every & ~(((1 << size) - 1) << start)
            psi = _dense_relabel(psi, cleared | (table[field(name_a)] << start))
        assert np.max(np.abs(sv.amps - psi)) < 1e-12
        assert abs(sv.norm_squared() - 1.0) < 1e-12
    name = layout[measured][0]
    outcome, _ = qsim.measure(sv, name, rng)
    hit = field(name) == outcome.value
    weight = float((np.abs(psi[hit]) ** 2).sum())
    assert abs(outcome.probability - weight) < 1e-12
    psi = np.where(hit, psi, 0.0) / math.sqrt(weight)
    assert np.max(np.abs(sv.amps - psi)) < 1e-12
    assert abs(sv.norm_squared() - 1.0) < 1e-12


def test_em_q2_trial_at_the_simon_cap_stays_small():
    import tracemalloc

    n = qsim.SIMON_INPUT_CAP
    cfg = harness.parse_config(f"attack = em_q2\nconstruction = EM\nn = {n}\n"
                               f"kappa = 1\nc = {n + 4}\ntrials = 1\nseed = 2024\n")
    assert cfg.validate() == []
    tracemalloc.start()
    try:
        report = harness.run_trial(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["success"]
    # the sparse kernels peak at 1.8 MiB; one dense 2^(2n) complex state is
    # 256 MiB, and dense-state kernels peaked at 657 MiB
    assert peak < 8 << 20
