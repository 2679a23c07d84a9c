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
    qsim.apply_inplace_perm(sv, Permutation(3, list(range(8))), "a")
    assert np.array_equal(sv.amps, before)
    p = make_permutation(3, 17)
    p_inv = Permutation(3, p.inverse_table)
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
    sv = qsim.StateVector([("q", 1)])
    qsim.hadamard(sv, "q")
    plus = sv.amps
    for _ in range(trials):
        # measuring collapses the state, so |+> is restored before each draw
        sv.amps = plus
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


# simon_subroutine outputs for fixed seeds, as (shifts, draws): shift 0 is a
# permutation, None a constant f and any other s a function with period s.
# n <= 3 were recorded before StateVector lost its dense form; n = 8 (the
# q2_classical size) and the n = 12 cap before the sparse Hadamard became one
# in-order loop. A change to any gate's sums or to the rng draws shows here.
PINNED_SIMON_DRAWS = {
    1: (range(2), [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
    2: (range(4), [1, 3, 3, 2, 1, 2, 2, 2, 2, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 3, 0]),
    3: (range(8), [2, 7, 5, 5, 6, 4, 4, 6, 0, 2, 4, 6, 0, 5, 0, 0, 5, 5, 0, 0, 3, 3, 4, 4,
                   0, 0, 1, 0, 2, 3, 7, 2, 7, 5, 5, 0, 7, 6, 7, 1, 1, 1, 0, 3, 5, 6, 5, 6]),
    8: ((0, 1, 0x5a, 0xff), [53, 52, 237, 8, 169, 157, 32, 224, 148, 40, 244, 66,
                             183, 251, 146, 205, 32, 71, 36, 250, 86, 142, 113, 29]),
    12: ((0x9c3, None), [1243, 1564, 3759, 3982, 2512, 2242, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("n", sorted(PINNED_SIMON_DRAWS))
def test_simon_subroutine_draws_are_pinned(n):
    shifts, want = PINNED_SIMON_DRAWS[n]
    rng = np.random.default_rng(20261018 + n)
    got = []
    for s in shifts:
        if s is None:
            f = [int(rng.integers(1 << n))] * (1 << n)
        else:
            f = random_periodic(n, s, rng) if s else rng.permutation(1 << n).tolist()
        got += [qsim.simon_subroutine(f, rng, out_bits=n + ((s or 0) & 1)) for _ in range(6)]
    assert got == want


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
        qsim.simon_subroutine([0] * (1 << 13), np.random.default_rng(0), out_bits=1)


def _circuit_draw(f, rng, out_bits):
    """One run of Simon's circuit on the sparse StateVector gates."""
    sv = qsim.StateVector([("in", len(f).bit_length() - 1), ("out", out_bits)])
    qsim.hadamard(sv, "in")
    qsim.apply_xor_oracle(sv, f, "in", "out")
    qsim.measure(sv, "out", rng)
    qsim.hadamard(sv, "in")
    outcome, _ = qsim.measure(sv, "in", rng)
    return outcome.value


TABLE_SHAPES = ("permutation", "periodic", "constant", "random", "cosets")


def shaped_table(shape, n, out_bits, rng):
    """A table of 2^n values below 2^out_bits of the named shape."""
    if shape == "permutation":
        return rng.permutation(1 << n).tolist()
    if shape == "periodic":
        return random_periodic(n, int(rng.integers(1, 1 << n)), rng)
    if shape == "constant":
        return [int(rng.integers(1 << out_bits))] * (1 << n)
    if shape == "random":
        return rng.integers(1 << out_bits, size=1 << n).tolist()
    # constant on the cosets of a random subspace of dimension min(n, 2), with
    # one distinct value per coset
    span = [0]
    while len(span) < 1 << min(n, 2):
        v = int(rng.integers(1, 1 << n))
        if v not in span:
            span += [w ^ v for w in span]
    values = rng.permutation(1 << out_bits)
    return [int(values[min(x ^ w for w in span)]) for x in range(1 << n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from(TABLE_SHAPES),
       st.integers(0, 2), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
# n = 9..12, each shape at least once; the constant table at the cap is the
# widest second Hadamard (4,096 inputs into one base), and the coset tables
# draw several preimages of one 4-element shape
@example(9, "periodic", 1, 5, 9)
@example(10, "random", 2, 4, 10)
@example(11, "permutation", 0, 3, 11)
@example(12, "constant", 2, 2, 12)
@example(12, "periodic", 0, 4, 13)
@example(9, "cosets", 0, 5, 14)
@example(10, "cosets", 1, 5, 15)
@example(11, "cosets", 2, 4, 16)
@example(12, "cosets", 0, 5, 17)
def test_simon_samples_equal_the_circuit_draws(n, shape, spare_bits, c, seed):
    rng = np.random.default_rng(seed)
    out_bits = n + spare_bits
    f = shaped_table(shape, n, out_bits, rng)
    circuit_rng = np.random.default_rng(seed + 1)
    sampler_rng = np.random.default_rng(seed + 1)
    want = [_circuit_draw(f, circuit_rng, out_bits) for _ in range(c)]
    assert qsim.simon_samples(f, c, sampler_rng, out_bits) == want
    assert sampler_rng.random() == circuit_rng.random()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_walsh_is_the_sign_matrix_product_in_place(n, rows, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-1000, 1000, size=(rows, 1 << n))
    xs = np.arange(1 << n)
    signs = 1 - 2 * (np.bitwise_count(xs[:, None] & xs) & 1).astype(np.int64)
    want = a @ signs
    before = a.copy()
    assert qsim.walsh(a) is a
    assert np.array_equal(a, want)
    assert np.array_equal(qsim.walsh(a), before * (1 << n))


def _counted_walsh(monkeypatch):
    """Patch qsim.walsh to record the row count of each call."""
    walsh = qsim.walsh
    rows = []

    def counted(a):
        rows.append(a.shape[0])
        return walsh(a)

    monkeypatch.setattr(qsim, "walsh", counted)
    return rows


def test_simon_samples_builds_one_y_distribution_per_preimage_shape(monkeypatch):
    # every preimage of a 2-to-1 table of period s is {x, x ^ s}, one shape,
    # so each call transforms one row however many z it draws
    rows = _counted_walsh(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_periodic(8, int(rng.integers(1, 1 << 8)), rng)
        samples = qsim.simon_samples(f, 16, rng, out_bits=8)
        assert len(set(samples)) > 1
    assert rows == [1] * 10


def test_simon_samples_on_a_constant_table_transform_one_row(monkeypatch):
    rows = _counted_walsh(monkeypatch)
    assert qsim.simon_samples([5] * (1 << 12), 16, np.random.default_rng(0), 12) == [0] * 16
    assert rows == [1]


def _verified_periods_per_x(f, samples):
    """verified_periods as one Python comparison per x and candidate."""
    size = len(f)
    candidates = [s for s in gf2.nullspace_members(samples, size.bit_length() - 1) if s]
    periods = [s for s in candidates if all(f[x] == f[x ^ s] for x in range(size))]
    return periods, len(candidates)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.sampled_from(TABLE_SHAPES), st.integers(0, 1),
       st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
@example(10, "constant", 0, 0, 1)
@example(10, "cosets", 1, 3, 2)
def test_verified_periods_equal_the_per_x_check(n, shape, spare_bits, c, seed):
    rng = np.random.default_rng(seed)
    f = shaped_table(shape, n, n + spare_bits, rng)
    # the table's own Simon samples keep its periods in the nullspace; a few
    # random rows besides them usually drop some
    samples = qsim.simon_samples(f, c, rng, out_bits=n + spare_bits)
    for rows in (samples, samples + rng.integers(1 << n, size=2).tolist()):
        assert qsim.verified_periods(f, rows) == _verified_periods_per_x(f, rows)


# the first two were simon_subroutine's own checks before any gate ran; the
# gates raised the others
@pytest.mark.parametrize("f, out_bits, message", [
    ([0, 1, 2], 2, "power of two"),
    ([0] * (1 << 13), 1, "over the cap of 12"),
    ([0, 1, 2, 4], 2, "do not fit the output register"),
    ([0, -1], 1, "do not fit the output register"),
    ([0, 1], -1, "negative size"),
    ([0] * (1 << 12), 15, "27 qubits exceed the cap of 26"),
    ([0], 0, "at least one qubit"),
    ([], 1, "negative size"),
], ids=["length-3", "n-13", "value-4-in-2-bits", "value-negative", "out-negative",
        "27-qubits", "no-qubits", "no-table"])
def test_simon_samples_reject_what_the_circuit_rejected(f, out_bits, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        qsim.simon_samples(f, 3, rng, out_bits)
    assert rng.random() == np.random.default_rng(0).random()
    with pytest.raises(ValueError, match=message):
        qsim.simon_subroutine(f, rng, out_bits)
    if message not in ("power of two", "over the cap of 12"):
        with pytest.raises(ValueError, match=message):
            _circuit_draw(f, np.random.default_rng(0), out_bits)


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
        outcome = qsim.amplitude_amplify(prep, [2], 1, rng)
        assert outcome.value == 2
        assert abs(outcome.probability - 1.0) < 1e-12


def test_amplitude_amplify_matches_closed_form():
    m = 10
    p = 2.0 ** -m
    t = qsim.grover_iterations(p)
    prep = np.full(1 << m, (1 << m) ** -0.5, complex)
    rng = np.random.default_rng(13)
    trials = 2000
    hits = sum(qsim.amplitude_amplify(prep, [5], t, rng).value == 5
               for _ in range(trials))
    target = qsim.amplify_success_probability(p, t)
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(hits / trials - target) < 3 * sigma + 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 11), st.integers(0, 2 ** 32 - 1))
def test_amplified_distribution_follows_the_closed_form_curve(m, t, seed):
    # any normalized complex state and good set: the good set's landing mass
    # after t iterations is sin^2((2t+1) arcsin(sqrt(p))), p its prepared mass
    rng = np.random.default_rng(seed)
    prep = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    prep /= np.linalg.norm(prep)
    good = rng.random(1 << m) < rng.random()
    p = min(1.0, float(np.sum(np.abs(prep[good]) ** 2)))
    probs = qsim.amplified_distribution(prep, np.flatnonzero(good), t)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert abs(probs[good].sum() - qsim.amplify_success_probability(p, t)) < 1e-11


@pytest.mark.parametrize("prep, message", [
    (np.full(3, 3 ** -0.5, complex), "state dimension must be a power of two"),
    # 2^27 amplitudes of one broadcast value: normalized, and never allocated
    (np.broadcast_to(np.complex128(2 ** -13.5), (1 << 27,)), "state exceeds the qubit cap"),
    (np.full(4, 0.4, complex), "preparation state is not normalized"),
], ids=["length-3", "27-qubits", "unnormalized"])
def test_amplified_distribution_refuses_before_copying(prep, message):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            qsim.amplified_distribution(prep, [0], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 1 << 20


@pytest.mark.parametrize("marked", [[8], [-1], [0, 3, 9]])
def test_amplified_distribution_refuses_a_marked_index_outside_the_state(marked):
    prep = np.full(8, 8 ** -0.5, complex)
    with pytest.raises(ValueError) as refused:
        qsim.amplified_distribution(prep, marked, 1)
    assert str(refused.value) == "marked index outside the state"


def test_amplified_distribution_marks_no_state_for_no_indices():
    # no good state: each iteration reflects the prepared state about itself
    prep = np.full(8, 8 ** -0.5, complex)
    assert np.allclose(qsim.amplified_distribution(prep, [], 3), 1 / 8)


def test_amplification_refuses_a_probability_above_one():
    with pytest.raises(ValueError) as refused:
        qsim.amplify_success_probability(1.5, 1)
    assert str(refused.value) == "probability p=1.5 out of [0, 1]"


def test_simon_samples_draws_nothing_for_no_registers():
    rng = np.random.default_rng(0)
    assert qsim.simon_samples([0, 1, 0, 1], 0, rng, out_bits=1) == []
    assert rng.random() == np.random.default_rng(0).random()


def test_amplitude_amplify_all_marked():
    prep = np.full(8, 8 ** -0.5, complex)
    rng = np.random.default_rng(14)
    outcome = qsim.amplitude_amplify(prep, range(8), 0, rng)
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
    offsets = xs << start
    out = np.zeros(amps.size, dtype=np.complex128)
    bases = np.unique(nz & ~(mask << start))
    for b in nz:
        b = int(b)
        reg = (b >> start) & mask
        base = b & ~(mask << start)
        signs = np.where(np.bitwise_count(reg & xs) & 1, -1.0, 1.0)
        out[base + offsets] += (amps[b] * scale) * signs
    return out, (bases[:, None] + offsets[None, :]).ravel()


def _check_hadamard_sparse(amps, nz, start, size):
    want, want_idx = _hadamard_sparse_loop(amps, start, size, nz)
    idx, vals = qsim._hadamard_sparse(nz, amps[nz], start, size)
    assert np.array_equal(idx, want_idx)
    got = np.zeros_like(want)
    got[idx] = vals
    assert np.array_equal(got, want)


@pytest.mark.parametrize("total,start,size", [
    (4, 0, 2), (6, 2, 3), (8, 0, 5), (8, 3, 5), (10, 4, 1), (12, 0, 8), (12, 6, 6),
])
def test_hadamard_sparse_is_bit_identical_to_the_loop(total, start, size):
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
        _check_hadamard_sparse(amps, nz, start, size)


def test_hadamard_sparse_is_bit_identical_on_4096_inputs_into_one_base():
    # the second Hadamard of Simon sampling on a constant f at the n = 12 cap
    rng = np.random.default_rng(4096)
    nz = rng.permutation(1 << 12)
    amps = rng.normal(size=nz.size) + 1j * rng.normal(size=nz.size)
    amps[nz[::5]] = 0.0
    _check_hadamard_sparse(amps, nz, 0, 12)


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


def test_recover_period_verified_leaves_a_constant_table_undetermined():
    # every sample of a constant table is 0, and every nonzero candidate verifies
    f = [5] * 8
    samples = qsim.simon_samples(f, 4, np.random.default_rng(0), out_bits=3)
    assert samples == [0, 0, 0, 0]
    assert qsim.recover_period_verified(f, samples) == gf2.UNDETERMINED
