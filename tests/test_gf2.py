import numpy as np

from efxlab import gf2


def span_enumeration_rank(rows, n):
    """Oracle: enumerate the whole span and count its dimension."""
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    size = len(span)
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def test_rank_identity():
    assert gf2.rank([1 << i for i in range(5)]) == 5


def test_rank_dependent_row():
    assert gf2.rank([0b011, 0b101, 0b110]) == 2


def test_rank_matches_span_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = [int(rng.integers(256)) for _ in range(20)]
        assert gf2.rank(rows) == span_enumeration_rank(rows, 8)


def test_nullspace_empty_matrix():
    basis = gf2.nullspace_basis([], 3)
    assert len(basis) == 3
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    assert span == set(range(8))


def test_nullspace_orthogonal_rows():
    # rows = every y with y . 101 = 0; the nullspace must be exactly {101}
    rows = [y for y in range(8) if gf2.dot(y, 0b101) == 0]
    basis = gf2.nullspace_basis(rows, 3)
    assert basis == [0b101]


def test_nullspace_identity_rows():
    assert gf2.nullspace_basis([1, 2, 4, 8], 4) == []


def test_nullspace_vectors_are_orthogonal_to_rows():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = [int(rng.integers(64)) for _ in range(7)]
        basis = gf2.nullspace_basis(rows, 6)
        assert gf2.rank(rows) + len(basis) == 6
        for v in basis:
            assert all(gf2.dot(row, v) == 0 for row in rows)


def test_recover_period_orthogonal_samples():
    samples = [y for y in range(8) if gf2.dot(y, 0b110) == 0]
    res = gf2.recover_period(samples, 3)
    assert res.status == "period" and res.period == 0b110


def test_recover_period_full_rank():
    res = gf2.recover_period(list(range(8)), 3)
    assert res.status == "injective"


def test_recover_period_undetermined():
    assert gf2.recover_period([0], 3).status == "undetermined"


def test_recover_period_row_order_and_span_invariance():
    rng = np.random.default_rng(13)
    samples = [y for y in range(16) if gf2.dot(y, 0b1011) == 0]
    base = gf2.recover_period(samples, 4)
    assert base.status == "period" and base.period == 0b1011
    for _ in range(10):
        shuffled = list(rng.permutation(samples))
        extra = shuffled + [shuffled[0] ^ shuffled[1], shuffled[2]]
        assert gf2.recover_period(shuffled, 4) == base
        assert gf2.recover_period(extra, 4) == base


def test_dot():
    assert gf2.dot(0b101, 0b101) == 0
    assert gf2.dot(0b101, 0b100) == 1
    assert all(gf2.dot(x, 0) == 0 for x in range(256))


def test_nullspace_members_contains_every_orthogonal_vector():
    samples = [0b0110, 0b1010]
    members = gf2.nullspace_members(samples, 4)
    expected = {v for v in range(16)
                if all(gf2.dot(s, v) == 0 for s in samples)}
    assert set(members) == expected


def test_nullspace_members_has_no_size_cap():
    assert sorted(gf2.nullspace_members([1], 10)) == list(range(0, 1024, 2))
