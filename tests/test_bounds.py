import math

import numpy as np
import pytest

from efxlab.bounds import (
    efx_classical_bound,
    efx_required_resources,
    extqsearch_classical_time,
    quantum_distinguish_bound,
)


def test_zero_offline_queries():
    assert efx_classical_bound(4, 8, D=4, T=0) == (0.0, 0.0)


def test_no_online_queries_leave_the_d_independent_form():
    # D = 0: the small-D form is 0, the other (3/2) T / 2^(kappa + n/2) = 12/64
    assert efx_classical_bound(4, 4, D=0, T=8) == (0.0, 0.1875)


def test_large_t_clamps_to_one():
    # the displayed second term alone evaluates to 1.5 here, so both bounds clamp
    b1, b2 = efx_classical_bound(4, 8, D=1, T=2 ** 12)
    assert b1 == 1.0 and b2 == 1.0


def test_regression_pinned_values():
    # frozen on first run of the evaluator at two mid-grid points
    b1, b2 = efx_classical_bound(8, 8, D=16, T=1024)
    assert abs(b1 - 0.5821498546149171) < 1e-12
    assert abs(b2 - 0.375) < 1e-12
    b1, b2 = efx_classical_bound(6, 10, D=4, T=2 ** 7)
    assert abs(b1 - 0.043962297787206554) < 1e-12
    assert abs(b2 - 0.0234375) < 1e-12


def test_monotone_in_t_and_d():
    for ld_grid, lt_grid in [(np.linspace(0, 2, 9), np.linspace(0, 18, 37))]:
        for ld in ld_grid:
            prev = -1.0
            for lt in lt_grid:
                b1, _ = efx_classical_bound(4, 8, D=2.0 ** ld, T=2.0 ** lt)
                assert b1 >= prev - 1e-12
                prev = b1
        for lt in lt_grid:
            prev = -1.0
            for ld in ld_grid:
                b1, _ = efx_classical_bound(4, 8, D=2.0 ** ld, T=2.0 ** lt)
                assert b1 >= prev - 1e-12
                prev = b1


def test_bounds_clamped_on_random_grid():
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        n = int(rng.integers(2, 14))
        kappa = int(rng.integers(1, 16))
        d = float(2.0 ** rng.uniform(0, n))
        t = float(2.0 ** rng.uniform(0, 3 * (kappa + n)))
        b1, b2 = efx_classical_bound(n, kappa, D=d, T=t)
        assert 0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0


def test_bound_validation():
    with pytest.raises(ValueError, match="^D must be finite and nonnegative$"):
        efx_classical_bound(4, 4, D=-1, T=1)
    with pytest.raises(ValueError, match="^T must be finite and nonnegative$"):
        efx_classical_bound(4, 4, D=1, T=math.nan)
    with pytest.raises(ValueError, match="^D cannot exceed the codebook$"):
        efx_classical_bound(4, 4, D=100, T=1)
    efx_classical_bound(1023, 1023, D=1, T=1)
    for n, kappa in ((0, 4), (1024, 4), (4, -1), (4, 1024)):
        with pytest.raises(ValueError, match="out of range"):
            efx_classical_bound(n, kappa, D=1, T=1)
    with pytest.raises(ValueError, match=r"^n: a value of 61 digits out of range \[1, 1023\]$"):
        efx_classical_bound(10 ** 60, 4, D=1, T=1)
    with pytest.raises(ValueError, match=r"^kappa: a negative value of 21 digits out"):
        efx_classical_bound(4, -10 ** 20, D=1, T=1)
    with pytest.raises(ValueError, match=r"^kappa: -\d{20} out"):
        efx_classical_bound(4, 1 - 10 ** 20, D=1, T=1)


def test_required_resources_headline_exponents():
    n = 4
    kappa = 2 * n
    dt_floor, t_floor = efx_required_resources(n, kappa, 1.0)
    # up-to-constants semantics: exponents within 2 of kappa+n and 5n/2
    assert abs(math.log2(dt_floor) - (kappa + n)) <= 2.5
    assert abs(math.log2(t_floor) - 2.5 * n) <= 1.0


def test_required_resources_roundtrip():
    for target in (0.1, 0.5, 1.0):
        dt_floor, t_floor = efx_required_resources(4, 8, target)
        _, b2 = efx_classical_bound(4, 8, D=1.0, T=t_floor)
        assert b2 >= target - 1e-9
        # re-plug the product at its best split within the small-D regime
        best = 0.0
        for i in range(65):
            log2_d = min(2.0, math.log2(dt_floor)) * i / 64 if dt_floor > 1 else 0.0
            d = 2.0 ** log2_d
            t = dt_floor / d
            b1, _ = efx_classical_bound(4, 8, D=d, T=t)
            best = max(best, b1)
        assert best >= target - 1e-6


def test_required_resources_small_target_limit():
    dt_floor, t_floor = efx_required_resources(4, 8, 1e-6)
    assert dt_floor < 1.0 and t_floor < 1.0
    with pytest.raises(ValueError):
        efx_required_resources(4, 8, 0.0)


def test_quantum_distinguish_bound():
    assert quantum_distinguish_bound(0, 8) == 0.0
    assert quantum_distinguish_bound(2.0 ** 3, 8) == 1.0  # clamp boundary
    assert abs(quantum_distinguish_bound(4, 8) - 0.25) < 1e-12
    # an attack at half the search bound is never ruled out
    assert quantum_distinguish_bound(0.5 * 2.0 ** 4, 8) >= 1.0
    with pytest.raises(ValueError):
        quantum_distinguish_bound(-1, 8)


def test_extqsearch_classical_time():
    assert extqsearch_classical_time(1.0) == 1.0
    a, b = 2.0 ** 5, 2.0 ** 7
    assert extqsearch_classical_time(a * b) == \
        extqsearch_classical_time(a) * extqsearch_classical_time(b)
    # the 2.5 gap certificate at kappa = 2n: squaring the quantum cost stays
    # below the classical floor
    for n in (4, 8, 16):
        quantum_cost = 2.0 ** n
        classical_floor = 2.0 ** (2.5 * n)
        assert extqsearch_classical_time(quantum_cost) < classical_floor
    with pytest.raises(ValueError):
        extqsearch_classical_time(0.5)
