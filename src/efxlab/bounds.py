"""Closed-form security-bound evaluators for the whitened cascade construction.

Advantage bounds are evaluated in the log2 domain so display-scale parameters
(exponents in the hundreds) cannot overflow, and are clamped to [0, 1] since
they bound probabilities. Outside their validity regime (nonpositive
denominators) the vacuous bound 1 is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

# the largest power of two a float holds is 2^1023
MAX_EXPONENT = 1023


def check_sizes(n: int, kappa: int) -> None:
    """Refuse n outside [1, MAX_EXPONENT] or kappa outside [0, MAX_EXPONENT]."""
    if not 1 <= n <= MAX_EXPONENT:
        raise ValueError(f"n: {_bounded(n)} out of range [1, {MAX_EXPONENT}]")
    if not 0 <= kappa <= MAX_EXPONENT:
        raise ValueError(f"kappa: {_bounded(kappa)} out of range [0, {MAX_EXPONENT}]")


def _bounded(value: int) -> str:
    """The value itself, or its digit count once it is too long for one line."""
    text = str(value)
    digits = len(text.lstrip("-"))
    if digits <= 20:
        return text
    return f"a {'negative ' if value < 0 else ''}value of {digits} digits"


@dataclass
class BoundParams:
    """Parameters of the distinguishing game.

    n and kappa are bit sizes, D counts online construction queries, T counts
    offline cipher queries (both directions).
    """

    n: int
    kappa: int
    D: float = 0.0
    T: float = 0.0

    def validate(self) -> None:
        check_sizes(self.n, self.kappa)
        for name in ("D", "T"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.D > 2.0 ** self.n:
            raise ValueError("D cannot exceed the codebook")


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _pow2(e: float) -> float:
    # saturate rather than overflow; anything above 2^60 clamps to 1 later
    return math.inf if e > 1023 else 2.0 ** e


def efx_classical_bound(p: BoundParams) -> Tuple[float, float]:
    """The two advantage bounds (small-D form, D-independent form).

    The small-D form is 1/a + (3/2) T min(D, 2^(n/2)) / 2^(kappa+n)
    + a^2 T^2 D / (2^(2 kappa + 2) (2^n - D + 1)(2^n - a T / 2^kappa - D + 1))
    with the balancing choice 1/a = (T^2 D / 2^(2(kappa+n)))^(1/3); the
    D-independent form is (3/2) T / 2^(kappa + n/2). Both clamp to [0, 1].
    """
    p.validate()
    n, kappa, D, T = p.n, p.kappa, p.D, p.T
    bound_any_d = _clamp01(1.5 * T / _pow2(kappa + n / 2.0))
    if T == 0.0:
        return 0.0, 0.0
    if D == 0.0:
        return 0.0, bound_any_d

    log2_t = math.log2(T)
    log2_d = math.log2(D)
    # 1/a = (T^2 D / 2^(2(kappa+n)))^(1/3)
    log2_inv_alpha = (2.0 * log2_t + log2_d - 2.0 * (kappa + n)) / 3.0
    inv_alpha = _pow2(log2_inv_alpha)
    log2_alpha = -log2_inv_alpha

    term1 = inv_alpha
    term2 = 1.5 * _pow2(log2_t + min(log2_d, n / 2.0) - (kappa + n))
    denom1 = _pow2(float(n)) - D + 1.0
    alpha_t = _pow2(log2_alpha + log2_t - kappa)
    denom2 = _pow2(float(n)) - alpha_t - D + 1.0
    if denom1 <= 0.0 or denom2 <= 0.0 or not math.isfinite(denom2):
        bound_small_d = 1.0
    else:
        log2_num = 2.0 * log2_alpha + 2.0 * log2_t + log2_d - (2.0 * kappa + 2.0)
        term3 = _pow2(log2_num - math.log2(denom1) - math.log2(denom2))
        bound_small_d = _clamp01(term1 + term2 + term3)
    return bound_small_d, bound_any_d


def _best_over_splits(n: int, kappa: int, log2_prod: float) -> float:
    """Largest small-D bound over 65 splits of D*T = 2^log2_prod, D <= 2^(n/2)."""
    best = 0.0
    max_log2_d = min(n / 2.0, log2_prod)
    steps = 64
    for i in range(steps + 1):
        log2_d = max_log2_d * i / steps
        d = _pow2(log2_d)
        t = _pow2(log2_prod - log2_d)
        b, _ = efx_classical_bound(BoundParams(n=n, kappa=kappa, D=d, T=t))
        best = max(best, b)
    return best


def efx_required_resources(n: int, kappa: int,
                           target_advantage: float) -> Tuple[float, float]:
    """Smallest (D*T product, T) at which the two bounds reach the target.

    Numerically inverts efx_classical_bound: the T floor comes from the
    D-independent form, the D*T floor from maximizing the small-D form over
    splits of the product. The split search keeps D within 2^(n/2), the
    regime the small-D form is meant for; outside it the third term's
    denominators collapse and the bound turns vacuous rather than tight.
    """
    if not 0.0 < target_advantage <= 1.0:
        raise ValueError("target advantage must be in (0, 1]")

    t_floor = target_advantage * _pow2(kappa + n / 2.0) / 1.5
    lo, hi = -20.0, 4.0 * (kappa + n) + 40.0
    if _best_over_splits(n, kappa, hi) < target_advantage:
        raise ValueError("target advantage unreachable within the search range")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _best_over_splits(n, kappa, mid) >= target_advantage:
            hi = mid
        else:
            lo = mid
    dt_floor = _pow2(hi)
    return dt_floor, t_floor


def quantum_distinguish_bound(q: float, kappa: int) -> float:
    """Distinguishing advantage cap min(1, 4 q^2 / 2^kappa) for q quantum queries."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q == 0:
        return 0.0
    return _clamp01(_pow2(2.0 + 2.0 * math.log2(q) - kappa))


def extqsearch_classical_time(quantum_time: float) -> float:
    """Classical-emulation ceiling for search-built quantum algorithms: T^2.

    Any attack assembled purely from nested quantum searches admits a
    classical counterpart within this time, so a measured quantum cost whose
    square beats the classical requirement certifies a more-than-quadratic
    speedup.
    """
    if quantum_time < 1.0:
        raise ValueError("quantum time must be at least 1")
    return quantum_time * quantum_time
