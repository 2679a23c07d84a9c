"""Classical attack baselines and reference time-data trade-off curves.

These make the quantum speedup measurable: collision-based period finding,
exhaustive key search, and the guess-then-peel attack on the extended
whitened constructions, all with exact query and evaluation counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .ciphers import (
    ConstructionInstance,
    ConstructionKind,
    KeyMaterial,
    check_attack,
    key_material,
    key_widths,
    layer_inverse_table,
    layer_table,
    pair_check,
    report_keys,
)


@dataclass
class ClassicalReport:
    """Outcome and cost counters of a classical attack run."""

    success: bool
    k: Optional[int]
    k1: Optional[int]
    k2: Optional[int]
    online_queries: int
    offline_evals: int
    time_units: int
    mem_cells: int
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "k": self.k,
            "k1": self.k1,
            "k2": self.k2,
            "D": self.online_queries,
            "T": self.offline_evals,
            "time_units": self.time_units,
            "mem_cells": self.mem_cells,
            "seed": self.seed,
        }


def classical_period_find(f: Callable[[int], int], n: int, budget: int,
                          rng: np.random.Generator) -> gf2.PeriodResult:
    """Collision-based period recovery: query random distinct points until two
    inputs share a value, then the period is their XOR.

    Returns injective when the domain is exhausted collision-free and
    exhausted when the budget runs out first.
    """
    size = 1 << n
    order = rng.permutation(size)
    seen: Dict[int, int] = {}
    for i, x in enumerate(order):
        if i >= budget:
            return gf2.EXHAUSTED
        x = int(x)
        v = f(x)
        if v in seen:
            return gf2.PeriodResult("period", seen[v] ^ x)
        seen[v] = x
    return gf2.INJECTIVE


def _key_space(kind: ConstructionKind, n: int, kappa: int):
    names, widths = zip(*key_widths(kind, n, kappa))
    for values in itertools.product(*(range(1 << bits) for bits in widths)):
        yield KeyMaterial(**dict(zip(names, values)))


def exhaustive_search(instance: ConstructionInstance,
                      known_pairs: Sequence[Tuple[int, int]],
                      seed: int = 0) -> ClassicalReport:
    """Try every key tuple, return the first consistent with all known pairs."""
    kind = instance.kind
    check_attack(kind, "exhaustive")
    if len(known_pairs) < 2:
        raise ValueError("need at least two known pairs to pin the key down")
    evals = 0
    found = None
    for km in _key_space(kind, instance.n, instance.kappa):
        ok, spent = pair_check(instance, km, known_pairs)
        evals += spent
        if ok:
            found = km
            break
    k, k1, k2 = report_keys(kind, found)
    return ClassicalReport(success=found is not None, k=k, k1=k1, k2=k2,
                           online_queries=len(known_pairs), offline_evals=evals,
                           time_units=evals, mem_cells=len(known_pairs), seed=seed)


def _try_key(instance: ConstructionInstance, guess: Optional[int], w: List[int],
             fwd: List[int], pairs: List[Tuple[int, int]], x: int,
             k1: int) -> Tuple[Optional[KeyMaterial], int]:
    """(the key with whitening k1 and k2 = w[x] ^ inner(x ^ k1), or None if it
    misses a pair; evaluations spent, one of them completing k2)."""
    km = key_material(instance.kind, guess, k1, w[x] ^ fwd[x ^ k1])
    ok, spent = pair_check(instance, km, pairs)
    return (km if ok else None), 1 + spent


def _collision_scan(instance: ConstructionInstance, guess: Optional[int],
                    w: List[int], fwd: List[int], pairs: List[Tuple[int, int]],
                    order: np.ndarray) -> Tuple[Optional[KeyMaterial], int, int, int]:
    """(key or None, evaluations, points read, cells seen) of reading g(x) =
    w[x] ^ inner(x) in order until a collision's key verifies or two fail."""
    seen: Dict[int, int] = {}
    evals = failed_collisions = 0
    for read, x in enumerate(map(int, order), 1):
        v = w[x] ^ fwd[x]
        if v in seen:
            # a zero whitening difference makes g constant, so every pair
            # collides; try it alongside the coset reading
            for k1 in (seen[v] ^ x, 0):
                km, spent = _try_key(instance, guess, w, fwd, pairs, x, k1)
                evals += spent
                if km is not None:
                    return km, evals + read, read, len(seen)
            failed_collisions += 1
            if failed_collisions == 2:
                break
        seen[v] = x
    return None, evals + read, read, len(seen)


def _difference_pass(instance: ConstructionInstance, guess: Optional[int],
                     w: List[int], fwd: List[int],
                     pairs: List[Tuple[int, int]]) -> Tuple[Optional[KeyMaterial], int, int]:
    """(key or None, evaluations, index cells) of matching w[x] ^ w[x ^ 1] =
    E(x ^ k1) ^ E(x ^ 1 ^ k1) against one pair (z0, z0 ^ 1), two evaluations,
    per block of P = the largest power of two at most len(w)."""
    index: Dict[int, List[int]] = {}
    for x in range(0, len(w) - 1, 2):
        index.setdefault(w[x] ^ w[x ^ 1], []).append(x)
    evals = 0
    for z0 in range(0, len(fwd), 1 << (len(w).bit_length() - 1)):
        evals += 2
        for x in index.get(fwd[z0] ^ fwd[z0 ^ 1], []):
            for k1 in (x ^ z0, x ^ z0 ^ 1):
                km, spent = _try_key(instance, guess, w, fwd, pairs, x, k1)
                evals += spent
                if km is not None:
                    return km, evals, len(index)
    return None, evals, len(index)


def guess_and_em_attack(instance: ConstructionInstance, D: int,
                        rng: np.random.Generator, seed: int = 0) -> ClassicalReport:
    """Guess the inner key, peel the outer cipher layer, then break the
    residual single-whitened layer from D chosen plaintexts.

    With the full codebook a collision of g(x) = peel(C(x)) XOR E_guess(x),
    scanned in random order, reveals the whitening difference (birthday cost
    around 2^(n/2)). Otherwise, or after two failed collisions, a difference
    pass covers every whitening key with about D + 2^(n+1)/P evaluations per
    guess, P the largest power of two at most D. A peel costs one evaluation,
    charged for the points the scan reads and for the rest before the pass.
    """
    check_attack(instance.kind, "guess_and_em")
    if D < 2:
        raise ValueError("need at least two chosen plaintexts")
    n = instance.n
    if D > 1 << n:
        raise ValueError("cannot query beyond the codebook")
    cts = [instance.encrypt(x) for x in range(D)]
    pairs = list(enumerate(cts))
    evals = mem_peak = 0
    found = None
    for guess in range(1 << instance.kappa) if instance.kappa else [None]:
        # the attack accepts only kinds without a relabel layer
        _, inner, outer = instance.layers(guess)
        fwd = layer_table(inner, n)
        peel = layer_inverse_table(outer, n) if outer else None
        w = [peel[ct] for ct in cts] if outer else cts
        read = 0
        if D == 1 << n:
            found, spent, read, cells = _collision_scan(
                instance, guess, w, fwd, pairs, rng.permutation(D))
            evals += spent + (read if outer else 0)
            if found is not None:
                break
            mem_peak = max(mem_peak, cells)
        evals += D - read if outer else 0
        found, spent, cells = _difference_pass(instance, guess, w, fwd, pairs)
        evals += spent
        mem_peak = max(mem_peak, cells)
        if found is not None:
            break
    k, k1, k2 = report_keys(instance.kind, found)
    return ClassicalReport(success=found is not None, k=k, k1=k1, k2=k2,
                           online_queries=D, offline_evals=evals,
                           time_units=evals + D, mem_cells=mem_peak, seed=seed)


# ---------------------------------------------------------------------------
# reference trade-off curves (log2 exponents, constants dropped)


CURVE_KINDS = ("classical-efx", "classical-fx", "quantum-q1", "quantum-q2")


def curve_log2_time(attack: str, n: int, kappa: int, log2_d: float) -> float:
    """Reference log2(T) at log2(D) for one attack family."""
    if attack == "classical-efx":
        return max(kappa + n - log2_d, kappa + n / 2.0)
    if attack == "classical-fx":
        return kappa + n - log2_d
    if attack == "quantum-q1":
        return max(log2_d, (kappa + n - log2_d) / 2.0)
    if attack == "quantum-q2":
        return kappa / 2.0
    raise ValueError(f"unknown attack curve {attack!r}")


def tradeoff_curve(attack: str, n: int, kappa: int,
                   d_grid: Sequence[float]) -> List[Tuple[str, float, float, str]]:
    """Rows (attack, log2(D)/n, log2(T)/n, "formula") at the log2(D) values of
    d_grid, for plotting and export."""
    if n < 1 or kappa < 0:
        raise ValueError(f"n={n} must be at least 1 and kappa={kappa} nonnegative")
    if not d_grid:
        raise ValueError("empty D grid")
    return [(attack, float(log2_d) / n,
             curve_log2_time(attack, n, kappa, float(log2_d)) / n, "formula")
            for log2_d in d_grid]
