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
    for km in _key_space(kind, instance.n, instance.kappa):
        ok, spent = pair_check(instance, km, known_pairs)
        evals += spent
        if ok:
            k, k1, k2 = report_keys(kind, km)
            return ClassicalReport(
                success=True, k=k, k1=k1, k2=k2,
                online_queries=len(known_pairs), offline_evals=evals,
                time_units=evals, mem_cells=len(known_pairs), seed=seed)
    return ClassicalReport(success=False, k=None, k1=None, k2=None,
                           online_queries=len(known_pairs), offline_evals=evals,
                           time_units=evals, mem_cells=len(known_pairs), seed=seed)


def guess_and_em_attack(instance: ConstructionInstance, D: int,
                        rng: np.random.Generator, seed: int = 0) -> ClassicalReport:
    """Guess the inner key, peel the outer cipher layer, then break the
    residual single-whitened layer from D chosen plaintexts.

    With the full codebook recorded, each guess lazily evaluates
    g(x) = peel(C(x)) XOR E_guess(x) in random order until a collision
    reveals the whitening difference (birthday cost around 2^(n/2); a wrong
    guess is abandoned after a few collisions whose candidates fail). With
    less data, XOR differences of the peeled ciphertexts of neighbouring
    recorded points are matched against offline pairs spread one per
    D-aligned block, covering every candidate whitening key with about
    D + 2^(n+1)/D evaluations per guess.
    """
    check_attack(instance.kind, "guess_and_em")
    if D < 2:
        raise ValueError("need at least two chosen plaintexts")
    n = instance.n
    size = 1 << n
    if D > size:
        raise ValueError("cannot query beyond the codebook")
    pts = list(range(D))
    cts = [instance.encrypt(x) for x in pts]
    pairs = list(zip(pts, cts))
    evals = 0
    mem_peak = 0
    kind = instance.kind

    def report(km: KeyMaterial) -> ClassicalReport:
        k, k1, k2 = report_keys(kind, km)
        return ClassicalReport(success=True, k=k, k1=k1, k2=k2,
                               online_queries=D, offline_evals=evals,
                               time_units=evals + D, mem_cells=mem_peak, seed=seed)

    guesses = range(1 << instance.kappa) if instance.kappa else [None]
    for guess in guesses:
        # the attack accepts only kinds without a relabel layer
        _, inner, outer = instance.layers(guess)
        fwd = layer_table(inner, n).__getitem__
        outer_inv = layer_inverse_table(outer, n).__getitem__ if outer else None

        wvals: Dict[int, int] = {}

        def peel_cached(x: int) -> int:
            nonlocal evals
            w = wvals.get(x)
            if w is None:
                w = cts[x]
                if outer_inv is not None:
                    w = outer_inv(w)
                    evals += 1
                wvals[x] = w
            return w

        def g_value(x: int) -> int:
            nonlocal evals
            evals += 1
            return peel_cached(x) ^ fwd(x)

        def candidate(x: int, k1: int) -> Optional[ClassicalReport]:
            nonlocal evals
            evals += 1
            k2 = peel_cached(x) ^ fwd(x ^ k1)
            km = key_material(kind, guess, k1, k2)
            ok, spent = pair_check(instance, km, pairs)
            evals += spent
            return report(km) if ok else None

        if D == size:
            # full codebook: the right key collides on a whitening coset, so
            # scan in random order; wrong keys mostly stop after a couple of
            # collisions whose candidates fail, the rest falls through to the
            # deterministic difference pass below
            order = rng.permutation(D)
            seen: Dict[int, int] = {}
            failed_collisions = 0
            for xi in order:
                x = int(xi)
                v = g_value(x)
                if v in seen:
                    # a zero whitening difference makes g constant, so every
                    # pair collides; try it alongside the coset reading
                    for k1 in (seen[v] ^ x, 0):
                        hit = candidate(x, k1)
                        if hit:
                            return hit
                    failed_collisions += 1
                    if failed_collisions >= 2:
                        break
                seen[v] = x
            mem_peak = max(mem_peak, len(seen))
        # match XOR differences of the peeled ciphertexts of neighbouring
        # recorded points against one offline pair per D-aligned block;
        # w(x1) ^ w(x2) = E(x1 ^ k1) ^ E(x2 ^ k1) pins k1 and covers every
        # candidate whitening key
        for x in pts:
            peel_cached(x)
        diff_index: Dict[int, List[int]] = {}
        for x in range(0, D - 1, 2):
            diff_index.setdefault(wvals[x] ^ wvals[x ^ 1], []).append(x)
        mem_peak = max(mem_peak, len(diff_index))
        for z0 in range(0, size, max(D, 2)):
            z1 = z0 ^ 1
            evals += 2
            target = fwd(z0) ^ fwd(z1)
            for x in diff_index.get(target, []):
                for k1 in (x ^ z0, x ^ z1):
                    hit = candidate(x, k1)
                    if hit:
                        return hit
    return ClassicalReport(success=False, k=None, k1=None, k2=None,
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
    rows = []
    for log2_d in d_grid:
        t = curve_log2_time(attack, n, kappa, float(log2_d))
        rows.append((attack, float(log2_d) / n, t / n, "formula"))
    return rows
