"""Exact state-vector simulation of the quantum building blocks.

Registers are contiguous little-endian qubit ranges of one complex amplitude
vector; basis index bit q is qubit q. Everything here is exact simulation,
the only randomness is Born-rule sampling through an explicit seeded
generator. Simon sampling (simon_samples) draws the circuit's two
measurements without building its state. The StateVector gates remain only
as the tests' reference for the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import gf2

DEFAULT_QUBIT_CAP = 26
SIMON_INPUT_CAP = 12
NORM_TOL = 1e-9
INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class MeasurementOutcome:
    value: int
    probability: float


class StateVector:
    """Complex amplitudes over a fixed named-register layout.

    The state is a sparse pair: an index array and the amplitudes at those
    indices. It covers every nonzero amplitude (it may list exact zeros),
    and its order is the order in which the kernels sum. Reading amps builds
    the dense 2^num_qubits vector as a read-only copy; assigning amps stores
    its nonzeros in index order.
    """

    def __init__(self, registers: Sequence[Tuple[str, int]]):
        layout: Dict[str, Tuple[int, int]] = {}
        start = 0
        for name, size in registers:
            if name in layout:
                raise ValueError(f"duplicate register {name!r}")
            if size < 0:
                raise ValueError(f"register {name!r} has negative size")
            layout[name] = (start, size)
            start += size
        if start > DEFAULT_QUBIT_CAP:
            raise ValueError(f"{start} qubits exceed the cap of {DEFAULT_QUBIT_CAP}")
        if start == 0:
            raise ValueError("state vector needs at least one qubit")
        self.num_qubits = start
        self.layout = layout
        self._dim = 1 << start
        self._idx = np.zeros(1, dtype=np.int64)
        self._vals = np.ones(1, dtype=np.complex128)

    @property
    def amps(self) -> np.ndarray:
        out = np.zeros(self._dim, dtype=np.complex128)
        out[self._idx] = self._vals
        out.flags.writeable = False
        return out

    @amps.setter
    def amps(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.complex128)
        self._idx = np.flatnonzero(value)
        self._vals = value[self._idx]

    def register_range(self, name: str) -> Tuple[int, int]:
        try:
            return self.layout[name]
        except KeyError:
            raise ValueError(f"unknown register {name!r}") from None

    def norm_squared(self) -> float:
        a = self._vals
        return float((a.real ** 2 + a.imag ** 2).sum())

    def check_norm(self) -> None:
        if abs(self.norm_squared() - 1.0) > NORM_TOL:
            raise AssertionError("state norm drifted beyond tolerance")


def hadamard_qubit(amps: np.ndarray, q: int) -> None:
    """In-place single-qubit Hadamard on a raw amplitude array.

    One butterfly (a, b) -> ((a + b), (a - b)) * INV_SQRT2 over the pairs
    that differ in bit q, with one half-size temporary.
    """
    view = amps.reshape(-1, 2, 1 << q)
    zero, one = view[:, 0, :], view[:, 1, :]
    total = zero + one
    np.subtract(zero, one, out=one)
    one *= INV_SQRT2
    np.multiply(total, INV_SQRT2, out=zero)


def _hadamard_sparse(idx: np.ndarray, vals: np.ndarray, start: int,
                     size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact H on a register of a sparse pair; returns the sparse result.

    Output index base + (y << start) collects scale * a_b * (-1)^(reg_b . y)
    over the inputs b with that base: in input order, each input adds its
    scaled sign row into its base's zeroed row. Complex += sums the real and
    imaginary parts separately, so every float is fixed by that order.
    """
    m = 1 << size
    mask = (m - 1) << start
    regs = (idx & mask) >> start
    bases, slot = np.unique(idx & ~mask, return_inverse=True)
    scaled = vals * (INV_SQRT2 ** size)
    ys = np.arange(m, dtype=np.int64)
    out = np.zeros((bases.size, m), dtype=np.complex128)
    for row, reg, a in zip(slot.tolist(), regs.tolist(), scaled.tolist()):
        out[row] += np.where(np.bitwise_count(reg & ys) & 1, -a, a)
    return (bases[:, None] + (ys << start)).ravel(), out.ravel()


def hadamard(sv: StateVector, register: str) -> StateVector:
    """Apply H on every qubit of the register."""
    start, size = sv.register_range(register)
    if size == 0:
        return sv
    sv._idx, sv._vals = _hadamard_sparse(sv._idx, sv._vals, start, size)
    sv.check_norm()
    return sv


def apply_xor_oracle(sv: StateVector, f: Sequence[int],
                     in_reg: str, out_reg: str) -> StateVector:
    """Basis map |x>|y> -> |x>|y XOR f(x)|; involutive by construction."""
    in_start, in_size = sv.register_range(in_reg)
    out_start, out_size = sv.register_range(out_reg)
    if len(f) != (1 << in_size):
        raise ValueError(f"oracle table has {len(f)} entries, register holds {1 << in_size}")
    f_arr = np.asarray(f, dtype=np.int64)
    if f_arr.size and (f_arr.min() < 0 or f_arr.max() >= (1 << out_size)):
        raise ValueError("oracle values do not fit the output register")
    x = (sv._idx >> in_start) & ((1 << in_size) - 1)
    sv._idx = sv._idx ^ (f_arr[x] << out_start)
    sv.check_norm()
    return sv


def apply_inplace_perm(sv: StateVector, perm, register: str) -> StateVector:
    """Basis relabeling |z> -> |p(z)> on one register.

    Simulated directly as an amplitude permutation; the two-step ancilla
    realization (compute p into a scratch register, then uncompute z with
    p inverse) is unitarily identical and is what a circuit would run.
    """
    start, size = sv.register_range(register)
    if perm.n != size:
        raise ValueError(f"permutation on {perm.n} bits vs register of {size}")
    mask = ((1 << size) - 1) << start
    idx = sv._idx
    table = np.asarray(perm.table, dtype=np.int64)
    z = (idx & mask) >> start
    sv._idx = (idx & ~mask) | (table[z] << start)
    sv.check_norm()
    return sv


def measure(sv: StateVector, register: str,
            rng: np.random.Generator) -> Tuple[MeasurementOutcome, StateVector]:
    """Born-rule measurement of one register; collapses and renormalizes."""
    start, size = sv.register_range(register)
    idx, vals = sv._idx, sv._vals
    if idx.size == 0:
        raise ValueError("cannot measure a zero-norm state")
    outcomes = (idx >> start) & ((1 << size) - 1)
    weights = vals.real ** 2 + vals.imag ** 2
    total = weights.sum()
    if total < 1e-12:
        raise ValueError("cannot measure a zero-norm state")
    probs = np.bincount(outcomes, weights=weights, minlength=1 << size)
    probs /= probs.sum()
    value = int(rng.choice(1 << size, p=probs))
    keep = outcomes == value
    norm = math.sqrt(float(weights[keep].sum()))
    sv._idx, sv._vals = idx[keep], vals[keep] / norm
    return MeasurementOutcome(value, float(probs[value])), sv


def walsh(a: np.ndarray) -> np.ndarray:
    """In-place integer Walsh transform along the last axis; returns a.

    Entry y becomes sum_x a[x] (-1)^(x.y), by one butterfly
    (a, b) -> (a + b, a - b) per bit. The last axis has length a power of two
    and a is C-contiguous, so each pass works on a view of a.
    """
    step = 1
    while step < a.shape[-1]:
        pairs = a.reshape(a.shape[:-1] + (-1, 2, step))
        zero, one = pairs[..., 0, :], pairs[..., 1, :]
        total = zero + one
        np.subtract(zero, one, out=one)
        zero[...] = total
        step *= 2
    return a


def simon_samples(f: Sequence[int], c: int, rng: np.random.Generator,
                  out_bits: int) -> List[int]:
    """c rounds of Simon sampling, each y orthogonal to any period of f.

    Draws what c runs of the circuit on a fresh state of out_bits output
    qubits draw (Hadamard the input register, query f, measure the output
    register, Hadamard again, measure the input register), without a state.
    Each run is two draws from the circuit's probabilities as exact integer
    weights:
      z from the counts np.bincount(f), the output measurement's 2^n p(z);
      y from the squared Walsh sums S(y) = sum over x in f^-1(z) of
        (-1)^(x.y), the input measurement's 2^n |f^-1(z)| p(y | z).
    Each draw takes one rng.random() and searches the cdf that
    Generator.choice searches, z and y alternating as the circuit draws them,
    so a draw differs from the circuit's only where a uniform lands within
    rounding of a cdf step. Every z is drawn first; each preimage shape (its
    offsets x ^ x0 from its least member x0, in ascending x order) gets one
    0/1 indicator row, and one walsh call transforms the stack. Preimages of
    one shape have sums that differ only in the sign (-1)^(x0.y), so they
    share a row. The checks and their errors are the circuit's.
    """
    size = len(f)
    n_in = size.bit_length() - 1
    if n_in < 0:
        raise ValueError("register 'in' has negative size")
    if size != (1 << n_in):
        raise ValueError("oracle table length must be a power of two")
    if n_in > SIMON_INPUT_CAP:
        raise ValueError(f"input size {n_in} over the cap of {SIMON_INPUT_CAP}")
    if out_bits < 0:
        raise ValueError("register 'out' has negative size")
    if n_in + out_bits > DEFAULT_QUBIT_CAP:
        raise ValueError(f"{n_in + out_bits} qubits exceed the cap of {DEFAULT_QUBIT_CAP}")
    if n_in + out_bits == 0:
        raise ValueError("state vector needs at least one qubit")
    f_arr = np.asarray(f, dtype=np.int64)
    if f_arr.min() < 0 or f_arr.max() >= (1 << out_bits):
        raise ValueError("oracle values do not fit the output register")
    if c <= 0:
        return []
    draws = rng.random(2 * c)
    zs = _choice_cdf(np.bincount(f_arr)).searchsorted(draws[0::2], side="right")
    rows: Dict[bytes, int] = {}
    slots = []
    for z in zs.tolist():
        preimage = np.flatnonzero(f_arr == z)
        slots.append(rows.setdefault((preimage ^ preimage[0]).tobytes(), len(rows)))
    sums = np.zeros((len(rows), size), dtype=np.int64)
    for shape, row in rows.items():
        sums[row, np.frombuffer(shape, dtype=np.int64)] = 1
    walsh(sums)
    sums *= sums
    y_cdfs = _choice_cdf(sums)
    return [int(y_cdfs[row].searchsorted(u, side="right"))
            for row, u in zip(slots, draws[1::2].tolist())]


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf that rng.choice(len(weights), p=weights / weights.sum()) searches,
    along the last axis.

    A draw is cdf.searchsorted(rng.random(), side="right"), as in
    Generator.choice.
    """
    cdf = weights / weights.sum(axis=-1, keepdims=True)
    np.cumsum(cdf, axis=-1, out=cdf)
    cdf /= cdf[..., -1:]
    return cdf


def simon_subroutine(f: Sequence[int], rng: np.random.Generator, out_bits: int) -> int:
    """One round of Simon sampling: simon_samples with c = 1."""
    return simon_samples(f, 1, rng, out_bits)[0]


def verified_periods(f: Sequence[int], samples: Sequence[int]) -> Tuple[List[int], int]:
    """Nonzero members of the samples' nullspace that are periods of the table f.

    Returns them in nullspace order with the number of nonzero members
    checked, each in one comparison of f with f[x ^ s]. With no samples every
    nonzero shift is a member.
    """
    size = len(f)
    candidates = [s for s in gf2.nullspace_members(samples, size.bit_length() - 1) if s]
    f_arr = np.asarray(f, dtype=np.int64)
    xs = np.arange(size)
    periods = [s for s in candidates if np.array_equal(f_arr[xs ^ s], f_arr)]
    return periods, len(candidates)


def recover_period_verified(f: Sequence[int], samples: Sequence[int]):
    """Classify f from Simon samples, checking candidates against the table.

    Every sample is orthogonal to any period of f, so the true period always
    lies in the nullspace of the samples. Nonzero nullspace candidates are
    verified against the oracle table: a unique verified candidate is the
    period, none means f is injective, several (a degenerate case such as a
    constant f) come back undetermined.
    """
    result = gf2.recover_period(samples, len(f).bit_length() - 1)
    if result.status == "injective":
        return result
    verified, _ = verified_periods(f, samples)
    if len(verified) == 1:
        return gf2.PeriodResult("period", verified[0])
    if not verified:
        return gf2.INJECTIVE
    return gf2.UNDETERMINED


def simon_full(f: Sequence[int], c: int, rng: np.random.Generator, out_bits: int):
    """c Simon samples, linear-algebra recovery, then candidate verification."""
    return recover_period_verified(f, simon_samples(f, c, rng, out_bits))


def grover_iterations(p: float) -> int:
    """Iteration count floor((pi/4) / arcsin(sqrt(p))) for success probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability p={p} out of (0, 1]")
    return int(math.floor((math.pi / 4.0) / math.asin(math.sqrt(p))))


def search_iterations(m: int) -> int:
    """Iterations of a search for one marked guess among 2^m (0 when m = 0)."""
    return grover_iterations(2.0 ** -m)


def amplify_success_probability(p: float, iterations: int) -> float:
    """Closed-form landing probability sin^2((2t+1) arcsin(sqrt(p)))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} out of [0, 1]")
    theta = math.asin(math.sqrt(p))
    return math.sin((2 * iterations + 1) * theta) ** 2


def amplified_distribution(prep: np.ndarray, marked: Sequence[int],
                           iterations: int) -> np.ndarray:
    """Exact landing distribution of amplitude amplification with a
    truth-table phase oracle: prep holds the normalized amplitudes of the
    prepared state, marked lists the indices of the good basis states, and
    the probability of each basis state is taken after iterations of (reflect
    about the good set, reflect about the prepared state).
    """
    size = np.size(prep)
    if size & (size - 1):
        raise ValueError("state dimension must be a power of two")
    if size > (1 << DEFAULT_QUBIT_CAP):
        raise ValueError("state exceeds the qubit cap")
    good = np.asarray(marked, dtype=np.int64)
    if good.size and (good.min() < 0 or good.max() >= size):
        raise ValueError("marked index outside the state")
    base = np.asarray(prep, dtype=np.complex128)
    norm = math.sqrt(float(np.vdot(base, base).real))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("preparation state is not normalized")
    state = base.copy()
    for _ in range(iterations):
        state[good] = -state[good]
        overlap = np.vdot(base, state)
        state = 2.0 * overlap * base - state
    probs = np.abs(state) ** 2
    return probs / probs.sum()


def amplitude_amplify(prep: np.ndarray, marked: Sequence[int], iterations: int,
                      rng: np.random.Generator) -> MeasurementOutcome:
    """One measurement of amplified_distribution(prep, marked, iterations)."""
    probs = amplified_distribution(prep, marked, iterations)
    value = int(rng.choice(probs.size, p=probs))
    return MeasurementOutcome(value, float(probs[value]))
