"""Exact state-vector simulation of the quantum building blocks.

Registers are contiguous little-endian qubit ranges of one complex amplitude
vector; basis index bit q is qubit q. Everything here is exact simulation,
the only randomness is Born-rule sampling through an explicit seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_QUBIT_CAP = 26
SIMON_INPUT_CAP = 12
NORM_TOL = 1e-9
INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class MeasurementOutcome:
    register: str
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

    def __init__(self, registers: Sequence[Tuple[str, int]],
                 cap: int = DEFAULT_QUBIT_CAP):
        layout: Dict[str, Tuple[int, int]] = {}
        start = 0
        for name, size in registers:
            if name in layout:
                raise ValueError(f"duplicate register {name!r}")
            if size < 0:
                raise ValueError(f"register {name!r} has negative size")
            layout[name] = (start, size)
            start += size
        if start > cap:
            raise ValueError(f"{start} qubits exceed the cap of {cap}")
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


@lru_cache(maxsize=32)
def _arange(size: int) -> np.ndarray:
    return np.arange(size, dtype=np.int64)


# contributions summed per np.bincount call in _hadamard_sparse; bounds its
# temporaries independently of the state size
_ACCUMULATE_BLOCK = 1 << 16


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
    over the inputs b with that base. np.bincount adds the contributions to
    each output in input order, one real sum and one imaginary sum per
    entry, starting from zero, so the floats equal those of a loop that adds
    one scaled sign row per input into a zeroed vector.
    """
    m = 1 << size
    mask = (m - 1) << start
    reg = (idx & mask) >> start
    bases, slot = np.unique(idx & ~mask, return_inverse=True)
    scaled = vals * (INV_SQRT2 ** size)
    out = np.empty((bases.size, m), dtype=np.complex128)
    width = max(1, _ACCUMULATE_BLOCK // max(1, idx.size))
    for lo in range(0, m, width):
        ys = _arange(m)[lo:lo + width]
        odd = np.bitwise_count(reg[:, None] & ys) & 1
        pos = (slot[:, None] * ys.size + (ys - lo)).ravel()
        for part, dst in ((scaled.real, out.real), (scaled.imag, out.imag)):
            col = part[:, None]
            weights = np.where(odd, -col, col).ravel()
            dst[:, lo:lo + width] = np.bincount(
                pos, weights=weights, minlength=bases.size * ys.size
            ).reshape(bases.size, ys.size)
    return (bases[:, None] + (_arange(m) << start)).ravel(), out.ravel()


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
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    value = int(rng.choice(1 << size, p=probs))
    keep = outcomes == value
    norm = math.sqrt(float(weights[keep].sum()))
    sv._idx, sv._vals = idx[keep], vals[keep] / norm
    return MeasurementOutcome(register, value, float(probs[value])), sv


def _out_bits(f: Sequence[int], out_bits: Optional[int]) -> int:
    if out_bits is not None:
        return out_bits
    return max(1, max(int(v) for v in f).bit_length())


def simon_subroutine(f: Sequence[int], rng: np.random.Generator,
                     out_bits: Optional[int] = None) -> int:
    """One round of Simon sampling: returns y orthogonal to any period of f.

    Runs the full circuit on a fresh state: Hadamard the input register,
    query f, measure the output register, Hadamard again, measure the input
    register.
    """
    size = len(f)
    n_in = size.bit_length() - 1
    if size != (1 << n_in):
        raise ValueError("oracle table length must be a power of two")
    if n_in > SIMON_INPUT_CAP:
        raise ValueError(f"input size {n_in} over the cap of {SIMON_INPUT_CAP}")
    m = _out_bits(f, out_bits)
    sv = StateVector([("in", n_in), ("out", m)])
    hadamard(sv, "in")
    apply_xor_oracle(sv, f, "in", "out")
    measure(sv, "out", rng)
    hadamard(sv, "in")
    outcome, _ = measure(sv, "in", rng)
    return outcome.value


def verified_periods(f: Sequence[int], samples: Sequence[int]) -> Tuple[List[int], int]:
    """Nonzero members of the samples' nullspace that are periods of the table f.

    Returns them in nullspace order with the number of nonzero members
    checked. With no samples every nonzero shift is a member.
    """
    from . import gf2

    size = len(f)
    candidates = [s for s in gf2.nullspace_members(samples, size.bit_length() - 1) if s]
    periods = [s for s in candidates if all(f[x] == f[x ^ s] for x in range(size))]
    return periods, len(candidates)


def recover_period_verified(f: Sequence[int], samples: Sequence[int]):
    """Classify f from Simon samples, checking candidates against the table.

    Every sample is orthogonal to any period of f, so the true period always
    lies in the nullspace of the samples. Nonzero nullspace candidates are
    verified against the oracle table: a unique verified candidate is the
    period, none means f is injective, several (a degenerate case such as a
    constant f) come back undetermined.
    """
    from . import gf2

    result = gf2.recover_period(samples, len(f).bit_length() - 1)
    if result.status == "injective":
        return result
    verified, _ = verified_periods(f, samples)
    if len(verified) == 1:
        return gf2.PeriodResult("period", verified[0])
    if not verified:
        return gf2.INJECTIVE
    return gf2.UNDETERMINED


def simon_full(f: Sequence[int], c: int, rng: np.random.Generator,
               out_bits: Optional[int] = None, verify: bool = True):
    """c Simon samples, linear-algebra recovery, then candidate verification.

    verify=False returns the raw rank-based classification, which fails with
    probability about 2^(n-1-c) when the samples do not span; the default
    pipeline removes that residue via recover_period_verified.
    """
    from . import gf2

    n_in = len(f).bit_length() - 1
    samples = [simon_subroutine(f, rng, out_bits=out_bits) for _ in range(c)]
    if not verify:
        return gf2.recover_period(samples, n_in)
    return recover_period_verified(f, samples)


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


def amplitude_amplify(prep: Union[StateVector, np.ndarray, Sequence[complex]],
                      test: Union[Callable[[int], bool], Sequence[bool]],
                      iterations: int,
                      rng: np.random.Generator) -> MeasurementOutcome:
    """Amplitude amplification with an exact truth-table phase oracle.

    prep is the prepared state (a StateVector or raw normalized amplitudes);
    test marks the good basis states, either as a predicate or a boolean
    table. Applies iterations of (reflect about the good set, reflect about
    the prepared state) and measures the full state.
    """
    if isinstance(prep, StateVector):
        base = prep.amps.astype(np.complex128, copy=True)
    else:
        base = np.asarray(prep, dtype=np.complex128).copy()
    norm = math.sqrt(float(np.vdot(base, base).real))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("preparation state is not normalized")
    size = base.size
    if size & (size - 1):
        raise ValueError("state dimension must be a power of two")
    if size > (1 << DEFAULT_QUBIT_CAP):
        raise ValueError("state exceeds the qubit cap")
    if callable(test):
        good = np.fromiter((bool(test(i)) for i in range(size)), dtype=bool, count=size)
    else:
        good = np.asarray(test, dtype=bool)
        if good.size != size:
            raise ValueError("truth table size does not match the state")
    state = base.copy()
    for _ in range(iterations):
        state[good] = -state[good]
        overlap = np.vdot(base, state)
        state = 2.0 * overlap * base - state
    probs = np.abs(state) ** 2
    probs /= probs.sum()
    value = int(rng.choice(size, p=probs))
    return MeasurementOutcome("search", value, float(probs[value]))
