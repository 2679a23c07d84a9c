"""Exact dense state-vector simulation of the quantum building blocks.

Registers are contiguous little-endian qubit ranges of one complex amplitude
vector; basis index bit q is qubit q. Everything here is exact simulation,
the only randomness is Born-rule sampling through an explicit seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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
    """Dense complex amplitude vector over a fixed named-register layout.

    The vector carries a superset hint of its nonzero entries so gate kernels
    can take exact sparse fast paths; assigning a new array to amps resets
    the hint (element-level writes from outside this module are unsupported).
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
        self._amps = np.zeros(1 << start, dtype=np.complex128)
        self._amps[0] = 1.0
        self._nz: Optional[np.ndarray] = np.array([0], dtype=np.int64)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @amps.setter
    def amps(self, value: np.ndarray) -> None:
        self._amps = value
        self._nz = None

    def _set_amps(self, value: np.ndarray, nz: Optional[np.ndarray]) -> None:
        self._amps = value
        self._nz = nz

    def nonzero_hint(self) -> np.ndarray:
        """Indices covering every nonzero amplitude (possibly a superset)."""
        if self._nz is None:
            self._nz = np.flatnonzero(self._amps)
        return self._nz

    def register_range(self, name: str) -> Tuple[int, int]:
        try:
            return self.layout[name]
        except KeyError:
            raise ValueError(f"unknown register {name!r}") from None

    def norm_squared(self) -> float:
        nz = self.nonzero_hint()
        if nz.size <= self._amps.size // 4:
            a = self._amps[nz]
            return float((a.real ** 2 + a.imag ** 2).sum())
        return float(np.vdot(self._amps, self._amps).real)

    def check_norm(self) -> None:
        if abs(self.norm_squared() - 1.0) > NORM_TOL:
            raise AssertionError("state norm drifted beyond tolerance")


@lru_cache(maxsize=32)
def _arange(size: int) -> np.ndarray:
    return np.arange(size, dtype=np.int64)


@lru_cache(maxsize=32)
def _walsh_signs(size: int) -> np.ndarray:
    """(-1)^(x.y) sign table for one register, shape (2^size, 2^size)."""
    xs = _arange(1 << size)
    par = np.zeros((1 << size, 1 << size), dtype=np.int8)
    overlap = xs[:, None] & xs[None, :]
    for b in range(size):
        par ^= ((overlap >> b) & 1).astype(np.int8)
    return np.where(par == 0, 1, -1).astype(np.float64)


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


def _hadamard_dense(amps: np.ndarray, start: int, size: int) -> np.ndarray:
    """Walsh butterflies with the register axis moved up front (contiguous halves)."""
    low = 1 << start
    m = 1 << size
    work = np.ascontiguousarray(np.moveaxis(amps.reshape(-1, m, low), 1, 0))
    h = 1
    while h < m:
        b = work.reshape(m // (2 * h), 2, h, -1)
        hi = b[:, 0].copy()
        b[:, 0] = hi + b[:, 1]
        b[:, 1] = hi - b[:, 1]
        h *= 2
    out = np.moveaxis(work, 0, 1).reshape(amps.shape)
    return out * (INV_SQRT2 ** size)


def _hadamard_sparse(amps: np.ndarray, start: int, size: int,
                     nz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact H on a register of a state with few nonzero amplitudes."""
    m = 1 << size
    mask = m - 1
    scale = INV_SQRT2 ** size
    signs = _walsh_signs(size)
    offsets = _arange(m) << start
    out = np.zeros(amps.size, dtype=np.complex128)
    bases = np.unique(nz & ~(mask << start))
    for b in nz:
        b = int(b)
        reg = (b >> start) & mask
        base = b & ~(mask << start)
        out[base + offsets] += (amps[b] * scale) * signs[reg]
    hint = (bases[:, None] + offsets[None, :]).ravel()
    return out, hint


def hadamard(sv: StateVector, register: str) -> StateVector:
    """Apply H on every qubit of the register."""
    start, size = sv.register_range(register)
    if size == 0:
        return sv
    m = 1 << size
    nz = sv.nonzero_hint()
    if nz.size * m <= sv.amps.size and size <= 12:
        out, hint = _hadamard_sparse(sv.amps, start, size, nz)
        if hint.size > sv.amps.size // 4:
            hint = None
        sv._set_amps(out, hint)
    else:
        sv._set_amps(_hadamard_dense(sv.amps, start, size), None)
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
    nz = sv.nonzero_hint()
    if nz.size <= sv.amps.size // 4:
        # basis permutation: scatter the occupied amplitudes only
        x = (nz >> in_start) & ((1 << in_size) - 1)
        dst = nz ^ (f_arr[x] << out_start)
        out = np.zeros(sv.amps.size, dtype=np.complex128)
        out[dst] = sv.amps[nz]
        sv._set_amps(out, dst)
    else:
        idx = _arange(sv.amps.size)
        x = (idx >> in_start) & ((1 << in_size) - 1)
        src = idx ^ (f_arr[x] << out_start)
        sv._set_amps(sv.amps[src], None)
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
    table = np.asarray(perm.table, dtype=np.int64)
    nz = sv.nonzero_hint()
    if nz.size <= sv.amps.size // 4:
        z = (nz >> start) & ((1 << size) - 1)
        dst = (nz & ~(((1 << size) - 1) << start)) | (table[z] << start)
        out = np.zeros(sv.amps.size, dtype=np.complex128)
        out[dst] = sv.amps[nz]
        sv._set_amps(out, dst)
    else:
        inv = np.asarray(perm.inverse_table, dtype=np.int64)
        idx = _arange(sv.amps.size)
        z = (idx >> start) & ((1 << size) - 1)
        src = (idx & ~(((1 << size) - 1) << start)) | (inv[z] << start)
        sv._set_amps(sv.amps[src], None)
    sv.check_norm()
    return sv


def measure(sv: StateVector, register: str,
            rng: np.random.Generator) -> Tuple[MeasurementOutcome, StateVector]:
    """Born-rule measurement of one register; collapses and renormalizes."""
    start, size = sv.register_range(register)
    nz = sv.nonzero_hint()
    if nz.size == 0:
        raise ValueError("cannot measure a zero-norm state")
    vals_nz = (nz >> start) & ((1 << size) - 1)
    a = sv.amps[nz]
    weights = a.real ** 2 + a.imag ** 2
    total = weights.sum()
    if total < 1e-12:
        raise ValueError("cannot measure a zero-norm state")
    probs = np.bincount(vals_nz, weights=weights, minlength=1 << size)
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    value = int(rng.choice(1 << size, p=probs))
    keep_mask = vals_nz == value
    sv.amps[nz[~keep_mask]] = 0.0
    keep = nz[keep_mask]
    norm = math.sqrt(float(weights[keep_mask].sum()))
    sv.amps[keep] /= norm
    sv._set_amps(sv.amps, keep)
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


def recover_period_verified(f: Sequence[int], samples: Sequence[int]):
    """Classify f from Simon samples, checking candidates against the table.

    Every sample is orthogonal to any period of f, so the true period always
    lies in the nullspace of the samples. Nonzero nullspace candidates are
    verified against the oracle table: a unique verified candidate is the
    period, none means f is injective, several (a degenerate case such as a
    constant f) come back undetermined.
    """
    from . import gf2

    n_in = len(f).bit_length() - 1
    result = gf2.recover_period(samples, n_in)
    if result.status == "injective":
        return result
    size = 1 << n_in
    verified = [s for s in gf2.nullspace_members(samples, n_in)
                if s and all(f[x] == f[x ^ s] for x in range(size))]
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
