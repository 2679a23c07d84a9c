"""Offline key recovery through periodicity search on a stored query database.

The attack queries the construction once up front, stores the answers as c
identical query registers (a compressed quantum database), then runs an
amplified search over the inner-key and whitening-suffix guesses. Testing a
guess transforms each register in place (undo the outer cipher layer, XOR a
guess-keyed value) and checks whether the resulting function is periodic via
the rank of Hadamard samples.

Two fidelity modes are provided:

* TENSOR keeps each register's exact post-Hadamard distribution and models
  the search analytically: the guesses whose transformed database is
  (near-)certainly rank-deficient form the passing set, the amplified
  measurement is sampled from the closed-form single-marked success curve,
  and database degradation across search repetitions is NOT modeled. This is
  the scalable idealization.
* EXACT simulates the joint state (guess register plus all c query registers)
  gate for gate, including the disturbance that imperfect tests inflict on
  the shared database within a search.

Both modes verify measured candidates against the recorded plaintext pairs
and may re-run the search a bounded number of times, excluding candidates
that failed verification; the database is rebuilt from the stored classical
answers between searches, so online queries never exceed the initial pass.

Cost accounting: sim_time_units models the quantum circuit time; database
build or rebuild costs n*2^u, each amplification iteration costs n^3 for the
reversible rank computation plus 2*c*evals cipher applications (compute and
uncompute), and the final sampling pass costs n^3 + c*evals. offline_evals
counts every cipher table application, including the classical candidate
verification (one evaluation per layer per re-encrypted pair), which happens
outside the quantum time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import gf2, qsim
from .ciphers import (
    SPECS,
    ConstructionInstance,
    KeyMaterial,
    check_attack,
    complete_key,
    encrypt_with,
    layer_inverse_table,
    layer_table,
    report_keys,
)

MAX_SEARCH_BITS = 20


# ---------------------------------------------------------------------------
# query database


@dataclass
class RegisterState:
    """One query register: payload table over all 2^u inputs, 0 at missing ones."""

    payload: Tuple[int, ...]
    missing: frozenset

    @property
    def alpha(self) -> float:
        return len(self.missing) / len(self.payload)


@dataclass
class QueryDatabase:
    """c-fold tensor database of uniform query superpositions.

    Inputs are u-bit values x embedded into n-bit plaintexts as the high
    bits, x || 0^(n-u); embed_shift = n - u. Register i represents the state
    sum_x |x>|payload_i(x)> with uniform amplitudes 2^(-u/2).
    """

    u: int
    n_out: int
    c: int
    registers: List[RegisterState]
    embed_shift: int

    def embed(self, x: int) -> int:
        return x << self.embed_shift

    @property
    def alpha(self) -> float:
        return self.registers[0].alpha

    def known_pairs(self) -> List[Tuple[int, int]]:
        """(plaintext, ciphertext) pairs actually obtained from the oracle."""
        reg = self.registers[0]
        return [(self.embed(x), reg.payload[x])
                for x in range(1 << self.u) if x not in reg.missing]


def build_database_cpa(instance: ConstructionInstance, u: int, c: int) -> QueryDatabase:
    """Chosen-plaintext database: one classical pass of 2^u queries feeds all c registers."""
    n = instance.n
    if not 0 <= u <= n:
        raise ValueError(f"u={u} out of range [0, {n}]")
    if c < 1:
        raise ValueError("need at least one register")
    shift = n - u
    payload = tuple(instance.encrypt(x << shift) for x in range(1 << u))
    reg = RegisterState(payload, frozenset())
    return QueryDatabase(u, n, c, [reg] * c, shift)


def build_database_kpa(instance: ConstructionInstance, known_inputs, c: int) -> QueryDatabase:
    """Known-plaintext database over the full domain; missing outputs become 0."""
    n = instance.n
    if c < 1:
        raise ValueError("need at least one register")
    known = set(known_inputs)
    for x in known:
        if not 0 <= x < (1 << n):
            raise ValueError(f"known input {x} out of range")
    payload = tuple(instance.encrypt(x) if x in known else 0 for x in range(1 << n))
    missing = frozenset(x for x in range(1 << n) if x not in known)
    reg = RegisterState(payload, missing)
    return QueryDatabase(n, n, c, [reg] * c, 0)


def _database_from_oracle(instance: ConstructionInstance, u: int, c: int) -> QueryDatabase:
    """Database content under superposition access (no classical counters)."""
    n = instance.n
    shift = n - u
    payload = tuple(instance._raw_encrypt(x << shift) for x in range(1 << u))
    return QueryDatabase(u, n, c, [RegisterState(payload, frozenset())] * c, shift)


def database_overlap(full: QueryDatabase, partial: QueryDatabase) -> float:
    """Inner product of the complete and the masked database states.

    Closed form from the tensor structure: per register the overlap is the
    fraction of inputs whose payloads agree, and a placeholder 0 agrees with
    the true payload exactly when that payload is itself 0.
    """
    if (full.u, full.c, full.n_out) != (partial.u, partial.c, partial.n_out):
        raise ValueError("database shapes differ")
    size = 1 << full.u
    result = 1.0
    for reg_f, reg_p in zip(full.registers, partial.registers):
        mismatches = 0
        for x in range(size):
            if x in reg_p.missing:
                if reg_f.payload[x] != 0:
                    mismatches += 1
            elif reg_f.payload[x] != reg_p.payload[x]:
                raise ValueError("known payloads disagree between databases")
        result *= 1.0 - mismatches / size
    return result


def fidelity_bound(c: int, alpha: float) -> float:
    """Success-retention factor (1 - sqrt(2*c*alpha))^2 for a missing fraction alpha."""
    if c < 0 or alpha < 0:
        raise ValueError("c and alpha must be nonnegative")
    v = 2.0 * c * alpha
    if v > 1.0:
        return 0.0
    return (1.0 - math.sqrt(v)) ** 2


# ---------------------------------------------------------------------------
# guess families: key-indexed in-place maps


@dataclass(frozen=True)
class KeyGuess:
    """y1 guesses the (n-u)-bit whitening suffix, y2 the inner cipher key."""

    y1: int
    y2: int


@dataclass
class GuessMaps:
    """In-place transforms a guess applies to one register.

    relabel_table permutes the input value (u bits), peel_table is the
    already-inverted outer layer applied to the payload, xor_table is XORed
    into the payload at the (relabeled) input. evals is the cipher-evaluation
    charge for applying the transform to one register once.
    """

    xor_table: Sequence[int]
    peel_table: Optional[Sequence[int]] = None
    relabel_table: Optional[Sequence[int]] = None
    evals: int = 1


class GuessFamily:
    """Guess-indexed register transforms for one construction instance.

    A guess integer packs y2 in the low kappa_bits and y1 above it. Subclass
    or construct directly with a maps callback to plug in new constructions
    without touching the search loop.
    """

    def __init__(self, u: int, n_out: int, kappa_bits: int, suffix_bits: int,
                 maps_fn: Callable[[KeyGuess], GuessMaps]):
        self.u = u
        self.n_out = n_out
        self.kappa_bits = kappa_bits
        self.suffix_bits = suffix_bits
        self.search_bits = kappa_bits + suffix_bits
        self._maps_fn = maps_fn
        self._cache: Dict[int, GuessMaps] = {}

    def split(self, g: int) -> KeyGuess:
        return KeyGuess(y1=g >> self.kappa_bits, y2=g & ((1 << self.kappa_bits) - 1))

    def maps(self, g: int) -> GuessMaps:
        m = self._cache.get(g)
        if m is None:
            m = self._maps_fn(self.split(g))
            self._cache[g] = m
        return m


def guess_family_for(instance: ConstructionInstance, u: int) -> GuessFamily:
    """Build the guess family of a layered construction.

    Under guess (y1, y2) the maps invert the outer layer, relabel the input
    and XOR in inner(x || y1), all with inner key y2.
    """
    spec = SPECS[instance.kind]
    if spec.layers is None:
        raise ValueError(f"no periodicity attack for kind {instance.kind}")
    n = instance.n
    if spec.full_domain and u != n:
        raise ValueError(f"{instance.kind.value} requires the full input domain (u = n)")
    shift = n - u
    inputs = [(x << shift) for x in range(1 << u)]

    def maps_fn(guess: KeyGuess) -> GuessMaps:
        relabel, inner, outer = instance.layers(guess.y2)
        table = layer_table(inner)
        return GuessMaps([table[px | guess.y1] for px in inputs],
                         peel_table=layer_inverse_table(outer),
                         relabel_table=layer_table(relabel), evals=spec.evals)

    return GuessFamily(u, n, instance.kappa, shift, maps_fn)


# ---------------------------------------------------------------------------
# per-register test statistics


@lru_cache(maxsize=None)
def _sign_matrix(u: int) -> np.ndarray:
    size = 1 << u
    xs = np.arange(size, dtype=np.int64)
    overlap = xs[:, None] & xs[None, :]
    par = np.zeros_like(overlap)
    for b in range(u):
        par ^= (overlap >> b) & 1
    return np.where(par == 0, 1, -1).astype(np.int64)


def transformed_payload(reg: RegisterState, maps: GuessMaps) -> List[int]:
    """Apply the guess maps to one register's payload table, indexed by the
    (relabeled) input."""
    size = len(reg.payload)
    h = [0] * size
    for x in range(size):
        xp = maps.relabel_table[x] if maps.relabel_table is not None else x
        w = reg.payload[x]
        if maps.peel_table is not None:
            w = maps.peel_table[w]
        h[xp] = w ^ maps.xor_table[xp]
    return h


def register_distribution(reg: RegisterState, maps: GuessMaps, u: int) -> np.ndarray:
    """Exact distribution of the post-Hadamard input measurement for one register."""
    size = 1 << u
    h = transformed_payload(reg, maps)
    sign = _sign_matrix(u)
    groups: Dict[int, List[int]] = {}
    for xp, v in enumerate(h):
        groups.setdefault(v, []).append(xp)
    probs = np.zeros(size, dtype=np.float64)
    for members in groups.values():
        chi = sign[members].sum(axis=0).astype(np.float64)
        probs += chi * chi
    probs /= probs.sum()
    return probs


@lru_cache(maxsize=None)
def _extend_basis(basis: Tuple[int, ...], y: int) -> Tuple[int, ...]:
    return tuple(gf2._reduced_rows(list(basis) + [y], 0))


def exact_pass_probability(dists: Sequence[np.ndarray], u: int) -> float:
    """Exact P(rank of the c sampled vectors < u), one distribution per register.

    Dynamic program over the span of the samples; equivalent to enumerating
    every c-tuple of outcomes weighted by its probability.
    """
    dp: Dict[Tuple[int, ...], float] = {(): 1.0}
    for dist in dists:
        new: Dict[Tuple[int, ...], float] = {}
        for basis, pr in dp.items():
            for y, py in enumerate(dist):
                if py <= 0.0:
                    continue
                b2 = _extend_basis(basis, int(y))
                new[b2] = new.get(b2, 0.0) + pr * float(py)
        dp = new
    return sum(p for basis, p in dp.items() if len(basis) < u)


def test_key_guess(db: QueryDatabase, guess, family: GuessFamily) -> Tuple[bool, float]:
    """Evaluate one key guess against the database.

    Returns (passes, pass_probability) where pass_probability is the exact
    chance that the c post-Hadamard samples have GF(2) rank below u (rank
    outcomes below u-1 count as passes too; they never reject the true key).
    passes reports the majority outcome.
    """
    if isinstance(guess, KeyGuess):
        g = guess.y2 | (guess.y1 << family.kappa_bits)
    else:
        g = int(guess)
    maps = family.maps(g)
    if len(maps.xor_table) != (1 << db.u):
        raise ValueError("guess maps do not match the database input width")
    prob = exact_pass_probability(_register_dists(db, maps), db.u)
    return prob >= 0.5, prob


def _register_dists(db: QueryDatabase, maps: GuessMaps) -> List[np.ndarray]:
    dists = []
    cache: Dict[int, np.ndarray] = {}
    for reg in db.registers:
        key = id(reg)
        if key not in cache:
            cache[key] = register_distribution(reg, maps, db.u)
        dists.append(cache[key])
    return dists


# ---------------------------------------------------------------------------
# attack report


@dataclass
class AttackReport:
    """Outcome and exact resource counters of one attack run."""

    success: bool
    k: Optional[int]
    k1: Optional[int]
    k2: Optional[int]
    online_queries: int
    offline_evals: int
    amplification_iterations: int
    sim_time_units: int
    mode: str
    seed: int
    query_model: str = "Q1"
    searches: int = 0
    ambiguous: bool = False
    passing_count: int = 0
    flags: List[str] = field(default_factory=list)
    search_time_units: int = 0
    recovery_queries: int = 0

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "k": self.k,
            "k1": self.k1,
            "k2": self.k2,
            "D": self.online_queries,
            "offline_evals": self.offline_evals,
            "iterations": self.amplification_iterations,
            "sim_time_units": self.sim_time_units,
            "mode": self.mode,
            "seed": self.seed,
            "meta": {
                "query_model": self.query_model,
                "searches": self.searches,
                "ambiguous": self.ambiguous,
                "passing_count": self.passing_count,
                "flags": list(self.flags),
                "search_time_units": self.search_time_units,
                "recovery_queries": self.recovery_queries,
            },
        }


@dataclass
class _Cost:
    offline_evals: int = 0
    sim_time: int = 0


@dataclass
class EngineOutcome:
    recovered: Optional[KeyMaterial]
    measured_guess: Optional[int]
    searches: int
    ambiguous: bool
    passing_count: int
    iterations: int
    flags: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# candidate recovery shared by both modes


def _candidate_verifier(instance: ConstructionInstance, db: QueryDatabase,
                        family: GuessFamily, cost: _Cost):
    """Closure mapping (guess, Simon samples) to verified key material or None.

    Enumerates every period candidate consistent with the samples (the whole
    nullspace, so the true whitening prefix is always among them, including
    the constant-function case 0), completes the remaining key by peeling one
    recorded pair, and re-encrypts every recorded pair offline to verify.
    """
    kind = instance.kind
    comps = instance.components
    kd = instance.key_derivation
    pairs = db.known_pairs()
    layers = SPECS[kind].evals

    def verify(km: KeyMaterial) -> bool:
        for pt, ct in pairs:
            cost.offline_evals += layers
            if encrypt_with(kind, comps, km, kd, pt) != ct:
                return False
        return True

    def try_candidates(g: int, samples: Sequence[int]) -> Optional[KeyMaterial]:
        if not pairs:
            return None
        guess = family.split(g)
        pt0, ct0 = pairs[0]
        members = gf2.nullspace_members(samples, db.u)
        # rank-deficient nonzero samples point at a nonzero period, so try
        # those first; the zero prefix (a constant test function) comes last
        for prefix in [m for m in members if m] + ([0] if 0 in members else []):
            k1 = (prefix << db.embed_shift) | guess.y1
            km, evals = complete_key(kind, comps, kd, guess.y2, k1, pt0, ct0)
            cost.offline_evals += evals
            if verify(km):
                return km
        return None

    return try_candidates


# ---------------------------------------------------------------------------
# per-mode draw step: (measured guess, Simon samples) for one search


def _tensor_draw(db: QueryDatabase, family: GuessFamily, rng: np.random.Generator,
                 iterations: int, cap: int, passing: List[int],
                 dists: List[List[np.ndarray]]):
    """Land on an active passing guess with the closed-form success curve,
    otherwise on a uniform other active guess; sample its registers exactly."""
    m = family.search_bits
    space = 1 << m
    passing_set = set(passing)
    curve = 1.0 if m == 0 else qsim.amplify_success_probability(2.0 ** (-m), iterations)

    def draw(excluded: Set[int]) -> Tuple[int, List[int]]:
        active_pass = [g for g in passing if g not in excluded]
        active_other = [g for g in range(space)
                        if g not in passing_set and g not in excluded]
        if active_pass and (not active_other or rng.random() < curve):
            g = int(active_pass[rng.integers(len(active_pass))])
        else:
            g = int(active_other[rng.integers(len(active_other))])
        return g, [int(rng.choice(1 << db.u, p=d)) for d in dists[g]]

    return draw


def _exact_draw(db: QueryDatabase, family: GuessFamily, rng: np.random.Generator,
                iterations: int, cap: int, passing: List[int],
                dists: List[List[np.ndarray]]):
    """Simulate the joint state gate for gate and measure it."""
    if family.search_bits == 0:
        # no search register: the c registers stay unentangled, simulate each alone
        return lambda excluded: (0, _independent_register_samples(db, family, rng, cap))
    circuit = _JointCircuit(db, family, cap=cap)
    return lambda excluded: circuit.run_search(rng, iterations, excluded)


_DRAWS = {"TENSOR": _tensor_draw, "EXACT": _exact_draw}


# ---------------------------------------------------------------------------
# EXACT-mode search: joint state simulation


class _JointCircuit:
    """Joint state of the guess register and the c query registers.

    Layout (low bits first): guess register (search_bits), then per register
    i its input value (u bits) followed by its payload (n_out bits).
    """

    def __init__(self, db: QueryDatabase, family: GuessFamily,
                 cap: int = qsim.DEFAULT_QUBIT_CAP):
        self.db = db
        self.family = family
        self.m = family.search_bits
        self.reg_bits = db.u + db.n_out
        total = self.m + db.c * self.reg_bits
        if total > cap:
            raise ValueError(f"joint state needs {total} qubits, cap is {cap}")
        self.total = total
        space = 1 << self.m
        u_size = 1 << db.u
        w_size = 1 << db.n_out
        rel = np.empty((space, u_size), dtype=np.int64)
        peel = np.empty((space, w_size), dtype=np.int64)
        xor = np.empty((space, u_size), dtype=np.int64)
        for g in range(space):
            maps = family.maps(g)
            rel[g] = maps.relabel_table if maps.relabel_table is not None else np.arange(u_size)
            peel[g] = maps.peel_table if maps.peel_table is not None else np.arange(w_size)
            xor[g] = maps.xor_table
        idx = np.arange(1 << total, dtype=np.int64)
        g_part = idx & (space - 1)
        fwd = g_part.copy()
        ykey = np.zeros_like(idx)
        for i in range(db.c):
            off = self.m + i * self.reg_bits
            x = (idx >> off) & (u_size - 1)
            w = (idx >> (off + db.u)) & (w_size - 1)
            x2 = rel[g_part, x]
            w2 = peel[g_part, w] ^ xor[g_part, x2]
            fwd |= x2 << off
            fwd |= w2 << (off + db.u)
            ykey |= x << (i * db.u)
        self.fwd = fwd
        self.bwd = np.empty_like(fwd)
        self.bwd[fwd] = idx
        self.g_part = g_part
        rank_lt = _rank_deficient_table(db.u, db.c)
        self.rank_flag = rank_lt[ykey]
        self.in_qubits = [self.m + i * self.reg_bits + j
                          for i in range(db.c) for j in range(db.u)]
        # initial state: uniform guesses tensor the database registers
        guess_vec = np.full(space, space ** -0.5, dtype=np.complex128)
        joint = guess_vec
        for reg in db.registers:
            vec = np.zeros(1 << self.reg_bits, dtype=np.complex128)
            amp = (1 << db.u) ** -0.5
            for x in range(u_size):
                vec[x | (reg.payload[x] << db.u)] = amp
            joint = np.kron(vec, joint)
        self.initial = joint

    def run_search(self, rng: np.random.Generator, iterations: int,
                   excluded: Set[int]) -> Tuple[int, List[int]]:
        """One full amplified search; returns the measured guess and samples."""
        space = 1 << self.m
        excl = np.zeros(space, dtype=bool)
        for g in excluded:
            excl[g] = True
        good = self.rank_flag & ~excl[self.g_part]
        amps = self.initial.copy()
        for _ in range(iterations):
            amps = amps[self.bwd]
            for q in self.in_qubits:
                qsim.hadamard_qubit(amps, q)
            amps[good] = -amps[good]
            for q in self.in_qubits:
                qsim.hadamard_qubit(amps, q)
            amps = amps[self.fwd]
            # reflect about the uniform guess superposition, identity elsewhere
            mat = amps.reshape(-1, space)
            mean = mat.mean(axis=1, keepdims=True)
            mat[:] = 2.0 * mean - mat
        probs = (np.abs(amps) ** 2).reshape(-1, space).sum(axis=0)
        probs = np.maximum(probs, 0.0)
        probs /= probs.sum()
        g = int(rng.choice(space, p=probs))
        branch = amps.reshape(-1, space)[:, g].copy()
        branch /= math.sqrt(float(np.vdot(branch, branch).real))
        samples = self._sample_branch(branch, g, rng)
        return g, samples

    def _sample_branch(self, branch: np.ndarray, g: int,
                       rng: np.random.Generator) -> List[int]:
        db = self.db
        u_size = 1 << db.u
        w_size = 1 << db.n_out
        maps = self.family.maps(g)
        rel = np.asarray(maps.relabel_table if maps.relabel_table is not None
                         else range(u_size), dtype=np.int64)
        peel = np.asarray(maps.peel_table if maps.peel_table is not None
                          else range(w_size), dtype=np.int64)
        xor = np.asarray(maps.xor_table, dtype=np.int64)
        idx = np.arange(branch.size, dtype=np.int64)
        fwd = np.zeros_like(idx)
        for i in range(db.c):
            off = i * self.reg_bits
            x = (idx >> off) & (u_size - 1)
            w = (idx >> (off + db.u)) & (w_size - 1)
            x2 = rel[x]
            w2 = peel[w] ^ xor[x2]
            fwd |= x2 << off
            fwd |= w2 << (off + db.u)
        bwd = np.empty_like(fwd)
        bwd[fwd] = idx
        state = branch[bwd]
        for i in range(db.c):
            for j in range(db.u):
                qsim.hadamard_qubit(state, i * self.reg_bits + j)
        samples = []
        for i in range(db.c):
            off = i * self.reg_bits
            values = (idx >> off) & (u_size - 1)
            weights = np.abs(state) ** 2
            probs = np.bincount(values, weights=weights, minlength=u_size)
            probs = np.maximum(probs, 0.0)
            probs /= probs.sum()
            y = int(rng.choice(u_size, p=probs))
            state = np.where(values == y, state, 0.0)
            norm = math.sqrt(float(np.vdot(state, state).real))
            state /= norm
            samples.append(y)
        return samples


@lru_cache(maxsize=None)
def _rank_deficient_table(u: int, c: int) -> np.ndarray:
    """Boolean table over packed c*u-bit sample tuples: rank < u."""
    total = 1 << (u * c)
    out = np.zeros(total, dtype=bool)
    mask = (1 << u) - 1
    for key in range(total):
        rows = [(key >> (i * u)) & mask for i in range(c)]
        out[key] = len(gf2._reduced_rows(rows, u)) < u
    return out


def _independent_register_samples(db: QueryDatabase, family: GuessFamily,
                                  rng: np.random.Generator, cap: int) -> List[int]:
    reg_bits = db.u + db.n_out
    if reg_bits > cap:
        raise ValueError(f"register state needs {reg_bits} qubits, cap is {cap}")
    maps = family.maps(0)
    u_size = 1 << db.u
    samples = []
    for reg in db.registers:
        h = transformed_payload(reg, maps)
        vec = np.zeros(1 << reg_bits, dtype=np.complex128)
        amp = u_size ** -0.5
        for xp, v in enumerate(h):
            vec[xp | (v << db.u)] = amp
        for q in range(db.u):
            qsim.hadamard_qubit(vec, q)
        idx = np.arange(vec.size, dtype=np.int64)
        values = idx & (u_size - 1)
        probs = np.bincount(values, weights=np.abs(vec) ** 2, minlength=u_size)
        probs = np.maximum(probs, 0.0)
        probs /= probs.sum()
        samples.append(int(rng.choice(u_size, p=probs)))
    return samples


# ---------------------------------------------------------------------------
# attack entry points


def generalized_offline_simon(db: QueryDatabase, family: GuessFamily,
                              rng: np.random.Generator, *,
                              iterations: Optional[int] = None,
                              mode: str = "TENSOR",
                              max_searches: int = 3,
                              try_candidates=None,
                              cost: Optional[_Cost] = None,
                              rebuild_time: Optional[int] = None,
                              cap: int = qsim.DEFAULT_QUBIT_CAP) -> EngineOutcome:
    """Generic engine: find the guess whose transformed database is periodic.

    The one search loop of both modes. It scans the passing set once, then
    searches until a candidate verifies, max_searches is spent or every
    guess is excluded; each search charges the database rebuild (after the
    first), the amplification iterations and the sampling pass. Only the
    draw of the measured guess and its samples depends on the mode.

    try_candidates(guess, samples) turns a measured guess plus Simon samples
    into verified key material (None rejects the guess and the search
    repeats, excluding it). Without a callback, any guess in the passing set
    is accepted as the answer.
    """
    if mode not in _DRAWS:
        raise ValueError(f"unknown mode {mode!r}")
    if cost is None:
        cost = _Cost()
    m = family.search_bits
    if iterations is None:
        iterations = qsim.search_iterations(m)
    if rebuild_time is None:
        rebuild_time = db.n_out * (1 << db.u)
    if try_candidates is None:
        def try_candidates(g, samples):
            return KeyMaterial(k=g) if test_key_guess(db, g, family)[0] else None

    if m > MAX_SEARCH_BITS:
        raise ValueError(f"search space of {m} bits exceeds the desk-scale cap")
    space = 1 << m
    dists: List[List[np.ndarray]] = []
    passing: List[int] = []
    for g in range(space):
        dists.append(_register_dists(db, family.maps(g)))
        if exact_pass_probability(dists[g], db.u) >= 0.5:
            passing.append(g)
    ambiguous = len(passing) > 1
    flags = ["ambiguous-passing-set"] if ambiguous else []
    draw = _DRAWS[mode](db, family, rng, iterations, cap, passing, dists)
    c = db.c
    evals = family.maps(0).evals
    per_iter_evals = 2 * c * evals
    excluded: Set[int] = set()
    searches = 0
    g = recovered = None
    while searches < max_searches and len(excluded) < space:
        searches += 1
        if searches > 1:
            cost.sim_time += rebuild_time
        # the amplification iterations, then the sampling pass on the measured guess
        cost.offline_evals += iterations * per_iter_evals + c * evals
        cost.sim_time += (iterations * (db.n_out ** 3 + per_iter_evals)
                          + db.n_out ** 3 + c * evals)
        g, samples = draw(excluded)
        recovered = try_candidates(g, samples)
        if recovered is not None:
            break
        excluded.add(g)
    return EngineOutcome(recovered, g if recovered is not None else None, searches,
                         ambiguous, len(passing), iterations, flags)


def _search_attack(instance: ConstructionInstance, db: QueryDatabase, u: int,
                   rng: np.random.Generator, *, build_time: int, mode: str,
                   max_searches: int, cap: int, seed: int, **fields) -> AttackReport:
    """Search the database for the key and report; shared by both database attacks.

    build_time is charged once before the search and again for every
    rebuild between searches; search_time_units leaves out the first charge.
    """
    cost = _Cost(sim_time=build_time)
    family = guess_family_for(instance, u)
    outcome = generalized_offline_simon(
        db, family, rng, mode=mode, max_searches=max_searches,
        try_candidates=_candidate_verifier(instance, db, family, cost),
        cost=cost, rebuild_time=build_time, cap=cap)
    k, k1, k2 = report_keys(instance.kind, outcome.recovered)
    return AttackReport(
        success=outcome.recovered is not None,
        k=k, k1=k1, k2=k2,
        offline_evals=cost.offline_evals,
        amplification_iterations=outcome.iterations,
        sim_time_units=cost.sim_time,
        mode=mode,
        seed=seed,
        searches=outcome.searches,
        ambiguous=outcome.ambiguous,
        passing_count=outcome.passing_count,
        flags=outcome.flags,
        search_time_units=cost.sim_time - build_time,
        **fields,
    )


def offline_simon_attack(instance: ConstructionInstance, u: int, c: int,
                         mode: str, rng: np.random.Generator, *,
                         known_inputs=None, max_searches: int = 3,
                         seed: int = 0,
                         cap: int = qsim.DEFAULT_QUBIT_CAP) -> AttackReport:
    """Full key recovery from one up-front classical query pass.

    With known_inputs the database is built in the known-plaintext setting
    (u is forced to n and missing outputs become placeholders); otherwise 2^u
    chosen plaintexts of the form x || 0^(n-u) are queried. mode selects the
    TENSOR idealization or the EXACT joint-state simulation. For ECBC3 the
    reported (k1, k2) slots carry the recovered fixed message blocks.
    """
    forward_before = instance.online_forward
    if known_inputs is not None:
        db = build_database_kpa(instance, known_inputs, c)
        u = instance.n
    else:
        db = build_database_cpa(instance, u, c)
    return _search_attack(
        instance, db, u, rng, build_time=db.n_out * (1 << db.u), mode=mode,
        max_searches=max_searches, cap=cap, seed=seed, query_model="Q1",
        online_queries=instance.online_forward - forward_before)


def grover_meets_simon_attack(instance: ConstructionInstance, c: int,
                              rng: np.random.Generator, *,
                              mode: str = "TENSOR", max_searches: int = 3,
                              seed: int = 0,
                              cap: int = qsim.DEFAULT_QUBIT_CAP) -> AttackReport:
    """Key recovery with superposition access: the database is rebuilt inside
    every test, costing 2c fresh construction queries per amplification
    iteration (c building it, c uncomputing it).

    The reported D counts these in-search queries; the final sampling pass
    that extracts the period is drawn from the stored test statistics and its
    c construction queries are reported separately in the metadata.
    """
    check_attack(instance.kind, "grover_meets_simon")
    db = _database_from_oracle(instance, instance.n, c)
    report = _search_attack(
        instance, db, instance.n, rng, build_time=0, mode=mode,
        max_searches=max_searches, cap=cap, seed=seed, query_model="Q2",
        online_queries=0, recovery_queries=c)
    report.online_queries = 2 * c * report.amplification_iterations * report.searches
    return report


def em_q2_attack(instance: ConstructionInstance, c: int,
                 rng: np.random.Generator, seed: int = 0) -> AttackReport:
    """Exact-simulation Simon attack on Even-Mansour with superposition access.

    Samples c times from the circuit for f(x) = EM(x) XOR P(x), recovers the
    first whitening key as the period of f and the second from one classical
    query. A constant or rank-deficient sample set is reported as a flagged
    failure (the degenerate k1 = 0 instance lands here).
    """
    check_attack(instance.kind, "em_q2")
    n = instance.n
    perm = instance.components[0]
    f = [instance._raw_encrypt(x) ^ perm.table[x] for x in range(1 << n)]
    cost = _Cost()
    samples = []
    for _ in range(c):
        samples.append(qsim.simon_subroutine(f, rng, out_bits=n))
    cost.offline_evals += c  # one public-permutation oracle call per query
    cost.sim_time += c * 2 + n ** 3
    result = gf2.recover_period(samples, n)
    if result.status == "undetermined":
        # the true period is always in the sampled nullspace; verify candidates
        candidates = [s for s in gf2.nullspace_members(samples, n) if s]
        verified = [s for s in candidates
                    if all(f[x] == f[x ^ s] for x in range(1 << n))]
        cost.offline_evals += len(candidates)
        if len(verified) == 1:
            result = gf2.PeriodResult("period", verified[0])
    flags: List[str] = []
    success = False
    k1 = k2 = None
    if result.is_period:
        k1 = result.period
        em0 = instance.encrypt(0)
        cost.offline_evals += 1
        k2 = em0 ^ perm.table[k1]
        success = True
        for x in range(1 << n):
            cost.offline_evals += 1
            if perm.table[x ^ k1] ^ k2 != instance._raw_encrypt(x):
                success = False
                break
        if not success:
            flags.append("period-verification-failed")
            k1 = k2 = None
    else:
        flags.append(f"degenerate-{result.status}")
    cost.sim_time += cost.offline_evals
    return AttackReport(
        success=success, k=None, k1=k1, k2=k2,
        online_queries=c,
        offline_evals=cost.offline_evals,
        amplification_iterations=0,
        sim_time_units=cost.sim_time,
        mode="EXACT",
        seed=seed,
        query_model="Q2",
        searches=1,
        flags=flags,
    )
