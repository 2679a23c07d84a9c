"""Offline key recovery through periodicity search on a stored query database.

The attack queries the construction once up front and stores the answers as
c identical query registers (a compressed quantum database); since the
copies are identical, the database holds one payload table, its missing
inputs and c. It then runs an amplified search over the inner-key and
whitening-suffix guesses. Testing a guess transforms each register in place
(relabel the input, undo the outer cipher layer, XOR a guess-keyed value)
and checks whether the resulting function is periodic via the rank of
Hadamard samples. A guess family keeps each layer as one dense table per
inner key and gathers a guess's maps, or the stacked maps of many guesses,
from them; GuessMaps.apply is the one place that applies them.

Two fidelity modes are provided:

* TENSOR keeps each register's exact post-Hadamard distribution and models
  the search analytically: the guesses whose transformed database is
  (near-)certainly rank-deficient form the passing set, the amplified
  measurement is sampled from the closed-form single-marked success curve,
  and database degradation across search repetitions is NOT modeled. This is
  the scalable idealization.
* EXACT simulates the joint state (guess register plus all c query registers)
  gate for gate, including the disturbance that imperfect tests inflict on
  the shared database within a search. With no search register the c
  registers never entangle, so EXACT samples each register's exact
  distribution, as TENSOR does.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
# measured peak of building the EXACT joint circuit and running one search
JOINT_BYTES_PER_AMPLITUDE = 45


# ---------------------------------------------------------------------------
# query database


@dataclass
class QueryDatabase:
    """c identical copies of one query register over u-bit inputs.

    Inputs are u-bit values x embedded into n-bit plaintexts as the high
    bits, x || 0^(n-u). Each copy holds the state sum_x |x>|payload(x)> with
    uniform amplitudes 2^(-u/2); payload has one entry per input, 0 at the
    inputs in missing (known-plaintext placeholders). The entries are Python
    ints, so the pairs and the keys completed from them are too.
    """

    u: int
    n_out: int
    c: int
    payload: Tuple[int, ...]
    missing: frozenset = frozenset()

    @property
    def embed_shift(self) -> int:
        return self.n_out - self.u

    def embed(self, x: int) -> int:
        return x << self.embed_shift

    @property
    def alpha(self) -> float:
        return len(self.missing) / len(self.payload)

    def known_pairs(self) -> List[Tuple[int, int]]:
        """(plaintext, ciphertext) pairs actually obtained from the oracle."""
        return [(self.embed(x), self.payload[x])
                for x in range(1 << self.u) if x not in self.missing]


def build_database_cpa(instance: ConstructionInstance, u: int, c: int) -> QueryDatabase:
    """Chosen-plaintext database: one classical pass of 2^u queries feeds all c registers."""
    n = instance.n
    if not 0 <= u <= n:
        raise ValueError(f"u={u} out of range [0, {n}]")
    if c < 1:
        raise ValueError("need at least one register")
    shift = n - u
    return QueryDatabase(u, n, c, tuple(instance.encrypt(x << shift) for x in range(1 << u)))


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
    return QueryDatabase(n, n, c, payload, missing)


def _database_from_oracle(instance: ConstructionInstance, u: int, c: int) -> QueryDatabase:
    """Database content under superposition access (no classical counters)."""
    n = instance.n
    shift = n - u
    return QueryDatabase(u, n, c, tuple(instance._raw_encrypt(x << shift)
                                        for x in range(1 << u)))


def database_overlap(full: QueryDatabase, partial: QueryDatabase) -> float:
    """Inner product of the complete and the masked database states.

    Closed form from the tensor structure: per register the overlap is the
    fraction of inputs whose payloads agree, and a placeholder 0 agrees with
    the true payload exactly when that payload is itself 0.
    """
    if (full.u, full.c, full.n_out) != (partial.u, partial.c, partial.n_out):
        raise ValueError("database shapes differ")
    size = 1 << full.u
    mismatches = 0
    for x in range(size):
        if x in partial.missing:
            if full.payload[x] != 0:
                mismatches += 1
        elif full.payload[x] != partial.payload[x]:
            raise ValueError("known payloads disagree between databases")
    return (1.0 - mismatches / size) ** full.c


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


class GuessMaps(NamedTuple):
    """In-place transforms a guess applies to one register, as int64 tables.

    relabel permutes the input value (u bits), peel is the already-inverted
    outer layer applied to the payload, xor is XORed into the payload at the
    relabeled input. Stacked maps carry one row per guess.
    """

    relabel: np.ndarray
    peel: np.ndarray
    xor: np.ndarray

    def apply(self, x, w, *rows):
        """Image (relabel(x), peel(w) ^ xor(relabel(x))) of input x and payload w.

        rows selects the guess row of each entry when the maps are stacked.
        """
        x2 = self.relabel[rows + (x,)]
        return x2, self.peel[rows + (w,)] ^ self.xor[rows + (x2,)]


@dataclass
class GuessFamily:
    """Guess-indexed register transforms for one construction instance.

    A guess integer packs y2 in the low kappa_bits and y1 above it. The
    tables are dense and indexed by the inner key y2: relabel over the u-bit
    input, inner and peel (the inverted outer layer) over n_out-bit values,
    each the identity where the construction has no such layer. evals is
    the cipher-evaluation charge for transforming one register once.
    """

    u: int
    n_out: int
    kappa_bits: int
    suffix_bits: int
    relabel: np.ndarray
    inner: np.ndarray
    peel: np.ndarray
    evals: int = 1

    @property
    def search_bits(self) -> int:
        return self.kappa_bits + self.suffix_bits

    def split(self, g: int) -> KeyGuess:
        return KeyGuess(y1=g >> self.kappa_bits, y2=g & ((1 << self.kappa_bits) - 1))

    def maps(self, g) -> GuessMaps:
        """Maps of guess g; an array of guesses gives stacked maps, one row each.

        The XOR table is inner(x || y1) under inner key y2.
        """
        g = np.asarray(g, dtype=np.int64)
        y2 = g & ((1 << self.kappa_bits) - 1)
        inputs = (np.arange(1 << self.u, dtype=np.int64) << self.suffix_bits) \
            | (g[..., None] >> self.kappa_bits)
        return GuessMaps(self.relabel[y2], self.peel[y2], self.inner[y2[..., None], inputs])


def guess_family_for(instance: ConstructionInstance, u: int) -> GuessFamily:
    """Build the guess family of a layered construction.

    Under guess (y1, y2) the maps invert the outer layer, relabel the input
    and XOR in inner(x || y1), all with inner key y2.
    """
    spec = SPECS[instance.kind]
    n = instance.n
    if spec.full_domain and u != n:
        raise ValueError(f"{instance.kind.value} requires the full input domain (u = n)")
    if instance.kappa + n - u > MAX_SEARCH_BITS:
        raise ValueError(f"search space of {instance.kappa + n - u} bits "
                         "exceeds the desk-scale cap")
    keys = [instance.layers(k) for k in range(1 << instance.kappa)]
    # a relabel layer forces u = n, so the identity is all a shorter input sees
    relabel = np.array([layer_table(r, n)[:1 << u] for r, _, _ in keys], dtype=np.int64)
    inner = np.array([layer_table(i, n) for _, i, _ in keys], dtype=np.int64)
    peel = np.array([layer_inverse_table(o, n) for _, _, o in keys], dtype=np.int64)
    return GuessFamily(u, n, instance.kappa, n - u, relabel, inner, peel, spec.evals)


# ---------------------------------------------------------------------------
# per-register test statistics


def transformed_payload(payload: Sequence[int], maps: GuessMaps) -> np.ndarray:
    """The payload table after the guess maps, indexed by the relabeled input;
    stacked maps give one row per guess."""
    rows = (np.arange(len(maps.xor))[:, None],) if maps.xor.ndim == 2 else ()
    x2, w2 = maps.apply(np.arange(len(payload)), np.asarray(payload, dtype=np.int64), *rows)
    h = np.empty_like(w2)
    h[rows + (x2,)] = w2
    return h


def register_distribution(h: np.ndarray, u: int) -> np.ndarray:
    """Exact distribution of the post-Hadamard input measurement of the
    register sum_x |x>|h(x)>; a stack of tables gives one row per table.

    The mass at y is 2^(-2u) * sum_s A(s) (-1)^(s.y), where the
    autocorrelation A(s) counts the inputs x with h(x) = h(x ^ s); the sums
    are an integer Walsh butterfly over A, so the floats are exact and the
    memory is O(2^u) per table.
    """
    xs = np.arange(1 << u)
    walsh = np.stack([(h == h[..., xs ^ s]).sum(axis=-1) for s in xs], axis=-1)
    step = 1
    while step < xs.size:
        pairs = walsh.reshape(walsh.shape[:-1] + (-1, 2, step))
        zero, one = pairs[..., 0, :], pairs[..., 1, :]
        total = zero + one
        np.subtract(zero, one, out=one)
        zero[...] = total
        step *= 2
    return walsh / float(1 << (2 * u))


def _scan_distributions(db: QueryDatabase, family: GuessFamily) -> np.ndarray:
    """register_distribution of every guess, one row per guess.

    Guesses are gathered in chunks that keep the stacked peel tables near
    2^20 entries.
    """
    space = 1 << family.search_bits
    step = max(1, (1 << 20) >> db.n_out)
    return np.concatenate([
        register_distribution(transformed_payload(
            db.payload, family.maps(np.arange(start, min(start + step, space)))), db.u)
        for start in range(0, space, step)])


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
    if len(maps.xor) != (1 << db.u):
        raise ValueError("guess maps do not match the database input width")
    dist = register_distribution(transformed_payload(db.payload, maps), db.u)
    prob = exact_pass_probability([dist] * db.c, db.u)
    return prob >= 0.5, prob


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
        for prefix in [m for m in members if m] + [0]:
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
                 iterations: int, cap: int, passing: List[int], dists: np.ndarray):
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
        return g, [int(rng.choice(1 << db.u, p=dists[g])) for _ in range(db.c)]

    return draw


def _exact_draw(db: QueryDatabase, family: GuessFamily, rng: np.random.Generator,
                iterations: int, cap: int, passing: List[int], dists: np.ndarray):
    """Simulate the joint state gate for gate and measure it."""
    if family.search_bits == 0:
        # no search register: the c registers stay unentangled, so each
        # measurement samples the exact register distribution of the scan
        if db.u + db.n_out > cap:
            raise ValueError(f"register state needs {db.u + db.n_out} qubits, cap is {cap}")
        return _tensor_draw(db, family, rng, iterations, cap, passing, dists)
    circuit = _JointCircuit(db, family, cap=cap)
    return lambda excluded: circuit.run_search(rng, iterations, excluded)


_DRAWS = {"TENSOR": _tensor_draw, "EXACT": _exact_draw}


# ---------------------------------------------------------------------------
# EXACT-mode search: joint state simulation


class _JointCircuit:
    """Joint state of the guess register and the c query registers.

    Every gate is real, so the state is one float64 vector. Work layout (low
    bits first): the guess register (search_bits), the c payloads (n_out bits
    each), then the c inputs (u bits each, register 0 lowest). With the inputs
    on top each input Hadamard acts on two contiguous halves, and the state as
    a (2^(c*u), -1) matrix has one row per input tuple, packed as
    _rank_deficient_table indexes it. fwd and bwd gather the guess transform
    and its inverse, broadcast from per-guess tables over one register.
    """

    def __init__(self, db: QueryDatabase, family: GuessFamily,
                 cap: int = qsim.DEFAULT_QUBIT_CAP):
        self.db = db
        self.m = m = family.search_bits
        total = m + db.c * (db.u + db.n_out)
        if total > cap:
            raise ValueError(f"joint state needs {total} qubits, cap is {cap}")
        self.total = total
        space = 1 << m
        guesses = np.arange(space)[:, None, None]
        # every register state (x, w) and its image under each guess, [g, x, w]
        self.states = (np.arange(1 << db.u)[:, None], np.arange(1 << db.n_out))
        self.maps = family.maps(np.arange(space))
        x2, w2 = self.maps.apply(*self.states, guesses)
        self.fwd = self._layout_indices(x2, w2, m)
        inv_x, inv_w = np.empty_like(w2), np.empty_like(w2)
        inv_x[guesses, x2, w2], inv_w[guesses, x2, w2] = self.states
        self.bwd = self._layout_indices(inv_x, inv_w, m)
        # initial state: uniform guesses tensor the database registers
        amp = space ** -0.5
        for _ in range(db.c):
            amp = (1 << db.u) ** -0.5 * amp
        payload = np.asarray(db.payload, dtype=np.int64)[None, :, None]
        self.initial = np.zeros(1 << total)
        self.initial[self._layout_indices(self.states[0][None], payload, m)] = amp

    def _layout_indices(self, xt: np.ndarray, wt: np.ndarray, m: int) -> np.ndarray:
        """Work-layout indices (m guess bits) whose register i holds
        (xt, wt)[g, x_i, w_i]: one per (x_{c-1}..x_0, w_{c-1}..w_0, g) of
        the tables' broadcast extents."""
        c, u, n = self.db.c, self.db.u, self.db.n_out
        dims = np.broadcast_shapes(xt.shape, wt.shape)
        out = np.zeros(dims[1:2] * c + dims[2:] * c + (1 << m,), dtype=np.int64)
        out |= np.arange(1 << m)
        for i in range(c):
            shape = [1] * (2 * c + 1)
            shape[c - 1 - i], shape[2 * c - 1 - i], shape[-1] = dims[1], dims[2], dims[0]
            table = (xt << (m + c * n + i * u)) | (wt << (m + i * n))
            out |= table.transpose(1, 2, 0).reshape(shape)
        return out.ravel()

    def run_search(self, rng: np.random.Generator, iterations: int,
                   excluded: Set[int]) -> Tuple[int, List[int]]:
        """One full amplified search; returns the measured guess and samples."""
        space = 1 << self.m
        active = np.ones(space, dtype=bool)
        active[list(excluded)] = False
        rank_lt = _rank_deficient_table(self.db.u, self.db.c)
        flip = rank_lt[:, None] & np.tile(active, (1 << self.total) // (rank_lt.size * space))
        in_qubits = range(self.total - self.db.c * self.db.u, self.total)
        amps = self.initial.copy()
        work = np.empty_like(amps)  # the gathers' target; mode="raise" would buffer it
        for _ in range(iterations):
            np.take(amps, self.bwd, out=work, mode="clip")
            amps, work = work, amps
            for q in in_qubits:
                qsim.hadamard_qubit(amps, q)
            rows = amps.reshape(rank_lt.size, -1)
            np.negative(rows, out=rows, where=flip)
            for q in in_qubits:
                qsim.hadamard_qubit(amps, q)
            np.take(amps, self.fwd, out=work, mode="clip")
            amps, work = work, amps
            # reflect about the uniform guess superposition, identity elsewhere
            mat = amps.reshape(-1, space)
            np.subtract(2.0 * mat.mean(axis=1, keepdims=True), mat, out=mat)
        probs = np.square(amps, out=work).reshape(-1, space).sum(axis=0)
        g = int(rng.choice(space, p=probs / probs.sum()))
        return g, self._sample_branch(amps[g::space], g, rng)

    def _sample_branch(self, branch: np.ndarray, g: int,
                       rng: np.random.Generator) -> List[int]:
        """Apply guess g's transform to its branch, Hadamard the inputs and
        measure them register by register."""
        u, low = self.db.u, self.db.c * self.db.n_out
        state = np.empty_like(branch)
        x2, w2 = self.maps.apply(*self.states, np.full((1, 1, 1), g))
        state[self._layout_indices(x2, w2, 0)] = branch
        for q in range(low, low + self.db.c * u):
            qsim.hadamard_qubit(state, q)
        samples = []
        for _ in range(self.db.c):
            # the next register's input is the lowest input axis left
            view = state.reshape(-1, 1 << u, 1 << low)
            probs = np.square(view).sum(axis=(0, 2))
            y = int(rng.choice(1 << u, p=probs / probs.sum()))
            state = view[:, y, :]
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
    if m > MAX_SEARCH_BITS:
        raise ValueError(f"search space of {m} bits exceeds the desk-scale cap")
    space = 1 << m
    dists = _scan_distributions(db, family)
    passing = [g for g in range(space)
               if exact_pass_probability([dists[g]] * db.c, db.u) >= 0.5]
    if try_candidates is None:
        def try_candidates(g, samples):
            return KeyMaterial(k=g) if g in passing else None
    ambiguous = len(passing) > 1
    flags = ["ambiguous-passing-set"] if ambiguous else []
    draw = _DRAWS[mode](db, family, rng, iterations, cap, passing, dists)
    c = db.c
    evals = family.evals
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
        verified, checked = qsim.verified_periods(f, samples)
        cost.offline_evals += checked
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
