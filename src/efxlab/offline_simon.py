"""Offline key recovery through periodicity search on a stored query database.

The attack queries the construction once up front and stores the answers as
c identical query registers (a compressed quantum database); since the
copies are identical, the database holds one payload table, its missing
inputs and c. It then runs an amplified search over the inner-key and
whitening-suffix guesses. Testing a guess transforms each register in place
(relabel the input, undo the outer cipher layer, XOR a guess-keyed value)
and checks whether the resulting function is periodic via the rank of
Hadamard samples. A guess family keeps each layer as one dense table per
inner key, and GuessFamily.maps, the one place that applies them, reads a
guess's images (or those of an array of guesses) straight from the tables.

Two fidelity modes are provided:

* TENSOR keeps each register's exact post-Hadamard distribution and models
  the search analytically: the guesses whose transformed database is
  (near-)certainly rank-deficient form the passing set, the amplified
  measurement is sampled from the closed-form single-marked success curve,
  and database degradation across search repetitions is NOT modeled. This is
  the scalable idealization.
* EXACT simulates the joint state (guess register plus all c query registers)
  gate for gate, including the disturbance that imperfect tests inflict on
  the shared database within a search. Every guess test O_g is an orthogonal
  involution, so guess g's branch of the state stays A + O_g B and a search
  updates two register-space vectors, (A, B) <- (2 mean_h O_h A + B, -A);
  it never holds the whole joint state. The c registers are identical
  copies and every operation commutes with permuting them, so the vectors
  hold one amplitude per orbit (multiset) of register states, the orbit
  tables of each shape hold the test (its rank table from gf2.rank) as one
  folded reflection per class, and only the measured branch is expanded to
  every register state. Each test writes every guess's row and sums the
  rows once, and the searches of one trial share their first iteration's
  test of the common start state.
  With no search register the c registers never entangle, so EXACT samples
  each register's exact distribution, as TENSOR does.

One engine, generalized_offline_simon, goes from the stored database to
the report in both modes. It verifies measured candidates against the
recorded plaintext pairs and may re-run the search a bounded number of
times, excluding candidates that failed verification; the database is
rebuilt from the stored classical answers between searches, so online
queries never exceed the initial pass.

Cost accounting: the search loop only draws, verifies and excludes, and the
costs follow from its counts. Over s searches of t iterations each,
sim_time_units = max(s, 1)*build_time + s*((t + 1)*n^3 + (2*t + 1)*c*evals):
one database build per search (n*2^u for the offline attack; a run with no
search still pays one), n^3 for the reversible rank computation in each
iteration and in the final sampling pass, and 2*c*evals cipher applications
per iteration (compute and uncompute) plus c*evals for the pass.
offline_evals = s*(2*t + 1)*c*evals plus the classical candidate verification
(one evaluation per layer per re-encrypted pair), outside the quantum time
budget; search_time_units is sim_time_units less the first build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import gf2, qsim
from .ciphers import (
    SPECS,
    ConstructionInstance,
    KeyMaterial,
    check_attack,
    codebook_check,
    codebook_with,
    complete_key,
    layer_table,
    pair_check,
    report_keys,
)

MAX_SEARCH_BITS = 20
# bytes of an EXACT search per amplitude of the joint state (2^m guesses times
# 2^(c*(u+n)) register states), an upper bound: the dense layout peaked at
# 25.3 B (m = 1) with S at 8 B and the int32 maps at 4 B an amplitude. Over
# the registers' orbits, about c! fewer, S and the maps cost 12 B per orbit
# amplitude; per register state the cached int32 orbit lookup costs 4 B and
# the measured branch's expansion, squared in place to be measured, 12 B at
# c >= 2 (17 B at c = 1 through the maps, 20 B without them), which c = 1
# (no symmetry) brings to 22.0 B per joint amplitude at m = 2
JOINT_BYTES_PER_AMPLITUDE = 26
# orbit entries an EXACT test scatters, reflects and gathers at a time
_TEST_BLOCK = 1 << 14
# entries the span DP's table (_spans) may hold, 11 B each (VmHWM: 10.0-10.4 B at u = 6-7);
# 2^22 admits u <= 7 at any c and bounds time (u = 7, c = 9: 1.0 s to build, 3.4-4.3 s a DP call)
MAX_SPAN_DP_TRANSITIONS = 1 << 22
SPAN_DP_BYTES_PER_TRANSITION = 11
# (inner key, block) entries a guess family may hold: 2^kappa inner keys, each
# with its permutation lists (no inverse lists) and three int32 tables of up
# to 2^n entries. 200 B an entry is an upper bound: building an EFX family
# grew VmHWM by 35 B an entry at n = 8 and 101 B at n = 10 (kappa = 11-14),
# where a list entry past 256 holds an int object of its own.
MAX_FAMILY_ENTRIES = 1 << 24
FAMILY_BYTES_PER_ENTRY = 200
# query registers c a run may hold (em_q2: Simon samples); the span DP and the
# sampling loops run c steps, and a u = 4, c = 1024 TENSOR trial took 4.8 s
# on a 2-vCPU VM
MAX_REGISTERS = 1024


def exact_qubits(search_bits: int, u: int, n_out: int, c: int) -> int:
    """Qubits of an EXACT run: the guess register plus c registers of u + n_out
    qubits, or one register when there is no guess register to entangle them."""
    if search_bits == 0:
        return u + n_out
    return search_bits + c * (u + n_out)


def span_dp_transitions(u: int, c: int) -> int:
    """Entries of _spans(u, c), the span DP's table: each of the 2^u outcomes against each span
    of dimension at most min(c - 1, u), 2^u times a sum of Gaussian binomials [u choose k]_2."""
    spans, subspaces = 0, 1
    for k in range(min(c - 1, u) + 1):
        spans += subspaces
        subspaces = subspaces * ((1 << (u - k)) - 1) // ((1 << (k + 1)) - 1)
    return spans << u


def search_limits(search_bits: int, u: int, n_out: int, c: int, mode: str,
                  qubit_cap: int = qsim.DEFAULT_QUBIT_CAP) -> List[str]:
    """One message per limit that a search over search_bits guess bits with c
    registers of u + n_out bits breaks (none when it fits): the search bits,
    the guess family's entries, the EXACT qubits and the span DP's
    transitions. validate() and the engine ask before the family is built."""
    errors = []
    if search_bits > MAX_SEARCH_BITS:
        errors.append(f"search space: kappa + n - u = {search_bits} bits, "
                      f"over the limit of {MAX_SEARCH_BITS}")
    if (entries := 1 << (search_bits + u)) > MAX_FAMILY_ENTRIES:
        errors.append(f"guess family: kappa + n = {search_bits + u} bits hold "
                      f"{entries:,} entries, about {entries * FAMILY_BYTES_PER_ENTRY:,} "
                      f"bytes, over the limit of {MAX_FAMILY_ENTRIES:,}")
    if mode == "EXACT" and (qubits := exact_qubits(search_bits, u, n_out, c)) > qubit_cap:
        errors.append(f"mode: EXACT joint state needs {qubits} qubits, cap is {qubit_cap}")
    if (transitions := span_dp_transitions(u, c)) > MAX_SPAN_DP_TRANSITIONS:
        errors.append(f"span DP: u = {u}, c = {c} caches {transitions:,} transitions, "
                      f"about {transitions * SPAN_DP_BYTES_PER_TRANSITION:,} bytes, "
                      f"over the limit of {MAX_SPAN_DP_TRANSITIONS:,}")
    return errors


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


def database_overlap(full: QueryDatabase, partial: QueryDatabase) -> float:
    """Inner product of the complete and the masked database states.

    Closed form from the tensor structure: per register the overlap is the
    fraction of inputs whose payloads agree, and a placeholder 0 agrees with
    the true payload exactly when that payload is itself 0.
    """
    if (full.u, full.c, full.n_out) != (partial.u, partial.c, partial.n_out):
        raise ValueError("database shapes differ")
    size = 1 << full.u
    if any(full.payload[x] != partial.payload[x] for x in range(size) if x not in partial.missing):
        raise ValueError("known payloads disagree between databases")
    mismatches = sum(full.payload[x] != 0 for x in range(size) if x in partial.missing)
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


@dataclass
class GuessFamily:
    """Guess-indexed register transforms for one construction instance.

    A guess integer packs y2, the inner cipher key, in the low kappa_bits
    and y1, the (n-u)-bit whitening suffix, above it. The tables are dense
    and indexed by the inner key y2: relabel over the u-bit input, inner and
    peel (the inverted outer layer) over n_out-bit values, each the identity
    where the construction has no such layer; their shapes carry u and n_out.
    The engine charges each register transform SPECS[kind].evals evaluations.
    """

    kappa_bits: int
    suffix_bits: int
    relabel: np.ndarray
    inner: np.ndarray
    peel: np.ndarray

    @property
    def search_bits(self) -> int:
        return self.kappa_bits + self.suffix_bits

    def split(self, g: int) -> Tuple[int, int]:
        """(y1, y2) of guess g, or of each guess of an array."""
        return g >> self.kappa_bits, g & ((1 << self.kappa_bits) - 1)

    def maps(self, g, x, w):
        """Images (relabel(x), peel(w) ^ inner(relabel(x) || y1)) of inputs x
        and payloads w under inner key y2; g is one guess or an array of
        guesses broadcast against x and w."""
        y1, y2 = self.split(g)
        x2 = self.relabel[y2, x]
        return x2, self.peel[y2, w] ^ self.inner[y2, (x2 << self.suffix_bits) | y1]


def guess_family_for(instance: ConstructionInstance, u: int) -> GuessFamily:
    """Build the guess family of a layered construction.

    Under guess (y1, y2) the maps invert the outer layer, relabel the input
    and XOR in inner(x || y1), all with inner key y2.
    """
    spec = SPECS[instance.kind]
    n = instance.n
    if spec.full_domain and u != n:
        raise ValueError(f"{instance.kind.value} requires the full input domain (u = n)")
    keys = [instance.layers(k) for k in range(1 << instance.kappa)]
    # a relabel layer forces u = n, so the identity is all a shorter input sees
    relabel = np.array([layer_table(r, n)[:1 << u] for r, _, _ in keys], dtype=np.int32)
    inner = np.array([layer_table(i, n) for _, i, _ in keys], dtype=np.int32)
    # peel inverts each key's composed outer table by scattering it, so no
    # permutation builds an inverse list
    outer = np.array([layer_table(o, n) for _, _, o in keys], dtype=np.int32)
    peel = np.empty_like(outer)
    peel[np.arange(len(keys))[:, None], outer] = np.arange(1 << n, dtype=np.int32)
    return GuessFamily(instance.kappa, n - u, relabel, inner, peel)


# ---------------------------------------------------------------------------
# per-register test statistics


def transformed_payload(payload: Sequence[int], family: GuessFamily, g) -> np.ndarray:
    """The payload table after the maps of each guess of the 1-D array g,
    one row per guess, indexed by the relabeled input."""
    x2, w2 = family.maps(g[:, None], np.arange(len(payload)),
                         np.asarray(payload, dtype=np.int64))
    h = np.empty_like(w2)
    h[np.arange(g.size)[:, None], x2] = w2
    return h


def register_distribution(h: np.ndarray, u: int) -> np.ndarray:
    """Exact distribution of the post-Hadamard input measurement of the
    register sum_x |x>|h(x)>; a stack of tables gives one row per table.

    The mass at y is 2^(-2u) * sum_s A(s) (-1)^(s.y), where the
    autocorrelation A(s) counts the inputs x with h(x) = h(x ^ s). A comes
    from the pairs of equal payloads: each table is argsorted once,
    A(0) = 2^u, and for k = 1, 2, ... while some sorted neighbours k apart
    are equal, each such pair of inputs x, x' adds 2 at x ^ x'. The sums are
    qsim.walsh over A, in integers, so the floats are exact, equal to those
    of comparing the whole table once per s, and the memory is O(2^u) per
    table. A pass costs O(2^u) per table plus its pairs, and a stack takes
    as many passes as its largest group of equal payloads. Against one
    comparison per s, at u = 6-8 on a 2-vCPU VM, a random table took
    0.07-0.19x the time, a known-plaintext table with half its payloads
    zero 0.82-1.11x, and a constant table, the worst case (2^u passes,
    4^u compares), 1.76-2.02x.
    """
    size = 1 << u
    # the stable sort pages in less of numpy's sort code than the default
    # (128 against 320 kB resident), and the sort's tie order does not matter
    order = np.argsort(h, axis=-1, kind="stable").reshape(-1, size)
    ranked = np.take_along_axis(h.reshape(-1, size), order, axis=-1)
    autocorrelation = np.zeros(h.size, dtype=np.int64)
    k = 1
    while (pairs := np.nonzero(ranked[:, k:] == ranked[:, :-k]))[0].size:
        rows, cols = pairs
        shifts = rows * size + (order[rows, cols] ^ order[rows, cols + k])
        autocorrelation += np.bincount(shifts, minlength=h.size)
        k += 1
    autocorrelation = autocorrelation.reshape(h.shape)
    autocorrelation *= 2
    autocorrelation[..., 0] = size
    return qsim.walsh(autocorrelation) / float(1 << (2 * u))


def _scan_distributions(db: QueryDatabase, family: GuessFamily) -> np.ndarray:
    """register_distribution of every guess, one row per guess.

    Guesses are mapped in chunks of at most 2^20 >> (n_out - u) register
    entries, and each chunk is one stack for register_distribution, which
    makes as many passes as the chunk's largest group of equal payloads.
    The 2^14 guesses of TWO_XOR n=7 kappa=14 u=7 scan in 0.36-0.39 s on a
    2-vCPU VM (3.0-3.8 s with one comparison of each whole table per s).
    """
    space = 1 << family.search_bits
    step = max(1, (1 << 20) >> db.n_out)
    return np.concatenate([
        register_distribution(transformed_payload(
            db.payload, family, np.arange(start, min(start + step, space))), db.u)
        for start in range(0, space, step)])


@lru_cache(maxsize=1)  # as _orbit_tables: a new shape (u, c) drops the last one's table
def _spans(u: int, c: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """(step, dims): the spans at most c samples of u bits reach, numbered from the empty
    span 0 as found, so by dimension dims[i]; step[i][y] is the number of span i grown by
    sample y, for every span of dimension below c."""
    members, step, number = [[0]], [], {1: 0}  # number: a span's member bitmask -> i
    for i, span in enumerate(members):  # members grows as spans are found
        if len(span) >> c:  # dimension c or more
            break
        mask, row = sum(1 << v for v in span), [-1] * (1 << u)
        for y in range(1 << u):
            if row[y] < 0:  # every member of y's coset grows the span alike
                coset = [v ^ y for v in span]
                j = number.setdefault(mask | sum(1 << v for v in coset), len(members))
                if j == len(members):
                    members.append(span + coset)
                for v in coset:
                    row[v] = j
        step.append(tuple(row))
    return tuple(step), tuple(len(span).bit_length() - 1 for span in members)


def exact_pass_probability(dist: np.ndarray, u: int, c: int) -> float:
    """Exact P(rank of c vectors sampled from dist < u), the c registers
    being identical copies.

    Dynamic program over the span of the samples, numbered by _spans;
    equivalent to enumerating every c-tuple of outcomes weighted by its probability.
    Each span's row of _spans is zipped with dist, so every step multiplies
    the numpy float64 masses of dist in outcome order, the same products
    added in the same order as a DP keyed by canonical basis tuples.
    """
    step, dims = _spans(u, c)
    dp: Dict[int, float] = {0: 1.0}
    for _ in range(c):
        new: Dict[int, float] = {}
        for span, pr in dp.items():
            for s, py in zip(step[span], dist):
                if py <= 0.0:
                    continue
                new[s] = new.get(s, 0.0) + pr * float(py)
        dp = new
    return sum(p for span, p in dp.items() if dims[span] < u)


# ---------------------------------------------------------------------------
# attack report


@dataclass
class AttackReport:
    """Outcome and exact resource counters of one attack run. ambiguous, and
    the flag that to_json_dict puts ahead of flags, read passing_count > 1."""

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
    passing_count: int = 0
    flags: List[str] = field(default_factory=list)
    search_time_units: int = 0
    recovery_queries: int = 0

    @property
    def ambiguous(self) -> bool:
        return self.passing_count > 1

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
                "flags": (["ambiguous-passing-set"] if self.ambiguous else []) + self.flags,
                "search_time_units": self.search_time_units,
                "recovery_queries": self.recovery_queries,
            },
        }


# ---------------------------------------------------------------------------
# candidate recovery shared by both modes


def _verify_candidates(instance: ConstructionInstance, db: QueryDatabase,
                       family: GuessFamily, pairs: List[Tuple[int, int]], g: int,
                       samples: Sequence[int]) -> Tuple[Optional[KeyMaterial], int]:
    """Verified key material for guess g and its Simon samples (None when no
    candidate verifies), with the cipher evaluations spent.

    Enumerates every period candidate consistent with the samples (the whole
    nullspace, so the true whitening prefix is always among them, including
    the constant-function case 0), completes the remaining key by peeling one
    recorded pair, and re-encrypts every recorded pair offline to verify.
    """
    if not pairs:
        return None, 0
    y1, y2 = family.split(g)
    pt0, ct0 = pairs[0]
    members = gf2.nullspace_members(samples, db.u)
    spent = 0
    # rank-deficient nonzero samples point at a nonzero period, so try those
    # first; the zero prefix (a constant test function) comes last
    for prefix in [m for m in members if m] + [0]:
        k1 = (prefix << db.embed_shift) | y1
        km, evals = complete_key(instance.kind, instance.components, y2, k1, pt0, ct0)
        ok, checked = pair_check(instance, km, pairs)
        spent += evals + checked
        if ok:
            return km, spent
    return None, spent


# ---------------------------------------------------------------------------
# per-mode draw step: (measured guess, Simon samples) for one search


def _tensor_draw(db: QueryDatabase, family: GuessFamily, rng: np.random.Generator,
                 iterations: int, passing: List[int], dists: np.ndarray,
                 excluded: Set[int]) -> Tuple[int, List[int]]:
    """Land on an active passing guess with the closed-form success curve,
    otherwise on a uniform other active guess; sample its registers exactly."""
    m = family.search_bits
    curve = qsim.amplify_success_probability(2.0 ** (-m), iterations)
    passing_set = set(passing)
    active_pass = [g for g in passing if g not in excluded]
    active_other = [g for g in range(1 << m) if g not in passing_set and g not in excluded]
    if active_pass and (not active_other or rng.random() < curve):
        g = int(active_pass[rng.integers(len(active_pass))])
    else:
        g = int(active_other[rng.integers(len(active_other))])
    return g, rng.choice(1 << db.u, size=db.c, p=dists[g]).tolist()


# ---------------------------------------------------------------------------
# EXACT-mode search: joint state simulation on the symmetric subspace


def _binomials(top: int, k: int) -> np.ndarray:
    """C(a, j) for a < top and j <= k, as an int64 table."""
    table = np.zeros((top, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


def _pattern(code: int, c: int) -> List[int]:
    """Multiplicities of the payload groups of class code, in ascending
    payload order: bit i - 1 of code is set when register i starts a group."""
    starts = [0] + [i for i in range(1, c) if code >> (i - 1) & 1] + [c]
    return [b - a for a, b in zip(starts, starts[1:])]


def _orbit_parts(regs: List[np.ndarray], u: int, binom: np.ndarray):
    """(class code, row, column) of each orbit given by its sorted register
    states regs, a state being (w << u) | x.

    Equal payloads form the groups of the class code. The column ranks the
    distinct payloads in the combinatorial number system; the row ranks each
    group's multiset of inputs the same way and mixes the groups' ranks with
    the first group lowest.
    """
    shape = regs[0].shape
    code, row, col, part, first = (np.zeros(shape, dtype=np.int64) for _ in range(5))
    group, radix = np.full(shape, -1), np.ones(shape, dtype=np.int64)
    prev = None
    for i, s in enumerate(regs):
        w, x = s >> u, s & ((1 << u) - 1)
        if prev is None:
            new = np.ones(shape, dtype=bool)
        else:
            new = w != prev
            code |= new.astype(np.int64) << (i - 1)
            # close the group that ends before register i
            row += np.where(new, part * radix, 0)
            radix = np.where(new, radix * binom[(1 << u) + i - first - 1, i - first], radix)
            part[new] = 0
            first[new] = i
        group += new
        col += np.where(new, binom[w, group + 1], 0)
        part += binom[x + i - first, i - first + 1]
        prev = w
    row += part * radix
    return code, row, col


# multisets an orbit table places at a time
_PLACE_CHUNK = 1 << 14


def _colex_multisets(size: int, c: int) -> Tuple[np.ndarray, np.ndarray]:
    """(lookup, tuples) for the multisets of c values in range(size): the
    rank of every c-tuple's multiset in colexicographic order, the tuple
    packed with value i as digit i in base size, and the sorted tuple of
    every rank, one per column.

    A register at a time: inserting value s into the k-multiset t with p
    entries at most s gives the rank sum_{j<p} C(t_j + j, j + 1)
    + C(s + p, p + 1) + sum_{j>=p} C(t_j + j + 1, j + 2), and the
    (k + 1)-multisets in colex order are, for each largest value v, the
    first C(v + k, k) k-multisets followed by v.
    """
    values = np.arange(size, dtype=np.int32)
    lookup, tuples = values, values[None, :]
    binom = _binomials(size + c, c + 1)
    for k in range(1, c):
        below = [binom[tuples[j] + j, j + 1] for j in range(k)]
        above = [binom[tuples[j] + j + 1, j + 2] for j in range(k)]
        inserted = np.empty((size, tuples.shape[1]), dtype=np.int32)
        for s in range(size):
            at_most = [t <= s for t in tuples]
            count = sum(at_most)
            inserted[s] = binom[s + count, count + 1] + sum(
                np.where(le, lo, hi) for le, lo, hi in zip(at_most, below, above))
        lookup = inserted[:, lookup].ravel()
        counts = binom[values + k, k]
        pick = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        tuples = np.vstack([tuples[:, pick], np.repeat(values, counts)])
    return lookup, tuples


class _OrbitTables:
    """The orbits of c registers of u + n_out bits under register
    permutations, laid out by class.

    An orbit is a sorted c-tuple of register states (w << u) | x. Its class
    is the multiplicity pattern of the payloads w in ascending order, and a
    class is one dense (rows, cols) block: its rows are the input parts and
    its columns the ascending sequences of distinct payloads. A register
    tuple is written as its index in the full layout (low bits first: the c
    payloads, then the c inputs, register 0 lowest). orbit maps every such
    index to its orbit's position, so it ranks any tuple with one lookup;
    states holds each register's state in the sorted tuple of every orbit,
    and weights each orbit's number of register tuples. folds() builds, on
    the first test, the test's sign and each class's (V_r, -2 sign W^T),
    the one copy of the test a search of this shape applies.
    """

    def __init__(self, u: int, n_out: int, c: int):
        self.u, self.n_out, self.c = u, n_out, c
        binom = _binomials(max((1 << n_out) + 1, (1 << u) + c), c)
        # class codes with at most 2^n_out groups; each bit appends codes
        # above all before, so they ascend
        codes = np.zeros(1, dtype=np.int64)
        for bit in range(c - 1):
            codes = np.concatenate([codes, codes[np.bitwise_count(codes) < (1 << n_out) - 1]
                                    | (1 << bit)])
        self.codes = codes.tolist()
        self.classes = []
        offset = 0
        for code in self.codes:
            pattern = _pattern(code, c)
            rows = math.prod(int(binom[(1 << u) + m - 1, m]) for m in pattern)
            cols = int(binom[1 << n_out, len(pattern)])
            self.classes.append((offset, rows, cols))
            offset += rows * cols
        self.size = offset
        # rank every tuple among the multisets, then place each multiset
        lookup, tuples = _colex_multisets(1 << (u + n_out), c)
        position = np.empty(tuples.shape[1], dtype=np.int32)
        offsets = np.array([cls[0] for cls in self.classes], dtype=np.int64)
        widths = np.array([cls[2] for cls in self.classes], dtype=np.int64)
        for lo in range(0, position.size, _PLACE_CHUNK):
            code, row, col = _orbit_parts(list(tuples[:, lo:lo + _PLACE_CHUNK]), u, binom)
            cls = np.searchsorted(codes, code)
            position[lo:lo + _PLACE_CHUNK] = offsets[cls] + row * widths[cls] + col
        self.states = np.empty((c, self.size), dtype=np.int32)
        self.states[:, position] = tuples
        # lookup's digit i is register i's state w * 2^u + x; the full
        # layout holds the inputs above the payloads
        digits = position[lookup].reshape((1 << n_out, 1 << u) * c)
        del lookup, tuples
        self.orbit = np.ascontiguousarray(
            digits.transpose(list(range(1, 2 * c, 2)) + list(range(0, 2 * c, 2)))).ravel()
        # c! / prod(mult!) register tuples per orbit, one sorted register at
        # a time; at most 2^(c*(u+n_out)), an int32 under the qubit cap
        self.weights = run = np.ones(self.size, dtype=np.int32)
        for i in range(1, c):
            run = np.where(self.states[i] == self.states[i - 1], run + 1, 1)
            self.weights = self.weights * (i + 1) // run
        self._folds: Optional[Tuple[float, list]] = None

    def folds(self) -> Tuple[float, list]:
        """(sign, folds): _test_reflection's sign and each class's
        (V_r, -2 sign W^T), built on first use and kept.

        V_r is _test_reflection's V at each row's representative tuple in
        states, and W sums V over the input tuples that fold onto the row, in
        ascending tuple order: orbit ranks each tuple as the class's first
        column, payloads 0, 1, ... standing in for its groups. V lives only
        while the folds are built.
        """
        if self._folds is None:
            u, n, c = self.u, self.n_out, self.c
            sign, basis = _test_reflection(u, c)
            inputs = [np.arange(1 << (c * u)) >> (i * u) & ((1 << u) - 1) for i in range(c)]
            folds = []
            for code, (offset, rows, cols) in zip(self.codes, self.classes):
                groups = [g for g, m in enumerate(_pattern(code, c)) for _ in range(m)]
                index = sum((g << (i * n)) | (x << (c * n + i * u))
                            for i, (g, x) in enumerate(zip(groups, inputs)))
                row = (self.orbit[index] - offset) // cols
                first = self.states[:, offset:offset + rows * cols:cols] & ((1 << u) - 1)
                order = np.argsort(row, kind="stable")
                starts = np.searchsorted(row[order], np.arange(rows))
                fold = np.ascontiguousarray(np.add.reduceat(basis[order], starts, axis=0).T)
                fold *= -2.0 * sign
                v_r = basis[sum(x << (i * u) for i, x in enumerate(first))]
                v_r.flags.writeable = fold.flags.writeable = False
                folds.append((v_r, fold))
            self._folds = sign, folds
        return self._folds


@lru_cache(maxsize=1)  # a run's trials share one shape; a sweep's points take turns
def _orbit_tables(u: int, n_out: int, c: int) -> _OrbitTables:
    return _OrbitTables(u, n_out, c)


class _JointCircuit:
    """The EXACT search over the guess register (search_bits > 0) and the c
    query registers, held as two vectors over the registers' orbits.

    Every gate is real, so amplitudes are float64. The joint state is one
    branch psi_g per guess. Guess g's test is O_g = F_g^T T F_g: F_g
    transforms each register as the guess does, T = sign * (I - 2 V V^T) is
    the rank test (_test_reflection), and O_g = I for an excluded guess.
    Each O_g is an orthogonal involution, so the state stays of the form
    psi_g = A + O_g B: one iteration (test, then reflection about the
    uniform guess mean) gives psi'_g = (2 N + B) + O_g (-A) with
    N = mean_h O_h A. A search starts from A = psi_0, B = 0 and updates
    (A, B) <- (2 N + B, -A).

    The c registers are identical copies and every operation commutes with
    permuting them, so each branch stays in their symmetric subspace: a
    vector holds one amplitude per orbit (_OrbitTables), about c! times
    fewer than register states. F_g permutes the orbits, and T acts on each
    class's block of rows as sign * (I - 2 V_r W^T) (_OrbitTables.folds).
    A guess's probability weights each orbit's squared amplitude by the
    number of register tuples in it.

    Each test writes every row O_h A into the table S, and the guess sum
    behind N is S summed once along its guess axis, which adds the rows in
    guess order as np.mean does. After the last iteration psi_g = A - S[g],
    and that sum goes into A's vector, free by then. Every search's first
    iteration tests the same psi_0, so with two or more iterations its sum
    over every guess is computed once per circuit, and a search excluding
    E re-tests E's blocks: first - sum_{g in E} O_g psi_0 + |E| psi_0.

    _test, the one loop that applies the O_h, runs on blocks of guesses of
    at most _TEST_BLOCK orbit entries (a power of two), stacked whole: guess
    start + i of the block from start owns work[i*size:(i+1)*size], and each
    class's reflection is one batched product over them. maps[g], built on
    the first test, is guess g's bare orbit permutation; the test adds the
    slot offset (g % block) * size as it copies a block's maps into its
    index, so scattering through it applies F_g and gathering undoes it.
    The measured branch is placed through its guess's row, or its images
    alone when a search without iterations built no maps, and only it is
    expanded to every register state, Hadamarded and squared in place.
    """

    def __init__(self, db: QueryDatabase, family: GuessFamily):
        self.db = db
        self.family = family
        self.m = m = family.search_bits
        self.tables = _orbit_tables(db.u, db.n_out, db.c)
        self.size = self.tables.size
        self.block = min(1 << m, 1 << max(0, (_TEST_BLOCK // self.size).bit_length() - 1))
        self.maps: Optional[np.ndarray] = None
        # psi_0: uniform guesses tensor the database registers, nonzero at
        # the orbit of each multiset of c inputs
        self.amp = (1 << m) ** -0.5
        for _ in range(db.c):
            self.amp = (1 << db.u) ** -0.5 * self.amp
        c, u, n = db.c, db.u, db.n_out
        payload = np.asarray(db.payload)
        inputs = np.arange(1 << (c * u))
        index = 0
        for i in range(c):
            x = (inputs >> (i * u)) & ((1 << u) - 1)
            index = index | (payload[x] << (i * n)) | (x << (c * n + i * u))
        self.start = self.tables.orbit[index]
        # sum_h O_h psi_0 over every guess, once a search runs two iterations
        self.first: Optional[np.ndarray] = None

    def _images(self, start: int, count: int) -> np.ndarray:
        """Orbit permutations of guesses start..start+count-1, one row each:
        each register's image of each state (w << u) | x goes to its int32
        full-layout bits, and the orbit of their OR is looked up."""
        c, u, n = self.db.c, self.db.u, self.db.n_out
        xt, wt = self.family.maps(np.arange(start, start + count)[:, None, None],
                                  np.arange(1 << u), np.arange(1 << n)[:, None])
        index = 0
        for i, states in enumerate(self.tables.states):
            bits = (wt << (i * n)) | (xt << (c * n + i * u))
            index = index | np.take(bits.reshape(count, -1), states, axis=1)
        del xt, wt, bits  # before the lookup casts index to a full int64 copy
        return np.take(self.tables.orbit, index)

    def _build_maps(self) -> None:
        """Every guess's orbit permutation as one int32 table."""
        self.maps = np.empty((1 << self.m, self.size), dtype=np.int32)
        for start in range(0, 1 << self.m, self.block):
            self.maps[start:start + self.block] = self._images(start, self.block)

    def run_search(self, rng: np.random.Generator, iterations: int,
                   excluded: Set[int]) -> Tuple[int, List[int]]:
        """One full amplified search; returns the measured guess and samples."""
        branches = self._amplify(iterations, excluded)
        probs = np.einsum("ij,ij,j->i", branches, branches, self.tables.weights)
        g = int(rng.choice(branches.shape[0], p=probs / probs.sum()))
        # S is freed before the measured branch is expanded
        branch = branches[g].copy()
        del branches
        return g, self._sample_branch(branch, g, rng)

    def _amplify(self, iterations: int, excluded: Set[int]) -> np.ndarray:
        """The state after the search's iterations, one row per guess's branch:
        A - S[g], or a read-only view of A in every row when there are no
        iterations."""
        a = np.zeros(self.size)
        a[self.start] = self.amp
        if not iterations:
            return np.broadcast_to(a, (1 << self.m, self.size))
        rows = np.empty((1 << self.m, self.size))
        b = None  # B = 0 is stored once the first test has freed its buffers
        for step in range(1, iterations + 1):
            if step == 1 and iterations > 1:
                total = self._first_step(a, excluded, rows)
            else:
                self._test(a, excluded, rows)
                # A is not needed once the last iteration's rows are in S
                total = np.add.reduce(rows, axis=0, out=a if step == iterations else None)
            # (A, B) <- (2 N + B, -A), N = total / 2^m as np.mean divides
            total /= 1 << self.m
            total *= 2.0
            if b is None:
                b = np.zeros_like(a)
            b += total
            del total  # a new vector before the last step, freed before the next test
            if step < iterations:
                np.negative(a, out=a)
                a, b = b, a
        return np.subtract(b, rows, out=rows)

    def _first_step(self, psi0: np.ndarray, excluded: Set[int],
                    rows: np.ndarray) -> np.ndarray:
        """sum_h O_h psi_0 for the first of two or more iterations (a new
        vector): the sum over every guess, tested once per circuit, less
        O_g psi_0 - psi_0 for each excluded g, whose blocks are re-tested
        into their rows of rows."""
        if self.first is None:
            self._test(psi0, set(), rows)
            self.first = np.add.reduce(rows, axis=0)
        total = self.first.copy()
        if excluded:
            self._test(psi0, set(), rows, sorted({g - g % self.block for g in excluded}))
            for g in sorted(excluded):
                np.subtract(psi0, rows[g], out=rows[g])
                total += rows[g]
        return total

    def _test(self, state: np.ndarray, excluded: Set[int], rows: np.ndarray,
              starts: Optional[List[int]] = None) -> None:
        """Write O_h state to rows[h] for the guesses h of every block, or of
        the blocks from starts: scatter state through the block's maps,
        reflect each class's rows and gather back. An excluded guess's row
        is state itself, and a block of excluded guesses is not tested."""
        if self.maps is None:
            self._build_maps()
        sign, folds = self.tables.folds()
        work = np.empty(self.block * self.size)
        slots = work.reshape(self.block, self.size)
        classes = []
        for (offset, count, cols), (basis, fold) in zip(self.tables.classes, folds):
            blocks = slots[:, offset:offset + count * cols].reshape(self.block, count, cols)
            classes.append((blocks, basis, fold, np.empty((self.block, fold.shape[0], cols))))
        # the block's maps plus their slots' offsets as one 1-D int64 index,
        # and state once per slot: numpy scatters and gathers that faster than
        # a broadcast or int32 one (an int32 index costs take an int64 copy)
        index = np.empty(self.block * self.size, dtype=np.int64)
        bases, values = 0, state
        if self.block > 1:
            bases = np.arange(0, index.size, self.size, dtype=np.int32).repeat(self.size)
            values = np.tile(state, self.block)
        for start in range(0, 1 << self.m, self.block) if starts is None else starts:
            out = rows[start:start + self.block].reshape(-1)
            held = [g for g in excluded if start <= g < start + self.block]
            if len(held) < self.block:
                np.add(self.maps[start:start + self.block].reshape(-1), bases, out=index)
                work[index] = values
                for blocks, basis, fold, overlap in classes:
                    np.matmul(fold, blocks, out=overlap)
                    np.matmul(basis, overlap, out=blocks)
                np.take(work, index, out=out, mode="clip")
                if sign > 0:
                    out += values
                else:
                    out -= values
            if held:
                rows[held] = state

    def _sample_branch(self, branch: np.ndarray, g: int,
                       rng: np.random.Generator) -> List[int]:
        """Apply guess g's transform to its branch, expand it to every
        register state, Hadamard the inputs and measure them register by
        register: the expansion is squared in place once, and each
        measurement sums the slice of it that the earlier outcomes leave."""
        u, low = self.db.u, self.db.c * self.db.n_out
        image = self._images(g, 1)[0] if self.maps is None else self.maps[g]
        state = np.empty_like(branch)
        state[image] = branch
        del image  # without maps it is a new index as long as the branch
        state = state[self.tables.orbit]
        for q in range(low, low + self.db.c * u):
            qsim.hadamard_qubit(state, q)
        np.square(state, out=state)
        samples = []
        for _ in range(self.db.c):
            # the next register's input is the lowest input axis left
            view = state.reshape(-1, 1 << u, 1 << low)
            probs = view.sum(axis=(0, 2))
            y = int(rng.choice(1 << u, p=probs / probs.sum()))
            state = view[:, y, :]
            samples.append(y)
        return samples


def _rank_deficient_table(u: int, c: int) -> np.ndarray:
    """Boolean table over packed c*u-bit sample tuples (sample i at bits i*u): rank < u."""
    mask = (1 << u) - 1
    return np.array([gf2.rank([(key >> (i * u)) & mask for i in range(c)]) < u
                     for key in range(1 << (c * u))])


def _test_reflection(u: int, c: int) -> Tuple[float, np.ndarray]:
    """(sign, V) with sign * (I - 2 V V^T) = H diag((-1)^[rank < u]) H over the
    packed c*u-bit sample tuples, H the normalized Walsh-Hadamard matrix.

    V holds the columns of H at S, the smaller of the rank-deficient tuples
    (sign +1) and the full-rank ones (sign -1); they are built from the
    parities of a & s, never from the whole of H. V is read-only.
    """
    deficient = _rank_deficient_table(u, c)
    sign = 1.0 if 2 * np.count_nonzero(deficient) <= deficient.size else -1.0
    index = np.arange(deficient.size, dtype=np.min_scalar_type(deficient.size))
    chosen = index[deficient if sign > 0 else ~deficient]
    scale = deficient.size ** -0.5
    basis = np.where(np.bitwise_count(index[:, None] & chosen) & 1, -scale, scale)
    basis.flags.writeable = False
    return sign, basis


# ---------------------------------------------------------------------------
# attack entry points: the one search engine and the attacks built on it


def generalized_offline_simon(instance: ConstructionInstance, db: QueryDatabase,
                              rng: np.random.Generator, *, mode: str = "TENSOR",
                              max_searches: int = 3, build_time: int, seed: int = 0,
                              **fields) -> AttackReport:
    """Search db, the stored database of instance, for the key and report.

    The one engine of both modes and both database attacks. It checks the
    mode, c against MAX_REGISTERS and search_limits (default qubit cap), then
    builds the guess family, scans the passing set once and searches until a
    candidate verifies, max_searches is spent or every guess is excluded.
    Only the draw of the measured guess and its samples depends on the mode:
    EXACT simulates the joint state when there is a guess register, and
    otherwise samples each unentangled register's exact distribution, as
    TENSOR does. The costs follow from the counts after the loop (Cost
    accounting above). fields are the other AttackReport fields.
    """
    if mode not in ("TENSOR", "EXACT"):
        raise ValueError(f"unknown mode {mode!r}")
    if db.c > MAX_REGISTERS:
        raise ValueError(f"{db.c} registers, limit is {MAX_REGISTERS}")
    m = instance.kappa + instance.n - db.u
    if errors := search_limits(m, db.u, db.n_out, db.c, mode):
        raise ValueError("; ".join(errors))
    family = guess_family_for(instance, db.u)
    iterations = qsim.search_iterations(m)
    space = 1 << m
    dists = _scan_distributions(db, family)
    passing = [g for g in range(space)
               if exact_pass_probability(dists[g], db.u, db.c) >= 0.5]
    if mode == "EXACT" and m > 0:
        draw = partial(_JointCircuit(db, family).run_search, rng, iterations)
    else:
        draw = partial(_tensor_draw, db, family, rng, iterations, passing, dists)
    pairs = db.known_pairs()
    excluded: Set[int] = set()
    searches, verify_evals, recovered = 0, 0, None
    while searches < max_searches and len(excluded) < space:
        searches += 1
        g, samples = draw(excluded)
        recovered, spent = _verify_candidates(instance, db, family, pairs, g, samples)
        verify_evals += spent
        if recovered is not None:
            break
        excluded.add(g)
    # per search: a build, the iterations, then the sampling pass on the measured guess
    search_evals = (2 * iterations + 1) * db.c * SPECS[instance.kind].evals
    sim_time = (max(searches, 1) * build_time
                + searches * ((iterations + 1) * db.n_out ** 3 + search_evals))
    k, k1, k2 = report_keys(instance.kind, recovered)
    return AttackReport(
        success=recovered is not None,
        k=k, k1=k1, k2=k2,
        offline_evals=searches * search_evals + verify_evals,
        amplification_iterations=iterations,
        sim_time_units=sim_time,
        mode=mode,
        seed=seed,
        searches=searches,
        passing_count=len(passing),
        search_time_units=sim_time - build_time,
        **fields,
    )


def offline_simon_attack(instance: ConstructionInstance, u: int, c: int,
                         mode: str, rng: np.random.Generator, *,
                         known_inputs=None, max_searches: int = 3,
                         seed: int = 0) -> AttackReport:
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
    else:
        db = build_database_cpa(instance, u, c)
    return generalized_offline_simon(
        instance, db, rng, build_time=db.n_out * (1 << db.u), mode=mode,
        max_searches=max_searches, seed=seed, query_model="Q1",
        online_queries=instance.online_forward - forward_before)


def grover_meets_simon_attack(instance: ConstructionInstance, c: int,
                              rng: np.random.Generator, *,
                              mode: str = "TENSOR", max_searches: int = 3,
                              seed: int = 0) -> AttackReport:
    """Key recovery with superposition access: the database is rebuilt inside
    every test, costing 2c fresh construction queries per amplification
    iteration (c building it, c uncomputing it).

    The reported D counts these in-search queries; the final sampling pass
    that extracts the period is drawn from the stored test statistics and its
    c construction queries are reported separately in the metadata.
    """
    check_attack(instance.kind, "grover_meets_simon")
    db = build_database_cpa(instance, instance.n, c)
    report = generalized_offline_simon(
        instance, db, rng, build_time=0, mode=mode,
        max_searches=max_searches, seed=seed, query_model="Q2",
        online_queries=0, recovery_queries=c)
    report.online_queries = 2 * c * report.amplification_iterations * report.searches
    return report


def em_q2_attack(instance: ConstructionInstance, c: int,
                 rng: np.random.Generator, seed: int = 0) -> AttackReport:
    """Exact-simulation Simon attack on Even-Mansour with superposition access.

    Draws c Simon samples of f(x) = EM(x) XOR P(x) in one qsim.simon_samples
    call, recovers the first whitening key as the period of f, completes the
    second from one classical query and checks the key against the whole
    codebook. A constant or rank-deficient sample set is reported as a
    flagged failure (the degenerate k1 = 0 instance lands here).
    """
    kind = instance.kind
    check_attack(kind, "em_q2")
    n = instance.n
    codebook = codebook_with(kind, instance.components, instance.key_material)
    f = [y ^ p for y, p in zip(codebook, layer_table(instance.layers(None)[1], n))]
    samples = qsim.simon_samples(f, c, rng, out_bits=n)
    offline_evals = c  # one public-permutation oracle call per query
    result = gf2.recover_period(samples, n)
    if result.status == "undetermined":
        # the true period is always in the sampled nullspace; verify candidates
        verified, checked = qsim.verified_periods(f, samples)
        offline_evals += checked
        if len(verified) == 1:
            result = gf2.PeriodResult("period", verified[0])
    flags: List[str] = []
    km = None
    if result.is_period:
        km, evals = complete_key(kind, instance.components, None, result.period,
                                 0, instance.encrypt(0))
        ok, checked = codebook_check(instance, km, codebook)
        offline_evals += evals + checked
        if not ok:
            flags.append("period-verification-failed")
            km = None
    else:
        flags.append(f"degenerate-{result.status}")
    k, k1, k2 = report_keys(kind, km)
    return AttackReport(
        success=km is not None, k=k, k1=k1, k2=k2,
        online_queries=c,
        offline_evals=offline_evals,
        amplification_iterations=0,
        sim_time_units=c * 2 + n ** 3 + offline_evals,
        mode="EXACT",
        seed=seed,
        query_model="Q2",
        searches=1,
        flags=flags,
    )
