"""Seeded ideal-model primitives and the keyed constructions built from them.

Blocks and keys are little-endian integers; bit i of x is (x >> i) & 1.
Sizes are capped at 16 bits so permutation tables and attack state stay
desk-sized. Instances are immutable after construction except for their
online query counters.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MAX_BITS = 16


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from labeled parts (independent of hash seed)."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


class Permutation:
    """Explicit bijection on n-bit blocks; the inverse table is built from
    table the first time it is read."""

    def __init__(self, n: int, table: List[int]) -> None:
        self.n = n
        self.table = table
        self._inverse: Optional[List[int]] = None

    @property
    def inverse_table(self) -> List[int]:
        if self._inverse is None:
            self._inverse = [0] * len(self.table)
            for x, y in enumerate(self.table):
                self._inverse[y] = x
        return self._inverse


def make_permutation(n: int, seed: int) -> Permutation:
    """Uniformly drawn bijection on {0,...,2^n-1} (Fisher-Yates over the seeded stream).

    The draw is random.Random(seed).shuffle's, written out so that the tables
    do not hang on a stdlib helper: for i from 2^n - 1 down to 1, j is the
    first getrandbits((i + 1).bit_length()) value that is at most i, and
    entries i and j swap.
    """
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"block size n={n} out of range [1, {MAX_BITS}]")
    getrandbits = random.Random(seed).getrandbits
    table = list(range(1 << n))
    for i in range(len(table) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        table[i], table[j] = table[j], table[i]
    return Permutation(n, table)


@dataclass
class IdealCipher:
    """Lazily materialized family key -> random permutation.

    Each key's permutation is drawn from an independent substream of the
    cipher seed, so materialization order does not matter and repeated
    materialization is identical.
    """

    n: int
    kappa: int
    seed: int
    cache: Dict[int, Permutation] = field(default_factory=dict)

    def permutation(self, key: int) -> Permutation:
        if not 0 <= key < (1 << self.kappa):
            raise ValueError(f"key {key} out of range for kappa={self.kappa}")
        perm = self.cache.get(key)
        if perm is None:
            perm = make_permutation(self.n, derive_seed(self.seed, "key", key))
            self.cache[key] = perm
        return perm


def make_ideal_cipher(n: int, kappa: int, seed: int) -> IdealCipher:
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"block size n={n} out of range [1, {MAX_BITS}]")
    if not 1 <= kappa <= MAX_BITS:
        raise ValueError(f"key size kappa={kappa} out of range [1, {MAX_BITS}]")
    return IdealCipher(n, kappa, seed)


def derive_related_key(k: int) -> int:
    """The second key of the 2XOR cascade: the fixed, fixpoint-free pi(k) = k XOR 1."""
    return k ^ 1


class ConstructionKind(str, Enum):
    EM = "EM"
    FX = "FX"
    EFX = "EFX"
    TWO_XOR = "TWO_XOR"
    DEFX = "DEFX"
    ECBC3 = "ECBC3"


@dataclass
class KeyMaterial:
    """Key record; which fields are required depends on the construction kind.

    k is the kappa-bit inner key, k1/k2 are n-bit whitening keys. TWO_XOR
    stores its single whitening key z in k1. ECBC3 carries the two fixed
    unknown message blocks in k1/k2. The kind's ConstructionSpec names the
    fields it uses.
    """

    k: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None


# A layer is a chain of permutations applied in order; () is the identity.
Layer = Tuple[Permutation, ...]
Layers = Tuple[Layer, Layer, Layer]


def _apply(layer: Layer, v: int) -> int:
    for perm in layer:
        v = perm.table[v]
    return v


def _unapply(layer: Layer, v: int) -> int:
    for perm in reversed(layer):
        v = perm.inverse_table[v]
    return v


def layer_table(layer: Layer, n: int) -> List[int]:
    """Forward table of a layer on n-bit values, the identity when empty."""
    table = layer[0].table if layer else list(range(1 << n))
    for perm in layer[1:]:
        table = [perm.table[v] for v in table]
    return table


def layer_inverse_table(layer: Layer, n: int) -> List[int]:
    """Inverse table of a layer on n-bit values, the identity when empty."""
    table = layer[-1].inverse_table if layer else list(range(1 << n))
    for perm in reversed(layer[:-1]):
        table = [perm.inverse_table[v] for v in table]
    return table


@dataclass(frozen=True)
class ConstructionSpec:
    """Everything the attacks and the harness know about one construction kind.

    Every kind is layered: it encrypts as outer(w2 ^ inner(w1 ^ relabel(x))).
    layers(components, k) gives (relabel, inner, outer) under inner key k,
    and whitening names the key-material fields that hold w1 and w2. Reports
    show the key as (k, w1, w2). evals and full_domain follow from layers.
    """

    # seed label of each component, in order
    components: Tuple[str, ...]
    # (field, "kappa" or "n" bits) in the order build_instance draws them
    key_fields: Tuple[Tuple[str, str], ...]
    attacks: Tuple[str, ...]
    layers: Callable[[Sequence, Optional[int]], Layers]
    whitening: Tuple[str, str] = ("k1", "k2")
    # a MAC-style kind refuses decryption
    forward_only: bool = False

    @property
    def keyed(self) -> bool:
        """Whether the components are ideal ciphers under an inner key k."""
        return any(name == "k" for name, _ in self.key_fields)

    @cached_property
    def _stand_in_layers(self) -> Layers:
        # layer shapes hang on neither block size nor key: 1-bit ideal ciphers stand in
        return self.layers([IdealCipher(1, 1, 0)] * len(self.components), 0)

    @cached_property
    def evals(self) -> int:
        """Forward E evaluations per encryption, the unit of the cost accounting."""
        return sum(map(len, self._stand_in_layers))

    @cached_property
    def full_domain(self) -> bool:
        """Whether relabel permutes all n input bits, so the attack needs u = n."""
        return bool(self._stand_in_layers[0])


def _em_layers(comps, k) -> Layers:
    return (), (comps[0],), ()


def _fx_layers(comps, k) -> Layers:
    return (), (comps[0].permutation(k),), ()


def _efx_layers(comps, k) -> Layers:
    return (), (comps[0].permutation(k),), (comps[1].permutation(k),)


def _two_xor_layers(comps, k) -> Layers:
    e = comps[0]
    return (), (e.permutation(k),), (e.permutation(derive_related_key(k)),)


def _defx_layers(comps, k) -> Layers:
    e1, e2, e3 = comps
    return (e1.permutation(k),), (e2.permutation(k),), (e3.permutation(k),)


def _ecbc3_layers(comps, k) -> Layers:
    # the last message block passes E_k and then the derived-key tag layer
    e = comps[0]
    base = e.permutation(k)
    return (base,), (base,), (base, e.permutation(derive_related_key(k)))


# the attacks (rows of harness.ATTACKS) that every whitened block cipher accepts
_BLOCK_ATTACKS = ("offline_simon", "grover_meets_simon", "guess_and_em", "exhaustive")
_WHITENED = (("k", "kappa"), ("k1", "n"), ("k2", "n"))

SPECS: Dict[ConstructionKind, ConstructionSpec] = {
    ConstructionKind.EM: ConstructionSpec(
        components=("perm",), key_fields=(("k1", "n"), ("k2", "n")),
        attacks=_BLOCK_ATTACKS + ("em_q2",), layers=_em_layers),
    ConstructionKind.FX: ConstructionSpec(
        components=("E",), key_fields=_WHITENED, attacks=_BLOCK_ATTACKS, layers=_fx_layers),
    ConstructionKind.EFX: ConstructionSpec(
        components=("E1", "E2"), key_fields=_WHITENED, attacks=_BLOCK_ATTACKS, layers=_efx_layers),
    ConstructionKind.TWO_XOR: ConstructionSpec(
        components=("E",), key_fields=(("k", "kappa"), ("k1", "n")),
        attacks=_BLOCK_ATTACKS, whitening=("k1", "k1"), layers=_two_xor_layers),
    ConstructionKind.DEFX: ConstructionSpec(
        components=("E1", "E2", "E3"), key_fields=_WHITENED,
        attacks=("offline_simon", "exhaustive"), layers=_defx_layers),
    ConstructionKind.ECBC3: ConstructionSpec(
        components=("E",), key_fields=_WHITENED,
        attacks=("offline_simon",), layers=_ecbc3_layers, forward_only=True),
}


def check_attack(kind: ConstructionKind, attack: str) -> None:
    """Raise ValueError unless the registry lists attack for kind."""
    if attack not in SPECS[kind].attacks:
        raise ValueError(f"{attack} does not support {ConstructionKind(kind).value}")


def key_widths(kind: ConstructionKind, n: int, kappa: int) -> List[Tuple[str, int]]:
    """(field, bits) of the kind's key material, in draw order."""
    return [(name, kappa if width == "kappa" else n)
            for name, width in SPECS[kind].key_fields]


def key_material(kind: ConstructionKind, k: Optional[int], w1: int, w2: int) -> KeyMaterial:
    """Key material of a layered kind from its inner key and whitening values."""
    spec = SPECS[kind]
    slot1, slot2 = spec.whitening
    fields = {slot2: w2, slot1: w1}  # a shared slot (TWO_XOR) keeps w1
    if spec.keyed:
        fields["k"] = k
    return KeyMaterial(**fields)


def report_keys(kind: ConstructionKind, km: Optional[KeyMaterial]):
    """(k, w1, w2) as reports show them; all None without key material."""
    if km is None:
        return None, None, None
    slot1, slot2 = SPECS[kind].whitening
    return km.k, getattr(km, slot1), getattr(km, slot2)


def encrypt_with(kind: ConstructionKind, components: Sequence,
                 km: KeyMaterial, x: int) -> int:
    """Evaluate the construction formula at arbitrary key material."""
    spec = SPECS[kind]
    relabel, inner, outer = spec.layers(components, km.k)
    slot1, slot2 = spec.whitening
    # the layer loops are inlined: this runs once per cipher query
    for perm in relabel:
        x = perm.table[x]
    x ^= getattr(km, slot1)
    for perm in inner:
        x = perm.table[x]
    x ^= getattr(km, slot2)
    for perm in outer:
        x = perm.table[x]
    return x


def codebook_with(kind: ConstructionKind, components: Sequence,
                  km: KeyMaterial) -> List[int]:
    """encrypt_with(kind, components, km, x) for every n-bit x, in order,
    composed from the three layer tables in one pass."""
    spec = SPECS[kind]
    relabel, inner, outer = spec.layers(components, km.k)
    w1, w2 = (getattr(km, slot) for slot in spec.whitening)
    n = components[0].n
    inner, outer = layer_table(inner, n), layer_table(outer, n)
    return [outer[w2 ^ inner[w1 ^ x]] for x in layer_table(relabel, n)]


def decrypt_with(kind: ConstructionKind, components: Sequence,
                 km: KeyMaterial, y: int) -> int:
    spec = SPECS[kind]
    if spec.forward_only:
        raise ValueError(f"{ConstructionKind(kind).value} is forward-only "
                         "(MAC-style function)")
    relabel, inner, outer = spec.layers(components, km.k)
    slot1, slot2 = spec.whitening
    return _unapply(relabel, getattr(km, slot1) ^ _unapply(inner, getattr(km, slot2)
                                                           ^ _unapply(outer, y)))


def pair_check(instance: ConstructionInstance, km: KeyMaterial,
               pairs: Iterable[Tuple[int, int]]) -> Tuple[bool, int]:
    """(whether km sends every pair's plaintext to its ciphertext, evaluations
    spent), one evaluation per layer for each pair tried up to the first miss."""
    layers = SPECS[instance.kind].evals
    evals = 0
    for pt, ct in pairs:
        evals += layers
        if encrypt_with(instance.kind, instance.components, km, pt) != ct:
            return False, evals
    return True, evals


def codebook_check(instance: ConstructionInstance, km: KeyMaterial,
                   codebook: Sequence[int]) -> Tuple[bool, int]:
    """pair_check(instance, km, enumerate(codebook)), the pairs compared
    against codebook_with's table: the same verdict and evaluations."""
    table = codebook_with(instance.kind, instance.components, km)
    miss = next((x for x, (y, ct) in enumerate(zip(table, codebook)) if y != ct), None)
    tried = len(codebook) if miss is None else miss + 1
    return miss is None, tried * SPECS[instance.kind].evals


def complete_key(kind: ConstructionKind, components: Sequence,
                 k: Optional[int], w1: int, pt: int, ct: int) -> Tuple[KeyMaterial, int]:
    """Key material with inner key k and first whitening w1 that sends pt to ct.

    Peels one pair, w2 = outer^-1(ct) ^ inner(w1 ^ relabel(pt)), and returns
    the key material with the E evaluations spent. A kind whose whitening
    slots are one key (TWO_XOR) has nothing left to complete.
    """
    spec = SPECS[kind]
    if spec.whitening[0] == spec.whitening[1]:
        return key_material(kind, k, w1, w1), 0
    relabel, inner, outer = spec.layers(components, k)
    w2 = _unapply(outer, ct) ^ _apply(inner, w1 ^ _apply(relabel, pt))
    return key_material(kind, k, w1, w2), spec.evals


@dataclass
class ConstructionInstance:
    """A keyed construction exposing encryption with an online query counter."""

    kind: ConstructionKind
    components: List
    key_material: KeyMaterial
    n: int
    online_forward: int = 0

    def encrypt(self, x: int) -> int:
        self.online_forward += 1
        return encrypt_with(self.kind, self.components, self.key_material, x)

    def layers(self, k: Optional[int]) -> Layers:
        """(relabel, inner, outer) under inner-key guess k."""
        return SPECS[self.kind].layers(self.components, k)

    @property
    def kappa(self) -> int:
        """Search-key width: bits of the inner key the construction hides (0 for EM)."""
        return self.components[0].kappa if SPECS[self.kind].keyed else 0


def _check_block(name: str, value: Optional[int], bits: int) -> int:
    if value is None:
        raise ValueError(f"key material field {name} is required")
    if not 0 <= value < (1 << bits):
        raise ValueError(f"key material field {name}={value} out of range for {bits} bits")
    return value


def make_construction(kind: ConstructionKind, components: Sequence,
                      key_material: KeyMaterial) -> ConstructionInstance:
    """Validate components and key material, return an instance with zeroed counters."""
    kind = ConstructionKind(kind)
    spec = SPECS[kind]
    components = list(components)
    if len(components) != len(spec.components):
        raise ValueError(f"{kind.value} expects {len(spec.components)} "
                         f"component(s), got {len(components)}")
    n = components[0].n
    if any(c.n != n for c in components):
        raise ValueError("components disagree on block size")
    kappa = components[0].kappa if spec.keyed else 0
    for name, bits in key_widths(kind, n, kappa):
        _check_block(name, getattr(key_material, name), bits)
    return ConstructionInstance(kind, components, key_material, n)
