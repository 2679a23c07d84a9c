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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MAX_BITS = 16


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from labeled parts (independent of hash seed)."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


@dataclass
class Permutation:
    """Explicit bijection on n-bit blocks together with its inverse table."""

    n: int
    table: List[int]
    inverse_table: List[int]


def make_permutation(n: int, seed: int) -> Permutation:
    """Uniformly drawn bijection on {0,...,2^n-1} (Fisher-Yates over the seeded stream)."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"block size n={n} out of range [1, {MAX_BITS}]")
    table = list(range(1 << n))
    random.Random(seed).shuffle(table)
    inverse = [0] * (1 << n)
    for x, y in enumerate(table):
        inverse[y] = x
    return Permutation(n, table, inverse)


def identity_permutation(n: int) -> Permutation:
    table = list(range(1 << n))
    return Permutation(n, table, list(table))


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

    def forward(self, key: int, x: int) -> int:
        return self.permutation(key).table[x]

    def backward(self, key: int, y: int) -> int:
        return self.permutation(key).inverse_table[y]


def make_ideal_cipher(n: int, kappa: int, seed: int) -> IdealCipher:
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"block size n={n} out of range [1, {MAX_BITS}]")
    if not 1 <= kappa <= MAX_BITS:
        raise ValueError(f"key size kappa={kappa} out of range [1, {MAX_BITS}]")
    return IdealCipher(n, kappa, seed)


def identity_cipher(n: int, kappa: int) -> IdealCipher:
    """Stub cipher whose every key is the identity permutation (for tests)."""
    cipher = make_ideal_cipher(n, kappa, 0)
    ident = identity_permutation(n)
    for key in range(1 << kappa):
        cipher.cache[key] = ident
    return cipher


def _xor_one(k: int) -> int:
    return k ^ 1


@dataclass
class KeyDerivation:
    """Fixpoint-free permutation on kappa-bit keys; default is k -> k XOR 1."""

    pi: Callable[[int], int] = _xor_one


def derive_related_key(kd: KeyDerivation, k: int) -> int:
    v = kd.pi(k)
    if v == k:
        raise ValueError(f"key derivation has a fixpoint at k={k}")
    return v


class ConstructionKind(str, Enum):
    EM = "EM"
    FX = "FX"
    EFX = "EFX"
    TWO_XOR = "TWO_XOR"
    DEFX = "DEFX"
    ITERATED_EM = "ITERATED_EM"
    ECBC3 = "ECBC3"


@dataclass
class KeyMaterial:
    """Key record; which fields are required depends on the construction kind.

    k is the kappa-bit inner key, k1/k2 are n-bit whitening keys. TWO_XOR
    stores its single whitening key z in k1. ITERATED_EM carries the list of
    n-bit round-key values in keys plus a schedule of indices into it. ECBC3
    carries the two fixed unknown message blocks in m1/m2. The kind's
    ConstructionSpec names the fields it uses.
    """

    k: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    schedule: Optional[List[int]] = None
    keys: Optional[List[int]] = None
    m1: Optional[int] = None
    m2: Optional[int] = None


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

    A layered construction encrypts as outer(w2 ^ inner(w1 ^ relabel(x))):
    layers(components, k, kd) gives (relabel, inner, outer) under inner key
    k, and whitening names the key-material fields that hold w1 and w2.
    Reports show the key as (k, w1, w2). A kind outside that family brings
    its own encrypt, decrypt and check and accepts no attack.
    """

    # seed label of each component, in order; () takes any number
    components: Tuple[str, ...]
    # (field, "kappa" or "n" bits) in the order build_instance draws them
    key_fields: Tuple[Tuple[str, str], ...]
    attacks: Tuple[str, ...]
    whitening: Tuple[str, str] = ("k1", "k2")
    # forward E evaluations per encryption, the unit of the cost accounting
    evals: int = 0
    layers: Optional[Callable[[Sequence, Optional[int], Optional[KeyDerivation]],
                              Layers]] = None
    # relabel permutes all n input bits, so the attack needs u = n
    full_domain: bool = False
    encrypt: Optional[Callable] = None
    decrypt: Optional[Callable] = None
    check: Optional[Callable[[List, KeyMaterial], None]] = None

    @property
    def keyed(self) -> bool:
        """Whether the components are ideal ciphers under an inner key k."""
        return any(name == "k" for name, _ in self.key_fields)


def _em_layers(comps, k, kd) -> Layers:
    return (), (comps[0],), ()


def _fx_layers(comps, k, kd) -> Layers:
    return (), (comps[0].permutation(k),), ()


def _efx_layers(comps, k, kd) -> Layers:
    return (), (comps[0].permutation(k),), (comps[1].permutation(k),)


def _two_xor_layers(comps, k, kd) -> Layers:
    e = comps[0]
    return (), (e.permutation(k),), (e.permutation(derive_related_key(kd, k)),)


def _defx_layers(comps, k, kd) -> Layers:
    e1, e2, e3 = comps
    return (e1.permutation(k),), (e2.permutation(k),), (e3.permutation(k),)


def _ecbc3_layers(comps, k, kd) -> Layers:
    # the last message block passes E_k and then the derived-key tag layer
    e = comps[0]
    base = e.permutation(k)
    return (base,), (base,), (base, e.permutation(derive_related_key(kd, k)))


def _forward_only(comps, km, kd, y):
    raise ValueError("ECBC3 is forward-only (MAC-style function)")


def _iterated_em_encrypt(comps, km, kd, x: int) -> int:
    v = x ^ km.keys[km.schedule[0]]
    for i, perm in enumerate(comps):
        v = perm.table[v] ^ km.keys[km.schedule[i + 1]]
    return v


def _iterated_em_decrypt(comps, km, kd, y: int) -> int:
    v = y ^ km.keys[km.schedule[-1]]
    for i in range(len(comps) - 1, -1, -1):
        v = comps[i].inverse_table[v] ^ km.keys[km.schedule[i]]
    return v


def _iterated_em_check(comps: List, km: KeyMaterial) -> None:
    if not comps:
        raise ValueError("ITERATED_EM needs at least one permutation")
    if km.schedule is None or km.keys is None:
        raise ValueError("ITERATED_EM needs keys and a schedule")
    if len(km.schedule) != len(comps) + 1:
        raise ValueError("schedule must have one more entry than there are rounds")
    for idx in km.schedule:
        if not 0 <= idx < len(km.keys):
            raise ValueError(f"schedule index {idx} out of bounds")
    for key in km.keys:
        _check_block("keys[]", key, comps[0].n)


_SUPERPOSITION = ("offline_simon", "grover_meets_simon")
_CLASSICAL = ("guess_and_em", "exhaustive")
_WHITENED = (("k", "kappa"), ("k1", "n"), ("k2", "n"))

SPECS: Dict[ConstructionKind, ConstructionSpec] = {
    ConstructionKind.EM: ConstructionSpec(
        components=("perm",), key_fields=(("k1", "n"), ("k2", "n")),
        attacks=_SUPERPOSITION + ("em_q2",) + _CLASSICAL, evals=1, layers=_em_layers),
    ConstructionKind.FX: ConstructionSpec(
        components=("E",), key_fields=_WHITENED,
        attacks=_SUPERPOSITION + _CLASSICAL, evals=1, layers=_fx_layers),
    ConstructionKind.EFX: ConstructionSpec(
        components=("E1", "E2"), key_fields=_WHITENED,
        attacks=_SUPERPOSITION + _CLASSICAL, evals=2, layers=_efx_layers),
    ConstructionKind.TWO_XOR: ConstructionSpec(
        components=("E",), key_fields=(("k", "kappa"), ("k1", "n")),
        attacks=_SUPERPOSITION + _CLASSICAL, whitening=("k1", "k1"), evals=2,
        layers=_two_xor_layers),
    ConstructionKind.DEFX: ConstructionSpec(
        components=("E1", "E2", "E3"), key_fields=_WHITENED,
        attacks=("offline_simon", "exhaustive"), evals=3, layers=_defx_layers,
        full_domain=True),
    ConstructionKind.ITERATED_EM: ConstructionSpec(
        components=(), key_fields=(), attacks=(), encrypt=_iterated_em_encrypt,
        decrypt=_iterated_em_decrypt, check=_iterated_em_check),
    ConstructionKind.ECBC3: ConstructionSpec(
        components=("E",), key_fields=(("k", "kappa"), ("m1", "n"), ("m2", "n")),
        attacks=("offline_simon",), whitening=("m1", "m2"), evals=4,
        layers=_ecbc3_layers, full_domain=True, decrypt=_forward_only),
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
                 km: KeyMaterial, kd: Optional[KeyDerivation], x: int) -> int:
    """Evaluate the construction formula at arbitrary key material."""
    spec = SPECS[kind]
    if spec.encrypt is not None:
        return spec.encrypt(components, km, kd, x)
    relabel, inner, outer = spec.layers(components, km.k, kd)
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


def decrypt_with(kind: ConstructionKind, components: Sequence,
                 km: KeyMaterial, kd: Optional[KeyDerivation], y: int) -> int:
    spec = SPECS[kind]
    if spec.decrypt is not None:
        return spec.decrypt(components, km, kd, y)
    relabel, inner, outer = spec.layers(components, km.k, kd)
    slot1, slot2 = spec.whitening
    return _unapply(relabel, getattr(km, slot1) ^ _unapply(inner, getattr(km, slot2)
                                                           ^ _unapply(outer, y)))


def complete_key(kind: ConstructionKind, components: Sequence,
                 kd: Optional[KeyDerivation], k: Optional[int], w1: int,
                 pt: int, ct: int) -> Tuple[KeyMaterial, int]:
    """Key material with inner key k and first whitening w1 that sends pt to ct.

    Peels one pair, w2 = outer^-1(ct) ^ inner(w1 ^ relabel(pt)), and returns
    the key material with the E evaluations spent. A kind whose whitening
    slots are one key (TWO_XOR) has nothing left to complete.
    """
    spec = SPECS[kind]
    if spec.whitening[0] == spec.whitening[1]:
        return key_material(kind, k, w1, w1), 0
    relabel, inner, outer = spec.layers(components, k, kd)
    w2 = _unapply(outer, ct) ^ _apply(inner, w1 ^ _apply(relabel, pt))
    return key_material(kind, k, w1, w2), spec.evals


@dataclass
class ConstructionInstance:
    """A keyed construction exposing encrypt/decrypt with online query counters."""

    kind: ConstructionKind
    components: List
    key_material: KeyMaterial
    key_derivation: Optional[KeyDerivation]
    n: int
    online_forward: int = 0
    online_backward: int = 0

    def encrypt(self, x: int) -> int:
        self.online_forward += 1
        return self._raw_encrypt(x)

    def decrypt(self, y: int) -> int:
        x = self._raw_decrypt(y)  # a forward-only kind raises before counting
        self.online_backward += 1
        return x

    # uncounted access, used by simulators that realize black-box quantum
    # oracles; callers account for oracle applications themselves
    def _raw_encrypt(self, x: int) -> int:
        return encrypt_with(self.kind, self.components, self.key_material,
                            self.key_derivation, x)

    def _raw_decrypt(self, y: int) -> int:
        return decrypt_with(self.kind, self.components, self.key_material,
                            self.key_derivation, y)

    def layers(self, k: Optional[int]) -> Layers:
        """(relabel, inner, outer) under inner-key guess k."""
        return SPECS[self.kind].layers(self.components, k, self.key_derivation)

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
                      key_material: KeyMaterial,
                      key_derivation: Optional[KeyDerivation] = None) -> ConstructionInstance:
    """Validate components and key material, return an instance with zeroed counters."""
    kind = ConstructionKind(kind)
    spec = SPECS[kind]
    components = list(components)
    if spec.check is not None:
        spec.check(components, key_material)
    elif len(components) != len(spec.components):
        raise ValueError(f"{kind.value} expects {len(spec.components)} "
                         f"component(s), got {len(components)}")
    n = components[0].n
    if any(c.n != n for c in components):
        raise ValueError("components disagree on block size")
    kappa = components[0].kappa if spec.keyed else 0
    for name, bits in key_widths(kind, n, kappa):
        _check_block(name, getattr(key_material, name), bits)
    if key_derivation is None:
        key_derivation = KeyDerivation()
    return ConstructionInstance(kind, components, key_material, key_derivation, n)
