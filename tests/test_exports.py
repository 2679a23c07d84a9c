import efxlab
from efxlab import ciphers


def test_every_exported_name_resolves():
    assert efxlab.__all__
    assert all(hasattr(efxlab, name) for name in efxlab.__all__)
    for sampler in ("simon_samples", "simon_subroutine", "simon_full"):
        assert sampler in efxlab.__all__
    for removed in ("KeyDerivation", "test_key_guess", "KeyGuess"):
        assert removed not in efxlab.__all__
        assert not hasattr(efxlab, removed)


def test_related_key_is_the_fixpoint_free_xor_one():
    # every key of every width kappa <= 16 stays a key of that width
    for k in range(1 << ciphers.MAX_BITS):
        related = efxlab.derive_related_key(k)
        assert related == k ^ 1 and related != k
        assert related.bit_length() <= max(1, k.bit_length())
