"""SipHash-2-4 against the reference vectors from the SipHash paper.

The vectors use key ``000102...0f`` and messages ``b"" , b"\\x00",
b"\\x00\\x01", ...`` — the first entries of the official ``vectors_64``
table of the reference implementation.
"""

import pytest

from repro.hashes.siphash import DEFAULT_KEY, siphash24

REFERENCE_KEY = bytes(range(16))

#: (message length, expected) — official SipHash-2-4 64-bit test vectors,
#: plus the 15-byte worked example of the SipHash paper's appendix
VECTORS = [
    (0, 0x726FDB47DD0E0E31),
    (1, 0x74F839C593DC67FD),
    (2, 0x0D6C8009D9A94F5A),
    (3, 0x85676696D7FB7E2D),
    (4, 0xCF2794E0277187B7),
    (5, 0x18765564CD99A68D),
    (6, 0xCBC9466E58FEE3CE),
    (7, 0xAB0200F58B01D137),
    (8, 0x93F5F5799A932462),
    (15, 0xA129CA6149BE45E5),
]


class TestReferenceVectors:
    @pytest.mark.parametrize("length,expected", VECTORS)
    def test_official_vector(self, length, expected):
        message = bytes(range(length))
        assert siphash24(message, REFERENCE_KEY) == expected

    def test_default_key_is_reference_key(self):
        assert DEFAULT_KEY == REFERENCE_KEY


class TestBehaviour:
    def test_output_is_64_bit(self):
        for n in range(0, 40):
            h = siphash24(bytes(range(n)), REFERENCE_KEY)
            assert 0 <= h < (1 << 64)

    def test_deterministic(self):
        assert siphash24(b"hello") == siphash24(b"hello")

    def test_key_changes_output(self):
        other_key = bytes(range(1, 17))
        assert siphash24(b"hello", REFERENCE_KEY) != \
            siphash24(b"hello", other_key)

    def test_requires_16_byte_key(self):
        with pytest.raises(ValueError):
            siphash24(b"x", b"short")

    def test_all_tail_lengths(self):
        # exercise every remainder length of the final block
        outputs = {siphash24(b"a" * n) for n in range(17)}
        assert len(outputs) == 17

    def test_single_bit_flip_diffuses(self):
        a = siphash24(b"\x00" * 24)
        b = siphash24(b"\x01" + b"\x00" * 23)
        # at least a quarter of the output bits should flip
        assert bin(a ^ b).count("1") >= 16
