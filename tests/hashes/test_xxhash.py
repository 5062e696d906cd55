"""XXH64 against published vectors; XXH3's structural behaviour."""

import pytest

from repro.hashes.xxhash import xxh3_64, xxh64


class TestXXH64Vectors:
    """Vectors cross-checked against the reference xxHash library."""

    def test_empty(self):
        assert xxh64(b"") == 0xEF46DB3751D8E999

    def test_abc(self):
        assert xxh64(b"abc") == 0x44BC2CF5AD770999

    def test_seed_changes_output(self):
        assert xxh64(b"abc", seed=1) != xxh64(b"abc", seed=0)


class TestXXH64Paths:
    def test_short_input_path(self):
        # < 32 bytes takes the no-accumulator path
        assert 0 <= xxh64(b"x" * 31) < (1 << 64)

    def test_long_input_path(self):
        # >= 32 bytes exercises the 4-lane accumulator
        assert 0 <= xxh64(b"x" * 100) < (1 << 64)

    def test_length_sensitivity(self):
        outputs = {xxh64(b"q" * n) for n in range(64)}
        assert len(outputs) == 64

    def test_boundary_lengths(self):
        for n in (31, 32, 33, 63, 64, 65):
            a = xxh64(bytes(range(n % 256)) * (n // 256 + 1))
            assert 0 <= a < (1 << 64)


class TestXXH3:
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 8, 9, 16, 17, 24, 128, 129,
                                   200, 240, 241, 500])
    def test_all_length_paths(self, n):
        data = bytes((i * 7 + 3) & 0xFF for i in range(n))
        h = xxh3_64(data)
        assert 0 <= h < (1 << 64)

    def test_deterministic(self):
        assert xxh3_64(b"user001") == xxh3_64(b"user001")

    def test_seed_changes_output(self):
        assert xxh3_64(b"user001", seed=5) != xxh3_64(b"user001", seed=0)

    def test_24_byte_keys_distribute(self):
        # the simulator's keys are always 24 bytes: check low-bit spread,
        # which is what STLT set indexing consumes
        buckets = [0] * 64
        n = 4096
        for i in range(n):
            key = b"user" + str(i).zfill(20).encode()
            buckets[xxh3_64(key) & 63] += 1
        expected = n / 64
        assert max(buckets) < expected * 1.6
        assert min(buckets) > expected * 0.5

    def test_avalanche_on_similar_keys(self):
        a = xxh3_64(b"user" + b"0" * 19 + b"1")
        b = xxh3_64(b"user" + b"0" * 19 + b"2")
        assert bin(a ^ b).count("1") >= 16


class TestXXH3Len9To16:
    """The 9-16-byte branch sums four terms mod 2^64, as the reference
    ``XXH3_len_9to16_64b`` does: len + swap64(lo) + hi + fold(lo, hi)."""

    @staticmethod
    def _reference(data: bytes, seed: int) -> int:
        from repro.hashes import xxhash as x

        mask = (1 << 64) - 1
        n = len(data)
        secret_lo = ((x._read64(x._SECRET, 24) ^ x._read64(x._SECRET, 32))
                     + seed) & mask
        secret_hi = ((x._read64(x._SECRET, 40) ^ x._read64(x._SECRET, 48))
                     - seed) & mask
        input_lo = int.from_bytes(data[:8], "little") ^ secret_lo
        input_hi = int.from_bytes(data[n - 8:], "little") ^ secret_hi
        swapped = int.from_bytes(input_lo.to_bytes(8, "big"), "little")
        product = input_lo * input_hi
        fold = (product & mask) ^ (product >> 64)
        acc = (n + swapped + input_hi + fold) & mask
        acc ^= acc >> 37
        acc = (acc * 0x165667919E3779F9) & mask
        return acc ^ (acc >> 32)

    @pytest.mark.parametrize("n", range(9, 17))
    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, (1 << 64) - 1])
    def test_matches_reference_formula(self, n, seed):
        data = bytes((i * 37 + 11 + n) & 0xFF for i in range(n))
        assert xxh3_64(data, seed) == self._reference(data, seed)

    def test_swap64_is_a_byte_swap(self):
        from repro.hashes.xxhash import _swap64

        assert _swap64(0x0102030405060708) == 0x0807060504030201
