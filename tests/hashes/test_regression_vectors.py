"""Pinned outputs of the hashes that have no published vectors here.

SipHash-2-4 and XXH64 are checked against reference vectors elsewhere;
MurmurHash64A, this repo's XXH3 variant (derived secret, see
``repro/hashes/xxhash.py``) and djb2 are not, so these tables pin their
outputs.  Every length branch is covered (0, 1-3, 4-8, 17-128, 129-240
and 241+ for XXH3; the 8-byte block loop and every tail length for
Murmur) except XXH3's 9-16-byte branch, which
``tests/hashes/test_xxhash.py`` checks against the reference formula
instead.  Any kernel that must agree with the scalar functions (e.g.
``repro.hashes.batch``) is then tied to fixed numbers, not only to the
scalar code it could drift together with.
"""

import pytest

from repro.hashes import djb2, murmur64a, xxh3_64, xxh64
from repro.workloads.keys import key_bytes


def _data(n: int) -> bytes:
    return bytes((i * 131 + 7) & 0xFF for i in range(n))


MURMUR = {
    0: 0x0000000000000000,
    1: 0x876D6099E0CEF9CB,
    2: 0x7B89536EC419F54A,
    3: 0xE5A0BD424EFC719F,
    4: 0x118A71E033E98680,
    5: 0x32BF3E2327C1317A,
    7: 0x5DF02F478AA58148,
    8: 0x8E0CE1579C4F5BAA,
    17: 0x3E65670C38CDA4D2,
    24: 0x8EF0EDBD1AA22761,
    31: 0xD7D9D7095427D6DA,
    32: 0x99AF10CE43DA9DB8,
    33: 0x17919085C47CD8AA,
    64: 0x5991ADEED08A7AF5,
    100: 0x6FD6C3D155DB67E9,
    127: 0x0492B8EEC7CC0E4C,
    128: 0x07D384823BD3C804,
    129: 0x2685EB60F029EF87,
    160: 0x499C2114B22EB31E,
    200: 0xC2AECE5D8A8FFD2F,
    239: 0x097A2E3BF0D5A4E4,
    240: 0x1211C014E04C3784,
    241: 0xD9C36FF802DAC821,
    300: 0x6D8552AF04853EEC,
}

XXH3 = {
    0: 0xFF09101475684F8C,
    1: 0xF5E9CC69CAACC023,
    2: 0x2399D0E7A74C4338,
    3: 0xB270C4BBFF7EFE2B,
    4: 0x57C65DDDD717E19B,
    5: 0x7061FE39469FA068,
    7: 0x93358819B1A13B4C,
    8: 0xB0432C02DC4B9903,
    17: 0x871C8236CE485BAC,
    24: 0x3098BF0DECC60EE5,
    31: 0x3950BBBA0E06215F,
    32: 0x5A8FDA507F679EF4,
    33: 0xCB3DD1C296399F67,
    64: 0xFE3E365CC5D2E60A,
    100: 0x4E2B5077C553516D,
    127: 0xFC4F6495E9C9CA4F,
    128: 0x3F0D507EAF47DD44,
    129: 0x7FDFF264628F7AE2,
    160: 0xD12211A94D9FC402,
    200: 0x67D73B321511BD7F,
    239: 0x1D5922E4C36856C3,
    240: 0xC47BCCEEB7113437,
    241: 0x3CBDCB03A412523B,
    300: 0xE95BD373C8DE3B2A,
}

XXH64 = {
    0: 0xEF46DB3751D8E999,
    1: 0xA96C7F0CE858BBB7,
    7: 0x2744460DD675D2C0,
    8: 0x994B676B71CE94DD,
    24: 0x0A3B0194F3AFE0B8,
    31: 0x6711D55E306B5D8F,
    32: 0x07F7B8E3BC5D6E25,
    33: 0x09F85EEB4E1CBE9F,
    100: 0x9DDADA11D3DC2D8F,
}

DJB2 = {
    0: 0x0000000000001505,
    1: 0x000000000002B5AC,
    7: 0x0000D09661B9C6D5,
    8: 0x001AE36298F2A211,
    24: 0x9ABEF1722A1B5E69,
    31: 0x2988FDFC227436B1,
    32: 0x5AA8BD8070FB0DB5,
    33: 0xAFC06D8E905CC4BC,
    100: 0xD7D0216CB4E8C003,
}


@pytest.mark.parametrize("n", sorted(MURMUR))
def test_murmur64a(n):
    assert murmur64a(_data(n)) == MURMUR[n]


@pytest.mark.parametrize("n", sorted(XXH3))
def test_xxh3_64(n):
    assert xxh3_64(_data(n)) == XXH3[n]


@pytest.mark.parametrize("n", sorted(XXH64))
def test_xxh64(n):
    assert xxh64(_data(n)) == XXH64[n]


@pytest.mark.parametrize("n", sorted(DJB2))
def test_djb2(n):
    assert djb2(_data(n)) == DJB2[n]


def test_simulated_key_with_and_without_seed():
    # the simulator's keys are 24-byte YCSB keys
    key = key_bytes(12345)
    assert key == b"user00000000000000012345"
    assert murmur64a(key) == 0x3BDF0AF1FFBEF9A2
    assert xxh3_64(key) == 0xE37010882A33C2E7
    assert murmur64a(key, seed=7) == 0x3D31F9FF31ECD266
    assert xxh3_64(key, seed=7) == 0xCC1BF3CC05BBC1D3
