"""The batch path (``HashSpec.prime`` over ``repro.hashes.batch``) is
bit-identical to the per-key scalar functions, with and without numpy."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes import batch
from repro.hashes.registry import HASH_FUNCTIONS, HashSpec, get_hash
from repro.sim.config import RunConfig
from repro.sim.engine import Engine
from repro.hashes.murmur import murmur64a
from repro.hashes.siphash import siphash24
from repro.hashes.xxhash import xxh3_64
from repro.workloads.keys import key_bytes

from .test_siphash import VECTORS as SIPHASH_VECTORS

NUMPY_MODES = ["as-is", "numpy-off"]


@pytest.fixture(params=NUMPY_MODES)
def numpy_mode(request):
    """Run once as the machine is, and once with numpy forced off."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "numpy-off":
            mp.setattr(batch, "HAVE_NUMPY", False)
        yield request.param


def fresh(name: str):
    """A registered spec with an empty memo of its own (the registry's
    specs are process-wide)."""
    return replace(HASH_FUNCTIONS[name])


@st.composite
def batches(draw):
    """A batch of keys of a few shared lengths (so kernels see groups of
    several rows), with duplicates, plus keys memoised beforehand."""
    lengths = draw(st.lists(st.one_of(st.integers(0, 300), st.just(24)),
                            min_size=1, max_size=4))
    key = st.sampled_from(lengths).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))
    pool = draw(st.lists(key, min_size=1, max_size=16))
    keys = draw(st.lists(st.sampled_from(pool), max_size=24))
    memoised = draw(st.lists(st.sampled_from(pool), max_size=6))
    return keys, memoised


@pytest.mark.parametrize("name", sorted(HASH_FUNCTIONS))
def test_prime_matches_scalar(name, numpy_mode):
    @settings(max_examples=40, deadline=None)
    @given(batches())
    def check(case):
        keys, memoised = case
        spec = fresh(name)
        for key in memoised:
            spec(key)
        before = dict(spec._cache)
        spec.prime(keys)
        assert set(spec._cache) == set(before) | set(keys)
        for key, value in before.items():
            assert spec._cache[key] == value
        for key in keys:
            assert spec(key) == spec.func(key)

    check()


def test_prime_keeps_the_callers_key_objects(numpy_mode):
    spec = fresh("siphash")
    keys = [key_bytes(i) for i in range(50)]
    spec.prime(keys)
    memo_keys = {id(key) for key in spec._cache}
    assert all(id(key) in memo_keys for key in keys)


@pytest.mark.parametrize("length,expected", SIPHASH_VECTORS)
def test_siphash_reference_vectors(length, expected, numpy_mode):
    spec = fresh("siphash")
    message = bytes(range(length))
    spec.prime([message, bytes(length)])
    assert spec._cache[message] == expected


@pytest.mark.parametrize("func", [siphash24, murmur64a, xxh3_64])
def test_kernel_exists_for_simulated_keys(func):
    # a silently missing kernel would still be correct, just slow
    assert batch._kernel(func, 24) is not None


#: sha256 over the little-endian u64 hashes of key_bytes(0..59999),
#: computed with the scalar functions
FIG11_DIGESTS = {
    "siphash": "f3bcf47fc740b73bf09bf1c726d3358b"
               "6efda4deaaea256d2e9a782df6677d61",
    "xxh3": "7eefbc97a0318040274695f1d314883f"
            "19bdeed2110b267978306135f7339434",
}


@pytest.mark.parametrize("name", sorted(FIG11_DIGESTS))
def test_fig11_key_population(name):
    spec = fresh(name)
    keys = [key_bytes(i) for i in range(60_000)]
    spec.prime(keys)
    digest = hashlib.sha256(
        b"".join(spec._cache[k].to_bytes(8, "little") for k in keys))
    assert digest.hexdigest() == FIG11_DIGESTS[name]
    assert spec(keys[12_345]) == get_hash(name).func(keys[12_345])


class TestBuildPriming:
    """The build primes each hash it will read, once, over every key."""

    @staticmethod
    def primed(monkeypatch, **fields):
        calls = []
        prime = HashSpec.prime

        def spy(spec, keys):
            keys = list(keys)
            calls.append((spec.name, len(keys)))
            prime(spec, keys)

        monkeypatch.setattr(HashSpec, "prime", spy)
        Engine(RunConfig(num_keys=300, measure_ops=60, warmup_ops=120,
                         **fields))
        return calls

    @pytest.mark.parametrize("frontend", ["stlt", "stlt_va", "stlt_sw",
                                          "slb"])
    def test_fast_table_designs_prime_the_fast_hash(self, monkeypatch,
                                                    frontend):
        assert self.primed(monkeypatch, program="redis",
                           frontend=frontend) == [
            ("siphash", 300), ("xxh3", 300)]

    @pytest.mark.parametrize("frontend", ["baseline", "victima", "pcax",
                                          "revelator"])
    def test_designs_without_a_fast_hash_prime_only_the_index(
            self, monkeypatch, frontend):
        assert self.primed(monkeypatch, program="redis",
                           frontend=frontend) == [("siphash", 300)]

    @pytest.mark.parametrize("program,expected", [
        ("unordered_map", [("murmur", 300)]),
        ("dense_hash_map", [("murmur", 300)]),
        ("ordered_map", []),
        ("btree", []),
    ])
    def test_only_hashing_indexes_prime_the_slow_hash(self, monkeypatch,
                                                      program, expected):
        assert self.primed(monkeypatch, program=program,
                           frontend="baseline") == expected
