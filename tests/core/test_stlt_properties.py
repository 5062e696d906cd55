"""Property-based tests on the STLT (hypothesis).

A model-based test drives the table with arbitrary insert/scan/scrub
sequences and cross-checks against a reference dictionary model keyed by
(set, sub-integer); structural invariants (occupancy bounds, counter
ranges, in-set placement) must hold after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.row import COUNTER_MAX, SUBINT_BITS, make_pte
from repro.core.stlt import STLT

ROWS = 64
WAYS = 4

integers = st.integers(0, (1 << 30) - 1)
vas = st.integers(1, (1 << 40) - 1).map(lambda v: v << 6)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), integers, vas),
        st.tuples(st.just("scan"), integers, st.just(0)),
        st.tuples(st.just("scrub"), vas, st.just(0)),
    ),
    max_size=200,
)


def check_structure(stlt: STLT) -> None:
    for i in range(stlt.num_rows):
        assert 0 <= stlt._counters[i] <= COUNTER_MAX
        assert 0 <= stlt._subints[i] < (1 << SUBINT_BITS)
    assert stlt.occupancy <= stlt.num_rows


@settings(max_examples=60, deadline=None)
@given(operations)
def test_stlt_against_reference_model(ops):
    stlt = STLT(ROWS, ways=WAYS, seed=1)
    # reference: (set, subint) -> (va, pte) for the *latest* insert;
    # capacity pressure can legitimately evict, so the model only checks
    # one-way implications
    latest = {}
    for op, a, b in ops:
        if op == "insert":
            integer, va = a, b
            stlt.insert(integer, va, make_pte(va >> 12))
            latest[(stlt.set_index(integer),
                    stlt.sub_integer(integer))] = va
        elif op == "scan":
            integer = a
            set_index, way = stlt.scan(integer)
            assert set_index == stlt.set_index(integer)
            if way is not None:
                row = stlt.read_row(set_index, way)
                # any hit must match the queried sub-integer and carry a
                # valid VA
                assert row.subint == stlt.sub_integer(integer)
                assert row.va != 0
                key = (set_index, row.subint)
                # a matching-subint row always holds the latest insert
                # for that (set, subint): same-subint inserts overwrite
                assert latest.get(key) == row.va
        else:  # scrub
            va = a
            stlt.scrub_pages({va >> 12})
            latest = {k: v for k, v in latest.items()
                      if (v >> 12) != (va >> 12)}
        check_structure(stlt)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(integers, vas), min_size=1, max_size=120))
def test_insert_then_immediate_scan_always_hits(pairs):
    stlt = STLT(ROWS, ways=WAYS, seed=2)
    for integer, va in pairs:
        stlt.insert(integer, va, make_pte(va >> 12))
        set_index, way = stlt.scan(integer)
        assert way is not None
        assert stlt.read_row(set_index, way).va == va


@settings(max_examples=30, deadline=None)
@given(st.lists(integers, min_size=1, max_size=300))
def test_occupancy_never_exceeds_ways_per_set(values):
    stlt = STLT(ROWS, ways=WAYS, seed=3)
    for integer in values:
        stlt.insert(integer, 0x1000 + (integer << 6), make_pte(1))
    per_set = {}
    for i in range(stlt.num_rows):
        if stlt._vas[i]:
            per_set.setdefault(i // WAYS, 0)
            per_set[i // WAYS] += 1
    assert all(count <= WAYS for count in per_set.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(integers, vas), max_size=80))
def test_clear_is_total(pairs):
    stlt = STLT(ROWS, ways=WAYS)
    for integer, va in pairs:
        stlt.insert(integer, va, make_pte(va >> 12))
    stlt.clear()
    assert stlt.occupancy == 0
    for integer, _ in pairs:
        assert stlt.scan(integer)[1] is None


def _rows(stlt: STLT):
    return (stlt._counters, stlt._subints, stlt._vas, stlt._ptes,
            stlt.inserts, stlt.replacements, stlt._rng.getstate())


#: few sets and a narrow integer range, so sets overflow and repeat
#: sub-integers often
fill_entries = st.lists(
    st.tuples(st.tuples(st.integers(0, 31), st.integers(0, 5))
              .map(lambda t: (t[0] << SUBINT_BITS) | t[1]),
              vas, st.integers(0, (1 << 40) - 1)),
    max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(fill_entries, st.sampled_from([(64, 4), (32, 8), (16, 1)]),
       st.booleans())
def test_fill_equals_the_insert_loop(entries, geometry, va_only):
    rows, ways = geometry
    loop, bulk = STLT(rows, ways=ways), STLT(rows, ways=ways)
    for integer, va, pte in entries:
        loop.insert(integer, va, 0 if va_only else pte)
    bulk.fill([e[0] for e in entries], [e[1] for e in entries],
              None if va_only else [e[2] for e in entries])
    assert _rows(bulk) == _rows(loop)
