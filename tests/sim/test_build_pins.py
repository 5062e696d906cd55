"""Bit-identity pins for the store build (populate + fast-table prefill).

Each case constructs an :class:`~repro.sim.engine.Engine` — which lays
out every record, links the index and prefills the design's fast table
— and pins the sha256 of the whole build state:

* every record's VA and external value VA, in key order;
* the index's node VAs in chain, slot or tree order;
* the allocator's per-class cursors and limits, live-object sizes and
  totals;
* the address space's next user and kernel VAs and frames allocated;
* every mapped page (vpn -> pfn);
* the fast table's rows after prefill (and the STLT's RNG state).

The matrix covers every program x {baseline, stlt, stlt_va, stlt_sw,
slb}, a second, page-multiple value size, and small-table cases whose
STLT sets overflow.  A change to how the store is built must
leave every digest unchanged.
"""

import bisect
import hashlib
import json

import pytest

from repro.core.stlt import STLT
from repro.mem.address_space import AddressSpace
from repro.sim.config import RunConfig
from repro.sim.engine import Engine

PROGRAMS = ("redis", "unordered_map", "dense_hash_map", "ordered_map",
            "btree")
DESIGNS = ("baseline", "stlt", "stlt_va", "stlt_sw", "slb")

#: enough keys for several 16-page runs of every size class
COMMON = dict(num_keys=8000, measure_ops=1, warmup_ops=0, seed=5)


def _cases():
    cases = {}
    for program in PROGRAMS:
        for design in DESIGNS:
            cases[f"{program}-{design}-v64"] = dict(
                program=program, frontend=design, value_size=64)
        # a page-multiple size class for the records or Redis values
        cases[f"{program}-stlt-v4500"] = dict(
            program=program, frontend="stlt", value_size=4500)
    # small tables: most sets overflow and replace
    cases["redis-stlt-rows1024"] = dict(
        program="redis", frontend="stlt", value_size=64, stlt_rows=1024)
    cases["unordered_map-stlt_sw-rows512"] = dict(
        program="unordered_map", frontend="stlt_sw", value_size=200,
        stlt_rows=512, stlt_ways=8)
    return cases


CASES = _cases()

DIGESTS = {
    "btree-baseline-v64":
        "5e57a7fc67492c721073f480f47d7ae81df008fe381a7a8bf58c6dba99131f6c",
    "btree-slb-v64":
        "6f0dc303f71d2cf481018d9e04c5d4b2a31b01a102a75fde5c5885d945d3e402",
    "btree-stlt-v4500":
        "6f844c09fa482b03d6ef3eef8941350411332b6147d9cca274787f09209e7706",
    "btree-stlt-v64":
        "73e363fb7a0ab0128234e40b1fe0e4e5b38088f81ed844575bc8eaff747b75d6",
    "btree-stlt_sw-v64":
        "15b5ef01c1cfe8a3e6e380d589ab4a6d196adf8cb5fa4abd40910c1aad8d0cd5",
    "btree-stlt_va-v64":
        "128adb67aa14782427296784a85036ab5be98ed2f4f51c2d5a7ebeef7d656f4b",
    "dense_hash_map-baseline-v64":
        "e3b506f8cc6fb51d636c3b496fb998148f3b0097139cc81faccd8f7519650545",
    "dense_hash_map-slb-v64":
        "3a710f295941be27cf28105d9d4a646603dc7f1f501f87bbee0a6a2e88ad1b56",
    "dense_hash_map-stlt-v4500":
        "b22c4f6c6f03bbc7ad9c3f1260a83df4fdc68482cb17e622b6b53fb6961d37e4",
    "dense_hash_map-stlt-v64":
        "6bb70a65ce2d7ce337219c4c06658bed82353a301b605037f3d12f5936605827",
    "dense_hash_map-stlt_sw-v64":
        "aa61cdaabf6fef01fb4de5e4a40538d46f12209ca8145152c4dff2b222f951e5",
    "dense_hash_map-stlt_va-v64":
        "4e468c57193f77c16d09e06e89a9a09e2aff51bb10557e67f0f58ff6f3796b95",
    "ordered_map-baseline-v64":
        "53f71cd897d90be309ea0e8023dd75c81ccc240f12a03dd47fed950965db363d",
    "ordered_map-slb-v64":
        "5adf4fa1becec8c1b1dad042f8d8ab55e35720f5ef8320ed56c46f3cc175eaf2",
    "ordered_map-stlt-v4500":
        "884ce9001d1577eb129ac21955d28f61a69ab45e11f7778f100afad10993ebc5",
    "ordered_map-stlt-v64":
        "3f3a437efe874ade49e0fef950d4d47bdf7258bad4f98823ebbb060419986774",
    "ordered_map-stlt_sw-v64":
        "ded83fb83855a81ba5c1444e761cdf4648c5b54254822cb4e1b4144df0f83cc0",
    "ordered_map-stlt_va-v64":
        "b2324b8514c5fe584bb5bc84eaa979e3bd9ab1cb88ed78d71e45673c9a132a7e",
    "redis-baseline-v64":
        "0a8d45a1b5c09d11162cc09696be9aa2c076939da7200de54221fdac29c22794",
    "redis-slb-v64":
        "3809b08069895be4337b376f402bdb2c2a9907001c232c9d765215c18ea55c43",
    "redis-stlt-rows1024":
        "95656c7fcaa5f38745fc6dc83a2d01de7fa79c4b9623275ed5a6bfb1ae59e394",
    "redis-stlt-v4500":
        "877b2b63355378fa360ed13b9b4e87bdf175e88ee8a4f232dc6e18579974e966",
    "redis-stlt-v64":
        "aa66e07f5ac1051ab922ceaa6adea5cf9d95c140d6cd681a6f7c60f5efc02591",
    "redis-stlt_sw-v64":
        "bcd85baae000479b5adb2b9e62383ab55710aea95f88b0e0f5bcddd9485e22cb",
    "redis-stlt_va-v64":
        "f43d92d6ccd98537b339534203ac888ee7cabd2e0247389e5a9f0cb33c3dc7ef",
    "unordered_map-baseline-v64":
        "66ad02429de71beff86cd99b45f66703b9837b2940d878eb76f5f577e68146dd",
    "unordered_map-slb-v64":
        "0ffdde647d1b32311b0e6174037bf12d31a002058c68b3d3e0f70de0d8e44d20",
    "unordered_map-stlt-v4500":
        "b3538ae22b386d8f553fdf0aaf6b31459dbb6d06da3e84d1e7524bced6c6c045",
    "unordered_map-stlt-v64":
        "7963be9b940aee0129abe310d9382404afbf78de4326fe85c9d4ee2fa87ab8f7",
    "unordered_map-stlt_sw-rows512":
        "19071749a30c643c3a01c21fac21b9a5ebab23e5b5d980b423184f0c99c23c54",
    "unordered_map-stlt_sw-v64":
        "6f94ece29c1abe00c400ad028e8b86effc3697fbf89912d43ac60954e22d7d2d",
    "unordered_map-stlt_va-v64":
        "331a9a149bc780cffef024aa032b1ef0cafc7745a591a0b619b6df57b500d07a",
}


def _index_nodes(engine):
    """Node VAs of the index in chain, slot or tree order."""
    index = engine.index
    out = []
    if hasattr(index, "_buckets"):  # chained hash (unordered_map, redis)
        for head in index._buckets:
            node = head
            chain = []
            while node is not None:
                chain.append((node.va, node.hash, node.record.va))
                node = node.next
            out.append(chain)
    elif hasattr(index, "_slots"):  # open hash
        out = [slot.va if slot is not None else 0 for slot in index._slots]
    elif hasattr(index, "nil"):  # red-black tree, preorder
        stack = [index.root]
        while stack:
            node = stack.pop()
            if node is index.nil:
                out.append(None)
                continue
            out.append((node.va, node.color, node.record.va))
            stack.append(node.right)
            stack.append(node.left)
        out.append(index.nil.va)
    else:  # B-tree, preorder
        stack = [index.root]
        while stack:
            node = stack.pop()
            out.append((node.va, [r.va for r in node.records]))
            stack.extend(reversed(node.children))
    return out


def _mapped_pages(page_table):
    pages = []

    def walk(node, level, prefix):
        for idx in sorted(node.entries):
            child = node.entries[idx]
            vpn = (prefix << 9) | idx
            if level == 3:
                pages.append((vpn, child))
            else:
                pages.append(("node", level, vpn, child.pfn))
                walk(child, level + 1, vpn)

    walk(page_table.root, 0, 0)
    return pages


def _table_rows(engine):
    design = engine.config.frontend
    if design in ("stlt", "stlt_va"):
        table = engine.osi.stlt
    elif design == "stlt_sw":
        table = engine.design.table
    elif design == "slb":
        slb = engine.slb
        return [slb._sigs, slb._vas, slb._freqs, slb._log]
    else:
        return None
    return [table._counters, table._subints, table._vas, table._ptes,
            repr(table._rng.getstate()),
            [table.lookups, table.hits, table.inserts, table.replacements,
             table.multi_matches]]


def build_state(engine):
    """Everything the build leaves behind, as plain JSON data."""
    ctx = engine.ctx
    alloc = ctx.alloc
    space = ctx.space
    return {
        "records": [(r.va, r.external_value_va) for r in engine.records],
        "index": _index_nodes(engine),
        "alloc": {
            "cursor": sorted(alloc._cursor.items()),
            "limit": sorted(alloc._limit.items()),
            "size_of": sorted(alloc._size_of.items()),
            "bytes": alloc.bytes_allocated,
            "live": alloc.objects_live,
        },
        "space": [space._next_user_va, space._next_kernel_va,
                  space.frames.frames_allocated,
                  space.page_table.mapped_pages],
        "pages": _mapped_pages(space.page_table),
        "fast_table": _table_rows(engine),
    }


def digest(state) -> str:
    blob = json.dumps(state, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build(case):
    return Engine(RunConfig(**COMMON, **CASES[case]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_state_is_pinned(case):
    assert digest(build_state(build(case))) == DIGESTS[case]


def _runs_per_class(regions, alloc):
    """How many allocator runs each size class drew: every object's
    class, grouped by the ``alloc_region`` call its VA falls in."""
    bases = [base for base, _ in regions]
    runs = {}
    for va, cls in alloc._size_of.items():
        i = bisect.bisect_right(bases, va) - 1
        base, size = regions[i]
        assert base <= va < base + size
        runs.setdefault(cls, set()).add(base)
    return {cls: len(r) for cls, r in runs.items()}


def test_matrix_covers_every_path(monkeypatch):
    regions = []
    original_alloc_region = AddressSpace.alloc_region

    def spy_alloc_region(self, size_bytes, kernel=False):
        base = original_alloc_region(self, size_bytes, kernel=kernel)
        if not kernel:
            regions.append((base, size_bytes))
        return base

    replacements = []
    original_reset = STLT.reset_stats

    def spy_reset(self):
        replacements.append(self.replacements)
        original_reset(self)

    monkeypatch.setattr(AddressSpace, "alloc_region", spy_alloc_region)
    monkeypatch.setattr(STLT, "reset_stats", spy_reset)

    for case in ("redis-stlt-v64", "redis-stlt-v4500",
                 "unordered_map-stlt-v64", "dense_hash_map-stlt-v64",
                 "ordered_map-stlt-v4500", "btree-stlt-v64"):
        regions.clear()
        engine = build(case)
        runs = _runs_per_class(sorted(regions), engine.ctx.alloc)
        # every size class crossed at least two refills after its
        # first run, so the refill points are pinned, not just run 0
        assert runs and min(runs.values()) >= 3, (case, runs)

    replacements.clear()
    build("redis-stlt-rows1024")
    build("unordered_map-stlt_sw-rows512")
    build("redis-stlt-v64")
    assert len(replacements) == 3
    assert all(r > 0 for r in replacements), replacements
