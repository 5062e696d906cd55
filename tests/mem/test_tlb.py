"""Unit tests for the TLB models."""

from repro.mem.tlb import TLB, TLBHierarchy
from repro.params import TLBParams


def make_tlb(entries=8, ways=2, latency=1):
    return TLB(TLBParams("test-tlb", entries, ways, latency))


class TestTLB:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.lookup(10) is None
        tlb.insert(10, 99)
        assert tlb.lookup(10) == 99

    def test_update_existing_mapping(self):
        tlb = make_tlb()
        tlb.insert(10, 1)
        tlb.insert(10, 2)
        assert tlb.lookup(10) == 2
        assert tlb.occupancy == 1

    def test_lru_within_set(self):
        tlb = make_tlb(entries=8, ways=2)  # 4 sets
        # vpns 0, 4, 8 all map to set 0
        tlb.insert(0, 100)
        tlb.insert(4, 104)
        tlb.lookup(0)
        tlb.insert(8, 108)  # evicts vpn 4 (LRU)
        assert tlb.lookup(4) is None
        assert tlb.lookup(0) == 100

    def test_non_pow2_sets_supported(self):
        # the Table III L2 STLB has 384 sets
        tlb = TLB(TLBParams("stlb", 1536, 4, 7))
        for vpn in range(2000):
            tlb.insert(vpn, vpn + 1)
        assert tlb.occupancy <= 1536
        # modulo indexing: five VPNs congruent mod 384 share one 4-way set
        tlb = TLB(TLBParams("stlb", 1536, 4, 7))
        for vpn in range(0, 5 * 384, 384):
            tlb.insert(vpn, vpn + 1)
        assert tlb.lookup(0) is None
        assert tlb.lookup(4 * 384) == 4 * 384 + 1

    def test_invalidate(self):
        tlb = make_tlb()
        tlb.insert(3, 30)
        assert tlb.invalidate(3)
        assert not tlb.invalidate(3)
        assert tlb.lookup(3) is None

    def test_flush(self):
        tlb = make_tlb()
        for vpn in range(4):
            tlb.insert(vpn, vpn)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_contains_no_stats(self):
        tlb = make_tlb()
        tlb.insert(1, 1)
        tlb.contains(1)
        tlb.contains(2)
        assert tlb.hits == 0 and tlb.misses == 0


class TestHierarchy:
    def make(self):
        l1 = make_tlb(entries=4, ways=2, latency=1)
        l2 = make_tlb(entries=16, ways=4, latency=7)
        return TLBHierarchy(l1, l2), l1, l2

    def test_l1_hit_cost(self):
        h, l1, _ = self.make()
        h.fill(5, 50)
        pfn, cycles = h.translate(5)
        assert pfn == 50
        assert cycles == 1

    def test_l2_hit_refills_l1(self):
        h, l1, l2 = self.make()
        l2.insert(7, 70)
        pfn, cycles = h.translate(7)
        assert pfn == 70
        assert cycles == 1 + 7
        assert l1.contains(7)

    def test_full_miss(self):
        h, _, _ = self.make()
        pfn, cycles = h.translate(9)
        assert pfn is None
        assert cycles == 8

    def test_fill_installs_both_levels(self):
        h, l1, l2 = self.make()
        h.fill(11, 110)
        assert l1.contains(11)
        assert l2.contains(11)

    def test_invalidate_both_levels(self):
        h, l1, l2 = self.make()
        h.fill(13, 130)
        h.invalidate(13)
        assert not l1.contains(13)
        assert not l2.contains(13)
