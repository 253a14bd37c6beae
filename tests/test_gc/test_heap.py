"""Heap allocator tests: size classes, rounding, GC_base, large objects."""

import pytest
from hypothesis import given, strategies as st

from repro.gc import GRANULE, Heap, Memory, PAGE_SIZE, round_size
from repro.gc.heap import MAX_SMALL


@pytest.fixture
def heap():
    return Heap(Memory())


class TestRounding:
    def test_one_extra_byte_rule(self):
        # 8 usable bytes + the mandatory extra byte -> next granule.
        assert round_size(8) == 16
        assert round_size(7) == 8

    def test_minimum_size(self):
        assert round_size(0) == GRANULE
        assert round_size(1) == GRANULE

    @given(st.integers(1, 10000))
    def test_rounded_size_properties(self, request):
        size = round_size(request)
        assert size > request  # strictly: the extra byte
        assert size % GRANULE == 0
        assert size - request <= GRANULE + 1


class TestSmallObjects:
    def test_allocations_are_distinct(self, heap):
        addrs = [heap.allocate(24) for _ in range(50)]
        assert len(set(addrs)) == 50

    def test_allocations_do_not_overlap(self, heap):
        addrs = sorted(heap.allocate(20) for _ in range(100))
        size = round_size(20)
        for a, b in zip(addrs, addrs[1:]):
            assert b - a >= size or b - a == 0

    def test_same_size_class_shares_pages(self, heap):
        a = heap.allocate(24)
        b = heap.allocate(24)
        assert a >> 12 == b >> 12  # same page

    def test_different_size_classes_use_different_pages(self, heap):
        a = heap.allocate(8)
        b = heap.allocate(100)
        assert a >> 12 != b >> 12

    def test_zeroed_on_allocation(self, heap):
        addr = heap.allocate(32)
        assert heap.memory.read_bytes(addr, 32) == b"\0" * 32

    def test_accounting(self, heap):
        heap.allocate(24)
        heap.allocate(24)
        assert heap.objects_in_use == 2
        assert heap.bytes_in_use == 2 * round_size(24)


class TestBaseOf:
    def test_interior_pointer_maps_to_base(self, heap):
        addr = heap.allocate(100)
        for off in (0, 1, 50, 99, round_size(100) - 1):
            assert heap.base_of(addr + off) == addr

    def test_non_heap_address_is_none(self, heap):
        assert heap.base_of(0x50) is None
        assert heap.base_of(heap.base - 4) is None

    def test_unallocated_slot_is_none(self, heap):
        addr = heap.allocate(24)
        size = round_size(24)
        assert heap.base_of(addr + size) is None  # next, never-allocated slot

    def test_freed_object_is_none(self, heap):
        addr = heap.allocate(24)
        desc = heap.descriptor_for(addr)
        heap.free_object(desc, desc.object_index(addr))
        assert heap.base_of(addr) is None

    def test_size_of(self, heap):
        addr = heap.allocate(100)
        assert heap.size_of(addr) == round_size(100)
        assert heap.size_of(addr + 4) is None  # not a base


class TestFreeAndReuse:
    def test_freed_slot_is_reused(self, heap):
        addr = heap.allocate(24)
        desc = heap.descriptor_for(addr)
        heap.free_object(desc, desc.object_index(addr))
        again = heap.allocate(24)
        assert again == addr

    def test_poisoning(self, heap):
        heap.poison_byte = 0xDD
        addr = heap.allocate(24)
        heap.memory.write_bytes(addr, b"live data!")
        desc = heap.descriptor_for(addr)
        heap.free_object(desc, desc.object_index(addr))
        assert heap.memory.read_bytes(addr, 10) == b"\xdd" * 10

    def test_double_free_asserts(self, heap):
        addr = heap.allocate(24)
        desc = heap.descriptor_for(addr)
        heap.free_object(desc, desc.object_index(addr))
        with pytest.raises(AssertionError):
            heap.free_object(desc, desc.object_index(addr))


class TestLargeObjects:
    def test_large_allocation(self, heap):
        addr = heap.allocate(3 * PAGE_SIZE)
        desc = heap.descriptor_for(addr)
        assert desc.large and desc.n_pages >= 3

    def test_interior_pointer_into_middle_page(self, heap):
        addr = heap.allocate(3 * PAGE_SIZE)
        assert heap.base_of(addr + PAGE_SIZE + 123) == addr

    def test_threshold(self, heap):
        small = heap.allocate(MAX_SMALL - 1)
        assert not heap.descriptor_for(small).large

    def test_exhaustion_raises(self):
        heap = Heap(Memory(), limit_bytes=4 * PAGE_SIZE)
        with pytest.raises(MemoryError):
            for _ in range(10):
                heap.allocate(2 * PAGE_SIZE)


class TestLiveObjectsIteration:
    def test_live_objects_enumerates_all(self, heap):
        addrs = {heap.allocate(40) for _ in range(10)}
        addrs.add(heap.allocate(2 * PAGE_SIZE))
        seen = {base for _, _, base in heap.live_objects()}
        assert seen == addrs


class TestProperties:
    @given(st.lists(st.integers(1, 600), min_size=1, max_size=60))
    def test_interior_resolution_invariant(self, sizes):
        heap = Heap(Memory())
        allocs = [(heap.allocate(s), s) for s in sizes]
        for addr, size in allocs:
            assert heap.base_of(addr) == addr
            assert heap.base_of(addr + size - 1) == addr
            assert heap.base_of(addr + size) == addr  # extra byte


class TestSameObject:
    """``same_object`` is GC_same_obj's test: it must agree with two
    ``base_of`` lookups on every pair of addresses."""

    @staticmethod
    def reference(heap, p, q):
        q_base = heap.base_of(q)
        return q_base is None or heap.base_of(p) == q_base

    def test_agrees_with_base_of_around_live_and_freed_objects(self, heap):
        small = [heap.allocate(20) for _ in range(6)]
        large = heap.allocate(3 * PAGE_SIZE)
        desc = heap.descriptor_for(small[2])
        heap.free_object(desc, desc.object_index(small[2]))
        probes = {0, 1, -4, 1 << 32, heap.base - 1}
        for a in small + [large]:
            for d in (-9, -1, 0, 1, 7, 23, 24, 25, PAGE_SIZE, 3 * PAGE_SIZE):
                probes.add(a + d)
        for q in probes:
            for p in probes:
                assert heap.same_object(p, q) == self.reference(heap, p, q), (
                    hex(p), hex(q))
