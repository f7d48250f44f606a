"""Tests for address spaces and reservation areas."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.oskernel.addressspace import AddressSpace, Area, pages_in
from repro.oskernel.layout import PAGE_SIZE
from repro.oskernel.vma import VmaError


class TestPagesIn:
    def test_exact_pages(self):
        assert pages_in(PAGE_SIZE) == 1
        assert pages_in(4 * PAGE_SIZE) == 4

    def test_rounds_up(self):
        assert pages_in(1) == 1
        assert pages_in(PAGE_SIZE + 1) == 2

    def test_zero(self):
        assert pages_in(0) == 0


class TestArea:
    def make(self, pages=16):
        return Area(start=0x1000_0000, length=pages * PAGE_SIZE, name="test")

    def test_populate_counts_new_pages_only(self):
        area = self.make()
        assert area.populate(0, 4 * PAGE_SIZE) == 4
        assert area.populate(0, 4 * PAGE_SIZE) == 0
        assert area.populate(2 * PAGE_SIZE, 4 * PAGE_SIZE) == 2
        assert area.populated_bytes == 6 * PAGE_SIZE

    def test_populate_partial_page_rounds_up(self):
        area = self.make()
        assert area.populate(0, 100) == 1

    def test_zap_range(self):
        area = self.make()
        area.populate(0, 8 * PAGE_SIZE)
        assert area.zap(2 * PAGE_SIZE, 2 * PAGE_SIZE) == 2
        assert area.populated_bytes == 6 * PAGE_SIZE
        assert area.zap(2 * PAGE_SIZE, 2 * PAGE_SIZE) == 0

    def test_zap_all(self):
        area = self.make()
        area.populate(0, 5 * PAGE_SIZE)
        assert area.zap_all() == 5
        assert area.populated_bytes == 0

    def test_out_of_range_rejected(self):
        area = self.make(pages=4)
        with pytest.raises(VmaError):
            area.populate(0, 5 * PAGE_SIZE)
        with pytest.raises(VmaError):
            area.zap(4 * PAGE_SIZE, PAGE_SIZE)


AREA_PAGES = 24

#: One operation on an area: populate, zap or zap_all, with byte
#: offsets and lengths that may be unaligned, zero or out of range.
area_ops = st.lists(
    st.tuples(
        st.sampled_from(["populate", "zap", "zap_all"]),
        st.integers(min_value=0, max_value=(AREA_PAGES + 1) * PAGE_SIZE),
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=3).map(lambda n: n * PAGE_SIZE),
            st.integers(min_value=0, max_value=(AREA_PAGES + 1) * PAGE_SIZE),
        ),
    ),
    max_size=40,
)


class TestPageRuns:
    """The page-run structure against a plain per-page set."""

    @given(area_ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_set_reference(self, ops):
        area = Area(start=0, length=AREA_PAGES * PAGE_SIZE, name="runs")
        ref = set()
        for op, offset, length in ops:
            if op == "zap_all":
                assert area.zap_all() == len(ref)
                ref.clear()
            elif offset + length > area.length:
                with pytest.raises(VmaError):
                    getattr(area, op)(offset, length)
            else:
                pages = (
                    set(range(offset // PAGE_SIZE, pages_in(offset + length)))
                    if length
                    else set()
                )
                if op == "populate":
                    assert area.populate(offset, length) == len(pages - ref)
                    ref |= pages
                else:
                    assert area.zap(offset, length) == len(pages & ref)
                    ref -= pages
            assert area.populated_pages == len(ref)
            assert area.populated_bytes == len(ref) * PAGE_SIZE
            runs = list(zip(area._starts, area._ends))
            assert all(start < end for start, end in runs)
            assert all(
                runs[k][1] < runs[k + 1][0] for k in range(len(runs) - 1)
            )
            assert {p for start, end in runs for p in range(start, end)} == ref


    def test_zero_length_covers_no_page(self):
        area = Area(start=0, length=AREA_PAGES * PAGE_SIZE, name="runs")
        assert area.populate(100, 0) == 0
        assert area.populated_pages == 0
        area.populate(0, PAGE_SIZE)
        assert area.zap(100, 0) == 0
        assert area.populated_pages == 1


class TestAddressSpace:
    def test_map_areas_do_not_overlap(self):
        aspace = AddressSpace()
        a = aspace.map_area(10 * PAGE_SIZE, "a")
        b = aspace.map_area(10 * PAGE_SIZE, "b")
        assert a.end <= b.start

    def test_map_aligns_length(self):
        aspace = AddressSpace()
        area = aspace.map_area(100, "tiny")
        assert area.length == PAGE_SIZE

    def test_invalid_length_rejected(self):
        with pytest.raises(VmaError):
            AddressSpace().map_area(0)

    def test_find_area(self):
        aspace = AddressSpace()
        a = aspace.map_area(4 * PAGE_SIZE, "a")
        assert aspace.find_area(a.start) is a
        assert aspace.find_area(a.start + PAGE_SIZE) is a
        assert aspace.find_area(a.end) is not a

    def test_unmap_returns_zapped_pages(self):
        aspace = AddressSpace()
        area = aspace.map_area(8 * PAGE_SIZE)
        area.populate(0, 3 * PAGE_SIZE)
        assert aspace.unmap_area(area) == 3
        assert aspace.find_area(area.start) is None

    def test_unmap_twice_rejected(self):
        aspace = AddressSpace()
        area = aspace.map_area(PAGE_SIZE)
        aspace.unmap_area(area)
        with pytest.raises(VmaError):
            aspace.unmap_area(area)

    def test_vma_count_aggregates_intervals(self):
        from repro.oskernel.vma import Prot

        aspace = AddressSpace()
        a = aspace.map_area(16 * PAGE_SIZE)
        b = aspace.map_area(16 * PAGE_SIZE)
        assert aspace.vma_count == 2
        a.prot_map.protect(PAGE_SIZE, 2 * PAGE_SIZE, Prot.RW)
        assert aspace.vma_count == 4

    def test_populated_bytes_aggregates(self):
        aspace = AddressSpace()
        a = aspace.map_area(16 * PAGE_SIZE)
        b = aspace.map_area(16 * PAGE_SIZE)
        a.populate(0, 2 * PAGE_SIZE)
        b.populate(0, 3 * PAGE_SIZE)
        assert aspace.populated_bytes == 5 * PAGE_SIZE
