"""Segments, bound regions, and resolution."""

from __future__ import annotations

import pytest

from repro.core.flags import PageFlags
from repro.core.segment import ResolvedPage, Segment
from repro.errors import BindingError, SegmentError


def seg(seg_id=0, n_pages=16, **kwargs) -> Segment:
    return Segment(seg_id, n_pages, 4096, **kwargs)


class TestSegmentBasics:
    def test_construction(self):
        s = seg(n_pages=8, name="code")
        assert s.n_pages == 8
        assert s.size_bytes == 8 * 4096
        assert s.resident_pages == 0
        assert s.name == "code"

    def test_default_name(self):
        assert seg(seg_id=7).name == "segment-7"

    def test_invalid_sizes(self):
        with pytest.raises(SegmentError):
            Segment(0, -1, 4096)
        with pytest.raises(SegmentError):
            Segment(0, 4, 0)

    def test_grow_and_ensure_size(self):
        s = seg(n_pages=4)
        s.grow(2)
        assert s.n_pages == 6
        s.ensure_size(5)
        assert s.n_pages == 6
        s.ensure_size(10)
        assert s.n_pages == 10
        with pytest.raises(SegmentError):
            s.grow(0)

    def test_page_range_checks(self):
        s = seg(n_pages=4)
        s.check_page_range(0, 4)
        with pytest.raises(SegmentError):
            s.check_page_range(0, 5)
        with pytest.raises(SegmentError):
            s.check_page_range(-1, 1)
        with pytest.raises(SegmentError):
            s.check_page_range(0, 0)


class TestBindings:
    def test_bind_and_translate(self):
        vas, data = seg(0, 32), seg(1, 8)
        binding = vas.bind(16, 8, data, 0)
        assert binding.covers(16) and binding.covers(23)
        assert not binding.covers(24)
        assert binding.translate(18) == 2

    def test_bind_rejects_self(self):
        s = seg()
        with pytest.raises(BindingError):
            s.bind(0, 4, s, 0)

    def test_bind_rejects_page_size_mismatch(self):
        a = Segment(0, 8, 4096)
        b = Segment(1, 8, 16384)
        with pytest.raises(BindingError):
            a.bind(0, 4, b, 0)

    def test_bind_rejects_overlap(self):
        vas, d1, d2 = seg(0, 32), seg(1, 8), seg(2, 8)
        vas.bind(0, 8, d1, 0)
        with pytest.raises(BindingError):
            vas.bind(4, 8, d2, 0)
        vas.bind(8, 8, d2, 0)  # adjacent is fine

    def test_bind_rejects_out_of_range(self):
        vas, data = seg(0, 8), seg(1, 4)
        with pytest.raises(SegmentError):
            vas.bind(6, 4, data, 0)  # outside vas
        with pytest.raises(SegmentError):
            vas.bind(0, 4, data, 2)  # outside target

    def test_unbind(self):
        vas, data = seg(0, 8), seg(1, 4)
        binding = vas.bind(0, 4, data, 0)
        vas.unbind(binding)
        assert vas.binding_covering(0) is None
        with pytest.raises(BindingError):
            vas.unbind(binding)

    def test_translate_outside_region(self):
        vas, data = seg(0, 8), seg(1, 4)
        binding = vas.bind(0, 4, data, 0)
        with pytest.raises(BindingError):
            binding.translate(5)


class TestResolution:
    def test_resolves_through_binding_chain(self, memory):
        vas, mid, leaf = seg(0, 8), seg(1, 8), seg(2, 8)
        vas.bind(0, 4, mid, 4)
        mid.bind(4, 4, leaf, 0)
        frame = memory.frame(0)
        frame.flags = int(PageFlags.rw())
        leaf.pages[1] = frame
        res = vas.resolve(1)
        assert res.owner is leaf
        assert res.page == 1
        assert res.frame is frame
        assert res.depth == 2

    def test_protection_is_meet_along_chain(self, memory):
        vas, data = seg(0, 8), seg(1, 8)
        vas.bind(0, 8, data, 0, prot_mask=PageFlags.READ)
        frame = memory.frame(0)
        frame.flags = int(PageFlags.rw())
        data.pages[0] = frame
        res = vas.resolve(0)
        assert PageFlags.READ in res.prot
        assert PageFlags.WRITE not in res.prot

    def test_segment_prot_applies(self, memory):
        s = seg(0, 8, prot=PageFlags.READ)
        frame = memory.frame(0)
        frame.flags = int(PageFlags.rw())
        s.pages[0] = frame
        res = s.resolve(0)
        assert PageFlags.WRITE not in res.prot

    def test_missing_page_resolution(self):
        s = seg(0, 8)
        res = s.resolve(3)
        assert res.frame is None
        assert res.owner is s
        assert res.page == 3

    def test_cycle_detected(self):
        a, b = seg(0, 8), seg(1, 8)
        a.bind(0, 4, b, 0)
        b.bind(0, 4, a, 0)
        with pytest.raises(BindingError):
            a.resolve(0)

    def test_out_of_range_page(self):
        with pytest.raises(SegmentError):
            seg(0, 4).resolve(4)


class TestCOWResolution:
    def test_read_falls_through_to_source(self, memory):
        source = seg(0, 8)
        frame = memory.frame(0)
        frame.flags = int(PageFlags.rw())
        source.pages[2] = frame
        shadow = Segment(1, 8, 4096, cow_source=source)
        res = shadow.resolve(2, for_write=False)
        assert res.owner is source
        assert res.frame is frame
        # the shared view is never writable
        assert PageFlags.WRITE not in res.prot

    def test_write_requires_privatization(self, memory):
        source = seg(0, 8)
        frame = memory.frame(0)
        frame.flags = int(PageFlags.rw())
        source.pages[2] = frame
        shadow = Segment(1, 8, 4096, cow_source=source)
        res = shadow.resolve(2, for_write=True)
        assert res.needs_cow
        assert res.owner is shadow
        assert res.page == 2
        assert res.cow_source_frame is frame

    def test_own_page_shadows_source(self, memory):
        source = seg(0, 8)
        src_frame = memory.frame(0)
        src_frame.flags = int(PageFlags.rw())
        source.pages[2] = src_frame
        shadow = Segment(1, 8, 4096, cow_source=source)
        own = memory.frame(1)
        own.flags = int(PageFlags.rw())
        shadow.pages[2] = own
        res = shadow.resolve(2, for_write=True)
        assert not res.needs_cow
        assert res.frame is own

    def test_pages_past_source_do_not_cow(self):
        source = seg(0, 2)
        shadow = Segment(1, 8, 4096, cow_source=source)
        res = shadow.resolve(5, for_write=True)
        assert not res.needs_cow
        assert res.frame is None
        assert res.owner is shadow


def _resolutions(memory):
    """(case, resolution, the protection the flag-set view must show)."""
    R, RW = PageFlags.READ, PageFlags.READ | PageFlags.WRITE
    frames = iter(memory.frames())

    def frame(flags):
        f = next(frames)
        f.flags = int(flags)
        return f

    flat = seg(0, 8)
    flat.pages[0] = frame(RW | PageFlags.REFERENCED | PageFlags.DIRTY)
    flat.pages[1] = frame(PageFlags.READ)
    read_only = seg(1, 8, prot=R)
    read_only.pages[0] = frame(RW)
    data = seg(2, 8)
    data.pages[0] = frame(RW)
    vas = seg(3, 8)
    vas.bind(0, 8, data, 0, prot_mask=R)
    source = seg(4, 8)
    source.pages[2] = frame(RW)
    shadow = Segment(5, 8, 4096, cow_source=source)
    return [
        ("flat", flat.resolve(0), RW),
        ("flat-frame-read-only", flat.resolve(1), R),
        ("flat-missing", flat.resolve(5, for_write=True), RW),
        ("read-only-segment", read_only.resolve(0, for_write=True), R),
        ("bound-masked", vas.resolve(0, for_write=True), R),
        ("bound-masked-missing", vas.resolve(3), R),
        ("cow-read", shadow.resolve(2), R),
        ("cow-write", shadow.resolve(2, for_write=True), RW),
    ]


class TestResolvedPageView:
    """The kernel reads the int ``prot_i``; ``prot`` stays the public
    flag-set view, with the values flag-set resolution always gave."""

    def test_prot_is_the_flag_set_of_prot_i(self, memory):
        for case, res, expected in _resolutions(memory):
            assert isinstance(res.prot_i, int), case
            assert type(res.prot) is PageFlags, case
            assert res.prot == PageFlags(res.prot_i), case
            assert res.prot == expected, case

    def test_cases_resolve_the_way_they_are_named(self, memory):
        by_case = {case: res for case, res, _ in _resolutions(memory)}
        assert by_case["flat-missing"].frame is None
        assert by_case["bound-masked"].depth == 1
        assert by_case["cow-read"].depth == 1
        assert by_case["cow-read"].frame is not None
        assert by_case["cow-write"].needs_cow
        assert by_case["cow-write"].cow_source_frame is not None

    def test_prot_view_is_read_only(self, memory):
        res: ResolvedPage = _resolutions(memory)[0][1]
        with pytest.raises(AttributeError):
            res.prot = PageFlags.READ  # type: ignore[misc]
