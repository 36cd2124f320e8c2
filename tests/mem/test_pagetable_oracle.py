"""The mem layer's page-table operations against the per-page oracle.

A hypothesis test drives random operation sequences on a production
world (two :class:`AddressSpace` objects, parent and child, plus the
child's snapshot) and on an oracle world built from
``pagetable_oracle`` in lock-step, and after every step asserts the two
agree on everything observable: per-vpn frame identity and refcounts,
perms, the dirty ledger for every token taken so far, return values,
counters, merge statistics and conflict addresses, and ``read`` over
mapped, unmapped and read-protected spans.

A second test counts calls: a tracked merge that adopts a few pages into
a parent with 20 000 mapped pages must not call ``copy_range_from`` or
``mapped_vpns_in`` at all.
"""

import collections
import contextlib

import pagetable_oracle
from hypothesis import given, settings, strategies as st

from repro.common.errors import MergeConflictError, PermissionFault
from repro.mem import (
    PAGE_SIZE,
    PERM_NONE,
    PERM_R,
    PERM_RW,
    PERM_W,
    AddressSpace,
    FrameAllocator,
    MergeStats,
    Snapshot,
    merge_range,
)
from repro.mem.merge import MODES

BASE = 0x40000
NPAGES = 8
SPAN = NPAGES * PAGE_SIZE
BASE_VPN = BASE // PAGE_SIZE
PARENT, CHILD = 0, 1


class World:
    """Parent and child spaces sharing one allocator, and the child's
    snapshot over the whole window."""

    def __init__(self, space_cls, snap_cls, track):
        allocator = FrameAllocator()
        self.spaces = [space_cls(allocator, track) for _ in (PARENT, CHILD)]
        self.snap_cls = snap_cls
        self.snap = None
        self.tokens = [[], []]

    def apply(self, op):
        """Run one operation; returns its observable result."""
        kind, *args = op
        spaces = self.spaces
        if kind == "write":
            s, off, length, fill = args
            return spaces[s].write(BASE + off, bytes([fill]) * length)
        if kind == "copy":
            dst, src, src_page, dst_page, npages, perm = args
            return spaces[dst].copy_range_from(
                spaces[src], BASE + src_page * PAGE_SIZE,
                BASE + dst_page * PAGE_SIZE, npages * PAGE_SIZE, perm=perm)
        if kind == "zero":
            s, page, npages = args
            return spaces[s].zero_range(BASE + page * PAGE_SIZE,
                                        npages * PAGE_SIZE)
        if kind == "unmap":
            s, page = args
            return spaces[s].unmap_page(BASE_VPN + page)
        if kind == "perm":
            s, page, npages, perm = args
            return spaces[s].set_perm(BASE + page * PAGE_SIZE,
                                      npages * PAGE_SIZE, perm)
        if kind == "fork":
            # Put(Copy + Snap): the child gets the parent's window and
            # snapshots it, so the child's later writes adopt on merge.
            touched = spaces[CHILD].copy_range_from(spaces[PARENT], BASE,
                                                    BASE, SPAN)
            return touched, self.apply(("snap",))
        if kind == "snap":
            if self.snap is not None:
                self.snap.release()
            self.snap = self.snap_cls.capture(spaces[CHILD], BASE, SPAN)
            return self.snap.page_count()
        if kind == "recapture":
            return None if self.snap is None else self.snap.recapture(
                spaces[CHILD])
        if kind == "merge":
            (mode,) = args
            if self.snap is None:
                return None
            stats = MergeStats()
            with self.adoption():
                try:
                    merge_range(spaces[PARENT], spaces[CHILD], self.snap,
                                mode=mode, stats=stats)
                    conflict = None
                except MergeConflictError as exc:
                    conflict = exc.addr
            return conflict, {name: getattr(stats, name)
                              for name in MergeStats.__slots__}
        raise AssertionError(kind)

    def adoption(self):
        if self.snap_cls is pagetable_oracle.OracleSnapshot:
            return pagetable_oracle.copy_based_adoption(self.spaces[CHILD])
        return contextlib.nullcontext()

    def state(self, probe, vpn_range):
        """Everything observable about the world, as plain values."""
        out = []
        for s, space in enumerate(self.spaces):
            out.append({
                "frames": {vpn: (page.serial, page.generation, page.refs)
                           for vpn, page in space._pages.items()},
                "perms": dict(space._perms),
                "counters": space.counters.snapshot(),
                "dirty": [space.dirty_since(t) for t in self.tokens[s]],
                "ledger": (space._clock, dict(space._dirty)),
                "mapped_in": space.mapped_vpns_in(*vpn_range),
            })
            self.tokens[s].append(space.dirty_token())
        if self.snap is not None:
            out.append({
                "frames": {vpn: (page.serial, page.generation, page.refs)
                           for vpn, page in self.snap._frames.items()},
                "frame_vpns_in": sorted(self.snap.frame_vpns_in(*vpn_range)),
            })
        s, addr, size, check_perm = probe
        try:
            data = self.spaces[s].read(addr, size, check_perm=check_perm)
            out.append(("read", type(data), data))
        except PermissionFault as exc:
            out.append(("fault", exc.addr, exc.needed))
        return out


sides = st.sampled_from((PARENT, CHILD))
pages = st.integers(0, NPAGES - 1)
perms = st.sampled_from((None, PERM_NONE, PERM_R, PERM_W, PERM_RW))


@st.composite
def page_span(draw):
    """(first page, page count) inside the window, count possibly 0."""
    page = draw(pages)
    return page, draw(st.integers(0, NPAGES - page))


@st.composite
def copies(draw):
    dst, src = draw(sides), draw(sides)
    src_page, dst_page = draw(pages), draw(pages)
    npages = draw(st.integers(0, NPAGES - max(src_page, dst_page)))
    return ("copy", dst, src, src_page, dst_page, npages, draw(perms))


# Writes straddle page boundaries and may cover several pages; half of
# them start in a hot window both sides share, so merges conflict.
writes = st.tuples(st.just("write"), sides,
                   st.one_of(st.integers(0, 64), st.integers(0, SPAN - 1)),
                   st.integers(1, 2 * PAGE_SIZE), st.integers(1, 255)).map(
    lambda op: op[:2] + (op[2], min(op[3], SPAN - op[2]), op[4]))

ops = st.one_of(
    writes,
    writes,
    copies(),
    # Overlapping self-copies: a page read after an earlier step of the
    # same Copy remapped it.
    st.tuples(st.just("copy"), sides, st.integers(0, 3),
              st.integers(1, 3)).map(
        lambda op: ("copy", op[1], op[1], op[2], op[2] + op[3],
                    NPAGES - op[2] - op[3], None)),
    st.tuples(st.just("zero"), sides, page_span()).map(
        lambda op: (op[0], op[1]) + op[2]),
    st.tuples(st.just("unmap"), sides, pages),
    st.tuples(st.just("perm"), sides, page_span(),
              perms.filter(lambda p: p is not None)).map(
        lambda op: (op[0], op[1]) + op[2] + (op[3],)),
    st.just(("fork",)),
    st.just(("snap",)),
    st.just(("recapture",)),
    st.tuples(st.just("merge"), st.sampled_from(MODES)),
    st.tuples(st.just("merge"), st.sampled_from(MODES)),
)

# Read probes reach one page past each end of the window (unmapped).
probes = st.tuples(sides, st.integers(BASE - PAGE_SIZE, BASE + SPAN),
                   st.integers(0, SPAN + PAGE_SIZE), st.booleans())
# Ranges both smaller and far larger than the mapped set, so
# mapped_vpns_in and frame_vpns_in take both walks.
vpn_ranges = st.tuples(st.integers(BASE_VPN - 4, BASE_VPN + NPAGES),
                       st.integers(0, 4096)).map(
    lambda r: (r[0], r[0] + r[1]))


@given(track=st.booleans(),
       image=st.lists(writes.map(lambda op: op[:1] + (PARENT,) + op[2:]),
                      max_size=6),
       steps=st.lists(st.tuples(ops, probes, vpn_ranges), min_size=4,
                      max_size=40))
@settings(max_examples=200, deadline=None)
def test_page_tables_match_the_per_page_oracle(track, image, steps):
    world = World(AddressSpace, Snapshot, track)
    oracle = World(pagetable_oracle.OracleSpace,
                   pagetable_oracle.OracleSnapshot, track)
    start = [(op, (PARENT, BASE, 0, False), (0, 0))
             for op in image + [("fork",)]]
    for op, probe, vpn_range in start + steps:
        assert world.apply(op) == oracle.apply(op), op
        assert world.state(probe, vpn_range) == oracle.state(
            probe, vpn_range), op


def test_tracked_adoption_does_not_scan_the_parent(monkeypatch):
    """Adopting k pages costs O(k): no Copy call, no page-table walk,
    however many pages the parent maps."""
    mapped, k = 20_000, 5
    shared = AddressSpace()
    shared.write(0, b"\x01")
    frame = shared.frame(0)
    parent = AddressSpace()
    for vpn in range(mapped):
        parent.share_page(vpn, frame)
    child = parent.clone()
    snap = Snapshot.capture(child, 0, mapped * PAGE_SIZE)
    written = list(range(0, mapped, mapped // k))
    for vpn in written:
        child.write(vpn * PAGE_SIZE + 1, b"\x02")

    calls = collections.Counter()
    for name in ("copy_range_from", "mapped_vpns_in"):
        original = getattr(AddressSpace, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(AddressSpace, name, counted)
    stats = merge_range(parent, child, snap)
    assert calls == {}
    assert stats.tracked and stats.pages_adopted == k
    assert stats.pages_scanned == k
    for vpn in written:
        assert parent.frame(vpn) is child.frame(vpn)
        assert parent.read(vpn * PAGE_SIZE, 2) == b"\x01\x02"
