"""Reference page-table operations for the mem layer.

These are the per-page implementations the production code replaced,
kept as the oracle that ``tests/mem/test_pagetable_oracle.py`` runs in
lock-step with :class:`~repro.mem.addrspace.AddressSpace`:

* :class:`OracleSpace` is an address space whose Copy remaps one page at
  a time, marking the ledger once per page with a compaction check after
  each mark; whose range walks filter the whole mapped set; and whose
  ``read`` fills a bytearray and copies it into ``bytes``.  It never
  reaches the production ledger batch.
* :class:`OracleSnapshot` re-snaps through the space's frame lookups,
  counting each re-pinned page as it goes, and lists its frames by
  filtering them all.
* :func:`copy_based_adoption` makes ``merge_range`` adopt a page by a
  one-page ``copy_range_from`` from the child, as adoption did before it
  remapped the frame directly.

pytest puts this directory on ``sys.path``; import it as
``import pagetable_oracle``.
"""

import contextlib
from unittest import mock

from repro.common.errors import PermissionFault
from repro.mem import merge
from repro.mem.addrspace import (
    PERM_R,
    AddressSpace,
    _check_page_aligned,
    _check_range,
)
from repro.mem.page import PAGE_SHIFT, PAGE_SIZE
from repro.mem.snapshot import Snapshot


class OracleSpace(AddressSpace):
    """An :class:`AddressSpace` built from the per-page reference
    operations."""

    def mapped_vpns_in(self, vpn0, vpn1):
        return sorted(v for v in self._pages if vpn0 <= v < vpn1)

    def _mark_dirty(self, vpn):
        if not self._track_dirty:
            return
        self._clock += 1
        self._dirty[vpn] = self._clock
        self._events.append((self._clock, vpn))
        if len(self._events) > 64 and len(self._events) > 2 * len(self._dirty):
            self._events = sorted(
                (clock, vpn) for vpn, clock in self._dirty.items()
            )

    def _mark_dirty_all(self, vpns):
        raise AssertionError("the oracle marks the ledger one page at a time")

    def share_page(self, vpn, page):
        raise AssertionError("the oracle adopts through copy_range_from")

    def _map(self, vpn, page, perm=None):
        old = self._pages.get(vpn)
        if old is not None:
            old.decref()
        self._pages[vpn] = page
        if perm is not None:
            self._perms[vpn] = perm
        self._mark_dirty(vpn)

    def read(self, addr, size, check_perm=False):
        _check_range(addr, size)
        out = bytearray(size)
        pos = 0
        while pos < size:
            vpn = (addr + pos) >> PAGE_SHIFT
            off = (addr + pos) & (PAGE_SIZE - 1)
            n = min(PAGE_SIZE - off, size - pos)
            if check_perm and not (self.perm(vpn) & PERM_R):
                raise PermissionFault(addr + pos, "read")
            page = self._pages.get(vpn)
            if page is not None:
                out[pos : pos + n] = page.data[off : off + n]
            pos += n
        return bytes(out)

    def copy_range_from(self, src, src_addr, dst_addr, size, perm=None):
        _check_range(src_addr, size)
        _check_range(dst_addr, size)
        _check_page_aligned(src_addr, size)
        _check_page_aligned(dst_addr, size)
        src_vpn0 = src_addr >> PAGE_SHIFT
        dst_vpn0 = dst_addr >> PAGE_SHIFT
        npages = size >> PAGE_SHIFT
        candidates = set(src.mapped_vpns_in(src_vpn0, src_vpn0 + npages))
        shift = dst_vpn0 - src_vpn0
        candidates.update(
            v - shift for v in self.mapped_vpns_in(dst_vpn0, dst_vpn0 + npages)
        )
        touched = 0
        for svpn in sorted(candidates):
            i = svpn - src_vpn0
            spage = src._pages.get(src_vpn0 + i)
            dvpn = dst_vpn0 + i
            dpage = self._pages.get(dvpn)
            if spage is None:
                if dpage is not None:
                    dpage.decref()
                    del self._pages[dvpn]
                    self._mark_dirty(dvpn)
                    touched += 1
                self._perms.pop(dvpn, None)
                if perm is not None:
                    self._perms[dvpn] = perm
                continue
            if spage is dpage:
                if perm is not None:
                    self._perms[dvpn] = perm
                continue
            self._map(dvpn, spage.incref(), perm)
            self.counters.pages_shared += 1
            touched += 1
        return touched

    def zero_range(self, addr, size):
        _check_range(addr, size)
        _check_page_aligned(addr, size)
        vpn0 = addr >> PAGE_SHIFT
        npages = size >> PAGE_SHIFT
        removed = 0
        for vpn in self.mapped_vpns_in(vpn0, vpn0 + npages):
            self._pages.pop(vpn).decref()
            self._mark_dirty(vpn)
            removed += 1
        for vpn in [v for v in self._perms if vpn0 <= v < vpn0 + npages]:
            del self._perms[vpn]
        self.counters.pages_zeroed += removed
        return removed


class OracleSnapshot(Snapshot):
    """A :class:`Snapshot` that re-snaps page by page."""

    def recapture(self, space):
        if space is not self._source:
            return None
        dirty = space.dirty_since(self._token)
        if dirty is None:
            return None
        vpn0 = self.addr >> PAGE_SHIFT
        vpn1 = vpn0 + (self.size >> PAGE_SHIFT)
        repinned = 0
        for vpn in dirty:
            if not vpn0 <= vpn < vpn1:
                continue
            old = self._frames.pop(vpn, None)
            if old is not None:
                old.decref()
            frame = space.frame(vpn)
            if frame is not None:
                self._frames[vpn] = frame.incref()
                space.counters.pages_shared += 1
                repinned += 1
        self._token = space.dirty_token()
        return repinned, len(dirty)

    def frame_vpns_in(self, vpn0, vpn1):
        return [v for v in self._frames if vpn0 <= v < vpn1]


@contextlib.contextmanager
def copy_based_adoption(child):
    """Within the block, ``merge_range`` adopts each page of ``child`` by
    a one-page ``copy_range_from`` (or an unmap when the child dropped
    the page)."""

    def adopt(parent, child_frame, vpn, stats):
        if child_frame is None:
            parent.unmap_page(vpn)
        else:
            parent.copy_range_from(
                child, vpn << PAGE_SHIFT, vpn << PAGE_SHIFT, PAGE_SIZE
            )
        stats.pages_adopted += 1
        stats.written_vpns.append(vpn)

    with mock.patch.object(merge, "_adopt", adopt):
        yield
