"""Two-level page descriptor table — "a tree of fixed height 2
describing pages of uniformly sized objects" (paper, Related Work, the
contrast with Jones & Kelly's splay tree).

Mapping an arbitrary address to its page descriptor is the operation
``GC_base`` and the mark phase both hammer; the height-2 tree makes it
two array indexations, "an operation crucial to the collector's
performance".
"""

from __future__ import annotations

from .memory import PAGE_SHIFT

BOTTOM_BITS = 10
BOTTOM_MASK = (1 << BOTTOM_BITS) - 1
_TOP_SIZE = 1 << (32 - PAGE_SHIFT - BOTTOM_BITS)


class PageTable:
    """addr -> descriptor in two indexations; None when not a heap page."""

    def __init__(self):
        self._top: list[list[object | None] | None] = [None] * _TOP_SIZE
        self.pages = 0

    def register(self, addr: int, descriptor: object) -> None:
        page_idx = addr >> PAGE_SHIFT
        hi, lo = page_idx >> BOTTOM_BITS, page_idx & BOTTOM_MASK
        bottom = self._top[hi]
        if bottom is None:
            bottom = [None] * (BOTTOM_MASK + 1)
            self._top[hi] = bottom
        if bottom[lo] is None:
            self.pages += 1
        bottom[lo] = descriptor

    def unregister(self, addr: int) -> None:
        page_idx = addr >> PAGE_SHIFT
        hi, lo = page_idx >> BOTTOM_BITS, page_idx & BOTTOM_MASK
        bottom = self._top[hi]
        if bottom is not None and bottom[lo] is not None:
            bottom[lo] = None
            self.pages -= 1

    def lookup(self, addr: int) -> object | None:
        """The hot path: two array indexations, no hashing."""
        if addr < 0 or addr >= 1 << 32:
            return None
        page_idx = addr >> PAGE_SHIFT
        bottom = self._top[page_idx >> BOTTOM_BITS]
        if bottom is None:
            return None
        return bottom[page_idx & BOTTOM_MASK]

    def __contains__(self, addr: int) -> bool:
        return self.lookup(addr) is not None
