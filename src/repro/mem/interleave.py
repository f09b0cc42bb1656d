"""Physical-address interleaving across memory controllers.

Server platforms interleave the physical address space across memory
controllers to spread bandwidth; the paper's Section III notes this makes
data structures span controllers, which is exactly what makes multi-MC
ordering expensive.  The paper's bandwidth microbenchmark uses 256-byte
writes alternating across two MCs, so the default granule is 256 bytes.
"""

from __future__ import annotations

from repro.sim.config import CACHE_LINE_BYTES


class AddressMap:
    """Maps byte addresses to cache lines and cache lines to controllers.

    :meth:`lines_of` is memoized: workloads touch a bounded set of
    addresses millions of times, so its list is built once per distinct
    ``(addr, size)``, and the list it returns is the cached object
    itself -- callers must treat it as read-only.  :meth:`mc_of_line`
    is not: its arithmetic costs about what a dict probe does, and a
    memo would hold one entry per line the run touches.
    """

    __slots__ = ("num_mcs", "interleave_bytes", "line_bytes", "_lines_memo")

    def __init__(
        self,
        num_mcs: int,
        interleave_bytes: int = 256,
        line_bytes: int = CACHE_LINE_BYTES,
    ) -> None:
        if num_mcs < 1:
            raise ValueError("need at least one memory controller")
        if interleave_bytes % line_bytes != 0:
            raise ValueError("interleave granule must be a multiple of a line")
        self.num_mcs = num_mcs
        self.interleave_bytes = interleave_bytes
        self.line_bytes = line_bytes
        self._lines_memo: dict = {}

    def line_of(self, addr: int) -> int:
        """Cache-line address (aligned) containing byte ``addr``."""
        return addr - (addr % self.line_bytes)

    def lines_of(self, addr: int, size: int) -> list[int]:
        """All cache-line addresses touched by ``[addr, addr + size)``.

        The returned list is shared across calls; do not mutate it."""
        key = (addr, size)
        lines = self._lines_memo.get(key)
        if lines is None:
            if size <= 0:
                raise ValueError("size must be positive")
            first = self.line_of(addr)
            last = self.line_of(addr + size - 1)
            lines = list(range(first, last + 1, self.line_bytes))
            self._lines_memo[key] = lines
        return lines

    def mc_of(self, addr: int) -> int:
        """Index of the memory controller owning byte ``addr``."""
        return (addr // self.interleave_bytes) % self.num_mcs

    def mc_of_line(self, line: int) -> int:
        """Index of the memory controller owning cache line ``line``."""
        return (line // self.interleave_bytes) % self.num_mcs


__all__ = ["AddressMap"]
