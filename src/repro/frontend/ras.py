"""Return Address Stack.

A fixed-depth circular stack: overflow silently overwrites the oldest
entry (so deep call chains corrupt old return predictions, as in real
hardware), underflow predicts nothing.  Besides return prediction, the
top-of-stack window feeds EFetch's call-context signature (§2.3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple



class ReturnAddressStack:
    """Circular return-address stack (default depth 32)."""

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._buf: List[int] = [0] * depth
        self._top = -1      # index of top entry in _buf
        self._count = 0     # live entries (<= depth)
        self.overflows = 0
        self.underflows = 0

    def push(self, return_addr: int) -> None:
        self._top = (self._top + 1) % self.depth
        self._buf[self._top] = return_addr
        if self._count < self.depth:
            self._count += 1
        else:
            self.overflows += 1

    def pop(self) -> Optional[int]:
        """Pop and return the predicted return address (None if empty)."""
        if self._count == 0:
            self.underflows += 1
            return None
        value = self._buf[self._top]
        self._top = (self._top - 1) % self.depth
        self._count -= 1
        return value

    def top_entries(self, n: int) -> Tuple[int, ...]:
        """The ``n`` most recent return addresses, newest first.

        Used by EFetch/RDIP-style signatures ("hashes of the top entries
        of the RAS").  Returns fewer than ``n`` when the stack is
        shallower.
        """
        n = min(n, self._count)
        out = []
        idx = self._top
        for _ in range(n):
            out.append(self._buf[idx])
            idx = (idx - 1) % self.depth
        return tuple(out)

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        self._top = -1
        self._count = 0

    def __repr__(self) -> str:
        return f"ReturnAddressStack(depth={self.depth}, live={self._count})"
