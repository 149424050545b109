"""Link-time bundle identification and tagging (paper §5.2, step ①/②).

The linker lays out the binary, runs Algorithm 1 over the static call
graph, and records the addresses of every call/return instruction that
marks a Bundle entry point into a ``bundle_entries`` section — the
synthetic analogue of the ELF segment the paper adds next to
``.dynamic``.  Tagged instructions are:

* every call instruction whose (static) target is a Bundle entry
  function — executing it enters the Bundle at the callee, and
* every return instruction *of* a Bundle entry function — executing it
  resumes the caller's continuation, which starts the next Bundle
  (Figure 5b: Bundle3 begins when B returns into A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.core.bundles import BundleInfo, identify_bundles
from repro.isa.binary import Binary
from repro.isa.instructions import INSTR_BYTES, BranchKind

#: Name of the section holding the tagged-address record.
BUNDLE_SECTION = "bundle_entries"


@dataclass
class LinkResult:
    """Payload stored in the ``bundle_entries`` section."""

    threshold: int
    #: Absolute addresses of tagged call/return terminator instructions.
    tagged_addrs: FrozenSet[int]
    #: Entry-point function name -> entry address.
    entry_addrs: Dict[str, int]
    bundles: BundleInfo


class Linker:
    """Runs the software pass of Hierarchical Prefetching on a binary."""

    def __init__(self, threshold: int):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold

    def link(self, binary: Binary) -> LinkResult:
        """Lay out ``binary``, identify Bundles, and tag entry points.

        The result is also stored in ``binary.sections["bundle_entries"]``
        so the loader can find it, mirroring how the paper's loader reads
        the added ELF segment.
        """
        if not binary.is_laid_out:
            binary.layout()
        info = identify_bundles(binary, self.threshold)
        entries = info.entries
        CALL, ICALL, RET = BranchKind.CALL, BranchKind.ICALL, BranchKind.RET
        tagged: Set[int] = set()
        for func in binary:
            # A block's terminator sits at its last instruction.
            base = func.addr - INSTR_BYTES
            is_entry = func.name in entries
            for blk in func.blocks:
                kind = blk.kind
                if kind == CALL:
                    if blk.callee not in entries:
                        continue
                elif kind == ICALL:
                    if entries.isdisjoint(blk.targets):
                        continue
                elif kind != RET or not is_entry:
                    continue
                tagged.add(base + blk.offset + blk.ninstr * INSTR_BYTES)
        entry_addrs = {
            name: binary.get(name).addr for name in sorted(info.entries)
        }
        result = LinkResult(
            threshold=self.threshold,
            tagged_addrs=frozenset(tagged),
            entry_addrs=entry_addrs,
            bundles=info,
        )
        binary.sections[BUNDLE_SECTION] = result
        return result
