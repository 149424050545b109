"""Synthetic binary container: functions, basic-block bodies, sections.

A :class:`Function` body is an explicit list of :class:`BlockSpec` basic
blocks — the synthetic analogue of machine code.  The trace generator in
:mod:`repro.workloads.trace` interprets these bodies; the call-graph
builder in :mod:`repro.callgraph` scans their call sites; the linker in
:mod:`repro.isa.linker` appends a ``bundle_entries`` section, mirroring
the ELF segment the paper adds next to ``.dynamic``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import INSTR_BYTES, TEXT_BASE, BranchKind


class BlockSpec:
    """One basic block of a synthetic function body.

    Attributes:
        ninstr: number of instructions in the block (terminator included).
        kind: the terminator's :class:`BranchKind`.
        callee: callee function name for ``CALL`` terminators.
        targets: candidate callee names for ``ICALL`` terminators (the
            static call graph edges of the dispatch point).
        selector: context key consulted by the trace generator to pick an
            ``ICALL`` target (e.g. a per-request-type dispatch decision).
            ``None`` means the target is drawn uniformly at random.
        taken_prob: probability that a ``COND`` terminator is taken.
        taken_next: in-function block index reached when a ``COND`` or
            ``JUMP`` terminator is taken.  A backward index forms a loop.
        loop_count: for backward ``COND`` terminators, the deterministic
            trip count of the loop (the branch is taken ``loop_count - 1``
            times, then falls through).  0 means the branch outcome is
            drawn from ``taken_prob`` each execution.
        itargets: in-function block indices for ``IJUMP`` terminators.
        offset: byte offset of the block within its function (assigned by
            :class:`Function`).

    A binary holds about a hundred thousand blocks, so the class keeps
    its fields in slots rather than a per-instance ``__dict__``.  Two
    blocks are equal when every field but ``offset`` is; blocks are
    mutable and therefore unhashable.
    """

    __slots__ = ("ninstr", "kind", "callee", "targets", "selector",
                 "taken_prob", "taken_next", "loop_count", "itargets",
                 "offset")

    def __init__(
        self,
        ninstr: int,
        kind: BranchKind = BranchKind.NONE,
        callee: Optional[str] = None,
        targets: Tuple[str, ...] = (),
        selector: Optional[str] = None,
        taken_prob: float = 0.0,
        taken_next: int = -1,
        loop_count: int = 0,
        itargets: Tuple[int, ...] = (),
        offset: int = -1,
    ):
        self.ninstr = ninstr
        self.kind = kind
        self.callee = callee
        self.targets = targets
        self.selector = selector
        self.taken_prob = taken_prob
        self.taken_next = taken_next
        self.loop_count = loop_count
        self.itargets = itargets
        self.offset = offset

    def _compared(self) -> tuple:
        return (self.ninstr, self.kind, self.callee, self.targets,
                self.selector, self.taken_prob, self.taken_next,
                self.loop_count, self.itargets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"BlockSpec({fields})"

    @property
    def size(self) -> int:
        """Byte size of the block."""
        return self.ninstr * INSTR_BYTES

    def validate(self, index: int, nblocks: int) -> None:
        """Check internal consistency as block ``index`` of a body of
        ``nblocks``; raise ``ValueError`` on violation."""
        _check_blocks((self,), index, nblocks)


def _check_blocks(blocks: Sequence[BlockSpec], first: int,
                  nblocks: int) -> None:
    """The block rules: check ``blocks``, numbered from ``first``, as
    blocks of a body of ``nblocks``; raise ``ValueError`` at the first
    violation.  :class:`Function` checks its whole body in one call."""
    COND, JUMP, CALL, ICALL, IJUMP = (
        BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
        BranchKind.ICALL, BranchKind.IJUMP)
    last = nblocks - 1
    for index, blk in enumerate(blocks, first):
        kind = blk.kind
        if blk.ninstr < 1:
            raise ValueError(f"block {index}: ninstr must be >= 1")
        if kind == CALL:
            if not blk.callee:
                raise ValueError(f"block {index}: CALL requires a callee")
        elif kind == ICALL:
            if not blk.targets:
                raise ValueError(f"block {index}: ICALL requires targets")
        elif kind == COND or kind == JUMP:
            if not 0 <= blk.taken_next < nblocks:
                raise ValueError(
                    f"block {index}: taken_next {blk.taken_next} out of "
                    f"range [0, {nblocks})"
                )
        if blk.loop_count and (kind != COND or blk.taken_next >= index):
            raise ValueError(
                f"block {index}: loop_count requires a backward COND"
            )
        if kind == IJUMP:
            if not blk.itargets:
                raise ValueError(f"block {index}: IJUMP requires itargets")
            for t in blk.itargets:
                if not 0 <= t < nblocks:
                    raise ValueError(
                        f"block {index}: IJUMP target {t} out of range"
                    )
        elif index == last and (kind == COND or kind == CALL
                                or kind == ICALL):
            # Fall-through off the end of the function is a layout bug
            # for kinds that can fall through.
            raise ValueError(
                f"block {index}: terminator {kind.name} may fall "
                "through past the end of the function"
            )


class Function:
    """A synthetic function: a named, sized, executable block list."""

    def __init__(self, name: str, blocks: Sequence[BlockSpec]):
        if not name:
            raise ValueError("function name must be non-empty")
        if not blocks:
            raise ValueError(f"function {name!r} has no blocks")
        self.name = name
        self.blocks: List[BlockSpec] = list(blocks)
        self.addr = -1  # assigned by Binary.layout()
        _check_blocks(self.blocks, 0, len(self.blocks))
        offset = 0
        for blk in self.blocks:
            blk.offset = offset
            offset += blk.ninstr * INSTR_BYTES
        self.size = offset

    @property
    def end_addr(self) -> int:
        """One past the last byte of the function (after layout)."""
        self._require_layout()
        return self.addr + self.size

    def block_addr(self, index: int) -> int:
        """Absolute address of block ``index`` (after layout)."""
        self._require_layout()
        return self.addr + self.blocks[index].offset

    def terminator_addr(self, index: int) -> int:
        """Absolute address of the terminator instruction of block
        ``index`` (after layout)."""
        blk = self.blocks[index]
        return self.block_addr(index) + (blk.ninstr - 1) * INSTR_BYTES

    def static_callees(self) -> List[str]:
        """All statically visible callee names (direct and indirect), in
        call-site order.

        Indirect call sites contribute every candidate target — the
        static call graph deliberately over-approximates, as the paper
        notes ("static call graphs tend to overestimate the actual
        graphs").
        """
        CALL, ICALL = BranchKind.CALL, BranchKind.ICALL
        out: List[str] = []
        for blk in self.blocks:
            kind = blk.kind
            if kind == CALL:
                out.append(blk.callee)  # type: ignore[arg-type]
            elif kind == ICALL:
                out.extend(blk.targets)
        return out

    def _require_layout(self) -> None:
        if self.addr < 0:
            raise RuntimeError(
                f"function {self.name!r} has no address; call "
                "Binary.layout() first"
            )

    def __repr__(self) -> str:
        return (
            f"Function({self.name!r}, size={self.size}, "
            f"blocks={len(self.blocks)}, addr={self.addr:#x})"
        )


class Binary:
    """An ordered collection of functions plus auxiliary sections.

    The insertion order of functions defines the text-segment layout.
    Sections are free-form named payloads; the linker stores the bundle
    entry-point record under ``"bundle_entries"``.
    """

    FUNCTION_ALIGN = 16

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self.functions: Dict[str, Function] = {}
        self.sections: Dict[str, object] = {}
        self._laid_out = False

    def add_function(self, func: Function) -> Function:
        """Register ``func``; names must be unique."""
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        self._laid_out = False
        return func

    def get(self, name: str) -> Function:
        """Look up a function by name, raising ``KeyError`` with context."""
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name!r} in binary") from None

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    def layout(self, base: int = TEXT_BASE) -> None:
        """Assign text-segment addresses to every function.

        Functions are placed in insertion order, aligned to
        ``FUNCTION_ALIGN`` bytes.  Re-running after adding functions is
        allowed and re-layouts everything.
        """
        self.validate()
        addr = base
        align = self.FUNCTION_ALIGN
        for func in self.functions.values():
            addr = (addr + align - 1) // align * align
            func.addr = addr
            addr += func.size
        self._laid_out = True

    @property
    def is_laid_out(self) -> bool:
        return self._laid_out

    @property
    def text_size(self) -> int:
        """Total byte size of all function bodies (alignment excluded)."""
        return sum(f.size for f in self.functions.values())

    def validate(self) -> None:
        """Check cross-function consistency (callee names resolve)."""
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} not defined")
        functions = self.functions
        for func in functions.values():
            for name in func.static_callees():
                if name not in functions:
                    raise ValueError(
                        f"{func.name}: call to undefined function {name!r}"
                    )

    def __repr__(self) -> str:
        return (
            f"Binary(entry={self.entry!r}, functions={len(self.functions)}, "
            f"text_size={self.text_size})"
        )
