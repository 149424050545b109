"""The block rules, checked one block at a time and one body at a time.

``Function`` checks its whole body in one pass; ``BlockSpec.validate``
checks one block.  Both run the same rules, so on any block list the
constructor must raise exactly when some ``blocks[i].validate(i, n)``
raises, with the message of the first such block.  The slotted
``BlockSpec`` keeps the value semantics of the dataclass it replaced.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.binary import BlockSpec, Function
from repro.isa.instructions import BranchKind


@st.composite
def bodies(draw):
    """Block lists that reach every rule: each ``BranchKind``, missing
    callees and targets, ``taken_next`` and IJUMP targets at -1, 0,
    n-1 and n, backward and forward ``loop_count``, and any kind last."""
    n = draw(st.integers(1, 6))
    index = st.sampled_from(sorted({-1, 0, n - 1, n}))
    blocks = []
    for _ in range(n):
        blocks.append(BlockSpec(
            ninstr=draw(st.sampled_from(range(8))),
            kind=draw(st.sampled_from(list(BranchKind))),
            callee=draw(st.sampled_from([None, "", "g", "g"])),
            targets=draw(st.sampled_from([(), ("g",), ("g", "h")])),
            taken_next=draw(index),
            loop_count=draw(st.sampled_from([0, 0, 0, 3])),
            itargets=tuple(draw(st.lists(index, max_size=2))),
        ))
    return blocks


def first_violation(blocks):
    """``(index, message)`` of the first block whose own check raises,
    or None."""
    for i, blk in enumerate(blocks):
        try:
            blk.validate(i, len(blocks))
        except ValueError as exc:
            return i, str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(blocks=bodies())
@example(blocks=[BlockSpec(4, BranchKind.COND, taken_next=0, loop_count=3)])
@example(blocks=[BlockSpec(2, BranchKind.RET),
                 BlockSpec(2, BranchKind.COND, taken_next=0, loop_count=3),
                 BlockSpec(1, BranchKind.RET)])
@example(blocks=[BlockSpec(2, BranchKind.COND, taken_next=1, loop_count=3),
                 BlockSpec(1, BranchKind.RET)])
@example(blocks=[BlockSpec(2, BranchKind.IJUMP, itargets=(0, 1)),
                 BlockSpec(2, BranchKind.CALL, callee="g")])
def test_function_raises_exactly_when_a_block_does(blocks):
    expected = first_violation(blocks)
    if expected is None:
        func = Function("f", blocks)
        assert [b.offset for b in func.blocks] == [
            sum(b.size for b in blocks[:i]) for i in range(len(blocks))]
        return
    index, message = expected
    assert message.startswith(f"block {index}: ")
    with pytest.raises(ValueError) as info:
        Function("f", blocks)
    assert str(info.value) == message


class TestSlottedBlockSpec:
    def test_no_instance_dict(self):
        assert not hasattr(BlockSpec(3), "__dict__")

    def test_defaults(self):
        blk = BlockSpec(3)
        assert (blk.kind, blk.callee, blk.targets, blk.selector,
                blk.taken_prob, blk.taken_next, blk.loop_count,
                blk.itargets, blk.offset) == (
            BranchKind.NONE, None, (), None, 0.0, -1, 0, (), -1)

    def test_equality_ignores_offset(self):
        a = BlockSpec(3, BranchKind.CALL, callee="g", offset=0)
        b = BlockSpec(3, BranchKind.CALL, callee="g", offset=64)
        assert a == b
        assert a != BlockSpec(3, BranchKind.CALL, callee="h", offset=0)
        assert a != BlockSpec(4, BranchKind.CALL, callee="g", offset=0)
        assert BlockSpec(3, taken_prob=0.5) != BlockSpec(3, taken_prob=0.25)
        assert a != (3, BranchKind.CALL, "g")

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BlockSpec(3))

    def test_pickle_round_trip(self):
        blk = BlockSpec(5, BranchKind.ICALL, targets=("g", "h"),
                        selector="stage", taken_prob=0.25, offset=40)
        copy = pickle.loads(pickle.dumps(blk))
        assert copy is not blk
        assert copy == blk
        assert copy.offset == 40

    def test_repr_names_every_field(self):
        text = repr(BlockSpec(2, BranchKind.CALL, callee="g"))
        assert text.startswith("BlockSpec(ninstr=2, kind=")
        assert "callee='g'" in text
        assert text.endswith("offset=-1)")
