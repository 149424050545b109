"""Property tests for the synthetic function-body builder.

``_make_body`` must always produce a structurally valid block program —
``Function``'s constructor validates every block — for any combination
of size budget, call sites, switches and loops.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.binary import Function
from repro.isa.instructions import BranchKind
from repro.workloads.generator import _make_body
from tests.conftest import micro_params

SLOW = settings(
    max_examples=80, suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


@SLOW
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(24, 4096),
    n_callees=st.integers(0, 6),
    optional_mask=st.integers(0, 63),
    loop=st.booleans(),
    n_switch=st.integers(0, 3),
)
def test_make_body_always_valid(seed, size, n_callees, optional_mask,
                                loop, n_switch):
    rng = random.Random(seed)
    params = micro_params()
    callees = [
        (f"callee_{k}", bool(optional_mask & (1 << k)))
        for k in range(n_callees)
    ]
    switch = tuple(f"variant_{j}" for j in range(n_switch)) or None
    body = _make_body(rng, params, size, callees, loop=loop,
                      switch_targets=switch)
    func = Function("f", body)  # constructor validates every block

    # Structural invariants beyond per-block validation:
    assert body[-1].kind == BranchKind.RET
    emitted_callees = [b.callee for b in body if b.kind == BranchKind.CALL]
    assert emitted_callees == [name for name, _ in callees]
    if switch:
        icalls = [b for b in body if b.kind == BranchKind.ICALL]
        assert len(icalls) == 1
        assert icalls[0].targets == switch
    # The body roughly meets its size budget (always >= target since
    # blocks are appended until the budget is consumed).
    assert func.size >= min(size, 24)


@SLOW
@given(seed=st.integers(0, 10_000), size=st.integers(24, 2048))
def test_loop_blocks_form_backward_cond(seed, size):
    rng = random.Random(seed)
    body = _make_body(rng, micro_params(), size, [], loop=True)
    loops = [
        (i, b) for i, b in enumerate(body)
        if b.kind == BranchKind.COND and b.loop_count
    ]
    assert len(loops) == 1
    index, blk = loops[0]
    assert blk.taken_next < index
    assert 3 <= blk.loop_count <= 9


def test_randbelow_draws_the_randint_stream():
    # _make_body draws ``lo + rng._randbelow(hi - lo + 1)`` where it
    # means ``rng.randint(lo, hi)``: on this interpreter both must give
    # the same numbers and leave the generator in the same state.
    spans = [(4, 10), (2, 5), (2, 4), (4, 8), (3, 9), (1, 3)] * 50_000
    fast, slow = random.Random(20251020), random.Random(20251020)
    draws = [lo + fast._randbelow(hi - lo + 1) for lo, hi in spans]
    assert draws == [slow.randint(lo, hi) for lo, hi in spans]
    assert fast.getstate() == slow.getstate()
