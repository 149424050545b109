"""Differential oracles for the branch-prediction unit.

* TAGE: the batch ``predict_all`` against the per-branch reference
  ``predict_and_update`` on random ``(pc, taken)`` streams.
* FDIP: the bind-time prediction pass against ``ReferenceFrontEnd``
  (tests/helpers.py), which evaluates one block at a time the way the
  runahead used to, on random assembled traces.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cpu.stats import SimStats
from repro.frontend import tage as tage_module
from repro.frontend.fdip import BRANCH_COUNTERS, FDIPFrontEnd, FrontEndParams
from repro.frontend.tage import TagePredictor
from repro.isa.instructions import BranchKind
from tests.helpers import ReferenceFrontEnd, TraceAssembler, same_state

#: A geometry with a history shorter than its index width, one longer
#: than the 64-bit GHR, and 16-bit tags (a full lane).
SMALL_TABLES = ((16, 3, 4), (32, 12, 6), (64, 80, 16))

branch = st.tuples(
    st.one_of(st.integers(0, 31).map(lambda k: 0x400000 + 4 * k),
              st.integers(0, 1 << 48)),
    st.booleans())
#: Random streams, and loops: a short pattern repeated, so global
#: histories recur and several tagged tables match at once.
branches = st.one_of(
    st.lists(branch, max_size=300),
    st.builds(lambda pattern, reps, tail: pattern * reps + tail,
              st.lists(branch, min_size=1, max_size=12),
              st.integers(1, 40), st.lists(branch, max_size=20)))


def _make(small):
    if small:
        return TagePredictor(bimodal_entries=256, tables=SMALL_TABLES)
    return TagePredictor()


def _check_predict_all(make, warm, stream):
    ref, fast = make(), make()
    for pc, taken in warm:
        ref.predict_and_update(pc, taken)
        fast.predict_and_update(pc, taken)
    expected = [int(ref.predict_and_update(pc, taken))
                for pc, taken in stream]
    got = fast.predict_all([pc for pc, _ in stream],
                           [taken for _, taken in stream])
    assert list(got) == expected
    assert same_state(fast, ref)


@settings(max_examples=60, deadline=None)
@given(warm=branches, stream=branches, chunk=st.integers(1, 100),
       small=st.booleans())
def test_predict_all_matches_per_branch_reference(warm, stream, chunk,
                                                   small):
    # A small chunk size makes short streams cross chunk boundaries.
    with mock.patch.object(tage_module, "CHUNK", chunk):
        _check_predict_all(lambda: _make(small), warm, stream)


def test_predict_all_across_full_chunks():
    # A loop body of 60 branches, one of them alternating, with 2%
    # noise: enough recurring history for provider and alternate hits.
    rng = random.Random(3)
    body = [(rng.randrange(0, 1 << 22) * 4, rng.random() < 0.7)
            for _ in range(60)]
    stream = []
    while len(stream) < 2 * tage_module.CHUNK + 123:
        for k, (pc, taken) in enumerate(body):
            if k == 0:
                taken = len(stream) % 120 == 0
            stream.append((pc, taken != (rng.random() < 0.02)))
    _check_predict_all(TagePredictor, stream[:50], stream)


# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------
KINDS = (BranchKind.NONE, BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
         BranchKind.RET, BranchKind.ICALL, BranchKind.IJUMP)

blocks = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 15),
                            st.booleans(), st.integers(0, 7)),
                  min_size=1, max_size=120)

PARAMS = (
    FrontEndParams(),
    FrontEndParams(btb_entries=8, btb_assoc=2),  # evictions
    FrontEndParams(btb_entries=None),
    FrontEndParams(ras_depth=2),  # overflow and underflow
)


def _assemble(spec):
    """A trace from ``(kind, pc slot, flag, target slot)`` records.  Few
    distinct pcs and targets, so predictors warm up and BTB sets
    collide; a RET whose flag is set returns to the latest call."""
    asm = TraceAssembler()
    calls = []
    for kind, slot, flag, tslot in spec:
        pc = 0x400000 + slot * 0x40
        term = pc + 3 * 4
        target = 0x500000 + tslot * 0x40
        if kind == BranchKind.COND:
            asm.add(pc, 4, kind, taken=flag, target=target if flag else None)
            continue
        if kind == BranchKind.RET and flag and calls:
            target = calls.pop()
        elif kind in (BranchKind.CALL, BranchKind.ICALL):
            calls.append(term + 4)
        asm.add(pc, 4, kind, taken=kind != BranchKind.NONE,
                target=None if kind == BranchKind.NONE else target)
    return asm.build()


def _counters(stats):
    return tuple(getattr(stats, name) for name in BRANCH_COUNTERS)


def _runahead(penalties, ftq):
    """The runahead's ``(ptr, blocked_at)`` after each commit index,
    walking block by block and stopping at every penalty block."""
    n = len(penalties)
    ptr, blocked = 0, -1
    for commit in range(n):
        if blocked >= 0 and commit >= blocked:
            blocked = -1
        if blocked < 0:
            limit = min(commit + ftq, n - 1)
            while ptr <= limit:
                ptr += 1
                if penalties[ptr - 1]:
                    blocked = ptr - 1
                    break
        yield ptr, blocked


@settings(max_examples=60, deadline=None)
@given(spec=blocks, params=st.sampled_from(PARAMS), ftq=st.integers(1, 8),
       flushes=st.sets(st.integers(0, 119)))
def test_prediction_pass_matches_per_block_reference(spec, params, ftq,
                                                     flushes):
    trace = _assemble(spec)
    expected = ReferenceFrontEnd(trace, params).run()
    stats = SimStats()
    fdip = FDIPFrontEnd(FrontEndParams(**{**params.__dict__,
                                          "ftq_entries": ftq}), stats)
    fdip.bind(trace, None)
    penalties = [pen for pen, _ in expected]
    assert list(fdip.pen) == penalties
    runahead = _runahead(penalties, ftq)

    def evaluated_so_far():
        return tuple(map(sum, zip(*(deltas for _, deltas
                                    in expected[:fdip._ptr]))))

    # Drive the runahead like the commit loop, with range ends (counter
    # flushes) at arbitrary points.
    for i in range(len(trace)):
        fdip.advance(i, float(i))
        assert (fdip._ptr, fdip._blocked_at) == next(runahead)
        assert fdip.penalty_at(i) == expected[i][0]
        if i in flushes:
            fdip.count_branches()
            assert _counters(stats) == evaluated_so_far()
    fdip.count_branches()
    assert fdip._ptr == len(trace)
    assert _counters(stats) == evaluated_so_far()
