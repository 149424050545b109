"""Unit tests for the Trace container API (no simulation involved)."""

from repro.experiments import runner
from repro.isa.instructions import BranchKind
from repro.workloads.suite import build_application, requests_for
from tests.helpers import TraceAssembler, linear_trace


class TestTraceAccessors:
    def test_blocks_of_single(self):
        trace = linear_trace(1, start=0x400000, ninstr=4)
        b0, b1 = trace.blocks_of(0)
        assert b0 == b1 == 0x400000 >> 6

    def test_blocks_of_spanning(self):
        asm = TraceAssembler()
        asm.add(0x400030, ninstr=8)  # 32 bytes ending in the next block
        trace = asm.build()
        b0, b1 = trace.blocks_of(0)
        assert b1 == b0 + 1

    def test_terminator_addr(self):
        trace = linear_trace(1, start=0x400000, ninstr=4)
        assert trace.terminator_addr(0) == 0x400000 + 3 * 4

    def test_len_and_instruction_count(self):
        trace = linear_trace(10, ninstr=6)
        assert len(trace) == 10
        assert trace.n_instructions == 60

    def test_footprint_subrange(self):
        trace = linear_trace(32, start=0, ninstr=16)  # one block each
        assert len(trace.footprint(0, 32)) == 32
        assert len(trace.footprint(0, 5)) == 5
        assert trace.footprint(3, 3) == set()

    def test_request_of_defaults(self):
        trace = linear_trace(4)
        assert trace.request_of(0) == 0  # builder seeds one request

    def test_repr(self):
        trace = linear_trace(4)
        text = repr(trace)
        assert "blocks=4" in text


class TestAssemblerConsistency:
    def test_fallthrough_targets(self):
        trace = linear_trace(8, ninstr=4)
        for i in range(7):
            assert trace.target[i] == trace.pc[i + 1]

    def test_loop_shape(self):
        from tests.helpers import looping_trace

        trace = looping_trace(n_blocks=4, repeats=3)
        assert len(trace) == 12
        jumps = [i for i in range(len(trace))
                 if trace.kind[i] == int(BranchKind.JUMP)]
        assert len(jumps) == 3
        for i in jumps:
            assert trace.target[i] == trace.pc[0]

    def test_string_kind_coercion(self):
        asm = TraceAssembler()
        asm.add(0x1000, 4, "RET", taken=True, target=0x2000)
        trace = asm.build()
        assert trace.kind[0] == int(BranchKind.RET)


SHARED = ("pc", "target", "block0", "block1", "page", "term")


def assert_one_object_per_value(trace):
    for name in SHARED:
        arr = getattr(trace, name)
        assert len({id(v) for v in arr}) == len(set(arr)), name


class TestSharedInts:
    """Every per-block table of large ints holds one object per distinct
    value, on a built trace and on one loaded from the trace store."""

    def test_built_and_loaded_traces_share_ints(self):
        name = "mysql_sibench"
        built = build_application(name).trace(requests_for(name, "tiny"),
                                               seed=5)
        assert len(set(built.pc)) < len(built) // 2
        assert_one_object_per_value(built)
        runner._TRACE_STORE.save(name, "tiny", 5, built)
        loaded = runner._TRACE_STORE.load(name, "tiny", 5)
        assert loaded is not built
        assert_one_object_per_value(loaded)
        for field in SHARED:
            assert getattr(loaded, field) == getattr(built, field)

    def test_decode_tables_key_on_pc_and_length(self):
        # One pc, two block lengths: block1 and term differ per block.
        asm = TraceAssembler()
        for ninstr in (4, 30, 4, 30):
            asm.add(0x400030, ninstr, BranchKind.JUMP, taken=True,
                    target=0x400030)
        trace = asm.build()
        assert trace.block1 == [(0x400030 + n * 4 - 1) >> 6
                                for n in trace.ninstr]
        assert trace.term == [0x400030 + (n - 1) * 4 for n in trace.ninstr]
        assert trace.block1[0] != trace.block1[1]
        assert trace.block0 == [0x400030 >> 6] * 4
        assert trace.page == [0x400030 >> 12] * 4
        assert_one_object_per_value(trace)
