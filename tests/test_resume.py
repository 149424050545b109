"""A machine resumed from its warmup checkpoint behaves like one that
was never interrupted.

A checkpoint is the machine pickled by ``FrontEndSimulator.state_dict``
without what the trace owns; ``FrontEndSimulator.resume`` unpickles it
onto a freshly loaded trace.  The cross product below covers every
prefetcher, replacement policy and I-TLB prefetch setting on the
workloads' tiny applications.  To keep the suite fast each case runs
the first :data:`BLOCKS` blocks of a one-request trace of its
application, and the warmup fraction alternates between
:data:`FRACTIONS` over policy and I-TLB setting, so every prefetcher
meets both fractions on both workloads.
"""

import dataclasses
import pickle
from collections import deque

import pytest

from repro.cpu import MachineConfig
from repro.cpu.restore import Restorable
from repro.cpu.simulator import FrontEndSimulator
from repro.experiments import diskcache, runner
from repro.experiments.policies import policy_overrides
from repro.memory.policies import POLICY_NAMES
from repro.prefetchers import PREFETCHER_NAMES, make_prefetcher
from repro.workloads import cache as workload_cache
from repro.workloads.trace import ARRAY_FIELDS, Trace

WORKLOADS = ("mysql_sibench", "msvc_hotel")
FRACTIONS = (0.4, 0.75)
BLOCKS = 6000


def _head(trace: Trace, n: int) -> Trace:
    """The first ``n`` blocks of a one-request trace."""
    payload = trace.to_payload()
    for name in ARRAY_FIELDS:
        payload[name] = payload[name][:n]
    payload["stage_spans"] = [(lo, min(hi, n), stage, kind)
                              for lo, hi, stage, kind
                              in payload["stage_spans"] if lo < n]
    payload["n_instructions"] = sum(payload["ninstr"])
    return Trace.from_payload(payload)


@pytest.fixture(scope="module")
def traces():
    """Per workload: the trace the donor runs, and a freshly loaded
    copy of it that shares no object with it."""
    out = {}
    for workload in WORKLOADS:
        app = workload_cache.get_application(workload)
        trace = _head(app.trace(1, seed=1), BLOCKS)
        out[workload] = (trace, Trace.from_payload(
            pickle.loads(pickle.dumps(trace.to_payload()))))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("itlb_prefetch", (False, True))
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("prefetcher", PREFETCHER_NAMES)
def test_resume_equals_uninterrupted_run(prefetcher, policy, itlb_prefetch,
                                         workload, traces):
    trace, fresh = traces[workload]
    fraction = FRACTIONS[(POLICY_NAMES.index(policy) + itlb_prefetch) % 2]
    config = MachineConfig().replace(
        **policy_overrides(policy, itlb_prefetch))
    donor = FrontEndSimulator(config, make_prefetcher(prefetcher))
    donor.warmup(trace, fraction)
    state = donor.state_dict()
    # The donor measuring on is exactly run(): warmup, then measure.
    expected = donor.measure()

    resumed = FrontEndSimulator.resume(fresh, state, config)
    assert resumed.measure() == expected
    # The resumed machine reads the new trace's own tables.
    assert resumed.trace is fresh
    assert resumed.frontend._b0 is fresh.block0
    assert resumed.frontend.pen == donor.frontend.pen
    pf = resumed.prefetcher
    if pf is not None:
        assert pf.trace is fresh and pf._block1 is fresh.block1
        if hasattr(pf, "_nin_a"):
            assert pf._nin_a is fresh.ninstr


def test_resume_rejects_another_configuration(traces):
    trace, fresh = traces["mysql_sibench"]
    donor = FrontEndSimulator(MachineConfig())
    donor.warmup(trace, FRACTIONS[0])
    other = MachineConfig().replace(**{"hierarchy.l1i_bytes": 16 * 1024})
    with pytest.raises(ValueError, match="configuration"):
        FrontEndSimulator.resume(fresh, donor.state_dict(), other)
    with pytest.raises(ValueError, match="configuration"):
        FrontEndSimulator.resume(fresh, pickle.dumps(donor.stats),
                                 MachineConfig())


def test_tracked_run_resumed_from_untracked_checkpoint(tmp_path):
    """The warmup key leaves miss tracking out, so a tracked run resumes
    an untracked point's checkpoint: it must track from its own flag and
    return the miss map of a cold tracked run.  The stored checkpoint
    holds nothing of the trace, so it is smaller than the trace's
    payload."""
    previous = diskcache.set_cache_dir(tmp_path)
    try:
        runner.clear_run_cache()
        runner.reset_run_cache_stats()
        runner.run_prefetcher("mysql_sibench", "eip", scale="tiny")
        got, got_map = runner.run_prefetcher(
            "mysql_sibench", "eip", scale="tiny", track_block_misses=True)
        assert runner.run_cache_stats().kinds["warmup"].hits == 1
        (checkpoint,) = diskcache.stores()["warmup"].entries()
        trace = runner.get_trace("mysql_sibench", scale="tiny")
        assert checkpoint.stat().st_size < len(pickle.dumps(
            trace.to_payload(), protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        runner.clear_run_cache()
        diskcache.set_cache_dir(previous)
    cold, cold_map = runner.run_prefetcher(
        "mysql_sibench", "eip", scale="tiny", track_block_misses=True,
        use_cache=False)
    assert got == cold
    assert got_map == cold_map and cold_map


def _objects(root):
    """Every object reachable from ``root`` through attributes and
    containers, the trace left out."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (int, float, str, bytes,
                                               Trace)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            todo.extend(obj)
        elif hasattr(obj, "__self__"):
            todo.append(obj.__self__)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return seen.values()


@pytest.mark.parametrize("prefetcher", PREFETCHER_NAMES)
def test_checkpoint_objects_restore_inline(prefetcher, traces):
    """Every object of a checkpoint that keeps its attributes in a
    ``__dict__`` is restored by ``Restorable`` (configuration
    dataclasses aside), so a resumed machine keeps fast attribute
    access (see ``repro.cpu.restore``)."""
    trace, fresh = traces["msvc_hotel"]
    config = MachineConfig().replace(**policy_overrides("bip", True))
    donor = FrontEndSimulator(config, make_prefetcher(prefetcher))
    donor.warmup(trace, FRACTIONS[0])
    resumed = FrontEndSimulator.resume(fresh, donor.state_dict(), config)
    plain = {type(obj).__name__ for obj in _objects(resumed)
             if type(obj).__module__.startswith("repro.")
             and hasattr(obj, "__dict__")
             and not isinstance(obj, Restorable)
             and not dataclasses.is_dataclass(obj)}
    assert plain == set()
