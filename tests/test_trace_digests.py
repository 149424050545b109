"""Every workload's tiny trace and static binary, pinned by committed
digests.

``tests/data/trace_digests.json`` holds the SHA-256 of
``json.dumps(trace.to_payload(), sort_keys=True)`` for every workload
in ``ALL_WORKLOAD_NAMES`` at tiny scale and seed 1.  A refactor of the
application generator or the trace builder must leave every digest
unchanged; so must a round trip through the on-disk trace store.

``tests/data/binary_digests.json`` pins the whole static program the
trace digests cannot see, cold code included (Table 4's census and the
software pass read it): functions in layout order with their address,
size and every ``BlockSpec`` field, the link result, and the dispatch
maps.  Each binary digest comes from the application the trace test
builds, so pinning it builds no extra application.

Regenerate both files (only for an intended change to the
applications or the traces)::

    PYTHONPATH=src:. python tests/test_trace_digests.py
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import runner
from repro.workloads.suite import (
    ALL_WORKLOAD_NAMES, build_application, requests_for,
)

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "trace_digests.json"
BINARY_DIGESTS = DATA / "binary_digests.json"
SCALE = "tiny"
SEED = 1

#: Binary digest per workload name, of the last application built here.
_BINARY: Dict[str, str] = {}


def _sha256(doc) -> str:
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_digest(trace) -> str:
    return _sha256(trace.to_payload())


def binary_digest(app) -> str:
    link = app.program.link_result
    functions = [
        [func.name, func.addr, func.size, [
            [blk.ninstr, int(blk.kind), blk.callee, list(blk.targets),
             blk.selector, blk.taken_prob, blk.taken_next,
             blk.loop_count, list(blk.itargets), blk.offset]
            for blk in func.blocks]]
        for func in app.binary]
    return _sha256({
        "entry": app.binary.entry,
        "functions": functions,
        "threshold": link.threshold,
        "tagged_addrs": sorted(link.tagged_addrs),
        "entry_addrs": link.entry_addrs,
        "bundle_entries": sorted(link.bundles.entries),
        "reachable": link.bundles.reachable,
        "dispatchers": app.dispatchers,
        "route_map": app.route_map,
        "request_weights": app.request_weights,
    })


def build(name: str):
    """A freshly built trace: no memo, no store.  Records the binary
    digest of the application it was built from."""
    app = build_application(name)
    _BINARY[name] = binary_digest(app)
    return app.trace(requests_for(name, SCALE), seed=SEED)


def test_every_workload_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == \
        sorted(ALL_WORKLOAD_NAMES)
    assert sorted(json.loads(BINARY_DIGESTS.read_text())) == \
        sorted(ALL_WORKLOAD_NAMES)


@pytest.mark.parametrize("name", ALL_WORKLOAD_NAMES)
def test_trace_matches_committed_digest(name):
    expected = json.loads(DIGESTS.read_text())[name]
    trace = build(name)
    assert trace_digest(trace) == expected
    runner._TRACE_STORE.save(name, SCALE, SEED, trace)
    loaded = runner._TRACE_STORE.load(name, SCALE, SEED)
    assert loaded is not trace
    assert trace_digest(loaded) == expected


@pytest.mark.parametrize("name", ALL_WORKLOAD_NAMES)
def test_binary_matches_committed_digest(name):
    expected = json.loads(BINARY_DIGESTS.read_text())[name]
    if name not in _BINARY:  # run without the trace test
        _BINARY[name] = binary_digest(build_application(name))
    assert _BINARY[name] == expected


if __name__ == "__main__":
    traces = {name: trace_digest(build(name)) for name in ALL_WORKLOAD_NAMES}
    for path, digests in ((DIGESTS, traces), (BINARY_DIGESTS, _BINARY)):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
