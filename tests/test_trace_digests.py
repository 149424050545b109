"""Every workload's tiny trace, pinned by a committed digest.

``tests/data/trace_digests.json`` holds the SHA-256 of
``json.dumps(trace.to_payload(), sort_keys=True)`` for every workload
in ``ALL_WORKLOAD_NAMES`` at tiny scale and seed 1.  A refactor of the
application generator or the trace builder must leave every digest
unchanged; so must a round trip through the on-disk trace store.

Regenerate the file (only for an intended change to the traces)::

    PYTHONPATH=src:. python tests/test_trace_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.workloads.suite import (
    ALL_WORKLOAD_NAMES, build_application, requests_for,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "trace_digests.json"
SCALE = "tiny"
SEED = 1


def trace_digest(trace) -> str:
    blob = json.dumps(trace.to_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build(name: str):
    """A freshly built trace: no memo, no store."""
    app = build_application(name)
    return app.trace(requests_for(name, SCALE), seed=SEED)


def test_every_workload_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == \
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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: trace_digest(build(name)) for name in ALL_WORKLOAD_NAMES},
        indent=1, sort_keys=True) + "\n")
