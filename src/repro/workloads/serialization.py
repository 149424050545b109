"""Trace serialization: save/load traces as compressed ``.npz`` files.

Traces take seconds to generate; experiments that sweep many
configurations over the same trace can persist them.  The format stores
the six parallel arrays as numpy vectors plus the annotations as
structured arrays; loading reconstructs an identical
:class:`~repro.workloads.trace.Trace` (verified down to cycle-exact
simulation results in the tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.workloads.trace import ARRAY_FIELDS, Trace

#: Format version written into every file; bumped on layout changes.
#: v2 adds the optional open-loop arrival process (``request_gaps`` +
#: ``slo_instr``); v1 files still load (they predate arrivals).
FORMAT_VERSION = 2

#: On-disk dtype of each per-block array.
_DTYPES = {"pc": "i8", "ninstr": "i4", "kind": "i1", "taken": "i1",
           "target": "i8", "tagged": "i1"}


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (``.npz``, compressed)."""
    path = Path(path)
    fields = trace.to_payload()
    meta = {
        "version": FORMAT_VERSION,
        "n_instructions": fields["n_instructions"],
        "stage_names": sorted({s[2] for s in fields["stage_spans"]}),
    }
    spans = np.array(
        [(s, e, stage, rt) for s, e, stage, rt in fields["stage_spans"]],
        dtype=[("start", "i8"), ("end", "i8"), ("stage", "U32"),
               ("rtype", "i4")],
    )
    requests = np.array(fields["requests"], dtype="i8").reshape(-1, 2)
    arrays = {name: np.array(fields[name], dtype=_DTYPES[name])
              for name in ARRAY_FIELDS}
    arrays.update(requests=requests, stage_spans=spans)
    if fields["request_gaps"] is not None:
        meta["slo_instr"] = fields["slo_instr"]
        arrays["request_gaps"] = np.array(fields["request_gaps"],
                                          dtype="f8")
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        version = meta.get("version")
        if version not in (1, FORMAT_VERSION):
            raise ValueError(
                f"{path}: unsupported trace format version {version!r} "
                f"(expected <= {FORMAT_VERSION})"
            )
        gaps = "request_gaps" in data.files
        fields = {name: data[name].tolist() for name in ARRAY_FIELDS}
        fields.update(
            requests=[tuple(row) for row in data["requests"].tolist()],
            stage_spans=[
                (int(r["start"]), int(r["end"]), str(r["stage"]),
                 int(r["rtype"]))
                for r in data["stage_spans"]
            ],
            request_gaps=data["request_gaps"].tolist() if gaps else None,
            slo_instr=float(meta["slo_instr"]) if gaps else None,
            n_instructions=int(meta["n_instructions"]),
        )
    try:
        return Trace.from_payload(fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
