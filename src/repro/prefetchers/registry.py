"""Name-based prefetcher construction for experiments and examples."""

from __future__ import annotations

from typing import Optional

from repro.prefetchers.base import InstructionPrefetcher
from repro.prefetchers.efetch import EFetchPrefetcher
from repro.prefetchers.eip import EIPPrefetcher
from repro.prefetchers.mana import ManaPrefetcher

#: Names accepted by :func:`make_prefetcher`, in the paper's order
#: (plus the RDIP extension baseline, §2.3, and the compressed-metadata
#: HP variant evaluated on the microservice SLO grid).
PREFETCHER_NAMES = ("fdip", "efetch", "mana", "eip", "hierarchical", "rdip",
                    "pif", "hp_compressed")

#: The paper's comparison set (Figures 9-11, Table 2), each run on top
#: of the FDIP baseline.
PAPER_PREFETCHERS = ("efetch", "mana", "eip", "hierarchical")

#: HPConfig overrides of the ``hp_compressed`` variant: a Metadata
#: Buffer four times smaller, compensated by coarser-grained compressed
#: records — more spatial-region entries per bundle segment and wider
#: regions — so one shared buffer can cover many services' footprints
#: (the SLOFetch direction: compressed per-service metadata).
HP_COMPRESSED_OVERRIDES = {
    "metadata_buffer_bytes": 128 * 1024,
    "compression_entries": 32,
    "region_blocks": 8,
    "initial_segments": 3,
}


def make_prefetcher(name: str, **kwargs) -> Optional[InstructionPrefetcher]:
    """Build a prefetcher by name.

    ``"fdip"`` (the baseline) returns None — FDIP itself lives in the
    front end and is always on.  Extra keyword arguments go to the
    prefetcher constructor (``lookahead=...``, ``config=...`` etc.).
    """
    key = name.lower()
    if key in ("fdip", "none", "baseline"):
        if kwargs:
            raise ValueError(f"baseline takes no options, got {kwargs}")
        return None
    if key == "efetch":
        return EFetchPrefetcher(**kwargs)
    if key == "mana":
        return ManaPrefetcher(**kwargs)
    if key == "eip":
        return EIPPrefetcher(**kwargs)
    if key == "rdip":
        from repro.prefetchers.rdip import RDIPPrefetcher

        return RDIPPrefetcher(**kwargs)
    if key == "pif":
        from repro.prefetchers.pif import PIFPrefetcher

        return PIFPrefetcher(**kwargs)
    if key in ("hierarchical", "hp", "hp_compressed"):
        # Imported here: repro.core.prefetcher depends on the base class
        # in this package.
        from repro.core.prefetcher import HierarchicalPrefetcher, HPConfig

        config = kwargs.get("config")
        if isinstance(config, dict):
            if key == "hp_compressed":
                config = {**HP_COMPRESSED_OVERRIDES, **config}
            kwargs = dict(kwargs, config=HPConfig(**config))
        elif key == "hp_compressed" and config is None:
            kwargs = dict(kwargs,
                          config=HPConfig(**HP_COMPRESSED_OVERRIDES))
        return HierarchicalPrefetcher(**kwargs)
    raise ValueError(
        f"unknown prefetcher {name!r}; expected one of {PREFETCHER_NAMES}"
    )
