"""Baseline instruction prefetchers evaluated against Hierarchical
Prefetching: EFetch (caller-callee, §2.3), MANA (temporal streaming,
§2.2) and EIP (entangling, §2.4), plus the RDIP (§2.3) and PIF (§2.2)
extension baselines.  All run *on top of* the FDIP baseline, as in
every experiment of the paper.
"""

from repro.prefetchers.base import InstructionPrefetcher, NullPrefetcher
from repro.prefetchers.efetch import EFetchPrefetcher
from repro.prefetchers.mana import ManaPrefetcher
from repro.prefetchers.eip import EIPPrefetcher
from repro.prefetchers.pif import PIFPrefetcher
from repro.prefetchers.rdip import RDIPPrefetcher
from repro.prefetchers.registry import (
    PAPER_PREFETCHERS,
    PREFETCHER_NAMES,
    make_prefetcher,
)

__all__ = [
    "InstructionPrefetcher",
    "NullPrefetcher",
    "EFetchPrefetcher",
    "ManaPrefetcher",
    "EIPPrefetcher",
    "RDIPPrefetcher",
    "PIFPrefetcher",
    "make_prefetcher",
    "PREFETCHER_NAMES",
    "PAPER_PREFETCHERS",
]
