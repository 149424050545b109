"""Unpickling that keeps the machine's attribute access fast.

A warmup checkpoint is the machine, pickled
(:meth:`repro.cpu.simulator.FrontEndSimulator.state_dict`).  By default
pickle restores an object by writing into its ``__dict__``.  On
CPython 3.11 and 3.12 touching ``__dict__`` moves an object's
attributes out of the interpreter's inline storage into a plain dict,
and every later attribute access takes the slower dictionary path: the
measured window of a machine resumed that way took about 40% longer on
bench ``mysql_sibench`` under the Hierarchical Prefetcher.
"""

from __future__ import annotations


class Restorable:
    """Base of the classes a checkpoint holds: an unpickled instance
    gets its attributes back one by one, so they stay inline."""

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
