"""ITTAGE-lite indirect-target predictor.

A scaled-down ITTAGE (Seznec): a last-target base table plus tagged
tables storing full targets, indexed by global path history.  The paper
integrates ITTAGE into gem5 from Emissary's open-source implementation;
here the same tagged-geometric structure predicts the targets of
``ICALL``/``IJUMP`` terminators.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


DEFAULT_TABLES: Tuple[Tuple[int, int, int], ...] = (
    (512, 4, 9),
    (512, 12, 9),
    (512, 32, 10),
)


class ITTagePredictor:
    """Fused predict/update indirect target predictor."""

    def __init__(
        self,
        base_entries: int = 4096,
        tables: Sequence[Tuple[int, int, int]] = DEFAULT_TABLES,
    ):
        if base_entries & (base_entries - 1):
            raise ValueError("base_entries must be a power of 2")
        self.base_mask = base_entries - 1
        self.base_target: List[int] = [0] * base_entries
        self.tables = list(tables)
        self.tag: List[List[int]] = [[-1] * size for size, _, _ in self.tables]
        self.target: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        self.conf: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        self.phist = 0  # path history of target bits
        self.predictions = 0
        self.mispredictions = 0

    def _fold(self, value: int, bits: int, out_bits: int) -> int:
        value &= (1 << bits) - 1
        folded = 0
        while value:
            folded ^= value & ((1 << out_bits) - 1)
            value >>= out_bits
        return folded

    def _index_tag(self, pc: int, table: int) -> Tuple[int, int]:
        size, hist_len, tag_bits = self.tables[table]
        log_size = size.bit_length() - 1
        pc_h = pc >> 2
        idx = (pc_h ^ (pc_h >> 3)
               ^ self._fold(self.phist, hist_len * 4, log_size)) & (size - 1)
        tag = (pc_h ^ self._fold(self.phist, hist_len * 4, tag_bits)) & (
            (1 << tag_bits) - 1
        )
        return idx, tag

    def predict_and_update(self, pc: int, actual_target: int) -> bool:
        """Predict the target of indirect branch ``pc``; learn the actual
        target; return True when predicted correctly."""
        self.predictions += 1
        ntables = len(self.tables)
        idxs = [0] * ntables
        tags = [0] * ntables
        provider = -1
        for t in range(ntables - 1, -1, -1):
            idx, tg = self._index_tag(pc, t)
            idxs[t], tags[t] = idx, tg
            if provider < 0 and self.tag[t][idx] == tg:
                provider = t
        base_idx = (pc >> 2) & self.base_mask
        if provider >= 0:
            predicted = self.target[provider][idxs[provider]]
        else:
            predicted = self.base_target[base_idx]
        correct = predicted == actual_target

        # --- update ---
        if provider >= 0:
            i = idxs[provider]
            if correct:
                if self.conf[provider][i] < 3:
                    self.conf[provider][i] += 1
            elif self.conf[provider][i] > 0:
                self.conf[provider][i] -= 1
            else:
                self.target[provider][i] = actual_target
        self.base_target[base_idx] = actual_target
        if not correct:
            self.mispredictions += 1
            for t in range(provider + 1, ntables):
                i = idxs[t]
                if self.conf[t][i] == 0:
                    self.tag[t][i] = tags[t]
                    self.target[t][i] = actual_target
                    self.conf[t][i] = 1
                    break
        # Path history: 4 hashed target bits per step (mixing several
        # bit ranges so aligned targets still contribute entropy).
        step = (
            (actual_target >> 2)
            ^ (actual_target >> 8)
            ^ (actual_target >> 14)
        ) & 0xF
        self.phist = ((self.phist << 4) | step) & ((1 << 128) - 1)
        return correct

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def __repr__(self) -> str:
        return (
            f"ITTagePredictor(tables={len(self.tables)}, "
            f"acc={self.accuracy:.4f} over {self.predictions})"
        )
