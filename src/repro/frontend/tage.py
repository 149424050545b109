"""TAGE-lite conditional branch predictor.

A scaled-down L-TAGE (Seznec): a bimodal base table plus several
partially tagged tables indexed by geometrically growing global-history
lengths.  Prediction comes from the longest-history matching table;
allocation on mispredictions steals a not-useful entry from a longer
table.  Predict and update are fused: the simulator evaluates every
branch exactly once, in trace order.

Two entry points give identical results:

* :meth:`TagePredictor.predict_and_update` handles one branch.  It
  hashes through :meth:`TagePredictor._index_tag`, which folds the
  global history register (GHR) afresh on every call.  It is the slow,
  obviously correct reference.
* :meth:`TagePredictor.predict_all` handles a whole stream of
  ``(pc, taken)`` pairs.  The outcomes are inputs, so the GHR every
  branch will see is known before anything is predicted.  Each chunk of
  :data:`CHUNK` branches computes all of its index and tag hashes up
  front, then runs one flat update loop over the chunk.

The up-front hashes are lane-parallel.  A chunk's values are packed into
one Python int, 16 bits ("one lane") per branch, so a single shift or
XOR acts on every branch of the chunk at once (see
:meth:`TagePredictor._chunk_hashes`).
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Sequence, Tuple


# (table size, history length, tag bits) per tagged table.
DEFAULT_TABLES: Tuple[Tuple[int, int, int], ...] = (
    (4096, 8, 9),
    (4096, 16, 10),
    (4096, 32, 11),
    (4096, 64, 12),
)

#: Branches per :meth:`TagePredictor.predict_all` chunk.  One chunk's
#: lane ints are a few kilobytes each.
CHUNK = 4096
#: Bits per lane: every hash width (log2 table size, tag bits) fits one.
_LANE = 16
_GHR_BITS = 64
_GHR_MASK = (1 << _GHR_BITS) - 1
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(typecode: str, values) -> int:
    """One int holding ``values``, element k in lane k (lanes are the
    array item size wide)."""
    a = array(typecode, values)
    if _BIG_ENDIAN:
        a.byteswap()
    return int.from_bytes(a.tobytes(), "little")


def _unpack(typecode: str, value: int, n: int) -> array:
    """The first ``n`` lanes of ``value`` (which has no bits above
    them), inverse of :func:`_pack`."""
    a = array(typecode)
    a.frombytes(value.to_bytes(n * a.itemsize, "little"))
    if _BIG_ENDIAN:
        a.byteswap()
    return a


def _repeat(value: int, n: int) -> int:
    """``value`` in each of ``n`` 16-bit lanes: a lane-wise mask."""
    return int.from_bytes(value.to_bytes(2, "little") * n, "little")


def _low16(value: int, n: int) -> int:
    """16-bit lanes holding the low 16 bits of ``value``'s first ``n``
    64-bit lanes."""
    return _pack("H", _unpack("H", value, 4 * n)[::4])


class _Xorshift:
    """Tiny deterministic PRNG for allocation tie-breaking."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0x2545F491):
        self.state = seed or 1

    def next(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x


class TagePredictor:
    """Fused predict/update TAGE with a 2-bit bimodal base."""

    def __init__(
        self,
        bimodal_entries: int = 65536,
        tables: Sequence[Tuple[int, int, int]] = DEFAULT_TABLES,
    ):
        if bimodal_entries & (bimodal_entries - 1):
            raise ValueError("bimodal_entries must be a power of 2")
        self.bimodal_mask = bimodal_entries - 1
        self.bimodal: List[int] = [1] * bimodal_entries  # weakly not-taken
        self.tables = list(tables)
        for size, _, tag_bits in self.tables:
            if size & (size - 1):
                raise ValueError("table sizes must be powers of 2")
            if not (2 <= size <= 1 << _LANE and 2 <= tag_bits <= _LANE):
                raise ValueError(
                    f"table sizes must be 2..{1 << _LANE} and tag bits "
                    f"2..{_LANE}")
        # Per tagged table: ctr (3-bit signed, -4..3), tag, useful (2-bit).
        self.ctr: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        self.tag: List[List[int]] = [[-1] * size for size, _, _ in self.tables]
        self.useful: List[List[int]] = [[0] * size for size, _, _ in self.tables]
        self.ghr = 0
        self._rng = _Xorshift()
        self.predictions = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------
    def _fold(self, value: int, bits: int, out_bits: int) -> int:
        value &= (1 << bits) - 1
        folded = 0
        while value:
            folded ^= value & ((1 << out_bits) - 1)
            value >>= out_bits
        return folded

    def _index_tag(self, pc: int, table: int) -> Tuple[int, int]:
        """Reference index/tag hash of branch ``pc`` under the GHR."""
        size, hist_len, tag_bits = self.tables[table]
        log_size = size.bit_length() - 1
        pc_h = pc >> 2
        idx = (pc_h ^ (pc_h >> log_size) ^ self._fold(self.ghr, hist_len, log_size)) & (size - 1)
        tag = (pc_h ^ self._fold(self.ghr, hist_len, tag_bits)
               ^ (self._fold(self.ghr, hist_len, tag_bits - 1) << 1)) & ((1 << tag_bits) - 1)
        return idx, tag

    def _chunk_hashes(self, pcs: Sequence[int], taken: bytes
                      ) -> Tuple[List[List[int]], List[List[int]]]:
        """Per table, the :meth:`_index_tag` of every branch in a chunk
        under the GHR that branch will see: ``(idx_rows, tag_rows)``.

        Lane ``p`` of ``hist`` holds one history bit: lanes 0..63 are
        the current GHR, oldest bit first, and lane 64+j is branch j's
        outcome.  Branch j's GHR bit k is therefore lane 63+j-k.  A
        *window* of width W holds in lane q the W bits ending at lane q,
        newest at bit 0, so lane 63+j-m of it is branch j's GHR bits
        m..m+W-1 — one W-bit chunk of a fold.
        """
        n = len(pcs)
        ghr = self.ghr
        hist_bytes = bytearray(2 * (_GHR_BITS + n))  # little-endian lanes
        hist_bytes[0:2 * _GHR_BITS:2] = bytes(
            (ghr >> k) & 1 for k in range(_GHR_BITS - 1, -1, -1))
        hist_bytes[2 * _GHR_BITS::2] = taken
        hist = int.from_bytes(hist_bytes, "little")
        # GHR bits past the 64th are always zero: longer histories fold
        # the same bits.
        geometry = [(size.bit_length() - 1, min(hist_len, _GHR_BITS),
                     tag_bits) for size, hist_len, tag_bits in self.tables]
        widths = {w for log_size, _, tag_bits in geometry
                  for w in (log_size, tag_bits, tag_bits - 1)}
        windows: Dict[int, int] = {}
        acc = 0
        for b in range(max(widths)):
            acc |= hist << (17 * b)  # lane p -> lane p+b, bit 0 -> bit b
            if b + 1 in widths:
                windows[b + 1] = acc
        folds: Dict[Tuple[int, int], int] = {}

        def fold(hist_len: int, width: int) -> int:
            key = (hist_len, width)
            if key not in folds:
                window = windows[width]
                f = 0
                for m in range(0, hist_len, width):
                    part = window >> (_LANE * (_GHR_BITS - 1 - m))
                    if hist_len - m < width:
                        part &= _repeat((1 << (hist_len - m)) - 1, n)
                    f ^= part
                folds[key] = f
            return folds[key]

        pc_lanes = _pack("Q", pcs)
        pc_h = pc_lanes >> 2
        low_pc = _low16(pc_h, n)
        idx_rows: List[List[int]] = []
        tag_rows: List[List[int]] = []
        for log_size, hist_len, tag_bits in geometry:
            mixed = _low16(pc_h ^ (pc_lanes >> (2 + log_size)), n)
            idx = ((mixed ^ fold(hist_len, log_size))
                   & _repeat((1 << log_size) - 1, n))
            tag = ((low_pc ^ fold(hist_len, tag_bits)
                    ^ (fold(hist_len, tag_bits - 1) << 1))
                   & _repeat((1 << tag_bits) - 1, n))
            idx_rows.append(_unpack("H", idx, n).tolist())
            tag_rows.append(_unpack("H", tag, n).tolist())
        return idx_rows, tag_rows

    # ------------------------------------------------------------------
    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch ``pc``, learn outcome ``taken``; return True
        when the prediction was correct.  The per-branch reference for
        :meth:`predict_all`."""
        self.predictions += 1
        ntables = len(self.tables)
        idxs = [0] * ntables
        tags = [0] * ntables
        provider = -1
        alt = -1
        for t in range(ntables - 1, -1, -1):
            idx, tg = self._index_tag(pc, t)
            idxs[t] = idx
            tags[t] = tg
            if self.tag[t][idx] == tg:
                if provider < 0:
                    provider = t
                elif alt < 0:
                    alt = t
        bim_idx = (pc >> 2) & self.bimodal_mask
        bim_pred = self.bimodal[bim_idx] >= 2
        if provider >= 0:
            pred = self.ctr[provider][idxs[provider]] >= 0
            alt_pred = (
                self.ctr[alt][idxs[alt]] >= 0 if alt >= 0 else bim_pred
            )
        else:
            pred = alt_pred = bim_pred
        correct = pred == taken

        # --- update ---
        if provider >= 0:
            ctr = self.ctr[provider]
            i = idxs[provider]
            if taken:
                if ctr[i] < 3:
                    ctr[i] += 1
            elif ctr[i] > -4:
                ctr[i] -= 1
            if pred != alt_pred:
                u = self.useful[provider]
                if pred == taken:
                    if u[i] < 3:
                        u[i] += 1
                elif u[i] > 0:
                    u[i] -= 1
        else:
            bim = self.bimodal
            if taken:
                if bim[bim_idx] < 3:
                    bim[bim_idx] += 1
            elif bim[bim_idx] > 0:
                bim[bim_idx] -= 1
        if not correct:
            self.mispredictions += 1
            self._allocate(provider, idxs, tags, taken)
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & _GHR_MASK
        return correct

    def predict_all(self, pcs: Sequence[int], taken: Sequence[int]
                    ) -> bytearray:
        """:meth:`predict_and_update` over every ``(pcs[j], taken[j])``
        in order.  Returns one byte per branch, 1 where the prediction
        was correct, and leaves the predictor in the state the
        per-branch calls would."""
        if len(pcs) != len(taken):
            raise ValueError("pcs and taken differ in length")
        correct = bytearray(len(pcs))
        for lo in range(0, len(pcs), CHUNK):
            self._predict_chunk(pcs[lo:lo + CHUNK],
                                bytes(map(bool, taken[lo:lo + CHUNK])),
                                correct, lo)
        return correct

    def _predict_chunk(self, pcs: Sequence[int], taken: bytes,
                       correct: bytearray, base: int) -> None:
        idx_rows, tag_rows = self._chunk_hashes(pcs, taken)
        # Longest history first; the tag lists are updated in place by
        # _allocate, so these references stay live.
        lookup = [(t, idx_rows[t], tag_rows[t], self.tag[t])
                  for t in range(len(self.tables) - 1, -1, -1)]
        ctr_tables = self.ctr
        useful = self.useful
        bimodal = self.bimodal
        bimodal_mask = self.bimodal_mask
        mispredictions = 0
        j = 0
        for pc in pcs:
            tk = taken[j]
            provider = alt = -1
            for t, idx_row, tag_row, tag_table in lookup:
                if tag_table[idx_row[j]] == tag_row[j]:
                    if provider >= 0:
                        alt = t
                        break
                    provider = t
            bim_idx = (pc >> 2) & bimodal_mask
            bim = bimodal[bim_idx]
            if provider >= 0:
                ctr = ctr_tables[provider]
                i = idx_rows[provider][j]
                c = ctr[i]
                pred = c >= 0
                if alt >= 0:
                    alt_pred = ctr_tables[alt][idx_rows[alt][j]] >= 0
                else:
                    alt_pred = bim >= 2
                if tk:
                    if c < 3:
                        ctr[i] = c + 1
                elif c > -4:
                    ctr[i] = c - 1
                if pred != alt_pred:
                    u = useful[provider]
                    if pred == tk:
                        if u[i] < 3:
                            u[i] += 1
                    elif u[i] > 0:
                        u[i] -= 1
            else:
                pred = bim >= 2
                if tk:
                    if bim < 3:
                        bimodal[bim_idx] = bim + 1
                elif bim > 0:
                    bimodal[bim_idx] = bim - 1
            if pred == tk:
                correct[base + j] = 1
            else:
                mispredictions += 1
                self._allocate(provider, [row[j] for row in idx_rows],
                               [row[j] for row in tag_rows], tk)
            j += 1
        ghr = self.ghr
        for tk in taken[-_GHR_BITS:]:
            ghr = ((ghr << 1) | tk) & _GHR_MASK
        self.ghr = ghr
        self.predictions += len(pcs)
        self.mispredictions += mispredictions

    def _allocate(self, provider: int, idxs: List[int], tags: List[int],
                  taken: bool) -> None:
        start = provider + 1
        ntables = len(self.tables)
        if start >= ntables:
            return
        # Prefer the first longer table with a not-useful entry; decay
        # usefulness along the way if none is free (Seznec's policy,
        # simplified).
        candidates = [
            t for t in range(start, ntables) if self.useful[t][idxs[t]] == 0
        ]
        if not candidates:
            for t in range(start, ntables):
                if self.useful[t][idxs[t]] > 0:
                    self.useful[t][idxs[t]] -= 1
            return
        pick = candidates[0]
        if len(candidates) > 1 and self._rng.next() & 1:
            pick = candidates[1]
        i = idxs[pick]
        self.tag[pick][i] = tags[pick]
        self.ctr[pick][i] = 0 if taken else -1
        self.useful[pick][i] = 0

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def __repr__(self) -> str:
        return (
            f"TagePredictor(tables={len(self.tables)}, "
            f"acc={self.accuracy:.4f} over {self.predictions})"
        )
