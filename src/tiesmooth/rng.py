"""Counter-based random substreams for reproducible simulations.

Every random draw in the package flows from a single 64-bit scenario seed
through named Philox substreams.  A substream is identified by (seed,
stream id); house i always reads stream HOUSE_STREAM_BASE + i, so its
draws do not depend on how many other houses exist or on evaluation
order.  This is what makes populations byte-stable across runs and safe
to generate or step in parallel.

A Philox stream is fixed by its key and counter alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so
`philox_raw` can compute any counter of many streams in array passes,
and `Streams` reads those outputs at a position per stream:
`ziggurat_normals` repeats the one-draw path of NumPy's ziggurat
(Marsaglia & Tsang, JSS 2000), and NumPy itself makes a draw that leaves
it, from a generator state set to that output.
"""

from __future__ import annotations

import numpy as np

# Fixed stream-id layout.  Streams below HOUSE_STREAM_BASE are scenario
# level; per-house streams start high enough to never collide.
TRACE_STREAM = 1
TRAINING_TRACE_STREAM = 2
ENROLLMENT_STREAM = 3
INITIAL_STATE_STREAM = 4
HOUSE_STREAM_BASE = 2**32

def substream(seed: int, stream_id: int) -> np.random.Generator:
    """Return the generator for one named substream of `seed`."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in uint64, got {seed}")
    if not 0 <= stream_id < 2**64:
        raise ValueError(f"stream_id must fit in uint64, got {stream_id}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def house_stream(seed: int, house_index: int) -> np.random.Generator:
    """Generator owned by one house; independent of population size."""
    return substream(seed, HOUSE_STREAM_BASE + house_index)


# Philox4x64-10's round multipliers and key increments
_M0, _M1, _W0, _W1 = (0xD2E7470EE14C6C93, 0xCA5A826395121157,
                      0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# streams per pass of `philox_raw`: at 5 blocks a temporary holds 80 KiB,
# below the size from which malloc maps memory afresh for each one
PHILOX_PASS = 2048


def philox_raw(seed: int, stream_ids: np.ndarray, blocks: int, first=1) -> np.ndarray:
    """4 * `blocks` outputs of `random_raw` on the substreams of `seed`
    named in `stream_ids` (uint64), a row each: Philox4x64-10 at key
    (seed, stream id) and counters `first`, ..., `first` + `blocks` - 1,
    where `first` is one counter or one per stream (counter 1 holds a
    stream's first four outputs).  PHILOX_PASS streams at a time."""
    def mulhilo(m, x):  # the high and low words of m * x, from 32-bit halves
        m_lo, m_hi, x_lo, x_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), x & _LOW, x >> _32
        mid = x_hi * m_lo
        cross = (x_lo * m_lo >> _32) + (mid & _LOW) + x_lo * m_hi
        return x_hi * m_hi + (mid >> _32) + (cross >> _32), x * np.uint64(m)
    first = np.broadcast_to(np.asarray(first, dtype=np.uint64), stream_ids.shape)
    raw = np.empty((len(stream_ids), 4 * blocks), dtype=np.uint64)
    for lo in range(0, len(stream_ids), PHILOX_PASS):
        at = slice(lo, lo + PHILOX_PASS)
        c0 = np.add.outer(first[at], np.arange(blocks, dtype=np.uint64)).ravel()
        c1 = c2 = c3 = np.zeros_like(c0)
        k1 = np.repeat(stream_ids[at], blocks)
        for r in range(10):
            (hi0, lo0), (hi1, lo1) = mulhilo(_M0, c0), mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64((seed + r * _W0) % 2**64), lo1, hi0 ^ c3 ^ k1, lo0
            k1 = k1 + np.uint64(_W1)
        raw[at] = np.stack((c0, c1, c2, c3), axis=1).reshape(-1, 4 * blocks)
    return raw


def _position(gen: np.random.Generator) -> int:
    """How many outputs of its stream the Philox generator `gen` has given."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


# NumPy's widths wi and k, a lower bound of its one-draw limits ki (ki is
# k or k + 1), by strip and sign (+wi, then -wi)
_ZIGGURAT = []


def ziggurat_normals(raw: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal `standard_normal` makes of each raw output, and
    its magnitude less k: below 0 it needs no other output, above 0 it
    needs more.  Bits 0-7 pick the strip, bit 8 the sign, bits 9-60 the
    magnitude.  The first call reads the table through `gen`, which is
    left at no stream's start."""
    if not _ZIGGURAT:
        # magnitude 1 gives wi[idx] itself; strip 1 always leaves the
        # one-draw path (ki[1] = 0), and the uniform 0 after it accepts it
        raw_wi = np.zeros(260, dtype=np.uint64)
        raw_wi[[0, 1, *range(3, 257)]] = np.arange(256, dtype=np.uint64) | np.uint64(1 << 9)
        state, wi = gen.bit_generator.state, []
        for block in raw_wi.reshape(-1, 4):
            state["buffer"], state["buffer_pos"] = block, 0
            gen.bit_generator.state = state
            wi.extend(gen.standard_normal(np.count_nonzero(block)))
        wi = np.array(wi)
        k = np.floor(np.append(wi[255], wi[:-1]) / wi * 2.0**52).astype(np.int64)
        k[1] = 0
        _ZIGGURAT.extend((np.append(wi, -wi), np.tile(k, 2)))
    wi, k = _ZIGGURAT
    strip = (raw & np.uint64(0x1FF)).astype(np.intp)
    rabs = raw >> np.uint64(9) & np.uint64(2**52 - 1)
    return rabs * wi[strip], rabs.view(np.int64) - k[strip]


class Streams:
    """Substreams of `seed` named in `stream_ids`, a row each, read at a
    position per row.  `raw` holds a window of 4 * `blocks` outputs of
    each row, from output `start` of its stream (0 until a window moves);
    a window that does not hold what is read moves on, to start at the
    counter holding the output read."""

    def __init__(self, seed: int, stream_ids: np.ndarray, blocks: int = 4):
        self.seed, self.stream_ids = seed, stream_ids
        self.raw = philox_raw(seed, stream_ids, blocks)
        self.start = np.zeros(len(stream_ids), dtype=np.intp)

    def columns(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Where output `pos` of each of the distinct `rows` is in `raw`."""
        col, width = pos - self.start[rows], self.raw.shape[1]
        if len(col) and col.max() >= width:
            moved = np.flatnonzero(col >= width)
            self.start[rows[moved]] = start = pos[moved] // 4 * 4
            self.raw[rows[moved]] = philox_raw(self.seed, self.stream_ids[rows[moved]], width // 4,
                                               start // 4 + 1)
            col[moved] = pos[moved] - start
        return col

    def uniforms(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """`random()` from output `pos` of each row (one output)."""
        return (self.raw[rows, self.columns(rows, pos)] >> np.uint64(11)) * 2.0**-53

    def standard_normals(self, rows: np.ndarray, pos: np.ndarray,
                         gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`standard_normal()` from output `pos` of each row, and the
        position after it.  A draw off the one-draw path is made by `gen`,
        a Philox generator set to its stream, counter and buffer position
        (and left at no stream's start).  Off strip 0, NumPy takes one
        output for the wedge test, then returns the first value or draws
        again; so when the first output is surely off the one-draw path
        and the output after the wedge test is on it with another value,
        the value returned tells whether it took 2 or 3 outputs.
        Otherwise the count is read from the generator's state."""
        col = self.columns(rows, pos)
        words = self.raw[rows, col]
        x, over = ziggurat_normals(words, gen)
        pos, slow = pos + 1, np.flatnonzero(over >= 0)
        if not len(slow):
            return x, pos
        # each block before the output after it, whose window may move on
        blocks = self.raw[rows[slow, None], col[slow, None] // 4 * 4 + np.arange(4)].tolist()
        again, next_over = ziggurat_normals(
            self.raw[rows[slow], self.columns(rows[slow], pos[slow] + 1)], gen)
        sure = (over[slow] > 0) & (words[slow] & np.uint64(0xFF) != 0) \
            & (next_over < 0) & (again != x[slow])
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [self.seed, 0]},
                 "has_uint32": 0, "uinteger": 0}
        counter, key, drawn, after = state["state"]["counter"], state["state"]["key"], [], []
        for stream_id, p, block, x1, x2, known in zip(
                self.stream_ids[rows[slow]].tolist(), (pos[slow] - 1).tolist(), blocks,
                x[slow].tolist(), again.tolist(), sure.tolist()):
            key[1], counter[0], state["buffer"], state["buffer_pos"] = stream_id, p // 4 + 1, block, p % 4
            gen.bit_generator.state = state
            drawn.append(gen.standard_normal())
            after.append(p + 2 + (drawn[-1] == x2) if known and drawn[-1] in (x1, x2)
                         else _position(gen))
        x[slow], pos[slow] = drawn, after
        return x, pos
