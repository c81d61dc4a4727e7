"""Counter-based random substreams for reproducible simulations.

Every random draw in the package flows from a single 64-bit scenario seed
through named Philox substreams.  A substream is identified by (seed,
stream id); house i always reads stream HOUSE_STREAM_BASE + i, so its
draws do not depend on how many other houses exist or on evaluation
order.  This is what makes populations byte-stable across runs and safe
to generate or step in parallel.

A Philox stream is fixed by its key and counter alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so
`substream` can re-key a generator in place instead of building a fresh
one, which would seed it from OS entropy first, and `philox_raw` can
compute many streams' first outputs in one array pass.  `ziggurat_normals`
repeats NumPy's ziggurat (Marsaglia & Tsang, JSS 2000) on those outputs.
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

# a Philox counter and output buffer at a stream's start (read, not kept,
# by the state setter)
_START = np.zeros(4, dtype=np.uint64)


def substream(seed: int, stream_id: int,
              gen: np.random.Generator | None = None) -> np.random.Generator:
    """Return the generator for one named substream of `seed`.

    Given `gen`, a Philox generator, that generator is re-keyed in place
    to the substream's start (counter 0, empty buffer) and returned; what
    it drew before is gone.  Otherwise a new generator is built.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in uint64, got {seed}")
    if not 0 <= stream_id < 2**64:
        raise ValueError(f"stream_id must fit in uint64, got {stream_id}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _START, "key": key},
        "buffer": _START, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def house_stream(seed: int, house_index: int,
                 gen: np.random.Generator | None = None) -> np.random.Generator:
    """Generator owned by one house; independent of population size.
    `gen` is re-keyed to it when given, as in `substream`."""
    return substream(seed, HOUSE_STREAM_BASE + house_index, gen)


# Philox4x64-10's round multipliers and key increments
_M0, _M1, _W0, _W1 = (0xD2E7470EE14C6C93, 0xCA5A826395121157,
                      0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def philox_raw(seed: int, stream_ids: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * `blocks` outputs of `random_raw` on the substreams of
    `seed` named in `stream_ids` (uint64), a row each: Philox4x64-10 at
    key (seed, stream id) and counters 1, 2, ..., `blocks`."""
    def mulhilo(m, x):  # the high and low words of m * x, from 32-bit halves
        m_lo, m_hi, x_lo, x_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), x & _LOW, x >> _32
        mid = x_hi * m_lo
        cross = (x_lo * m_lo >> _32) + (mid & _LOW) + x_lo * m_hi
        return x_hi * m_hi + (mid >> _32) + (cross >> _32), x * np.uint64(m)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(stream_ids))
    c1 = c2 = c3 = np.zeros_like(c0)
    k1 = np.repeat(stream_ids, blocks)
    for r in range(10):
        (hi0, lo0), (hi1, lo1) = mulhilo(_M0, c0), mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64((seed + r * _W0) % 2**64), lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + np.uint64(_W1)
    return np.stack((c0, c1, c2, c3), axis=1).reshape(len(stream_ids), -1)


_ZIGGURAT = []  # NumPy's widths wi and k, a lower bound of its one-draw limits ki


def ziggurat_normals(raw: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal `standard_normal` makes of each raw output, and
    where it needs no other output: bits 0-7 pick the strip, bit 8 the sign,
    bits 9-60 the magnitude.  The first call reads the table through `gen`,
    which is left at no stream's start."""
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
        k = np.floor(np.append(wi[255], wi[:-1]) / wi * 2.0**52).astype(np.uint64)
        k[1] = 0
        _ZIGGURAT.extend((wi, k))
    wi, k = _ZIGGURAT
    idx = (raw & np.uint64(0xFF)).astype(np.intp)
    rabs = raw >> np.uint64(9) & np.uint64(2**52 - 1)
    x = rabs * wi[idx]
    np.negative(x, out=x, where=(raw & np.uint64(1 << 8)).astype(bool))
    return x, rabs < k[idx]
