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
one, which would seed it from OS entropy first.
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
