"""Counter-based random substreams for reproducible simulations.

Every random draw in the package flows from a single 64-bit scenario seed
through named Philox substreams.  A substream is identified by (seed,
stream id); house i always reads stream HOUSE_STREAM_BASE + i, so its
draws do not depend on how many other houses exist or on evaluation
order.  This is what makes populations byte-stable across runs and safe
to generate or step in parallel.

A Philox stream is fixed by its key and counter alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so
`philox_raw` computes the same counters of many streams in one array
pass, with no `Generator` behind it.  Every variate is made from those
outputs by arithmetic this module spells out: a uniform on [0, 1) from
the top 53 bits of one output (`uniforms`; `stream_uniforms` reads one
stream from its start), scaled to [lo, hi) as lo + (hi - lo) * u, and a
standard normal truncated at 3 sigma from one uniform by inversion
(`truncated_normals`, by Wichura's AS241 as Python's
`statistics.NormalDist.inv_cdf` computes it).  So houses, initial
states, enrollment and the training days' weather do not depend on how
a NumPy version draws, and each variate takes exactly one output.  The
trace noise alone is still NumPy's `standard_normal` on a `substream`.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import check

# Fixed stream-id layout.  Streams below HOUSE_STREAM_BASE are scenario
# level; per-house streams start high enough to never collide.
TRACE_STREAM = 1
TRAINING_TRACE_STREAM = 2
ENROLLMENT_STREAM = 3
INITIAL_STATE_STREAM = 4
HOUSE_STREAM_BASE = 2**32


def substream(seed: int, stream_id: int) -> np.random.Generator:
    """Return the generator for one named substream of `seed`."""
    check({"seed": seed})
    if not 0 <= stream_id < 2**64:
        raise ValueError(f"stream_id must fit in uint64, got {stream_id}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10's round multipliers and key increments
_M0, _M1, _W0, _W1 = (0xD2E7470EE14C6C93, 0xCA5A826395121157,
                      0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def philox_raw(seed: int, stream_ids: np.ndarray, blocks: int, first: int = 1) -> np.ndarray:
    """4 * `blocks` outputs of `random_raw` on the substreams of `seed`
    named in `stream_ids` (uint64), a row each: Philox4x64-10 at key
    (seed, stream id) and counters `first`, ..., `first` + `blocks` - 1
    (counter 1 holds a stream's first four outputs), in one array pass."""
    check({"seed": seed})

    def mulhilo(m, x):  # the high and low words of m * x, from 32-bit halves
        m_lo, m_hi, x_lo, x_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), x & _LOW, x >> _32
        mid = x_hi * m_lo
        cross = (x_lo * m_lo >> _32) + (mid & _LOW) + x_lo * m_hi
        return x_hi * m_hi + (mid >> _32) + (cross >> _32), x * np.uint64(m)
    k1 = np.repeat(stream_ids, blocks)
    c0 = np.tile(np.arange(first, first + blocks, dtype=np.uint64), len(stream_ids))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        (hi0, lo0), (hi1, lo1) = mulhilo(_M0, c0), mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64((seed + r * _W0) % 2**64), lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + np.uint64(_W1)
    return np.stack((c0, c1, c2, c3), axis=1).reshape(len(stream_ids), 4 * blocks)


def uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniform on [0, 1) NumPy's `random()` makes of each raw output:
    its top 53 bits, times 2^-53."""
    return (raw >> np.uint64(11)) * 2.0**-53


def stream_uniforms(seed: int, stream_id: int, count: int) -> np.ndarray:
    """The `uniforms` of outputs 0, ..., `count` - 1 of one substream, in
    counter order: the draws of `substream(seed, stream_id).random(count)`."""
    raw = philox_raw(seed, np.array([stream_id], dtype=np.uint64), -(-count // 4))
    return uniforms(raw[0, :count])


# Phi(-3) and Phi(3): the standard normal's mass below -3 and below 3
PHI_LO, PHI_HI = 0.0013498980316301035, 0.9986501019683699

# AS241's rational approximations (Wichura, Applied Statistics 37, 1988),
# numerator and denominator coefficients from the highest power down:
# one for |p - 0.5| <= 0.425 in r = 0.180625 - q^2, one for the tails in
# r = sqrt(-log(min(p, 1 - p))) - 1.6.  AS241's third pair, for r > 5,
# serves min(p, 1 - p) < exp(-25), which a truncated normal never asks for.
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
             4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
             2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_TAIL = ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
          1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
          4.6303378461565452959e+0, 1.4234371107496835773e+0),
         (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
          1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
          2.0531916266377588219e+0, 1.0))


def _horner(coefficients, r):
    """The polynomial of `coefficients`, highest power first, at r, as
    ((c0 * r + c1) * r + c2) ... evaluates it."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def truncated_normals(u: np.ndarray) -> np.ndarray:
    """The standard normal truncated at +-3 of each uniform in `u`, by
    inversion: `normal_quantiles` at Phi(-3) + (Phi(3) - Phi(-3)) * u."""
    return normal_quantiles(PHI_LO + (PHI_HI - PHI_LO) * u)


def normal_quantiles(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each p in [Phi(-3), Phi(3)] by
    AS241, with the bits `statistics.NormalDist().inv_cdf` gives: the
    same operations in the same order, and `math.log` per element."""
    q = p - 0.5
    r = 0.180625 - q * q
    x = _horner(_CENTRAL[0], r) * q / _horner(_CENTRAL[1], r)
    tail = np.abs(q) > 0.425  # outside AS241's central region
    qt, pt = q[tail], p[tail]
    r = np.where(qt <= 0.0, pt, 1.0 - pt)
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), float, len(r))) - 1.6
    xt = _horner(_TAIL[0], r) / _horner(_TAIL[1], r)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x
