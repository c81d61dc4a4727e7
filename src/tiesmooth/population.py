"""Population synthesis: draw a fleet of houses and their controllers.

Each house owns a dedicated random substream keyed by its index, so
house i is byte-identical no matter how many houses are drawn around it.
A house whose draws violate the type invariants takes its next attempt
(capped); at the default distribution tables none of 50 000 houses
needs one (seeds 42 and 7).

The fleet is a `Population` of columns, one float array per field:
the drawn geometry, the derived thermal parameters and the controller.
Every field of an attempt is one Philox output, so attempt a of every
house reads the same four counters of its stream (`rng.philox_raw`),
and houses are drawn DRAW_CHUNK at a time, an array pass per attempt
over the houses still failing.  The values, their checks
(`thermal.geometry_faults`, `thermal.etp_faults`,
`agents.controller_faults`) and everything derived from them are array
expressions that also take one house's floats.

Electrical ratings are snapped to a dyadic kW quantum when the device is
built: every fleet power is then a multiple of 2^-10 kW, which keeps
aggregate power sums and the tie-line measurement identity exact in
floating point.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .agents import controller_faults, default_epsilon
from .market import sequential_sum
from .scenario import CONTROLLER_FIELDS, HOUSE_FIELDS, PopulationSpec
from .thermal import (DEFAULT_DERIVATION, DerivationConstants, derive_etp_terms, etp_faults,
                      geometry_faults, quantize_kw)

MAX_REDRAWS = 100
# houses per attempt: 64 KiB per float array of the attempt, and the
# streams of one `rng.philox_raw` pass
DRAW_CHUNK = 8192

# thermal parameters: J/degC, J/degC, W/degC, W/degC, m^2, W thermal, W electrical
ETP_FIELDS = ("c_air", "c_mass", "ua_envelope", "h_mass", "solar_aperture",
              "cooling_capacity", "rated_electrical_power")
# controller: degC, degC, degC, degC, kW electrical, degC
AGENT_FIELDS = ("t_set", "deadband", "t_high", "t_low", "rated_power", "epsilon")
# one float column per field: the drawn geometry, the derived thermal
# parameters, then the controller (draws, rating in kW, epsilon)
COLUMNS = HOUSE_FIELDS + ETP_FIELDS + AGENT_FIELDS


CACHE_LINE = 64


def aligned(source, dtype=np.float64) -> np.ndarray:
    """A 1-D array whose data starts on a 64-byte boundary: `source`
    zeros of `dtype` when `source` is a length, else a copy of the array
    `source`.

    NumPy takes its buffers from `malloc`, which aligns them to 16 bytes
    only, and its SIMD loops run elementwise kernels with `out=` about
    half as fast on arrays that start off a cache line.  The zeros come
    from `calloc`, like `np.zeros`, so pages never written take no memory.
    """
    if isinstance(source, np.ndarray):
        out = aligned(source.size, source.dtype)
        out[...] = source
        return out
    dtype = np.dtype(dtype)
    raw = np.zeros(source * dtype.itemsize + CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % CACHE_LINE
    return raw[start:start + source * dtype.itemsize].view(dtype)


class PopulationError(ValueError):
    """A house could not be drawn within the redraw budget."""


class Population:
    """A fleet as columns: `house_index`, each house's index (its stream
    number), and one read-only float array per name in COLUMNS, under
    `columns`.

    `take` gives some of its houses as a Population, and two populations
    are equal when their columns hold the same bytes.  Every column
    starts on a 64-byte boundary (`aligned`), so a fleet can share them.
    """

    def __init__(self, house_index: np.ndarray, columns: dict[str, np.ndarray]):
        self.house_index = house_index
        self.columns = columns
        for array in (house_index, *columns.values()):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.house_index)

    def take(self, indices) -> Population:
        """The houses at `indices`, a slice or positions in any order."""
        positions = np.arange(len(self))[indices]
        return Population(self.house_index[positions],
                          {name: np.take(col, positions, out=aligned(len(positions)))
                           for name, col in self.columns.items()})

    def __eq__(self, other):
        if not isinstance(other, Population):
            return NotImplemented
        return (self.columns.keys() == other.columns.keys()
                and self.house_index.tobytes() == other.house_index.tobytes()
                and all(col.tobytes() == other.columns[name].tobytes()
                        for name, col in self.columns.items()))


def _rating_fault(rated_kw):
    """True where a quantized rating is not a positive finite power."""
    return np.logical_not((0 < rated_kw) & (rated_kw < math.inf))


def _assemble(draws: dict[str, np.ndarray], consts: DerivationConstants,
              epsilon_margin: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Every column from the drawn fields (an array each), and where a
    check fails.  The electrical rating is quantized and the thermal
    capacity restated from it, so rated power stays exactly capacity / EER.
    """
    raw = derive_etp_terms(draws, consts)
    rated_kw = quantize_kw(raw["rated_electrical_power"] / 1000.0)
    etp = {**{name: raw[name] for name in ETP_FIELDS},
           "cooling_capacity": rated_kw * 1000.0 * draws["eer"],
           "rated_electrical_power": rated_kw * 1000.0}
    agent = {**{name: draws[name] for name in CONTROLLER_FIELDS}, "rated_power": rated_kw,
             "epsilon": default_epsilon(draws["deadband"], epsilon_margin)}
    fault = (geometry_faults(draws) | (raw["net_wall"] <= 0) | etp_faults(raw)
             | _rating_fault(rated_kw) | etp_faults(etp) | controller_faults(agent))
    return {**{name: draws[name] for name in HOUSE_FIELDS}, **etp, **agent}, fault


def standard_draws(seed: int, rows: np.ndarray, attempt: int, normal: list[int]) -> np.ndarray:
    """Attempt `attempt`'s 16 standard variates of each house in `rows`, a
    row each: outputs 16 * attempt, ..., 16 * attempt + 15 of its stream as
    `rng.uniforms`, and in the columns `normal` as `rng.truncated_normals`."""
    std = rng.uniforms(rng.philox_raw(
        seed, rng.HOUSE_STREAM_BASE + rows.astype(np.uint64), 4, 4 * attempt + 1))
    std[:, normal] = rng.truncated_normals(std[:, normal])
    return std


def generate_population(spec: PopulationSpec, seed: int,
                        consts: DerivationConstants = DEFAULT_DERIVATION,
                        epsilon_margin: float = 0.05) -> Population:
    """Draw the fleet; identical (spec, seed) gives an identical fleet.

    Attempt a of house i reads outputs 16a, ..., 16a + 15 of its stream
    (counters 4a + 1 to 4a + 4), and field j of HOUSE_FIELDS +
    CONTROLLER_FIELDS takes output j: a uniform as `rng.uniforms` makes
    it, a normal as `rng.truncated_normals` makes it from that uniform,
    each through `Dist.value`.  A house whose columns fail a check takes
    its next attempt: PopulationError after MAX_REDRAWS attempts.
    """
    dists = [(name, spec.distributions[name]) for name in HOUSE_FIELDS + CONTROLLER_FIELDS]
    normal = [j for j, (_, d) in enumerate(dists) if d.kind == "normal"]
    columns = {name: aligned(spec.n) for name in COLUMNS}
    # house 0 alone first, so that a spec no house meets fails after its attempts
    edges = [0, *range(1, spec.n, DRAW_CHUNK), spec.n] if spec.n else []
    # a house whose arithmetic overflows fails a check and takes its next attempt
    with np.errstate(all="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            rows = np.arange(lo, hi)
            for attempt in range(MAX_REDRAWS):
                std = standard_draws(seed, rows, attempt, normal)
                draws = {name: d.value(std[:, j]) for j, (name, d) in enumerate(dists)}
                values, fault = _assemble(draws, consts, epsilon_margin)
                for name, column in columns.items():  # a later attempt overwrites a failed one
                    column[rows] = values[name]
                rows = rows[fault]
                if not len(rows):
                    break
            else:
                raise PopulationError(f"house {rows[0]}: no valid draw in "
                                      f"{MAX_REDRAWS} attempts")
    return Population(np.arange(spec.n), columns)


def total_rated_power_kw(houses: Population) -> float:
    return sequential_sum(houses.columns["rated_power"])


# Realized daily peaks run above the steady-state duty estimate because
# weather noise and partial cycling coincidence spike the aggregate;
# measured ratio over seeds is ~1.11-1.16 for the default traces.
PEAK_COINCIDENCE = 1.14


def estimate_free_peak_kw(houses: Population, t_out: float, solar: float) -> float:
    """Estimate of the fleet's realized free aggregate peak (kW electrical).

    Steady-state duty of each house holding its own setpoint under the
    given peak weather, inflated by the coincidence allowance.  House
    time constants are short against the diurnal plateau, so the duty
    term dominates.
    """
    c = houses.columns
    gains = c["ua_envelope"] * (t_out - c["t_set"]) + c["solar_aperture"] * solar
    duty = np.minimum(1.0, np.maximum(0.0, gains / c["cooling_capacity"]))
    total = sequential_sum(duty * c["rated_power"])
    return min(total * PEAK_COINCIDENCE, total_rated_power_kw(houses))
