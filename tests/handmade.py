"""Hand-made houses for the tests, and the filter's analytic gain.

A row is one house's fields as Python floats, by the names of the
population's columns.  Each constructor asserts that the fault function
population synthesis applies to its columns finds no fault in the row.
"""

import math
from types import SimpleNamespace

import numpy as np

from tiesmooth.agents import controller_faults
from tiesmooth.mgcc import lpf_alpha
from tiesmooth.population import COLUMNS, ETP_FIELDS, Population
from tiesmooth.thermal import DEFAULT_DERIVATION, derive_etp_terms, etp_faults, geometry_faults

TINY = math.nextafter(0.0, 1.0)  # the smallest positive float


def verdicts(faults, row: dict):
    """What `faults` finds in `row` on Python floats, and on one-element arrays."""
    return (bool(faults(row)),
            faults({name: np.array([value]) for name, value in row.items()}).tolist())


def case_id(value) -> str:
    """A readable test id for a table row's overrides or verdict."""
    if isinstance(value, dict):
        return ",".join(f"{name}={v!r}" for name, v in value.items()) or "nominal"
    return "fault" if value else "ok"


def geometry(**fields):
    assert not geometry_faults(fields), fields
    return SimpleNamespace(**fields)


def etp(**params):
    assert not etp_faults(params), params
    return SimpleNamespace(**params)


def etp_of(g, consts=DEFAULT_DERIVATION):
    """The thermal parameters of geometry row `g`."""
    terms = derive_etp_terms(vars(g), consts)
    assert terms["net_wall"] > 0, "door and glazing exceed the gross wall area"
    return etp(**{name: float(terms[name]) for name in ETP_FIELDS})


def controller(**settings):
    """A controller's settings, with its comfort limits t_max and t_min."""
    assert not controller_faults(settings), settings
    return SimpleNamespace(**settings, t_max=settings["t_set"] + settings["t_high"],
                           t_min=settings["t_set"] - settings["t_low"])


def population_of(etps, agents):
    """Hand-made houses, thermal parameters and controllers taken pairwise,
    as a Population; the geometry columns, which no fleet reads, are NaN."""
    rows = [{**vars(p), **vars(a)} for p, a in zip(etps, agents)]
    return Population(np.arange(len(rows)), {
        name: np.array([row.get(name, np.nan) for row in rows], dtype=float)
        for name in COLUMNS})


def house_rows(houses: Population):
    """Each house of `houses` as a row, with its `index`."""
    columns = [houses.columns[name].tolist() for name in COLUMNS]
    return [SimpleNamespace(index=index, **dict(zip(COLUMNS, values)))
            for index, values in zip(houses.house_index.tolist(), zip(*columns))]


def lpf_sinusoid_gain(cfg, period_s: float) -> float:
    """Analytic steady-state amplitude gain of the discrete filter for a
    sampled sinusoid of the given period."""
    a = lpf_alpha(cfg)
    omega = 2.0 * math.pi / period_s
    z = complex(math.cos(omega * cfg.control_cycle_s),
                -math.sin(omega * cfg.control_cycle_s))
    return abs((1.0 - a) / (1.0 - a * z))
