"""The input domain table: every key and trace column has a row, each row
is checked where its value is built or read, both ends of each interval
and their neighbours fall on the declared side, and the README lists the
table as it is."""

import io
import math
import re
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

from tiesmooth.baseline import CorrectionParams
from tiesmooth.domains import DOMAINS, INTERVALS, RELATIONS, check
from tiesmooth.scenario import (CONTROLLER_FIELDS, Dist, ScenarioConfig, load_scenario,
                                save_scenario)
from tiesmooth.thermal import DerivationConstants
from tiesmooth.traces import TRACE_CSV_HEADER, read_traces

README = Path(__file__).resolve().parents[1] / "README.md"
NESTED = ("tau_s", "correction", "thermal", "population")
DEFAULTS = {**{f.name: getattr(ScenarioConfig(), f.name) for f in fields(ScenarioConfig)},
            **vars(CorrectionParams()), **vars(DerivationConstants())}


def ends(interval):
    """(low, high, low closed, high closed) of an interval read as written."""
    low, high = (2.0 ** int(b[3:]) if b.startswith("2**") else float(b)
                 for b in interval[1:-1].split(", "))
    return low, high, interval[0] == "[", interval[-1] == "]"


def probes(name):
    """Each end of the row of `name` and its neighbours on both sides, with
    whether the row admits it; ints step by one and leave out infinite ends."""
    low, high, low_closed, high_closed = ends(INTERVALS[name])
    inside = lambda v: ((low < v or low_closed and v == low)
                        and (v < high or high_closed and v == high))
    if type(DEFAULTS.get(name, 0)) is int:  # time_s is the trace's int column
        return [(int(v + d), inside(v + d)) for v in (low, high) if math.isfinite(v)
                for d in (-1, 0, 1)]
    return [(w, inside(w)) for v in (low, high)
            for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


def scenario_text(**values):
    buf = io.StringIO()
    save_scenario(ScenarioConfig(), buf)
    lines = []
    for line in buf.getvalue().splitlines():
        key = line.partition(" = ")[0]
        lines.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


def render() -> str:
    """The README's list: one item per section of the table, then the relations."""
    heads = {"population": "every draw of `[population]`", "traces": "trace columns"}
    items = [f"- {heads.get(section, f'`[{section}]`')}: " + ", ".join(
        f"`{name}` {interval}".replace(" ", "\xa0") for name, interval in rows.items())
        for section, rows in DOMAINS.items()]  # no line breaks inside a row
    items.append("- relations, where `a | b` reads a divides b: " + ", ".join(
        f"`{relation}`".replace(" ", "\xa0") for relation in RELATIONS))
    return "\n".join(textwrap.fill(item, 72, subsequent_indent="  ").replace("\xa0", " ")
                     for item in items)


def test_every_input_has_a_row():
    assert list(DOMAINS["scenario"]) == [f.name for f in fields(ScenarioConfig)
                                         if f.name not in NESTED]
    assert list(DOMAINS["mgcc"]) == ["tau_s"] + [f.name for f in fields(CorrectionParams)]
    assert list(DOMAINS["thermal"]) == [f.name for f in fields(DerivationConstants)]
    assert set(DOMAINS["population"]) <= set(CONTROLLER_FIELDS)
    assert list(DOMAINS["traces"]) == TRACE_CSV_HEADER.split(",")
    assert all(set(relation.split()[::2]) <= INTERVALS.keys() for relation in RELATIONS)


def test_readme_lists_the_table():
    text = README.read_text()
    listed = text.partition("<!-- domains -->\n")[2].partition("\n<!-- /domains -->")[0]
    assert listed == render(), f"the README's list should read:\n{render()}"


@pytest.mark.parametrize("name", list(INTERVALS))
def test_interval_ends_and_their_neighbours(name):
    for value, inside in probes(name):
        if inside:
            check({name: value})
        else:
            with pytest.raises(ValueError, match=rf"^{name} must be in "):
                check({name: value})


@pytest.mark.parametrize("section, name", [(section, name) for section in ("scenario", "mgcc",
                                                                          "thermal")
                                           for name in DOMAINS[section]
                                           if type(DEFAULTS[name]) is not bool])
def test_each_key_is_checked_as_the_scenario_loads(section, name):
    value = next(v for v, inside in probes(name) if not inside)
    with pytest.raises(ValueError,
                       match=rf"^{name} must be in {re.escape(INTERVALS[name])}, "):
        load_scenario(io.StringIO(scenario_text(**{name: value})))


@pytest.mark.parametrize("name", list(DOMAINS["population"]))
def test_each_comfort_draw_is_checked_as_the_scenario_loads(name):
    low, high, low_closed, high_closed = ends(INTERVALS[name])
    mid = (low + high) / 2
    first_in = low if low_closed else math.nextafter(low, math.inf)
    last_in = high if high_closed else math.nextafter(high, -math.inf)
    for dist in (Dist("uniform", first_in, last_in), Dist("normal", mid, (high - low) / 8)):
        load_scenario(io.StringIO(scenario_text(**{name: dist.format()})))
    for dist in (Dist("uniform", math.nextafter(first_in, -math.inf), mid),
                 Dist("uniform", mid, math.nextafter(last_in, math.inf)),
                 Dist("normal", mid, (high - low) / 5)):
        with pytest.raises(ValueError, match=rf"^{name} draws must be in "):
            load_scenario(io.StringIO(scenario_text(**{name: dist.format()})))


@pytest.mark.parametrize("name", DOMAINS["traces"])
def test_each_trace_column_is_checked_as_it_is_read(name):
    good = {"time_s": 0, "t_out_c": 30.0, "solar_wm2": 0.0, "p_load_kw": 100.0,
            "p_wind_kw": 5.0}
    assert list(good) == list(DOMAINS["traces"])
    for value, inside in probes(name):
        if name == "time_s" and inside and value != 0:  # a grid that starts late
            continue
        rows = [{**good, name: value}, {**good, "time_s": 10}]
        if name == "time_s":
            rows[1]["time_s"] = value + 10
        text = "\n".join([TRACE_CSV_HEADER] + [",".join(map(str, row.values()))
                                               for row in rows]) + "\n"
        if inside:
            read_traces(io.StringIO(text))
        else:
            with pytest.raises(ValueError, match=rf"^trace column {name} must be in "
                                                 rf"{re.escape(INTERVALS[name])}, got "
                                                 rf"\S+ in data row 1$"):
                read_traces(io.StringIO(text))


@pytest.mark.parametrize("relation", RELATIONS)
def test_each_link_of_a_relation_is_checked(relation):
    keys = relation.split()[::2]
    check({key: DEFAULTS[key] for key in keys})
    for a, link, b in zip(keys, relation.split()[1::2], keys[1:]):
        broken = {"<": DEFAULTS[a], "<=": math.nextafter(DEFAULTS[a], -math.inf),
                  "|": 2 * DEFAULTS[a] + 1}[link]
        with pytest.raises(ValueError, match=rf"^{re.escape(relation)} must hold, got "
                                             rf".*{b} = {broken}"):
            check({**{key: DEFAULTS[key] for key in keys}, b: broken})


@pytest.mark.parametrize("build", [
    lambda: ScenarioConfig(record_cycle_s=7), lambda: ScenarioConfig(bid_lead_s=60),
    lambda: ScenarioConfig(warmup_s=7205), lambda: CorrectionParams(s2=0.5),
    lambda: CorrectionParams(dp3=1.5), lambda: DerivationConstants(design_outdoor_c=23.0)],
    ids=["grid", "bid_lead", "warmup", "breakpoints", "steps", "design"])
def test_relations_are_checked_where_values_are_built(build):
    with pytest.raises(ValueError, match=" must hold, got "):
        build()
