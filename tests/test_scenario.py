"""Scenario files: strict sections and keys, typed values, save/load round trip."""

import io
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiesmooth.baseline import CorrectionParams
from tiesmooth.scenario import (CONTROLLER_FIELDS, HOUSE_FIELDS, Dist, ScenarioConfig,
                                load_scenario, save_scenario)
from tiesmooth.thermal import DerivationConstants


def saved(cfg: ScenarioConfig) -> str:
    buf = io.StringIO()
    save_scenario(cfg, buf)
    return buf.getvalue()


def load(text: str) -> ScenarioConfig:
    return load_scenario(io.StringIO(text))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dists(draw, low=-1e6, high=1e6):
    """Distributions whose every draw lies in [low, high]."""
    a = draw(st.floats(low, high, exclude_max=True))
    std_max = min(a - low, high - a) / 4  # so that mean +- 3 std rounds inside too
    if std_max == 0 or draw(st.booleans()):
        return Dist("uniform", a, draw(st.floats(a, high, exclude_min=True)))
    return Dist("normal", a, draw(st.floats(0.0, std_max, exclude_min=True)))


def population_dists(draw):
    """A table in the comfort rows' domains: 16 <= t_set draws <= 32 and
    0 < t_high, t_low draws <= 5."""
    comfort = {"t_set": (16.0, 32.0), "t_high": (1e-3, 5.0), "t_low": (1e-3, 5.0)}
    return {name: draw(dists(*comfort.get(name, (-1e6, 1e6))))
            for name in HOUSE_FIELDS + CONTROLLER_FIELDS}


@st.composite
def configs(draw):
    step = draw(st.integers(1, 10))
    record = step * draw(st.integers(1, 6))
    control = record * draw(st.integers(2, 6))
    s1, s2, s3 = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                      min_size=3, max_size=3, unique=True)))
    dp1, dp2, dp3 = sorted(draw(st.lists(st.floats(1e-3, 100.0), min_size=3, max_size=3)))
    return ScenarioConfig(
        n_acl=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64 - 1)),
        sim_step_s=step, record_cycle_s=record, control_cycle_s=control,
        bid_lead_s=step * draw(st.integers(1, control // step - 1)),
        duration_s=record * draw(st.integers(1, 10**7 // record)),
        warmup_s=record * draw(st.integers(0, 10**5 // record)),
        wind_capacity_ratio=draw(st.floats(0.0, 1e300)),
        acl_peak_share=draw(st.floats(0.0, 1.0, exclude_min=True)),
        baseline_bias=draw(st.floats(-1.0, 1.0, exclude_min=True)),
        soa_feedback_enabled=draw(st.booleans()),
        training_days=draw(st.integers(1, 30)),
        epsilon_margin_c=draw(st.floats(0.0, 1e300)), tau_s=draw(st.floats(1e-3, 1e9)),
        correction=CorrectionParams(s1=s1, s2=s2, s3=s3, dp1=dp1, dp2=dp2, dp3=dp3,
                                    gamma=draw(st.floats(1e-9, 10.0))),
        thermal=DerivationConstants(**{
            **{f.name: draw(st.floats(0.0, 1e300, exclude_min=True))
               for f in fields(DerivationConstants)},
            "design_solar_wm2": draw(st.floats(0.0, 1e300)),
            **dict(zip(("design_indoor_c", "design_outdoor_c"),
                       sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))))}),
        population=population_dists(draw))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(configs())
    def test_save_load_returns_equal_config(self, cfg):
        text = saved(cfg)
        loaded = load(text)
        assert loaded == cfg
        assert saved(loaded) == text

    def test_missing_keys_keep_defaults(self):
        assert load("") == ScenarioConfig()
        cfg = load("[mgcc]\ntau_s = 100.0\n[scenario]\nsoa_feedback_enabled = false\n")
        assert cfg.tau_s == 100.0 and cfg.correction == CorrectionParams()
        assert cfg.soa_feedback_enabled is False
        assert type(load("[scenario]\nbaseline_bias = 1\n").baseline_bias) is float


class TestStrict:
    @pytest.mark.parametrize("section, line", [
        ("scenario", "n_acls = 5"),            # typo of n_acl
        ("scenario", "n_workers = 1"),         # key of an older format
        ("mgcc", "tau = 100.0"),
        ("mgcc", "n_acl = 5"),                 # a key of another section
        ("thermal", "air_densty = 1.2"),
        ("population", "floor_areas = uniform 1.0 2.0"),
    ])
    def test_unknown_keys_rejected(self, section, line):
        text = saved(ScenarioConfig()).replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        with pytest.raises(ValueError, match="unknown key"):
            load(text)

    @pytest.mark.parametrize("text", ["[market]\nseed = 1\n", "n_acl = 5\n[scenario]\n"])
    def test_unknown_sections_rejected(self, text):
        with pytest.raises(ValueError):
            load(text)

    @pytest.mark.parametrize("value", ["yes", "1", "True", "on", ""])
    def test_bools_are_true_or_false(self, value):
        with pytest.raises(ValueError):
            load(f"[scenario]\nsoa_feedback_enabled = {value}\n")

    @pytest.mark.parametrize("line", ["n_acl = 4.5", "wind_capacity_ratio = high",
                                      "n_acl = 5 # houses"])
    def test_malformed_values_rejected(self, line):
        with pytest.raises(ValueError):
            load(f"[scenario]\n{line}\n")

    @pytest.mark.parametrize("text", ["normal nan 0.06", "normal 0.5 nan", "uniform nan 176.0",
                                      "uniform 88.0 inf", "normal -inf 1.0",
                                      # both bounds finite, but not their distance
                                      "uniform -1e308 1e308"])
    def test_non_finite_distribution_rejected(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            load(f"[population]\nfloor_area = {text}\n")

    @pytest.mark.parametrize("section, key, values", [
        ("scenario", "acl_peak_share", ["nan", "0.0", "-0.0", "1.0000001", "inf"]),
        ("scenario", "wind_capacity_ratio", ["nan", "-1e-300", "inf"]),
        ("scenario", "baseline_bias", ["nan", "-1.0", "-2.0", "1.0000001", "1e308", "inf"]),
        ("scenario", "epsilon_margin_c", ["nan", "-0.01", "inf"]),
        ("mgcc", "gamma", ["nan", "0.0", "-1.0"]),
        ("thermal", "mass_coupling_ratio", ["nan", "0.0", "-1.0", "inf"]),
        ("thermal", "air_density", ["nan", "-1.2", "inf"]),
        ("thermal", "c_air_multiplier", ["0.0", "-0.0"]),
        ("thermal", "c_mass_air_ratio", ["-1.0"]),
        ("thermal", "oversize_factor", ["nan", "0.0"]),
        ("thermal", "design_solar_wm2", ["nan", "-1.0", "inf"]),
        ("thermal", "design_indoor_c", ["nan", "-inf", "inf"]),
        ("thermal", "design_outdoor_c", ["nan", "inf", "-inf"]),
    ])
    def test_out_of_range_values_rejected(self, section, key, values):
        for value in values:
            with pytest.raises(ValueError, match=f"{key} must be"):
                load(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["23.0", "22.0"])
    def test_design_outdoor_at_or_below_indoor_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"design_indoor_c < design_outdoor_c must hold, got design_indoor_c = 23.0, "
                f"design_outdoor_c = {value}")):
            load(f"[thermal]\ndesign_outdoor_c = {value}\n")

    @pytest.mark.parametrize("line", ["acl_peak_share = 1.0", "acl_peak_share = 5e-324",
                                      "wind_capacity_ratio = 0.0", "baseline_bias = -0.999",
                                      "baseline_bias = 1.0",
                                      "epsilon_margin_c = 0.0"])
    def test_range_ends_accepted(self, line):
        load(f"[scenario]\n{line}\n")

    @pytest.mark.parametrize("text", ["air_density = 5e-324", "design_solar_wm2 = 0.0",
                                      "design_outdoor_c = -40.0\ndesign_indoor_c = -41.0"])
    def test_thermal_range_ends_accepted(self, text):
        load(f"[thermal]\n{text}\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError):
            load("[scenario]\nn_acl = 5\nn_acl = 6\n")
