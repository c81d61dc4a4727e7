"""Scenario configuration: population distributions, timing, file format.

A scenario file is a small sectioned text format (`[section]` headers,
`key = value` lines, whole-line `#` comments, read and written by
`textio`) so every knob — including the full population distribution
tables — is visible and diffable.  Distributions are written as
`uniform a b` or `normal mean std`.  A section or key the configuration
does not have is an error, not a silent default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import TextIO

from .baseline import CorrectionParams
from .textio import fmt, parse, read_keyvals, write_keyvals
from .thermal import DerivationConstants


@dataclass(frozen=True)
class Dist:
    """A univariate draw rule; normals are truncated at 3 sigma."""

    kind: str  # "uniform" or "normal"
    a: float   # low / mean
    b: float   # high / std

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"distribution parameters must be finite, got {self.a}, {self.b}")
        if self.kind == "uniform" and self.a >= self.b:
            raise ValueError(f"uniform bounds out of order: {self.a}, {self.b}")
        if self.kind == "uniform" and not math.isfinite(self.b - self.a):
            raise ValueError(f"uniform width b - a must be finite, got {self.a}, {self.b}")
        if self.kind == "normal" and self.b <= 0:
            raise ValueError(f"normal std must be positive, got {self.b}")

    def value(self, std):
        """The draw a uniform on [0, 1) or a standard normal makes, as
        NumPy's `uniform` and `normal` compute it; floats or arrays."""
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * std
        return self.a + self.b * std

    def format(self) -> str:
        return f"{self.kind} {fmt(self.a)} {fmt(self.b)}"

    @classmethod
    def parse(cls, text: str) -> "Dist":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"cannot parse distribution {text!r}")
        return cls(kind=parts[0], a=parse(parts[1], float), b=parse(parts[2], float))


# House fields in canonical draw order; every house consumes its random
# stream in exactly this order regardless of configuration.
HOUSE_FIELDS = ("floor_area", "air_change_rate", "window_wall_ratio", "shgc",
                "eer", "r_roof", "r_wall", "r_floor", "r_window", "r_door")
CONTROLLER_FIELDS = ("deadband", "t_set", "t_high", "t_low")


def default_population_distributions() -> dict[str, Dist]:
    return {
        "floor_area": Dist("uniform", 88.0, 176.0),
        "air_change_rate": Dist("normal", 0.5, 0.06),
        "window_wall_ratio": Dist("normal", 0.15, 0.01),
        "shgc": Dist("uniform", 0.22, 0.5),
        "eer": Dist("uniform", 3.0, 4.0),
        "r_roof": Dist("normal", 5.28, 0.70),
        "r_wall": Dist("normal", 2.99, 0.35),
        "r_floor": Dist("normal", 3.35, 0.35),
        "r_window": Dist("normal", 0.38, 0.03),
        "r_door": Dist("normal", 0.88, 0.07),
        "deadband": Dist("uniform", 0.2, 0.4),
        "t_set": Dist("normal", 26.0, 0.5),
        "t_high": Dist("uniform", 2.0, 3.0),
        "t_low": Dist("uniform", 2.0, 3.0),
    }


@dataclass(frozen=True)
class PopulationSpec:
    n: int
    distributions: dict[str, Dist] = field(default_factory=default_population_distributions)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("population size must be >= 0")
        missing = set(HOUSE_FIELDS + CONTROLLER_FIELDS) - set(self.distributions)
        if missing:
            raise ValueError(f"population spec missing fields: {sorted(missing)}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_acl: int = 450
    seed: int = 42
    sim_step_s: int = 5
    record_cycle_s: int = 10
    control_cycle_s: int = 60
    bid_lead_s: int = 5
    duration_s: int = 86400
    warmup_s: int = 7200
    wind_capacity_ratio: float = 0.27
    acl_peak_share: float = 0.40
    baseline_bias: float = 0.0
    soa_feedback_enabled: bool = True
    training_days: int = 3
    epsilon_margin_c: float = 0.05
    tau_s: float = 3000.0
    correction: CorrectionParams = field(default_factory=CorrectionParams)
    thermal: DerivationConstants = field(default_factory=DerivationConstants)
    population: dict[str, Dist] = field(default_factory=default_population_distributions)

    def __post_init__(self):
        if self.n_acl < 1:
            raise ValueError("n_acl must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        # the stepper is checked against half-steps up to 60 s (criterion 8)
        if not 0 < self.sim_step_s <= 60:
            raise ValueError(f"sim_step_s must be in (0, 60] s, got {self.sim_step_s}")
        if not (self.record_cycle_s > 0 and self.control_cycle_s > 0):
            raise ValueError("record_cycle_s and control_cycle_s must be positive")
        if self.record_cycle_s % self.sim_step_s != 0:
            raise ValueError("sim_step_s must divide record_cycle_s")
        if self.control_cycle_s % self.record_cycle_s != 0:
            raise ValueError("record_cycle_s must divide control_cycle_s")
        if not 0 < self.bid_lead_s < self.control_cycle_s:
            raise ValueError("bid_lead_s must be inside the control cycle")
        if self.bid_lead_s % self.sim_step_s != 0:
            raise ValueError("bid_lead_s must align with the simulation step")
        if self.duration_s <= 0 or self.warmup_s < 0:
            raise ValueError("duration_s must be positive and warmup_s >= 0")
        # records fall on this grid from 0, so both ends of the measured
        # window must too
        if self.duration_s % self.record_cycle_s or self.warmup_s % self.record_cycle_s:
            raise ValueError(f"duration_s and warmup_s must be multiples of "
                             f"record_cycle_s ({self.record_cycle_s} s)")
        if self.training_days < 1:
            raise ValueError("training_days must be >= 1")
        if not self.tau_s > 0:
            raise ValueError(f"tau_s must be positive, got {self.tau_s}")
        # each range is a positive check, so that NaN fails it
        if not 0 < self.acl_peak_share <= 1:
            raise ValueError(f"acl_peak_share must be in (0, 1], got {self.acl_peak_share}")
        if not 0 <= self.wind_capacity_ratio < math.inf:
            raise ValueError(f"wind_capacity_ratio must be finite and >= 0, "
                             f"got {self.wind_capacity_ratio}")
        if not -1 < self.baseline_bias < math.inf:
            raise ValueError(f"baseline_bias must be finite and > -1, got {self.baseline_bias}")
        if not 0 <= self.epsilon_margin_c < math.inf:
            raise ValueError(f"epsilon_margin_c must be finite and >= 0, "
                             f"got {self.epsilon_margin_c}")

    @property
    def total_s(self) -> int:
        return self.warmup_s + self.duration_s

    def population_spec(self) -> PopulationSpec:
        return PopulationSpec(n=self.n_acl, distributions=dict(self.population))


def _sections(cfg: ScenarioConfig) -> dict[str, dict[str, object]]:
    """The values of each file section, in file order."""
    nested = ("tau_s", "correction", "thermal", "population")
    return {
        "scenario": {f.name: getattr(cfg, f.name) for f in fields(cfg)
                     if f.name not in nested},
        "mgcc": {"tau_s": cfg.tau_s, **{f.name: getattr(cfg.correction, f.name)
                                        for f in fields(CorrectionParams)}},
        "thermal": {f.name: getattr(cfg.thermal, f.name)
                    for f in fields(DerivationConstants)},
        "population": {name: cfg.population[name]
                       for name in HOUSE_FIELDS + CONTROLLER_FIELDS},
    }


def save_scenario(cfg: ScenarioConfig, fh: TextIO) -> None:
    fh.write("# tiesmooth scenario configuration\n")
    fh.write("# powers in kW, temperatures in degC, times in seconds\n")
    for section, values in _sections(cfg).items():
        fh.write(f"\n[{section}]\n")
        if section == "population":
            fh.write("# uniform <low> <high> | normal <mean> <std>, "
                     "normals truncated at 3 sigma\n")
            values = {name: dist.format() for name, dist in values.items()}
        write_keyvals(fh, values)


def load_scenario(fh: TextIO) -> ScenarioConfig:
    """Read a scenario file; unknown sections and keys are a ValueError.

    Keys left out keep their defaults, and each value is parsed as the
    type of its default.
    """
    sections = _sections(ScenarioConfig())
    for name, text in read_keyvals(fh).items():
        section, _, key = name.rpartition(".")
        if section not in sections:
            raise ValueError(f"scenario key {name!r} is outside the sections "
                             f"{', '.join(sections)}")
        if key not in sections[section]:
            raise ValueError(f"unknown key {key!r} in scenario section [{section}]")
        default = sections[section][key]
        sections[section][key] = (Dist.parse(text) if isinstance(default, Dist)
                                  else parse(text, type(default)))
    mgcc = sections["mgcc"]
    return ScenarioConfig(tau_s=mgcc.pop("tau_s"), correction=CorrectionParams(**mgcc),
                          thermal=DerivationConstants(**sections["thermal"]),
                          population=sections["population"], **sections["scenario"])


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    return replace(cfg, **kwargs)
