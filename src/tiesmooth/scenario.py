"""Scenario configuration: population distributions, timing, file format.

A scenario file is a small sectioned text format (`[section]` headers,
`key = value` lines, `#` comments) so every knob — including the full
population distribution tables — is visible and diffable.  Distributions
are written as `uniform a b` or `normal mean std`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TextIO

import numpy as np

from .baseline import CorrectionParams
from .mgcc import MgccConfig
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
        if self.kind == "uniform" and self.a >= self.b:
            raise ValueError(f"uniform bounds out of order: {self.a}, {self.b}")
        if self.kind == "normal" and self.b <= 0:
            raise ValueError(f"normal std must be positive, got {self.b}")

    def draw(self, gen: np.random.Generator) -> float:
        if self.kind == "uniform":
            return float(gen.uniform(self.a, self.b))
        while True:
            x = float(gen.normal(self.a, self.b))
            if abs(x - self.a) <= 3.0 * self.b:
                return x

    def mean(self) -> float:
        return 0.5 * (self.a + self.b) if self.kind == "uniform" else self.a

    def format(self) -> str:
        return f"{self.kind} {self.a!r} {self.b!r}"

    @classmethod
    def parse(cls, text: str) -> "Dist":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"cannot parse distribution {text!r}")
        return cls(kind=parts[0], a=float(parts[1]), b=float(parts[2]))


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
    vary_training_enrollment: bool = True
    epsilon_margin_c: float = 0.05
    tau_s: float = 3000.0
    correction: CorrectionParams = field(default_factory=CorrectionParams)
    thermal: DerivationConstants = field(default_factory=DerivationConstants)
    population: dict[str, Dist] = field(default_factory=default_population_distributions)

    def __post_init__(self):
        if self.n_acl < 1:
            raise ValueError("n_acl must be >= 1")
        if self.sim_step_s <= 0 or self.record_cycle_s % self.sim_step_s != 0:
            raise ValueError("sim_step_s must divide record_cycle_s")
        if self.control_cycle_s % self.record_cycle_s != 0:
            raise ValueError("record_cycle_s must divide control_cycle_s")
        if not 0 < self.bid_lead_s < self.control_cycle_s:
            raise ValueError("bid_lead_s must be inside the control cycle")
        if self.bid_lead_s % self.sim_step_s != 0:
            raise ValueError("bid_lead_s must align with the simulation step")
        if self.duration_s <= 0 or self.warmup_s < 0:
            raise ValueError("duration_s must be positive and warmup_s >= 0")
        if self.training_days < 1:
            raise ValueError("training_days must be >= 1")

    @property
    def total_s(self) -> int:
        return self.warmup_s + self.duration_s

    def mgcc_config(self) -> MgccConfig:
        return MgccConfig(tau_s=self.tau_s, control_cycle_s=float(self.control_cycle_s),
                          correction=self.correction,
                          soa_feedback_enabled=self.soa_feedback_enabled)

    def population_spec(self) -> PopulationSpec:
        return PopulationSpec(n=self.n_acl, distributions=dict(self.population))


_SCALAR_SECTION = ("n_acl", "seed", "sim_step_s", "record_cycle_s",
                   "control_cycle_s", "bid_lead_s", "duration_s", "warmup_s",
                   "wind_capacity_ratio", "acl_peak_share", "baseline_bias",
                   "soa_feedback_enabled", "training_days",
                   "vary_training_enrollment", "epsilon_margin_c")
_INT_KEYS = {"n_acl", "seed", "sim_step_s", "record_cycle_s", "control_cycle_s",
             "bid_lead_s", "duration_s", "warmup_s", "training_days"}
_BOOL_KEYS = {"soa_feedback_enabled", "vary_training_enrollment"}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def save_scenario(cfg: ScenarioConfig, fh: TextIO) -> None:
    fh.write("# tiesmooth scenario configuration\n")
    fh.write("# powers in kW, temperatures in degC, times in seconds\n\n")
    fh.write("[scenario]\n")
    for key in _SCALAR_SECTION:
        fh.write(f"{key} = {_format_value(getattr(cfg, key))}\n")

    fh.write("\n[mgcc]\n")
    fh.write(f"tau_s = {_format_value(cfg.tau_s)}\n")
    c = cfg.correction
    for key in ("s1", "s2", "s3", "dp1", "dp2", "dp3", "gamma"):
        fh.write(f"{key} = {_format_value(getattr(c, key))}\n")

    fh.write("\n[thermal]\n")
    for f in fields(DerivationConstants):
        fh.write(f"{f.name} = {_format_value(getattr(cfg.thermal, f.name))}\n")

    fh.write("\n[population]\n")
    fh.write("# uniform <low> <high> | normal <mean> <std>, normals truncated at 3 sigma\n")
    for name in HOUSE_FIELDS + CONTROLLER_FIELDS:
        fh.write(f"{name} = {cfg.population[name].format()}\n")


def load_scenario(fh: TextIO) -> ScenarioConfig:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for raw in fh:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
            continue
        if current is None or "=" not in line:
            raise ValueError(f"malformed scenario line: {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        current[key] = value

    def scalar(section: str, key: str, default):
        text = sections.get(section, {}).get(key)
        if text is None:
            return default
        if key in _BOOL_KEYS:
            return text.lower() in ("true", "1", "yes")
        if key in _INT_KEYS:
            return int(text)
        return float(text)

    kwargs = {key: scalar("scenario", key, getattr(ScenarioConfig, key))
              for key in _SCALAR_SECTION}

    mgcc = sections.get("mgcc", {})
    correction = CorrectionParams(
        s1=float(mgcc.get("s1", 0.5)), s2=float(mgcc.get("s2", 0.8)),
        s3=float(mgcc.get("s3", 1.0)), dp1=float(mgcc.get("dp1", 1.0)),
        dp2=float(mgcc.get("dp2", 2.0)), dp3=float(mgcc.get("dp3", 3.0)),
        gamma=float(mgcc.get("gamma", 0.02)))
    tau_s = float(mgcc.get("tau_s", 3000.0))

    thermal_kwargs = {}
    thermal_section = sections.get("thermal", {})
    for f in fields(DerivationConstants):
        if f.name in thermal_section:
            thermal_kwargs[f.name] = float(thermal_section[f.name])
    thermal = DerivationConstants(**thermal_kwargs)

    population = default_population_distributions()
    for name, text in sections.get("population", {}).items():
        if name not in population:
            raise ValueError(f"unknown population field {name!r}")
        population[name] = Dist.parse(text)

    return ScenarioConfig(tau_s=tau_s, correction=correction, thermal=thermal,
                          population=population, **kwargs)


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    return replace(cfg, **kwargs)
