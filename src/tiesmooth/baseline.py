"""Baseline load estimation and its feedback correction.

The free (uncontrolled) aggregate power of the device fleet is regressed
on weather and fleet size with an 8-term quadratic basis, fitted by
ordinary least squares on samples from a dedicated uncontrolled
simulation.  Online, the prediction is corrected from the fleet's mean
normalized temperature state S: a piecewise-linear proportional term
(dead below s1, saturating at s3) accumulates on top of an exponentially
decaying memory, so persistent estimation error is walked out while a
healthy fleet lets the correction bleed away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .textio import fmt, parse

FEATURE_NAMES = ("1", "t_out", "solar", "total_rated",
                 "t_out^2", "solar^2", "t_out*solar", "t_out*total_rated")

RANK_TOLERANCE = 1e-10


class RankDeficientError(ValueError):
    """The training features do not span the basis."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__(f"feature matrix is rank deficient; degenerate columns: "
                         f"{', '.join(columns)}")


class TrainingColumns(NamedTuple):
    """Training samples as four equal-length float columns, one row per sample."""

    t_out: np.ndarray        # degC
    solar: np.ndarray        # W/m^2
    total_rated: np.ndarray  # kW enrolled rated power
    p_ac_free: np.ndarray    # kW measured uncontrolled aggregate


def build_features(t_out, solar, total_rated) -> np.ndarray:
    """Quadratic basis in weather, linear scaling terms in fleet size.

    Scalars give one row of 8 terms; columns give one row per sample,
    with the same bits as the scalars row by row.
    """
    t, q, r = t_out, solar, total_rated
    return np.array([np.ones_like(t, dtype=float), t, q, r, t * t, q * q, t * q, t * r]).T


@dataclass(frozen=True)
class BaselineModel:
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} coefficients, "
                             f"got {len(self.coefficients)}")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# baseline regression coefficients, one per feature term\n")
            for coef, name in zip(self.coefficients, FEATURE_NAMES):
                fh.write(f"{fmt(coef)}  # {name}\n")

    @classmethod
    def load(cls, path) -> "BaselineModel":
        with open(path) as fh:
            values = [line.split("#", 1)[0].strip() for line in fh]
        return cls(coefficients=tuple(parse(v, float) for v in values if v))


def fit_baseline_model(samples: TrainingColumns) -> BaselineModel:
    """Ordinary least squares over the 8-term basis.

    Every sample needs a positive `total_rated` and a `p_ac_free` inside
    [0, total_rated] (ValueError otherwise).  Columns are scaled to unit
    peak before solving; near-zero singular values (relative pivot below
    1e-10) abort the fit and name the columns involved in the degenerate
    directions.
    """
    t_out, solar, total_rated, y = (np.asarray(c, dtype=float) for c in samples)
    if not len(t_out) == len(solar) == len(total_rated) == len(y):
        raise ValueError("training columns differ in length")
    bad = ~(total_rated > 0)
    if bad.any():
        raise ValueError(f"total_rated must be positive, got {total_rated[bad][0]}")
    bad = ~((y >= 0.0) & (y <= total_rated))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"p_ac_free {y[i]} outside [0, {total_rated[i]}]")
    if len(y) < len(FEATURE_NAMES):
        raise RankDeficientError(FEATURE_NAMES)
    x = build_features(t_out, solar, total_rated)

    scale = np.max(np.abs(x), axis=0)
    dead = scale == 0.0
    if np.any(dead):
        raise RankDeficientError([n for n, d in zip(FEATURE_NAMES, dead) if d])
    xs = x / scale

    u, sing, vt = np.linalg.svd(xs, full_matrices=False)
    tiny = sing <= RANK_TOLERANCE * sing[0]
    if np.any(tiny):
        involved = np.any(np.abs(vt[tiny]) > 0.3, axis=0)
        raise RankDeficientError([n for n, f in zip(FEATURE_NAMES, involved) if f])

    coefs = (vt.T @ ((u.T @ y) / sing)) / scale
    return BaselineModel(coefficients=tuple(float(c) for c in coefs))


def predict_baseline(model: BaselineModel, t_out: float, solar: float,
                     total_rated: float) -> float:
    """Predicted free aggregate power, clamped to the physical range."""
    raw = float(np.dot(model.coefficients, build_features(t_out, solar, total_rated)))
    return max(0.0, min(total_rated, raw))


@dataclass(frozen=True)
class CorrectionParams:
    """Shape of the feedback response (breakpoints in S, steps in percent)."""

    s1: float = 0.5
    s2: float = 0.8
    s3: float = 1.0
    dp1: float = 1.0   # percent of the uncorrected baseline
    dp2: float = 2.0
    dp3: float = 3.0
    gamma: float = 0.02  # per-cycle decay exponent of the carried correction

    def __post_init__(self):
        if not 0 < self.s1 < self.s2 < self.s3 <= 1:
            raise ValueError("breakpoints must satisfy 0 < s1 < s2 < s3 <= 1")
        if not 0 < self.dp1 <= self.dp2 <= self.dp3:
            raise ValueError("steps must satisfy 0 < dp1 <= dp2 <= dp3")
        if not self.gamma > 0:  # NaN fails too
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class CorrectionState:
    p_adj_prev: float = 0.0  # kW carried from the previous cycle

    def __post_init__(self):
        if not math.isfinite(self.p_adj_prev):
            raise ValueError("p_adj_prev must be finite")


def delta_p_adj(s: float, p: CorrectionParams) -> float:
    """Proportional response (percent) to the fleet temperature state.

    Zero inside the deadband (|s| < s1), then piecewise linear through
    (s1, dp1), (s2, dp2), (s3, dp3); odd-extended for negative s.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"s must be in [-1, 1], got {s}")
    mag = abs(s)
    if mag < p.s1:
        value = 0.0
    elif mag < p.s2:
        value = p.dp1 + (p.dp2 - p.dp1) / (p.s2 - p.s1) * (mag - p.s1)
    else:
        value = p.dp2 + (p.dp3 - p.dp2) / (p.s3 - p.s2) * (mag - p.s2)
    return math.copysign(value, s) if s != 0.0 else 0.0


def correct_baseline(p_base0: float, s: float, st: CorrectionState,
                     p: CorrectionParams) -> tuple[float, CorrectionState]:
    """One cycle of feedback correction on top of the raw estimate.

    The new correction is the proportional response applied to this
    cycle's raw estimate plus the decayed carry-over; with the fleet in
    its deadband the carried amount shrinks geometrically toward zero.
    """
    if p_base0 < 0:
        raise ValueError(f"p_base0 must be >= 0, got {p_base0}")
    p_adj = delta_p_adj(s, p) / 100.0 * p_base0 + st.p_adj_prev * math.exp(-p.gamma)
    return p_base0 + p_adj, CorrectionState(p_adj_prev=p_adj)
