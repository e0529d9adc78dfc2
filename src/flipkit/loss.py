"""Dielectric loss budgets and relaxation-time ceilings.

A mode with quality factor Q at frequency f cannot live longer than
T1 = Q / (2 pi f); dielectric participation converts material loss
tangents into both a capacitive decay rate and a degraded total Q.
The decay rate is linear in the loss tangents; acceptance criterion 10
checks that on this module's own rate, loss_figures' gamma_cap_per_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numerics import _require_finite

__all__ = [
    "LossBudget",
    "t1_upper_bound",
    "dielectric_decay_rate",
    "q_with_dielectric",
    "loss_figures",
]


@dataclass(frozen=True)
class LossBudget:
    """Participation-weighted dielectric loss around one mode.

    regions maps region name -> (participation, loss tangent); the
    participations must each lie in [0, 1] and sum to at most 1.
    baseline_q is the quality factor with every loss tangent set to zero.
    """

    mode_frequency: float
    baseline_q: float
    regions: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        _require_finite(mode_frequency=self.mode_frequency,
                        baseline_q=self.baseline_q)
        if self.mode_frequency <= 0.0:
            raise ValueError("mode frequency must be positive")
        if self.baseline_q <= 0.0:
            raise ValueError("baseline Q must be positive")
        total_p = 0.0
        for name, (p, tan_d) in self.regions.items():
            _require_finite(**{f"loss tangent of {name!r}": tan_d})
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"participation of {name!r} outside [0, 1]")
            if tan_d < 0.0:
                raise ValueError(f"loss tangent of {name!r} must be >= 0")
            total_p += p
        if total_p > 1.0 + 1e-9:
            raise ValueError("participations sum past 1")

    def weighted_loss(self) -> float:
        """sum_i p_i tan(delta_i)."""
        return sum(p * tan_d for p, tan_d in self.regions.values())


def t1_upper_bound(q: float, frequency: float) -> float:
    """Ceiling T1 = Q / (2 pi f) in seconds."""
    _require_finite(q=q, frequency=frequency)
    if q <= 0.0 or frequency <= 0.0:
        raise ValueError("Q and frequency must be positive")
    return q / (2.0 * math.pi * frequency)


def dielectric_decay_rate(budget: LossBudget) -> float:
    """Capacitive decay rate omega * sum_i p_i tan(delta_i), 1/s."""
    return loss_figures(budget)["gamma_cap_per_s"]


def q_with_dielectric(budget: LossBudget) -> float:
    """Total Q from 1/Q = 1/Q_baseline + sum_i p_i tan(delta_i)."""
    return loss_figures(budget)["q_total"]


def loss_figures(budget: LossBudget,
                 tan_delta: float | None = None) -> dict[str, float]:
    """The budget's q_total (1/Q = 1/Q_baseline + sum_i p_i tan(delta_i)),
    its T1 ceiling t1_upper_s and gamma_cap_per_s (omega sum_i p_i
    tan(delta_i)), with tan_delta, if given, in every region."""
    if tan_delta is not None:
        if not tan_delta >= 0.0:
            raise ValueError("loss tangent must be >= 0")
        _require_finite(tan_delta=tan_delta)
    w = sum(p * (tan_d if tan_delta is None else tan_delta)
            for p, tan_d in budget.regions.values())
    q_total = 1.0 / (1.0 / budget.baseline_q + w)
    return {"q_total": q_total,
            "t1_upper_s": t1_upper_bound(q_total, budget.mode_frequency),
            "gamma_cap_per_s": 2.0 * math.pi * budget.mode_frequency * w}
