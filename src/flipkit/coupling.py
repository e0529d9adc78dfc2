"""Capacitive qubit-qubit coupling across the interchip gap.

The facing pads form a parallel-plate capacitance C_g; the two qubits
couple through it with a dimensionless ratio r built from C_g and the
qubit shunt capacitances, and the exchange strength follows as
g = r sqrt(f1 f2).  All capacitances in farads, frequencies in Hz.
"""

from __future__ import annotations

import math

from .constants import EPS_0
from .numerics import _require_finite

__all__ = [
    "parallel_plate_cg",
    "capacitance_ratio",
    "coupling_strength",
    "hybridized_modes",
    "dispersive_shift",
]


def parallel_plate_cg(area: float, distance: float,
                      eps_r: float = 1.0) -> float:
    """Plate capacitance eps0 eps_r A / d, no fringing."""
    _require_finite(area=area, distance=distance, eps_r=eps_r)
    if area <= 0.0:
        raise ValueError("area must be positive")
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    if eps_r < 1.0:
        raise ValueError("eps_r must be >= 1")
    return EPS_0 * eps_r * area / distance


def capacitance_ratio(cg: float, c1: float, c2: float) -> float:
    """r = (Cg/2) / sqrt((Cg + C1)(Cg + C2)), always in (0, 1/2]."""
    _require_finite(cg=cg, c1=c1, c2=c2)
    if cg <= 0.0:
        raise ValueError("coupling capacitance must be positive")
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("qubit capacitances must be >= 0")
    return 0.5 * cg / math.sqrt((cg + c1) * (cg + c2))


def coupling_strength(r: float, f1: float, f2: float) -> float:
    """Exchange coupling g = r sqrt(f1 f2) in Hz (g/2pi convention)."""
    _require_finite(r=r, f1=f1, f2=f2)
    if not 0.0 < r <= 0.5:
        raise ValueError("ratio must lie in (0, 1/2]")
    if f1 <= 0.0 or f2 <= 0.0:
        raise ValueError("frequencies must be positive")
    return r * math.sqrt(f1 * f2)


def hybridized_modes(f1: float, f2: float, g: float) -> tuple[float, float]:
    """Eigenfrequencies of the coupled pair, ascending.

    The eigenvalues of the two-mode matrix [[f1, g], [g, f2]] are
    mean(f) -/+ sqrt((delta/2)^2 + g^2).  The splitting at zero
    detuning is exactly 2 g, and the shift of the detuned modes
    approaches g^2/delta.
    """
    _require_finite(f1=f1, f2=f2, g=g)
    if f1 <= 0.0 or f2 <= 0.0:
        raise ValueError("frequencies must be positive")
    if g < 0.0:
        raise ValueError("coupling must be >= 0")
    mean = 0.5 * (f1 + f2)
    split = math.hypot(0.5 * (f2 - f1), g)
    return mean - split, mean + split


def dispersive_shift(g: float, detuning: float, anharm: float) -> float:
    """Qubit-state pull of a readout mode: chi = g^2 alpha / (d (d + alpha)).

    detuning d = f_qubit - f_resonator, anharm alpha < 0, all Hz.
    Undefined at d = 0 and d = -alpha (straddling the resonance).
    """
    _require_finite(g=g, detuning=detuning, anharm=anharm)
    if g < 0.0:
        raise ValueError("coupling must be >= 0")
    if anharm >= 0.0:
        raise ValueError("anharmonicity must be negative")
    if detuning == 0.0 or detuning + anharm == 0.0:
        raise ValueError("dispersive limit breaks at zero denominator")
    return g * g * anharm / (detuning * (detuning + anharm))

