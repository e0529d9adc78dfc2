"""Coplanar waveguide design formulas.

Quasi-static conformal-mapping model for a CPW with infinitely thick
substrate below and superstrate above, zero-thickness metal, and no
covers.  Good to a percent or two against a finite-stack field solve,
which is all the front-end design loop needs.  All lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, EPS_0, MU_0
from .numerics import RealInterval, elliptic_k

__all__ = [
    "CpwGeometry",
    "ResonatorSpec",
    "effective_permittivity",
    "modulus_k0",
    "characteristic_impedance",
    "solve_gap_for_impedance",
    "phase_velocity",
    "quarter_wave_frequency",
    "resonator_interval",
]


@dataclass(frozen=True)
class CpwGeometry:
    """Cross-section of a coplanar waveguide.

    trace_width and gap are the center strip width and the slot on each
    side.  eps_substrate fills the half-space below the metal plane,
    eps_superstrate the half-space above.
    """

    trace_width: float
    gap: float
    eps_substrate: float
    eps_superstrate: float = 1.0

    def __post_init__(self):
        if self.trace_width <= 0.0:
            raise ValueError("trace_width must be positive")
        if self.gap <= 0.0:
            raise ValueError("gap must be positive")
        for name in ("eps_substrate", "eps_superstrate"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ResonatorSpec:
    """Quarter-wave resonator: a shorted CPW section of known length.

    physical_length includes the pocket extension; dropping the
    extension gives the short-limit length used for the upper frequency
    bound.
    """

    physical_length: float
    pocket_extension: float
    eps_eff: float

    def __post_init__(self):
        if self.physical_length <= 0.0:
            raise ValueError("physical_length must be positive")
        if not 0.0 <= self.pocket_extension < self.physical_length:
            raise ValueError(
                "pocket_extension must be >= 0 and shorter than "
                "physical_length")
        if self.eps_eff < 1.0:
            raise ValueError("eps_eff must be >= 1")


def effective_permittivity(eps_substrate: float,
                           eps_superstrate: float = 1.0) -> float:
    """Half/half average seen by a CPW between two dielectric half-spaces."""
    for name, eps in (("eps_substrate", eps_substrate),
                      ("eps_superstrate", eps_superstrate)):
        if eps < 1.0:
            raise ValueError(f"{name} must be >= 1")
    return 0.5 * (eps_substrate + eps_superstrate)


def modulus_k0(trace_width: float, gap: float) -> float:
    """Conformal-mapping modulus k0 = w / (w + 2s)."""
    if trace_width <= 0.0:
        raise ValueError("trace_width must be positive")
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    return trace_width / (trace_width + 2.0 * gap)


def characteristic_impedance(trace_width: float, gap: float,
                             eps_eff: float) -> float:
    """CPW characteristic impedance (ohm) from the elliptic-integral ratio.

    Z0 = sqrt(mu0 / (16 eps0 eps_eff)) * K(k0') / K(k0) with
    k0 = w/(w+2s).  Monotone increasing in the gap for fixed width.
    """
    if eps_eff < 1.0:
        raise ValueError("eps_eff must be >= 1")
    k0 = modulus_k0(trace_width, gap)
    k0p = math.sqrt(1.0 - k0 * k0)
    scale = math.sqrt(MU_0 / (16.0 * EPS_0 * eps_eff))
    return scale * elliptic_k(k0p) / elliptic_k(k0)


def solve_gap_for_impedance(trace_width: float, eps_eff: float,
                            z_target: float) -> float:
    """Gap that realizes a target impedance at fixed trace width.

    Closed-form inverse of characteristic_impedance.  The target fixes
    tau = K(k0')/K(k0), and the Jacobi nome q = exp(-pi tau) gives
    k0 = theta2(q)^2 / theta3(q)^2 and k0' = theta4(q)^2 / theta3(q)^2
    (DLMF 22.2).  The series run at q = exp(-pi min(tau, 1/tau)) <= e^-pi,
    where five terms reach double precision; for tau < 1 that is the
    nome of the complementary modulus, so k0 and k0' swap.  The gap is
    w k0'^2 / (2 k0 (1 + k0)), which does not cancel as k0 -> 1.  Gaps
    from w/100 to 100 w are accepted; a target outside the impedances
    they reach raises ValueError naming that range.
    """
    if trace_width <= 0.0:
        raise ValueError("trace_width must be positive")
    if eps_eff < 1.0:
        raise ValueError("eps_eff must be >= 1")
    if not 0.0 < z_target < math.inf:
        raise ValueError("z_target must be positive and finite")
    scale = math.sqrt(MU_0 / (16.0 * EPS_0 * eps_eff))
    tau = z_target / scale
    q = math.exp(-math.pi * (tau if tau >= 1.0 else scale / z_target))
    theta2 = 2.0 * q ** 0.25 * (1.0 + q ** 2 + q ** 6 + q ** 12 + q ** 20)
    theta3 = 1.0 + 2.0 * (q + q ** 4 + q ** 9 + q ** 16 + q ** 25)
    theta4 = 1.0 + 2.0 * (-q + q ** 4 - q ** 9 + q ** 16 - q ** 25)
    k0 = (theta2 / theta3) ** 2
    k0p = (theta4 / theta3) ** 2
    if tau < 1.0:
        k0, k0p = k0p, k0
    lo, hi = 1e-2 * trace_width, 100.0 * trace_width
    # far above the range q underflows to 0, and k0 with it
    gap = trace_width * k0p * k0p / (2.0 * k0 * (1.0 + k0)) if k0 > 0.0 \
        else math.inf
    if lo <= gap <= hi:
        return gap
    z_lo = characteristic_impedance(trace_width, lo, eps_eff)
    z_hi = characteristic_impedance(trace_width, hi, eps_eff)
    if z_lo <= z_target <= z_hi:  # a range end, missed by rounding
        return min(max(gap, lo), hi)
    raise ValueError(
        f"target impedance {z_target:g} ohm is out of reach: gaps from "
        f"w/100 to 100 w give {z_lo:.6g} to {z_hi:.6g} ohm at "
        f"eps_eff {eps_eff:g}")


def phase_velocity(eps_eff: float) -> float:
    """Quasi-TEM phase velocity c / sqrt(eps_eff) in m/s."""
    if eps_eff < 1.0:
        raise ValueError("eps_eff must be >= 1")
    return C_LIGHT / math.sqrt(eps_eff)


def quarter_wave_frequency(resonator: ResonatorSpec,
                           use_extension: bool = True) -> float:
    """Fundamental of a quarter-wave resonator, f = v_p / (4 l_eff).

    With use_extension the full physical length counts (lower bound of
    the fundamental); without it the pocket extension is subtracted,
    giving the shorter line and the upper bound.
    """
    length = resonator.physical_length
    if not use_extension:
        length -= resonator.pocket_extension
    return phase_velocity(resonator.eps_eff) / (4.0 * length)


def resonator_interval(resonator: ResonatorSpec) -> RealInterval:
    """Bracketing interval for the fundamental from the two length limits."""
    return RealInterval(quarter_wave_frequency(resonator, use_extension=True),
                        quarter_wave_frequency(resonator, use_extension=False))
