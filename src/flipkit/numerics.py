"""Small scalar kernels: an interval type, the AGM, elliptic K, and the
finiteness check the physics modules run on their arguments.

These serve impedance design (complete elliptic integrals through the
arithmetic-geometric mean).  Gap synthesis is no root search: cpw
inverts K'/K in closed form through the Jacobi nome (DLMF 22.2), and
its tests keep bisection as the oracle.  Matrix work lives with its
callers: the charge-basis spectrum runs on numpy's LAPACK eigensolver,
and the two-mode hybridization is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "RealInterval",
    "agm",
    "elliptic_k",
]

_AGM_TOL = 1e-15  # relative stopping gap of the AGM iteration


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first of values that is nan or +-inf;
    sign checks such as x <= 0.0 are false for nan and miss inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] with lo < hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    Iterates (a, b) <- ((a+b)/2, sqrt(ab)) until |a-b| <= _AGM_TOL*a.
    Convergence is quadratic, so the loop runs a handful of times.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm requires strictly positive arguments")
    a = float(a)
    b = float(b)
    while abs(a - b) > _AGM_TOL * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta),
    evaluated through the AGM identity K(k) = pi / (2 agm(1, k'))
    with k' = sqrt(1 - k^2).  Valid for 0 <= k < 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
    kp = math.sqrt(1.0 - k * k)
    return math.pi / (2.0 * agm(1.0, kp))
