"""Transmon energy scales and spectra.

Two routes to the qubit frequency: the closed-form asymptotic
expression f01 = (sqrt(8 Ec Ej) - Ec) / h, and a charge-basis
Cooper-pair-box diagonalization that serves as the oracle for it.
Energies are joules unless a name says otherwise; frequencies are Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, PHI_0, PLANCK_H
from .numerics import _require_finite

__all__ = [
    "DEFAULT_CUTOFF",
    "TransmonParams",
    "CutoffError",
    "charging_energy",
    "josephson_energy",
    "squid_josephson_energy",
    "qubit_energies",
    "transmon_frequency",
    "anharmonicity",
    "ej_ec_ratio",
    "cpb_spectrum",
    "cpb_frequency",
    "cpb_anharmonicity",
    "qubit_numbers",
]

# eigenvector weight allowed on the outermost charge states before the
# basis is declared too small
_BOUNDARY_WEIGHT_LIMIT = 1e-8

DEFAULT_CUTOFF = 30
MAX_CUTOFF = 500  # the Hamiltonian is a dense (2 cutoff + 1)^2 matrix


class CutoffError(RuntimeError):
    """Charge-basis cutoff too small for the requested level."""


@dataclass(frozen=True)
class TransmonParams:
    """Lumped transmon: junction + shunt capacitance, junction inductance.

    c_eff, when set, replaces c_junction + c_shunt as the total charging
    capacitance; it exists so a calibrated effective capacitance can be
    carried next to the literal layout values.
    """

    c_junction: float
    c_shunt: float
    l_junction: float
    c_eff: float | None = None

    def __post_init__(self):
        for name in ("c_junction", "c_shunt"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.c_junction + self.c_shunt <= 0.0:
            raise ValueError("c_junction + c_shunt must be positive")
        if self.l_junction <= 0.0:
            raise ValueError("l_junction must be positive")
        if self.c_eff is not None and self.c_eff <= 0.0:
            raise ValueError("c_eff must be positive when given")

    @property
    def c_total(self) -> float:
        return self.c_junction + self.c_shunt


def charging_energy(c_total: float) -> float:
    """Single-electron charging energy Ec = e^2 / (2 C) in joules."""
    _require_finite(c_total=c_total)
    if c_total <= 0.0:
        raise ValueError("capacitance must be positive")
    return E_CHARGE * E_CHARGE / (2.0 * c_total)


def josephson_energy(l_junction: float) -> float:
    """Josephson energy Ej = (Phi0 / 2 pi)^2 / Lj in joules."""
    _require_finite(l_junction=l_junction)
    if l_junction <= 0.0:
        raise ValueError("inductance must be positive")
    phi = PHI_0 / (2.0 * math.pi)
    return phi * phi / l_junction


def squid_josephson_energy(ej_max: float, flux: float) -> float:
    """Symmetric-SQUID Ej(Phi) = Ej_max |cos(pi Phi / Phi0)|.

    flux is the external flux in units of Phi0.
    """
    _require_finite(ej_max=ej_max, flux=flux)
    if ej_max <= 0.0:
        raise ValueError("ej_max must be positive")
    return ej_max * abs(math.cos(math.pi * flux))


def qubit_energies(pars: TransmonParams, flux: float) -> tuple[float, float]:
    """(Ec, Ej) in joules: Ec at c_total, Ej at the flux bias in Phi0."""
    ej = squid_josephson_energy(josephson_energy(pars.l_junction), flux)
    return charging_energy(pars.c_total), ej


def transmon_frequency(ec: float, ej: float) -> float:
    """Asymptotic qubit frequency (sqrt(8 Ec Ej) - Ec) / h in Hz.

    Accurate for Ej/Ec >> 1, checked by the charge-basis spectrum below;
    raises ValueError at Ej/Ec <= 1/8, where it is not positive.
    """
    _require_finite(Ec=ec, Ej=ej)
    if ec <= 0.0 or ej <= 0.0:
        raise ValueError("energies must be positive")
    f = (math.sqrt(8.0 * ec * ej) - ec) / PLANCK_H
    if f <= 0.0:
        raise ValueError(
            f"Ej/Ec = {ej / ec:.4g} is not above 1/8, so the closed-form "
            f"qubit frequency {f:.6g} Hz is not positive; move the flux "
            "bias off half a flux quantum or lower the junction inductance")
    return f


def anharmonicity(ec: float) -> float:
    """Leading-order anharmonicity -Ec / h in Hz (negative)."""
    _require_finite(Ec=ec)
    if ec <= 0.0:
        raise ValueError("Ec must be positive")
    return -ec / PLANCK_H


def ej_ec_ratio(ec: float, ej: float) -> float:
    """Ej / Ec; the transmon regime starts around 20 and up."""
    _require_finite(Ec=ec, Ej=ej)
    if ec <= 0.0 or ej <= 0.0:
        raise ValueError("energies must be positive")
    return ej / ec


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _cpb_levels(ec: float, ej: float, ng: float, cutoff: int,
                n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_levels lowest eigenvalues in units of Ec, ascending, and each
    one's eigenvector weight on the charge states n = +-cutoff."""
    if ng != 0.0:
        n = np.arange(-cutoff, cutoff + 1, dtype=float)
        w, vecs = np.linalg.eigh(_tridiagonal(
            4.0 * (n - ng) ** 2, np.full(2 * cutoff, -0.5 * ej / ec)))
        edge = np.abs(vecs[0, :n_levels]) ** 2 + np.abs(vecs[-1, :n_levels]) ** 2
        return w[:n_levels], edge
    # parity blocks on (|n> -+ |-n>)/sqrt(2), n >= 1; the even one adds
    # |0>, whose coupling to the first even state is -sqrt(2) Ej/2
    diag = 4.0 * np.arange(cutoff + 1, dtype=float) ** 2
    off = np.full(cutoff, -0.5 * ej / ec)
    w_odd, v_odd = np.linalg.eigh(_tridiagonal(diag[1:], off[1:]))
    off[0] *= math.sqrt(2.0)
    w_even, v_even = np.linalg.eigh(_tridiagonal(diag, off))
    w = np.concatenate([w_even, w_odd])
    edge = np.concatenate([v_even[-1], v_odd[-1]]) ** 2  # 2 (u/sqrt(2))^2
    order = np.argsort(w, kind="stable")[:n_levels]
    return w[order], edge[order]


def cpb_spectrum(ec: float, ej: float, ng: float = 0.0,
                 cutoff: int = DEFAULT_CUTOFF,
                 n_levels: int = 4) -> np.ndarray:
    """Lowest eigenenergies of the Cooper-pair box, charge basis.

    The Hamiltonian is diagonal 4 Ec (n - ng)^2 with -Ej/2 on the first
    off-diagonals, truncated at |n| <= cutoff.  The returned levels are
    the n_levels lowest eigenvalues in ascending order, in joules, with
    the Hamiltonian's own zero (not shifted to the ground state, so
    E0 < 0 whenever Ej > 0); transitions are their differences.
    At ng = 0 the Hamiltonian is symmetric under n -> -n, so its even
    (cutoff + 1) and odd (cutoff) parity blocks are diagonalized apart
    and their eigenvalues merged; the levels are still raw eigenvalues.
    Raises CutoffError when any requested eigenvector keeps more than
    1e-8 of its weight on the outermost charge states, which means the
    truncation touched the result.
    """
    _require_finite(Ec=ec, Ej=ej, ng=ng)
    if ec <= 0.0 or ej < 0.0:
        raise ValueError("Ec must be positive and Ej >= 0")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff must be <= {MAX_CUTOFF}")
    dim = 2 * cutoff + 1
    if not 1 <= n_levels <= dim:
        raise ValueError("n_levels out of range for this cutoff")

    w, boundary = _cpb_levels(ec, ej, ng, cutoff, n_levels)
    worst = float(boundary.max())
    if worst > _BOUNDARY_WEIGHT_LIMIT:
        raise CutoffError(
            f"cutoff {cutoff} too small: boundary weight {worst:.3e} "
            f"exceeds {_BOUNDARY_WEIGHT_LIMIT:.0e}")
    return w * ec


def cpb_frequency(ec: float, ej: float, ng: float = 0.0,
                  cutoff: int = DEFAULT_CUTOFF) -> float:
    """Qubit transition (E1 - E0) / h from the charge-basis spectrum."""
    levels = cpb_spectrum(ec, ej, ng=ng, cutoff=cutoff, n_levels=2)
    return float(levels[1] - levels[0]) / PLANCK_H


def cpb_anharmonicity(ec: float, ej: float, ng: float = 0.0,
                      cutoff: int = DEFAULT_CUTOFF) -> float:
    """Anharmonicity (E12 - E01) / h from the charge-basis spectrum."""
    levels = cpb_spectrum(ec, ej, ng=ng, cutoff=cutoff, n_levels=3)
    f01 = float(levels[1] - levels[0])
    f12 = float(levels[2] - levels[1])
    return (f12 - f01) / PLANCK_H


def qubit_numbers(pars: TransmonParams, flux: float = 0.0, ng: float = 0.0,
                  cutoff: int = DEFAULT_CUTOFF) -> dict[str, float | None]:
    """A qubit's energies and both routes to its frequencies.

    Keys: "ec" and "ej" (joules, Ej at the flux bias in units of Phi0);
    the closed-form "frequency" and "anharmonicity"; their charge-basis
    "frequency_cpb" and "anharmonicity_cpb", both from one three-level
    spectrum; and "frequency_c_eff", the closed form at c_eff (None when
    c_eff is not set).  Frequencies are Hz.
    """
    ec, ej = qubit_energies(pars, flux)
    e0, e1, e2 = (float(e) for e in
                  cpb_spectrum(ec, ej, ng=ng, cutoff=cutoff, n_levels=3))
    return {
        "ec": ec,
        "ej": ej,
        "frequency": transmon_frequency(ec, ej),
        "frequency_cpb": (e1 - e0) / PLANCK_H,
        "anharmonicity": anharmonicity(ec),
        "anharmonicity_cpb": ((e2 - e1) - (e1 - e0)) / PLANCK_H,
        "frequency_c_eff": None if pars.c_eff is None else transmon_frequency(
            charging_energy(pars.c_eff), ej),
    }
