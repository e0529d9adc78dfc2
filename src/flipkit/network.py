"""Scattering-domain models of the readout lines.

The side-coupled (notch) resonator line shape, half-power bandwidth
extraction, and two scattering studies used by the device pipeline:
worst-case in-band reflection of a lossless line versus port impedance,
and the interchip crosstalk dip from a bridging capacitance.

Conventions.  The notch S21 is the line shape on a matched feedline
and names no reference impedance; the reflection study forms its
S-parameters at the port impedance the caller passes (z_port), the
crosstalk study at its fixed 50 ohm ports.
Magnitudes in dB are 20 log10 |S|, floored at 1e-30.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .numerics import RealInterval
from .tables import SweepTable

__all__ = [
    "NotchResonator",
    "FrequencyResponse",
    "ExtractionError",
    "AmbiguousDipError",
    "notch_s21",
    "extract_q_fwhm",
    "worst_case_reflection",
    "crosstalk_dip",
    "frequency_grid",
]

# sweep density used when a caller gives only a band
DEFAULT_GRID_POINTS = 2001
MAX_GRID_POINTS = 100_001  # the most samples any grid or study takes
# fewest samples above half power that extract_q_fwhm takes; at 10 its
# linear interpolation puts Q within ~1.5% on any grid offset
MIN_SAMPLES_INSIDE = 10
# shallowest peak |1 - S21| it takes; rounding in 1 - S21 then moves the
# half-power level by ~1e-10 relative
MIN_DIP_DEPTH = 1e-6

_DB_FLOOR = 1e-30


class ExtractionError(RuntimeError):
    """Resonance feature absent or too shallow to measure."""


class AmbiguousDipError(ExtractionError):
    """More than one dip crosses the half-power threshold."""


@dataclass(frozen=True)
class NotchResonator:
    """Side-coupled resonator seen in transmission on a feedline.

    f_r is the bare resonance, q_loaded and q_coupling the loaded and
    coupling quality factors (1/Ql >= 1/Qc), chi the dispersive pull of
    a qubit in Hz per excitation step.
    """

    f_r: float
    q_loaded: float
    q_coupling: float
    chi: float = 0.0

    def __post_init__(self):
        for name in ("f_r", "q_loaded", "q_coupling"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.q_loaded > self.q_coupling * (1.0 + 1e-12):
            raise ValueError("q_loaded cannot exceed q_coupling")

    def dressed_frequency(self, qubit_state: int = 0) -> float:
        """Resonator frequency pulled by the qubit state (0 or 1)."""
        return self.f_r + self.chi * (1.0 - 2.0 * qubit_state)


def _db(s) -> np.ndarray:
    """20 log10 |s|, with |s| floored so that a zero stays finite."""
    return 20.0 * np.log10(np.maximum(np.abs(s), _DB_FLOOR))


@dataclass
class FrequencyResponse:
    """An S21 trace sampled on an ascending frequency grid."""

    frequencies: np.ndarray
    s21: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        if self.frequencies.ndim != 1 or self.frequencies.size < 1:
            raise ValueError("frequency grid must be a 1-d array")
        if np.any(np.diff(self.frequencies) <= 0.0):
            raise ValueError("frequency grid must be strictly ascending")
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.s21.shape != self.frequencies.shape:
            raise ValueError("s21 length does not match grid")

    def magnitude_db(self) -> np.ndarray:
        return _db(self.s21)

    def to_csv(self) -> str:
        return SweepTable("freq_hz", self.frequencies.tolist(), {
            "s21_re": self.s21.real.tolist(),
            "s21_im": self.s21.imag.tolist()}).to_csv()


def frequency_grid(band: RealInterval,
                   points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    if points < 2:
        raise ValueError("points must be >= 2")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"points must be <= {MAX_GRID_POINTS}")
    return np.linspace(band.lo, band.hi, points)


def notch_s21(resonator: NotchResonator, frequencies,
              qubit_state: int = 0) -> FrequencyResponse:
    """Transmission past a side-coupled resonator.

    S21(f) = 1 - (Ql/Qc) / (1 + 2j Ql (f - fd)/fd) with fd the dressed
    resonance.  Far from resonance |S21| -> 1; at f = fd the dip depth
    is 1 - Ql/Qc.
    """
    if qubit_state not in (0, 1):
        raise ValueError("qubit_state must be 0 or 1")
    f = np.asarray(frequencies, dtype=float)
    fd = resonator.dressed_frequency(qubit_state)
    depth = resonator.q_loaded / resonator.q_coupling
    s21 = 1.0 - depth / (1.0 + 2j * resonator.q_loaded * (f - fd) / fd)
    return FrequencyResponse(frequencies=f, s21=s21)


def extract_q_fwhm(response: FrequencyResponse) -> tuple[float, float, float]:
    """(f_r, Q, bandwidth) from the half-power full width of a dip.

    What the notch takes from the line, 1 - S21, has the power
    |1 - S21|^2 of a Lorentzian whose full width at half maximum is
    f_r / Ql at any dip depth (Probst et al., Rev. Sci. Instrum. 86,
    024706 (2015)).  The resonance is the sample of largest |1 - S21|;
    the bandwidth comes from linear interpolation of the two crossings
    of half its power on either side, and Q = f_r / bandwidth.  A peak
    |1 - S21| below MIN_DIP_DEPTH, a dip cut off by the grid edge or
    fewer than MIN_SAMPLES_INSIDE samples above half power raise
    ExtractionError; more than one separate run of samples above half
    power raises AmbiguousDipError.
    """
    f = response.frequencies
    power = np.abs(1.0 - response.s21) ** 2
    i_peak = int(np.argmax(power))
    depth = math.sqrt(power[i_peak])
    if not depth >= MIN_DIP_DEPTH:
        raise ExtractionError(f"dip too shallow to measure: |1 - S21| peaks "
                              f"at {depth:.3g}, below {MIN_DIP_DEPTH:g}")
    half = 0.5 * power[i_peak]
    inside = np.flatnonzero(power > half)
    runs = 1 + int(np.count_nonzero(np.diff(inside) > 1))
    if runs > 1:
        raise AmbiguousDipError(f"{runs} separate dips cross half power")
    lo, hi = int(inside[0]), int(inside[-1])
    if lo == 0 or hi == len(f) - 1:
        raise ExtractionError("dip is cut off by the grid edge")
    if inside.size < MIN_SAMPLES_INSIDE:
        raise ExtractionError(
            f"{inside.size} of {len(f)} samples lie inside the half-power "
            f"width, fewer than {MIN_SAMPLES_INSIDE}: sample the dip more "
            "finely (raise --points or narrow --span)")

    def crossing(j: int, k: int) -> float:
        # linear interpolation between outside sample j and inside k
        frac = (half - power[j]) / (power[k] - power[j])
        return float(f[j] + frac * (f[k] - f[j]))

    f_r = float(f[i_peak])
    bandwidth = crossing(hi + 1, hi) - crossing(lo - 1, lo)
    return f_r, f_r / bandwidth, bandwidth


def worst_case_reflection(line_z0: float, z_port: float,
                          band: RealInterval, line_length: float,
                          eps_eff: float,
                          points: int = DEFAULT_GRID_POINTS) -> float:
    """Max in-band |S11| in dB of a lossless line between z_port ports.

    The band is sampled on a uniform grid.  With a = z0/z_port -
    z_port/z0 and s = sin(beta l), the line's ABCD matrix gives
    |S11|^2 = s^2 a^2 / (4 + s^2 a^2), since (z0/z_port + z_port/z0)^2
    = a^2 + 4 and cos^2 + sin^2 = 1.  That rises with s^2, so the worst
    sample is the one with the largest sin^2(beta l).  That depends on
    the grid, length and eps_eff but on neither impedance, so it is
    found once and shared by every port of a study.  At z_port
    equal to the line impedance a = 0 and the result is the -600 dB
    floor.
    """
    if not (0.0 < line_z0 < math.inf and 0.0 < z_port < math.inf):
        name = "z_port" if 0.0 < line_z0 < math.inf else "line_z0"
        raise ValueError(f"{name} must be positive and finite")
    if line_length <= 0.0:
        raise ValueError("line_length must be positive")
    if not eps_eff >= 1.0:
        raise ValueError("eps_eff must be >= 1")
    a2 = (line_z0 / z_port - z_port / line_z0) ** 2
    m = _max_sin2(band.lo, band.hi, points, line_length, eps_eff)
    s11 = math.sqrt(m * a2 / (4.0 + m * a2))
    return 20.0 * math.log10(max(s11, _DB_FLOOR))


@functools.lru_cache(maxsize=64)
def _max_sin2(lo: float, hi: float, points: int, line_length: float,
              eps_eff: float) -> float:
    # largest sin^2(beta l) on the grid; floats key it, as they hash in C
    f = frequency_grid(RealInterval(lo, hi), points)
    beta_l = 2.0 * math.pi * f * math.sqrt(eps_eff) * line_length / C_LIGHT
    return float(np.max(np.sin(beta_l) ** 2))


def _shunt_admittance(res: NotchResonator, f: np.ndarray,
                      z0: float) -> np.ndarray:
    # shunt element that reproduces notch_s21 exactly on a matched line
    fd = res.dressed_frequency()
    q = res.q_loaded / res.q_coupling
    x = 2.0 * res.q_loaded * (f - fd) / fd
    den = (1.0 - q) + 1j * x
    # a lossless notch sampled exactly on resonance is a short; floor the
    # denominator so the nodal solve sees a large finite admittance
    small = np.abs(den) < 1e-9
    if np.any(small):
        den = np.where(small, 1e-9 + 0j, den)
    return (2.0 / z0) * q / den


def crosstalk_dip(bridge_capacitances, near: NotchResonator,
                  far: NotchResonator, band: RealInterval) -> list[float]:
    """Far-side transmission dips (dB, >= 0), one per bridge capacitance.

    Lumped model of the two feedlines: each is split at its midpoint
    where its notch resonator loads it, and a bridge capacitance ties
    the two midpoints together.  A dip is the depth of the notch that
    the near line's resonance carves into the far line's transmission,
    max over the band, sampled at DEFAULT_GRID_POINTS (2001) frequencies.
    Zero bridge gives exactly zero.  Both feedlines are fixed: 2 mm long
    at eps_eff 6.45 between 50 ohm ports.

    A sweep passes all its bridges at once: the grid and the line and
    notch admittances are formed once, and each bridge redoes only the
    nodal solve.  It keeps the dense 6x6 solve's arithmetic and LAPACK
    matrices, so the dips are bit-identical to it; a reordered solve
    moves them by up to 5e-9 relative, past the stored sweep's 1e-9.
    """
    bridges = list(bridge_capacitances)
    if any(c < 0.0 for c in bridges):
        raise ValueError("bridge capacitance must be >= 0")
    if not any(bridges):
        return [0.0] * len(bridges)

    z0, line_length, eps_eff = 50.0, 2e-3, 6.45  # the fixed lines
    f = frequency_grid(band)
    w = 2.0 * math.pi * f
    beta_l = w * math.sqrt(eps_eff) * (0.5 * line_length) / C_LIGHT
    sin_bl = np.sin(beta_l)
    if np.any(np.abs(sin_bl) < 1e-12):
        raise ZeroDivisionError("half-line is a multiple of a half wave")
    cos_bl = np.cos(beta_l)

    # nodal admittance entries of one half-line (lossless, unimodular)
    y_self = cos_bl / (1j * z0 * sin_bl)
    y_mut = -1.0 / (1j * z0 * sin_bl)

    # nodes p1, p2, p3, p4, m_near, m_far; p1, p2 join m_near and p3, p4
    # m_far.  Sums start at 0.0, as the zeroed 6x6 matrix did.
    y_port = 0.0 + y_self
    y_mid = [y_port + y_self + _shunt_admittance(notch, f, z0)
             for notch in (near, far)]
    yip = np.zeros((f.size, 2, 2), dtype=complex)  # distinct Y_ip columns
    yip[:, 0, 0] = yip[:, 1, 1] = 0.0 + y_mut
    yii, yred = np.empty_like(yip), np.empty((f.size, 4, 4), dtype=complex)
    eye = np.eye(4)

    def dip(bridge: float) -> float:
        y_bridge = 1j * w * bridge
        yii[:, 0, 0] = y_mid[0] + y_bridge
        yii[:, 1, 1] = y_mid[1] + y_bridge
        yii[:, 0, 1] = yii[:, 1, 0] = 0.0 - y_bridge
        # Y_red = Y_pp - Y_pi Y_ii^-1 Y_ip; row i of Y_pi is y_mut at i // 2
        p = y_mut * np.linalg.solve(yii, yip).transpose(1, 2, 0)
        for i, j in np.ndindex(4, 4):
            yred[:, i, j] = (y_port if i == j else 0.0) - p[i // 2, j // 2]
        # S = (I + z0 Y_red)^-1 (I - z0 Y_red) on ports 1-4; read S43
        zy = z0 * yred
        s = np.linalg.solve(eye + zy, (eye[2] - zy[:, :, 2])[:, :, None])
        db = _db(s[:, 3, 0])
        return max(float(db[0]) - float(db.min()), 0.0)

    return [0.0 if bridge == 0.0 else dip(bridge) for bridge in bridges]
