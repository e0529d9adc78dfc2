"""Notch line shape, the half-power extraction, and the line studies."""

import math

import numpy as np
import pytest

from flipkit import device, network
from flipkit.constants import C_LIGHT
from flipkit.network import (AmbiguousDipError, ExtractionError,
                             FrequencyResponse, NotchResonator, crosstalk_dip,
                             extract_q_fwhm, frequency_grid, notch_s21,
                             worst_case_reflection)
from flipkit.numerics import RealInterval

EPS_EFF = 6.45

# readout operating point: resonance and loaded Q of the first feedline
FR_BOTTOM = 7.11524e9
QL_BOTTOM = 6618.16


def grid_around(f_r, q_loaded, linewidths=10.0, points=2001):
    half = linewidths * f_r / q_loaded
    return np.linspace(f_r - half, f_r + half, points)


# -------------------------------------------------------------- notch

def test_notch_depth_at_resonance():
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=2000.0)
    resp = notch_s21(res, [FR_BOTTOM])
    # Qc = 2 Ql -> |S21| = 1 - 1/2
    assert abs(resp.s21[0]) == pytest.approx(0.5, abs=1e-12)
    assert resp.magnitude_db()[0] == pytest.approx(-6.02, abs=0.01)


def test_notch_off_resonance_recovers():
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=2000.0)
    resp = notch_s21(res, [FR_BOTTOM * 1.2])
    assert abs(resp.s21[0]) == pytest.approx(1.0, abs=1e-3)


def test_notch_state_shift_is_two_chi():
    chi = -0.181e6
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=5000.0, q_coupling=5000.0,
                         chi=chi)
    f = grid_around(FR_BOTTOM, 5000.0, points=40001)
    f0 = extract_q_fwhm(notch_s21(res, f, qubit_state=0))[0]
    f1 = extract_q_fwhm(notch_s21(res, f, qubit_state=1))[0]
    # ground state sits at f_r + chi, excited at f_r - chi
    assert f0 - f1 == pytest.approx(2.0 * chi, rel=2e-3)


def test_notch_validation():
    with pytest.raises(ValueError):
        NotchResonator(f_r=FR_BOTTOM, q_loaded=2000.0, q_coupling=1000.0)
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=2000.0)
    with pytest.raises(ValueError):
        notch_s21(res, [FR_BOTTOM], qubit_state=2)


def test_frequency_grid_caps_the_points():
    band = RealInterval(4e9, 8e9)
    assert len(network.frequency_grid(band, network.MAX_GRID_POINTS)) == \
        network.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="^points must be <= 100001$"):
        network.frequency_grid(band, network.MAX_GRID_POINTS + 1)


# --------------------------------------------------------- extraction

@pytest.mark.parametrize("q_loaded", [5.48e3, 6.62e3, 7.5e5])
def test_extraction_round_trip(q_loaded):
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=q_loaded,
                         q_coupling=q_loaded)
    f_r, q, bw = extract_q_fwhm(notch_s21(res, grid_around(FR_BOTTOM,
                                                           q_loaded)))
    assert f_r == pytest.approx(FR_BOTTOM, rel=1e-4)
    assert q == pytest.approx(q_loaded, rel=5e-3)
    assert bw == pytest.approx(f_r / q, rel=1e-12)


def test_extraction_table_consistency():
    # bandwidth implied by the printed (f_r, Q) pair, 4 significant digits
    assert FR_BOTTOM / QL_BOTTOM / 1e6 == pytest.approx(1.0751, abs=1e-4)
    # the half-power crossings fall on samples of this grid, so the
    # measured width is f_r/Q with no interpolation bias
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=QL_BOTTOM,
                         q_coupling=QL_BOTTOM)
    _, _, bw = extract_q_fwhm(notch_s21(res, grid_around(FR_BOTTOM,
                                                         QL_BOTTOM)))
    assert bw == pytest.approx(FR_BOTTOM / QL_BOTTOM, rel=1e-9)


@pytest.mark.parametrize("ratio", [1.0, 2.0, 100.0])
@pytest.mark.parametrize("points", [201, 2001])
def test_extraction_recovers_loaded_q_at_any_depth(ratio, points):
    # the -3 dB width of |S21| is f_r/Ql only at Qc = Ql; the half-power
    # width of |1 - S21|^2 is f_r/Ql at every Qc/Ql
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=QL_BOTTOM,
                         q_coupling=ratio * QL_BOTTOM)
    f = grid_around(FR_BOTTOM, QL_BOTTOM, points=points)
    f_r, q, bw = extract_q_fwhm(notch_s21(res, f))
    assert f_r == FR_BOTTOM
    assert q == pytest.approx(QL_BOTTOM, rel=1e-9)
    assert bw == pytest.approx(FR_BOTTOM / QL_BOTTOM, rel=1e-9)


@pytest.mark.parametrize("offset", [0.0, 0.17, 0.5])
def test_extraction_on_the_sample_floor(offset):
    # one grid step is a tenth of the linewidth: 10 or 11 samples lie
    # inside, and the interpolated Q is within 2% wherever they fall
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=2000.0)
    step = 0.1 * FR_BOTTOM / 1000.0
    f = FR_BOTTOM + step * (np.arange(-40, 41) + offset)
    _, q, _ = extract_q_fwhm(notch_s21(res, f))
    assert q == pytest.approx(1000.0, rel=2e-2)


def test_extraction_refuses_a_coarse_grid():
    # 9 samples inside the half-power width, one below the floor
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=2000.0)
    step = 0.11 * FR_BOTTOM / 1000.0
    f = FR_BOTTOM + step * np.arange(-40, 41)
    with pytest.raises(ExtractionError, match="^9 of 81 samples lie inside "
                       "the half-power width, fewer than 10: "):
        extract_q_fwhm(notch_s21(res, f))


def test_extraction_flat_response_fails():
    f = np.linspace(4e9, 5e9, 101)
    flat = FrequencyResponse(frequencies=f,
                             s21=np.ones_like(f, dtype=complex))
    with pytest.raises(ExtractionError):
        extract_q_fwhm(flat)


def test_extraction_shallow_dip_recovers_q():
    # a 0.9 dB dip never reaches -3 dB, yet its half-power width is f_r/Ql
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=10000.0)
    _, q, _ = extract_q_fwhm(notch_s21(res, grid_around(FR_BOTTOM, 1000.0)))
    assert q == pytest.approx(1000.0, rel=1e-9)


def test_extraction_refuses_a_dip_lost_in_rounding():
    # at Qc/Ql = 1e12 the dip is 1e-12 deep, and rounding in 1 - S21 is
    # ~1e-4 of it
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=1e15)
    with pytest.raises(ExtractionError, match="^dip too shallow to measure: "
                       r"\|1 - S21\| peaks at 1e-12, below 1e-06$"):
        extract_q_fwhm(notch_s21(res, grid_around(FR_BOTTOM, 1000.0)))


def test_extraction_two_dips_ambiguous():
    f = np.linspace(6e9, 8e9, 4001)
    a = notch_s21(NotchResonator(f_r=6.5e9, q_loaded=500.0,
                                 q_coupling=500.0), f).s21
    b = notch_s21(NotchResonator(f_r=7.5e9, q_loaded=500.0,
                                 q_coupling=500.0), f).s21
    resp = FrequencyResponse(frequencies=f, s21=a * b)
    with pytest.raises(AmbiguousDipError):
        extract_q_fwhm(resp)


def test_extraction_grid_edge():
    res = NotchResonator(f_r=FR_BOTTOM, q_loaded=1000.0, q_coupling=1000.0)
    f = np.linspace(FR_BOTTOM - 1e4, FR_BOTTOM + 5e7, 801)  # left edge inside
    with pytest.raises(ExtractionError):
        extract_q_fwhm(notch_s21(res, f))


def test_response_csv_header():
    f = np.array([1e9, 2e9])
    resp = FrequencyResponse(frequencies=f, s21=np.ones(2, dtype=complex))
    lines = resp.to_csv().splitlines()
    assert lines[0] == "freq_hz,s21_re,s21_im"
    assert len(lines) == 3


def test_response_validation():
    with pytest.raises(ValueError):
        FrequencyResponse(frequencies=np.array([2e9, 1e9]),
                          s21=np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        FrequencyResponse(frequencies=np.array([1e9, 2e9]),
                          s21=np.zeros(3, dtype=complex))


# ----------------------------------------------------------- matching

def test_worst_case_reflection_matched_floor():
    band = RealInterval(4e9, 8e9)
    db = worst_case_reflection(49.53, 49.53, band, 2e-3, EPS_EFF)
    assert db <= -100.0


def test_worst_case_reflection_unimodal_minimum_at_z0():
    band = RealInterval(4e9, 8e9)
    z_line = 49.53
    zs = np.arange(40.0, 60.0001, 0.5)
    vals = [worst_case_reflection(z_line, float(z), band, 2e-3, EPS_EFF)
            for z in zs]
    i = int(np.argmin(vals))
    assert abs(zs[i] - z_line) <= 0.5
    # three-point bracket: strictly decreasing into the minimum, then rising
    assert vals[i - 1] > vals[i] < vals[i + 1]


@pytest.mark.parametrize("z_line,z_port", [
    (49.53, 48.4), (63.0, 50.0), (35.0, 50.0)])
def test_worst_case_reflection_peaks_at_quarter_wave(z_line, z_port):
    # a lossless line reflects most where it is a quarter wave long, where
    # it is an impedance inverter: |S11| = |z0^2 - zr^2| / (z0^2 + zr^2)
    length = 2e-3
    f_qw = C_LIGHT / (4.0 * length * math.sqrt(EPS_EFF))
    band = RealInterval(0.5 * f_qw, 1.5 * f_qw)  # point 1000 of 2001 is f_qw
    want = 20.0 * math.log10(abs(z_line ** 2 - z_port ** 2)
                             / (z_line ** 2 + z_port ** 2))
    got = worst_case_reflection(z_line, z_port, band, length, EPS_EFF,
                                points=2001)
    assert got == pytest.approx(want, abs=1e-9)


def test_worst_case_reflection_validation():
    band = RealInterval(4e9, 8e9)
    with pytest.raises(ValueError):
        worst_case_reflection(-1.0, 50.0, band, 2e-3, EPS_EFF)
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^line_z0 must be positive"):
            worst_case_reflection(z, 50.0, band, 2e-3, EPS_EFF)
        with pytest.raises(ValueError, match="^z_port must be positive"):
            worst_case_reflection(50.0, z, band, 2e-3, EPS_EFF)
    with pytest.raises(ValueError):
        worst_case_reflection(50.0, 50.0, band, 0.0, EPS_EFF)
    # at 0 every port read as reflectionless; below 0 sqrt failed
    for eps_eff in (0.0, -1.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="^eps_eff must be >= 1$"):
            worst_case_reflection(49.53, 50.0, band, 2e-3, eps_eff)


def abcd_worst_db(line_z0, z_port, band, length, eps_eff, points):
    """Oracle: S11 of [cos, j z0 sin; j sin / z0, cos] at reference z_port,
    formed at every grid point, worst magnitude in dB."""
    f = frequency_grid(band, points)
    beta_l = 2.0 * math.pi * f * math.sqrt(eps_eff) * length / C_LIGHT
    cos_bl, sin_bl = np.cos(beta_l), np.sin(beta_l)
    num = 1j * sin_bl * (line_z0 / z_port - z_port / line_z0)
    den = 2.0 * cos_bl + 1j * sin_bl * (line_z0 / z_port + z_port / line_z0)
    return float(np.max(20.0 * np.log10(np.maximum(np.abs(num / den),
                                                   1e-30))))


def seeded_bands(rng, length, eps_eff):
    """A band that straddles the quarter wave and two that miss it."""
    f_qw = C_LIGHT / (4.0 * length * math.sqrt(eps_eff))
    lo = rng.uniform(0.3, 0.9)
    yield RealInterval(lo * f_qw, rng.uniform(1.1, 1.7) * f_qw)
    yield RealInterval(lo * 0.5 * f_qw, lo * f_qw)
    yield RealInterval(rng.uniform(1.05, 1.4) * f_qw,
                       rng.uniform(1.5, 1.95) * f_qw)


@pytest.mark.parametrize("points", [2, 201, 2001])
def test_worst_case_reflection_matches_abcd_oracle(points):
    rng = np.random.default_rng(points)
    for _ in range(10):
        length = rng.uniform(1e-3, 6e-3)
        eps_eff = rng.uniform(1.0, 12.0)
        for band in seeded_bands(rng, length, eps_eff):
            z_line, z_port = rng.uniform(20.0, 100.0, size=2)
            got = worst_case_reflection(z_line, z_port, band, length,
                                        eps_eff, points)
            want = abcd_worst_db(z_line, z_port, band, length, eps_eff,
                                 points)
            # compare |S11|, not dB, at 1e-12 relative
            assert 10.0 ** ((got - want) / 20.0) == pytest.approx(
                1.0, rel=1e-12, abs=0.0), (band, length, eps_eff)


def test_worst_case_reflection_argmin_matches_oracle():
    rng = np.random.default_rng(7)
    ports = np.linspace(40.0, 60.0, 201)
    for _ in range(5):
        length = rng.uniform(1e-3, 6e-3)
        eps_eff = rng.uniform(1.0, 12.0)
        z_line = rng.uniform(42.0, 58.0)
        for band in seeded_bands(rng, length, eps_eff):
            got = [worst_case_reflection(z_line, float(z), band, length,
                                         eps_eff, 201) for z in ports]
            want = [abcd_worst_db(z_line, float(z), band, length, eps_eff,
                                  201) for z in ports]
            assert np.argmin(got) == np.argmin(want)


def test_worst_case_reflection_cache_keeps_inputs_apart():
    band = RealInterval(4e9, 8e9)
    cases = [
        (band, 3e-3, EPS_EFF),
        (RealInterval(5e9, 9e9), 3e-3, EPS_EFF),  # another band
        (band, 2e-3, EPS_EFF),                    # another length
        (band, 3e-3, 11.9),                       # another eps_eff
    ]
    first = []
    for case in cases:
        network._max_sin2.cache_clear()
        first.append(worst_case_reflection(49.53, 45.0, *case, 201))
    assert len(set(first)) == len(first)
    network._max_sin2.cache_clear()
    for _ in range(3):
        for case in (cases[0], cases[1], cases[0], cases[2], cases[0],
                     cases[3]):
            got = worst_case_reflection(49.53, 45.0, *case, 201)
            assert got == first[cases.index(case)]
    with pytest.raises(ValueError, match="^points must be >= 2$"):
        worst_case_reflection(49.53, 45.0, band, 3e-3, EPS_EFF, 1)


# ---------------------------------------------------------- crosstalk

def make_pair():
    near = NotchResonator(f_r=7.11524e9, q_loaded=6618.16, q_coupling=6618.16)
    far = NotchResonator(f_r=7.51364e9, q_loaded=5782.30, q_coupling=5782.30)
    return near, far


def dense_crosstalk_dip(bridge_capacitance, near, far, band):
    """Oracle: the dense 6-node nodal solve for one bridge, assembled
    and reduced as written, which crosstalk_dip must match bit for bit:
    50 ohm ports, 2 mm lines at eps_eff 6.45, 2001 frequencies."""
    z0, line_length, eps_eff = 50.0, 2e-3, 6.45
    if bridge_capacitance < 0.0:
        raise ValueError("bridge capacitance must be >= 0")
    if bridge_capacitance == 0.0:
        return 0.0

    f = frequency_grid(band, 2001)
    w = 2.0 * math.pi * f
    beta_l = w * math.sqrt(eps_eff) * (0.5 * line_length) / C_LIGHT
    sin_bl = np.sin(beta_l)
    if np.any(np.abs(sin_bl) < 1e-12):
        raise ZeroDivisionError("half-line is a multiple of a half wave")
    cos_bl = np.cos(beta_l)

    # nodal admittance entries of one half-line (lossless, unimodular)
    y_self = cos_bl / (1j * z0 * sin_bl)
    y_mut = -1.0 / (1j * z0 * sin_bl)

    y_near = network._shunt_admittance(near, f, z0)
    y_far = network._shunt_admittance(far, f, z0)
    y_bridge = 1j * w * bridge_capacitance

    n = f.size
    yfull = np.zeros((n, 6, 6), dtype=complex)
    # node order: p1, p2, p3, p4, m_near, m_far
    for a_node, b_node in ((0, 4), (1, 4), (2, 5), (3, 5)):
        yfull[:, a_node, a_node] += y_self
        yfull[:, b_node, b_node] += y_self
        yfull[:, a_node, b_node] += y_mut
        yfull[:, b_node, a_node] += y_mut
    yfull[:, 4, 4] += y_near
    yfull[:, 5, 5] += y_far
    yfull[:, 4, 4] += y_bridge
    yfull[:, 5, 5] += y_bridge
    yfull[:, 4, 5] -= y_bridge
    yfull[:, 5, 4] -= y_bridge

    # reduce the two internal nodes, then form S at z0 on ports 1-4
    ypp = yfull[:, :4, :4]
    ypi = yfull[:, :4, 4:]
    yip = yfull[:, 4:, :4]
    yii = yfull[:, 4:, 4:]
    yred = ypp - ypi @ np.linalg.solve(yii, yip)

    eye = np.eye(4)
    s = np.linalg.solve(eye + z0 * yred, eye - z0 * yred)

    db = network._db(s[:, 3, 2])
    baseline = float(db[0])
    return max(baseline - float(db.min()), 0.0)


def preset_sweep_case(top_length="4.0481 mm"):
    """Bridges, notches and band of the preset's 25-point thickness
    sweep, plus the sweep's own crosstalk_db column."""
    text = device.default_config_text().replace(
        "chip.top.resonator.length = 4.0481 mm",
        f"chip.top.resonator.length = {top_length}")
    spec = device.parse_config(text)
    table = device.sweep(spec, "interlayer_thickness",
                         np.geomspace(0.1e-3, 4e-3, 25))
    near = device._notch_for(spec.bottom)
    halfspan = 10.0 * near.f_r / near.q_loaded
    band = RealInterval(near.f_r - halfspan, near.f_r + halfspan)
    return ((table.column("cg_f"), near, device._notch_for(spec.top), band),
            table.column("crosstalk_db"))


def lossless_on_resonance_case():
    # Qc = Ql and f_r on a grid point: the far shunt's denominator is
    # exactly 0 there, so _shunt_admittance's 1e-9 floor sets it
    near, _ = make_pair()
    far = NotchResonator(f_r=7.1e9, q_loaded=5782.30, q_coupling=5782.30)
    band = RealInterval(7.0e9, 7.2e9)
    assert far.f_r in frequency_grid(band, 2001)
    return [1e-18, 4e-18, 16e-18], near, far, band


CROSSTALK_CASES = {
    "preset-thickness-grid": lambda: preset_sweep_case()[0],
    "pair-wide-band": lambda: ([1e-18, 4e-18, 16e-18], *make_pair(),
                               RealInterval(7.0e9, 7.2e9)),
    "pair-narrow-band": lambda: ([1e-18, 4e-18, 16e-18], *make_pair(),
                                 RealInterval(7.10e9, 7.13e9)),
    "zeros-among-bridges": lambda: ([0.0, 1e-18, 0.0, 0.0, 4e-18, 0.0],
                                    *make_pair(),
                                    RealInterval(7.10e9, 7.13e9)),
    "overlap-top-4.2956mm": lambda: preset_sweep_case("4.2956 mm")[0],
    "lossless-far-on-resonance": lossless_on_resonance_case,
}


@pytest.mark.parametrize("case", CROSSTALK_CASES)
def test_crosstalk_bit_identical_to_dense_oracle(case):
    bridges, near, far, band = CROSSTALK_CASES[case]()
    want = [dense_crosstalk_dip(c, near, far, band) for c in bridges]
    assert crosstalk_dip(bridges, near, far, band) == want


def test_crosstalk_overlap_case_reads_the_far_notch():
    # the known defect the overlap case pins: ~180 dB, not the bridge dip
    bridges, near, far, band = preset_sweep_case("4.2956 mm")[0]
    assert min(crosstalk_dip(bridges, near, far, band)) > 170.0


def test_thickness_sweep_fills_crosstalk_in_row_order():
    # the sweep's column is the one call on its rows' bridges, which the
    # preset case above holds to the oracle
    (bridges, near, far, band), column = preset_sweep_case()
    assert column == crosstalk_dip(bridges, near, far, band)
    assert column == sorted(column, reverse=True)


def test_crosstalk_zero_bridge():
    near, far = make_pair()
    band = RealInterval(7.0e9, 7.2e9)
    assert crosstalk_dip([0.0], near, far, band) == [0.0]
    assert crosstalk_dip([], near, far, band) == []


def test_crosstalk_monotone_in_bridge():
    near, far = make_pair()
    band = RealInterval(7.10e9, 7.13e9)
    dips = crosstalk_dip([1e-18, 4e-18, 16e-18], near, far, band)
    assert 0.0 < dips[0] < dips[1] < dips[2]


def test_crosstalk_negative_bridge_rejected():
    near, far = make_pair()
    with pytest.raises(ValueError):
        crosstalk_dip([1e-18, -1e-18], near, far, RealInterval(7.0e9, 7.2e9))


def test_frequency_grid():
    g = frequency_grid(RealInterval(1e9, 2e9), points=11)
    assert g[0] == 1e9 and g[-1] == 2e9 and len(g) == 11
    with pytest.raises(ValueError):
        frequency_grid(RealInterval(1e9, 2e9), points=1)
