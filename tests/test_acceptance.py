"""Release gate: thirteen numbered end-to-end checks with stated tolerances.

One test per criterion; each prints a single [PASS]/[FAIL] line carrying
the measured numbers and its wall time (run pytest with -s or read the
captured output of a failure).  Criterion 5 compares the closed-form
transmon numbers with the charge-basis oracle.  The anharmonicity there
is the leading-order -Ec/h carried through its asymptotic series in
sqrt(2 Ec/Ej), because -Ec/h alone is genuinely 14.9% off the oracle at
Ej/Ec = 50; that leading-order gap is still measured, printed, and
required to shrink as Ej/Ec grows.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from flipkit import cli, coupling, cpw, device, loss, network, transmon
from flipkit.constants import PLANCK_H
from flipkit.fieldsolve import (capacitance_per_length, cpw_cross_section,
                                energy_participation, extract_eps_eff_and_z0,
                                solve_potential)
from flipkit.numerics import RealInterval, elliptic_k
from flipkit.tables import SweepTable

W, S, EPS = 10e-6, 5.806e-6, 6.45


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    ms = (time.perf_counter() - t0) * 1e3
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {detail} ({ms:.1f} ms)"
    print(line)
    assert ok, line


def test_criterion_01_effective_permittivity():
    t0 = time.perf_counter()
    got = cpw.effective_permittivity(11.9, 1.0)
    report(1, got == 6.45, f"eps_eff(11.9, 1) = {got!r}, want exactly 6.45",
           t0)


def test_criterion_02_characteristic_impedance():
    t0 = time.perf_counter()
    z0 = cpw.characteristic_impedance(W, S, EPS)
    k0 = cpw.modulus_k0(W, S)
    kp = math.sqrt(1.0 - k0 * k0)
    worst = 0.0
    for k in (k0, kp):
        theta = np.linspace(0.0, 0.5 * math.pi, 40001)
        quad = float(np.trapezoid(
            1.0 / np.sqrt(1.0 - (k * np.sin(theta)) ** 2), theta))
        worst = max(worst, abs(elliptic_k(k) - quad) / quad)
    ok = 49.2 <= z0 <= 49.9 and worst <= 1e-6
    report(2, ok, f"Z0 = {z0:.4f} ohm (band [49.2, 49.9]), "
                  f"AGM-vs-quadrature K error {worst:.2e} (<= 1e-6)", t0)


def test_criterion_03_inverse_gap_design():
    t0 = time.perf_counter()
    s = cpw.solve_gap_for_impedance(W, EPS, 50.0)
    z_back = cpw.characteristic_impedance(W, s, EPS)
    rel = abs(s - 5.806e-6) / 5.806e-6
    ok = rel <= 0.04 and abs(z_back - 50.0) <= 1e-4
    report(3, ok, f"s = {s * 1e6:.4f} um ({rel:.2%} from 5.806 um, <= 4%), "
                  f"round trip Z0 = {z_back:.6f} ohm (+-1e-4)", t0)


def test_criterion_04_resonator_intervals():
    t0 = time.perf_counter()
    rep = device.analyze(device.paper_default()).data
    rows = {m["name"]: m for m in rep["modes"]}
    targets = {"bottom_resonator": (6.87e9, 7.29e9, 7.11469e9),
               "top_resonator": (7.29e9, 7.77e9, 7.50486e9)}
    ok = True
    parts = []
    for name, (lo, hi, fem) in targets.items():
        got_lo = rows[name]["frequency_low_hz"]["value"]
        got_hi = rows[name]["frequency_high_hz"]["value"]
        ok &= abs(got_lo - lo) / lo <= 0.005
        ok &= abs(got_hi - hi) / hi <= 0.005
        ok &= got_lo < fem < got_hi
        parts.append(f"{name} ({got_lo / 1e9:.4f}, {got_hi / 1e9:.4f}) GHz "
                     f"brackets {fem / 1e9:.5f}")
    report(4, ok, "; ".join(parts) + " (endpoints +-0.5%)", t0)


def test_criterion_05_transmon_oracle_equivalence():
    t0 = time.perf_counter()
    worst_f = worst_a = 0.0
    lead_gaps = []  # per Ec: |oracle / (-Ec/h) - 1| along rising Ej/Ec
    for ec_hz in np.linspace(150e6, 300e6, 5):
        ec = PLANCK_H * ec_hz
        gaps = []
        for ratio in np.linspace(50.0, 200.0, 5):
            ej = ratio * ec
            f_closed = transmon.transmon_frequency(ec, ej)
            f_oracle = transmon.cpb_frequency(ec, ej)
            worst_f = max(worst_f, abs(f_oracle - f_closed) / f_closed)
            # -Ec/h is the leading order; the asymptotic series
            # -Ec (1 + 9 xi/16 + 81 xi^2/128 + ...), xi = sqrt(2 Ec/Ej),
            # carries it to where the oracle sits at finite Ej/Ec
            a_lead = transmon.anharmonicity(ec)
            xi = math.sqrt(2.0 / ratio)
            a_closed = a_lead * (1.0 + 9.0 * xi / 16.0
                                 + 81.0 * xi * xi / 128.0)
            a_oracle = transmon.cpb_anharmonicity(ec, ej)
            worst_a = max(worst_a, abs(a_oracle - a_closed) / abs(a_closed))
            gaps.append(abs(a_oracle - a_lead) / abs(a_lead))
        lead_gaps.append(gaps)
    shrinking = all(b < a for gaps in lead_gaps
                    for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    ok = (worst_f <= 0.01 and worst_a <= 0.10 and shrinking
          and elapsed < 5.0)
    first = max(gaps[0] for gaps in lead_gaps)
    last = max(gaps[-1] for gaps in lead_gaps)
    report(5, ok, f"worst frequency error {worst_f:.3%} (<= 1%), worst "
                  f"anharmonicity error {worst_a:.3%} against the "
                  f"series-corrected closed form (<= 10%); leading-order "
                  f"-Ec/h gap {first:.1%} at Ej/Ec = 50 falling to "
                  f"{last:.1%} at 200 (must shrink: {shrinking})", t0)


def test_criterion_06_coupling_operating_point():
    t0 = time.perf_counter()
    spec = device.paper_default()
    cg = coupling.parallel_plate_cg(spec.pad_overlap_area,
                                    spec.interlayer_thickness,
                                    spec.interlayer_eps_r)
    r = coupling.capacitance_ratio(cg, spec.bottom.transmon.c_total,
                                   spec.top.transmon.c_total)
    g = coupling.coupling_strength(r, 5.16e9, 5.75e9)
    ok = abs(r - 0.010084) <= 1e-4 and abs(g - 54.93e6) <= 0.05e6
    report(6, ok, f"r = {r:.6f} (0.010084 +- 1e-4), "
                  f"g = {g / 1e6:.4f} MHz (54.93 +- 0.05)", t0)


def test_criterion_07_t1_bounds():
    t0 = time.perf_counter()
    t1_1 = loss.t1_upper_bound(1.43512e6, 5.16416e9)
    t1_2 = loss.t1_upper_bound(754259.0, 5.74989e9)
    ok = abs(t1_1 - 44.23e-6) / 44.23e-6 <= 1e-3 and \
        abs(t1_2 - 20.88e-6) / 20.88e-6 <= 1e-3
    report(7, ok, f"mode 1: {t1_1 * 1e6:.4f} us (44.23 +- 0.1%), "
                  f"mode 2: {t1_2 * 1e6:.4f} us (20.88 +- 0.1%)", t0)


def test_criterion_08_q_extraction_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    f_r = 7.11524e9
    for q, ratio in itertools.product((5.48e3, 6.62e3, 7.5e5), (1, 2, 100)):
        res = network.NotchResonator(f_r=f_r, q_loaded=q,
                                     q_coupling=ratio * q)
        half = 10.0 * f_r / q
        grid = np.linspace(f_r - half, f_r + half, 2001)
        _, q_got, _ = network.extract_q_fwhm(network.notch_s21(res, grid))
        worst = max(worst, abs(q_got - q) / q)
    bw_mhz = f_r / 6618.16 / 1e6
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.005 and abs(bw_mhz - 1.0751) <= 1e-4 and elapsed < 1.0
    report(8, ok, f"worst Q error {worst:.3%} (<= 0.5%), implied bandwidth "
                  f"{bw_mhz:.5f} MHz (1.0751 to 4 digits)", t0)


def test_criterion_09_matching_procedure():
    t0 = time.perf_counter()
    z_line = cpw.characteristic_impedance(W, S, EPS)
    band = RealInterval(4e9, 8e9)
    zs = np.arange(40.0, 60.0001, 0.1)
    vals = [network.worst_case_reflection(z_line, float(z), band, 2e-3, EPS)
            for z in zs]
    i = int(np.argmin(vals))
    elapsed = time.perf_counter() - t0
    unimodal = vals[i - 1] > vals[i] < vals[i + 1]
    ok = abs(zs[i] - z_line) <= 0.1 and unimodal and elapsed < 5.0
    report(9, ok, f"argmin z_port = {zs[i]:.1f} ohm vs line Z0 "
                  f"{z_line:.3f} (one 0.1 step), unimodal = {unimodal}", t0)


def gamma_line_residual(budget, tan_deltas) -> float:
    """Worst deviation of the library's decay rate from its least-squares
    line through the origin, relative to the largest rate; the fit runs on
    exact rationals, so only the library's own rounding can show up."""
    ts = [Fraction(t) for t in tan_deltas]
    gammas = [Fraction(loss.loss_figures(budget, t)["gamma_cap_per_s"])
              for t in tan_deltas]
    slope = sum(g * t for g, t in zip(gammas, ts)) / sum(t * t for t in ts)
    worst = max(abs(g - slope * t) for g, t in zip(gammas, ts))
    return float(worst / max(gammas))


def test_criterion_10_loss_trends():
    t0 = time.perf_counter()
    budget = loss.LossBudget(mode_frequency=5.16416e9, baseline_q=1e9,
                             regions={"substrate": (0.922481, 1e-6),
                                      "interlayer": (0.077519, 1e-6)})
    grid = np.logspace(-4, -2, 21)
    rows = [loss.loss_figures(budget, float(t)) for t in grid]
    q = np.array([row["q_total"] for row in rows])
    slope = float(np.polyfit(np.log10(grid), np.log10(q), 1)[0])
    # linearity on t = 2^-14 ... 2^-7, where scaling a float is exact
    residual = gamma_line_residual(budget, [2.0 ** -k for k in range(7, 15)])
    t1 = [row["t1_upper_s"] for row in rows]
    monotone = all(b <= a for a, b in zip(t1, t1[1:]))
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 1.0) <= 0.05 and residual == 0.0 and monotone and \
        elapsed < 1.0
    report(10, ok, f"log-log Q slope {slope:.4f} (-1 +- 0.05), linearity "
                   f"residual {residual!r} (exact 0), T1 monotone "
                   f"{monotone}", t0)


def test_criterion_11_field_solver(plate_section):
    t0 = time.perf_counter()
    sec = plate_section()
    c_plate = capacitance_per_length(solve_potential(sec))
    c_want = 8.8541878128e-12 * sec.width / (16 * sec.hy)
    plate_err = abs(c_plate - c_want) / c_want

    vac = cpw.CpwGeometry(trace_width=W, gap=S, eps_substrate=1.0,
                          eps_superstrate=1.0)
    eps_vac, _ = extract_eps_eff_and_z0(cpw_cross_section(vac, cell=2e-6))

    geom = cpw.CpwGeometry(trace_width=W, gap=S, eps_substrate=11.9,
                           eps_superstrate=1.0)
    section = cpw_cross_section(geom, cell=0.25e-6)
    sol = solve_potential(section)
    eps_eff, z0 = extract_eps_eff_and_z0(section, solution=sol)
    z_cm = cpw.characteristic_impedance(W, S, EPS)
    p = energy_participation(sol)
    p_sum = sum(p.values())

    elapsed = time.perf_counter() - t0
    ok = (plate_err <= 0.01 and eps_vac == 1.0 and
          abs(eps_eff - 6.45) / 6.45 <= 0.05 and
          abs(z0 - z_cm) / z_cm <= 0.03 and
          abs(p_sum - 1.0) <= 1e-9 and elapsed < 180.0)
    report(11, ok, f"plate C error {plate_err:.3%} (<= 1%), vacuum eps_eff "
                   f"= {eps_vac!r} (exact 1), CPW eps_eff = {eps_eff:.4f} "
                   f"(6.45 +- 5%), Z0 = {z0:.3f} vs {z_cm:.3f} (+-3%), "
                   f"participation sum 1{p_sum - 1.0:+.2e}", t0)


def test_criterion_12_sweep_invariances():
    t0 = time.perf_counter()
    spec = device.paper_default()
    grid = [0.1e-3, 0.5e-3, 1.0e-3, 2.0e-3, 4.0e-3]
    table = device.sweep(spec, "interlayer_thickness", grid)
    constant = all(len(set(table.column(c))) == 1
                   for c in ("qubit_bottom_hz", "qubit_top_hz"))
    decreasing = all(
        all(b < a for a, b in zip(table.column(c), table.column(c)[1:]))
        for c in ("cg_f", "r", "g_hz"))
    xtalk = table.column("crosstalk_db")
    xtalk_dec = all(b < a for a, b in zip(xtalk, xtalk[1:]))
    elapsed = time.perf_counter() - t0
    ok = constant and decreasing and xtalk_dec and elapsed < 10.0
    report(12, ok, f"qubit columns bitwise constant = {constant}, "
                   f"cg/r/g strictly decreasing = {decreasing}, crosstalk "
                   f"dip decreasing = {xtalk_dec} "
                   f"({xtalk[0]:.2e} -> {xtalk[-1]:.2e} dB)", t0)


def test_criterion_13_determinism(capsys):
    t0 = time.perf_counter()
    outputs = []
    for _ in range(3):
        code = cli.main(["analyze", "--config", "paper-default", "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    identical = len(set(outputs)) == 1
    with capsys.disabled():
        report(13, identical and elapsed < 1.0,
               f"3 analyze --json runs byte-identical = {identical} "
               f"({len(outputs[0])} bytes each)", t0)
