"""Energy scales, the closed-form spectrum, and the charge-basis oracle.

The charge-basis matrix is the independent check on the asymptotic
formulas: its low-lying levels must track the closed forms deep in the
large-ratio regime and expose their error outside it.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipkit import transmon
from flipkit.constants import PLANCK_H

# design values: junction + shunt capacitance and the two junction
# inductances of the stacked pair
C_TOTAL = 89e-15
LJ_BOTTOM = 8.75e-9
LJ_TOP = 7e-9

EC = transmon.charging_energy(C_TOTAL)


def ghz(energy):
    return energy / PLANCK_H / 1e9


# ------------------------------------------------------------- scales

def test_charging_energy_89ff():
    assert EC / PLANCK_H == pytest.approx(217.6e6, abs=0.5e6)


def test_charging_energy_scaling():
    assert transmon.charging_energy(2.0 * C_TOTAL) == \
        pytest.approx(EC / 2.0, rel=1e-12)
    assert transmon.charging_energy(1.0) < 1e-37  # large-C limit


def test_josephson_energy_values():
    assert ghz(transmon.josephson_energy(LJ_BOTTOM)) == \
        pytest.approx(18.68, abs=0.05)
    assert ghz(transmon.josephson_energy(LJ_TOP)) == \
        pytest.approx(23.35, abs=0.05)


def test_josephson_energy_scaling():
    ej = transmon.josephson_energy(LJ_TOP)
    assert transmon.josephson_energy(LJ_TOP / 2.0) == \
        pytest.approx(2.0 * ej, rel=1e-12)


def test_energy_domain_errors():
    with pytest.raises(ValueError):
        transmon.charging_energy(0.0)
    with pytest.raises(ValueError):
        transmon.josephson_energy(-1e-9)


def test_squid_flux_points():
    ej = transmon.josephson_energy(LJ_TOP)
    assert transmon.squid_josephson_energy(ej, 0.0) == ej
    assert transmon.squid_josephson_energy(ej, 0.5) == \
        pytest.approx(0.0, abs=1e-25)
    assert transmon.squid_josephson_energy(ej, 1.0 / 3.0) == \
        pytest.approx(ej / 2.0, rel=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_squid_even_and_periodic(flux):
    ej = 1e-24
    assert transmon.squid_josephson_energy(ej, flux) == \
        pytest.approx(transmon.squid_josephson_energy(ej, -flux), rel=1e-12)
    assert transmon.squid_josephson_energy(ej, flux + 1.0) == \
        pytest.approx(transmon.squid_josephson_energy(ej, flux), abs=1e-36)


# ----------------------------------------------------- closed forms

def test_transmon_frequency_literal_capacitance():
    ej = transmon.josephson_energy(LJ_BOTTOM)
    assert transmon.transmon_frequency(EC, ej) / 1e9 == \
        pytest.approx(5.486, abs=0.01)


def test_transmon_frequency_regression_targets():
    # the printed analytical targets need C_eff ~ 115 fF, not Cj + Cs
    c_eff = 115e-15
    ec = transmon.charging_energy(c_eff)
    f_bottom = transmon.transmon_frequency(
        ec, transmon.josephson_energy(LJ_BOTTOM))
    f_top = transmon.transmon_frequency(
        ec, transmon.josephson_energy(LJ_TOP))
    assert f_bottom == pytest.approx(4.85e9, rel=0.01)
    assert f_top == pytest.approx(5.44e9, rel=0.01)


def test_transmon_frequency_homogeneity():
    ej = transmon.josephson_energy(LJ_TOP)
    lam = 1.7
    f1 = transmon.transmon_frequency(EC, ej)
    f2 = transmon.transmon_frequency(lam * EC, lam * ej)
    assert f2 * PLANCK_H + lam * EC == \
        pytest.approx(lam * (f1 * PLANCK_H + EC), rel=1e-12)


def test_transmon_frequency_monotone_in_ej():
    ej = transmon.josephson_energy(LJ_TOP)
    assert transmon.transmon_frequency(EC, 1.1 * ej) > \
        transmon.transmon_frequency(EC, ej)


def test_transmon_frequency_raises_at_ej_ec_one_eighth():
    # (sqrt(8 Ec Ej) - Ec) / h is zero at Ej/Ec = 1/8 and negative below
    assert transmon.transmon_frequency(EC, 0.13 * EC) > 0.0
    for ratio in (0.125, 0.1, 1e-15):
        with pytest.raises(ValueError, match="not above 1/8"):
            transmon.transmon_frequency(EC, ratio * EC)


def test_anharmonicity_is_minus_ec():
    assert transmon.anharmonicity(EC) == pytest.approx(-217.6e6, abs=0.5e6)
    assert transmon.anharmonicity(EC) < 0.0


def test_ej_ec_ratio():
    ej = transmon.josephson_energy(LJ_BOTTOM)
    assert transmon.ej_ec_ratio(EC, ej) == pytest.approx(85.9, abs=0.5)
    assert transmon.ej_ec_ratio(EC, EC) == 1.0
    assert transmon.ej_ec_ratio(3.0 * EC, 3.0 * ej) == \
        pytest.approx(transmon.ej_ec_ratio(EC, ej), rel=1e-12)


# ------------------------------------------------------ charge basis

def test_cpb_diagonal_limit():
    ec = 1e-24
    w = transmon.cpb_spectrum(ec, 0.0, ng=0.0, cutoff=8, n_levels=4)
    assert np.allclose(w / ec, [0.0, 4.0, 4.0, 16.0], atol=1e-12)


def test_cpb_matches_closed_form_at_ratio_86():
    ej = 86.0 * EC
    f_oracle = transmon.cpb_frequency(EC, ej)
    f_closed = transmon.transmon_frequency(EC, ej)
    assert abs(f_oracle - f_closed) / f_closed < 0.01


def test_cpb_charge_dispersion_small():
    ej = 50.0 * EC
    f0 = transmon.cpb_frequency(EC, ej, ng=0.0)
    f_half = transmon.cpb_frequency(EC, ej, ng=0.5)
    assert abs(f0 - f_half) / f0 < 1e-4


def test_cpb_cutoff_invariance():
    ej = 86.0 * EC
    w30 = transmon.cpb_spectrum(EC, ej, cutoff=30, n_levels=4)
    w40 = transmon.cpb_spectrum(EC, ej, cutoff=40, n_levels=4)
    assert np.max(np.abs(w30 - w40)) <= 1e-10 * np.max(np.abs(w40))


def test_cpb_cutoff_error():
    # a huge ratio pushes weight onto the edge charge states
    with pytest.raises(transmon.CutoffError):
        transmon.cpb_spectrum(EC, 5e4 * EC, cutoff=10)


def test_cpb_anharmonicity_negative_in_regime():
    for ratio in (50.0, 86.0, 150.0):
        assert transmon.cpb_anharmonicity(EC, ratio * EC) < 0.0


def test_cpb_anharmonicity_near_minus_ec():
    # the asymptotic -Ec underestimates |alpha|; at ratio 86 the oracle
    # sits ~10% past it, a known limitation of the leading-order form
    a = transmon.cpb_anharmonicity(EC, 86.0 * EC)
    assert a == pytest.approx(-EC / PLANCK_H, rel=0.15)


def test_cpb_input_validation():
    with pytest.raises(ValueError):
        transmon.cpb_spectrum(EC, -1.0 * EC)
    with pytest.raises(ValueError):
        transmon.cpb_spectrum(EC, EC, cutoff=0)
    with pytest.raises(ValueError):
        transmon.cpb_spectrum(EC, EC, cutoff=3, n_levels=20)
    # the dense Hamiltonian is (2 cutoff + 1)^2: refused before it is built
    with pytest.raises(ValueError, match="^cutoff must be <= 500$"):
        transmon.cpb_spectrum(EC, EC, cutoff=transmon.MAX_CUTOFF + 1)


# ------------------------------------------- parity blocks at ng = 0

def dense_cpb(ec, ej, ng, cutoff):
    """The whole (2 cutoff + 1)^2 charge-basis matrix through eigh: levels
    in units of Ec and each level's weight on n = +-cutoff."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    off = np.full(2 * cutoff, -0.5 * ej / ec)
    h = np.diag(4.0 * (n - ng) ** 2) + np.diag(off, 1) + np.diag(off, -1)
    w, v = np.linalg.eigh(h)
    return w, v[0] ** 2 + v[-1] ** 2


@pytest.mark.parametrize("cutoff", [1, 2, 8, 30])
@pytest.mark.parametrize("ratio", [0.0, 1e-3, 1.0, 30.0, 86.0, 120.0, 200.0])
def test_cpb_parity_blocks_match_dense_eigh(ratio, cutoff):
    w, edge = dense_cpb(EC, ratio * EC, 0.0, cutoff)
    scale = np.max(np.abs(w))
    for n_levels in sorted({1, 2, 3, cutoff + 1, 2 * cutoff + 1}):
        levels, weights = transmon._cpb_levels(EC, ratio * EC, 0.0, cutoff,
                                               n_levels)
        assert np.max(np.abs(levels - w[:n_levels])) <= 1e-13 * scale
        # O(1) weights from two eigensolvers agree to a few ulp of 1
        assert np.max(np.abs(weights - edge[:n_levels])) <= 1e-14
        # refused for exactly the inputs the dense matrix refuses
        if edge[:n_levels].max() > 1e-8:
            with pytest.raises(transmon.CutoffError):
                transmon.cpb_spectrum(EC, ratio * EC, cutoff=cutoff,
                                      n_levels=n_levels)
        else:
            got = transmon.cpb_spectrum(EC, ratio * EC, cutoff=cutoff,
                                        n_levels=n_levels)
            assert np.max(np.abs(got - w[:n_levels] * EC)) <= \
                1e-13 * scale * EC


@pytest.mark.parametrize("ng", [0.0, 1e-3])
def test_cpb_cutoff_error_same_weight_on_both_paths(ng):
    ej = 5e4 * EC  # test_cpb_cutoff_error's input
    _, edge = dense_cpb(EC, ej, ng, 10)
    worst = float(edge[:4].max())
    assert worst > 1e-8
    _, weights = transmon._cpb_levels(EC, ej, ng, 10, 4)
    assert float(weights.max()) == pytest.approx(worst, rel=1e-6)
    with pytest.raises(transmon.CutoffError,
                       match=f"boundary weight {worst:.3e} exceeds 1e-08$"):
        transmon.cpb_spectrum(EC, ej, ng=ng, cutoff=10)


@pytest.mark.parametrize("ng", [0.5, 1e-3])
def test_cpb_off_symmetry_is_the_dense_eigh(ng):
    ej = 86.0 * EC
    w, _ = dense_cpb(EC, ej, ng, transmon.DEFAULT_CUTOFF)
    assert np.array_equal(transmon.cpb_spectrum(EC, ej, ng=ng, n_levels=4),
                          w[:4] * EC)


@pytest.mark.parametrize("ec,ej,name", [
    (float("nan"), 86.0 * EC, "Ec"),
    (EC, float("nan"), "Ej"),
    (float("inf"), 86.0 * EC, "Ec"),
    (EC, float("inf"), "Ej"),
], ids=["nan-ec", "nan-ej", "inf-ec", "inf-ej"])
def test_non_finite_energies_are_refused(ec, ej, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        transmon.cpb_spectrum(ec, ej)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        transmon.transmon_frequency(ec, ej)


@pytest.mark.parametrize("ng", [float("nan"), float("inf")])
def test_cpb_refuses_non_finite_ng(ng):
    with pytest.raises(ValueError, match="^ng must be finite"):
        transmon.cpb_spectrum(EC, 86.0 * EC, ng=ng)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call,name", [
    (transmon.charging_energy, "c_total"),
    (transmon.josephson_energy, "l_junction"),
    (lambda x: transmon.squid_josephson_energy(x, 0.0), "ej_max"),
    (lambda x: transmon.squid_josephson_energy(1e-24, x), "flux"),
    (transmon.anharmonicity, "Ec"),
    (lambda x: transmon.ej_ec_ratio(x, 1.0), "Ec"),
    (lambda x: transmon.ej_ec_ratio(1.0, x), "Ej"),
], ids=["charging_energy", "josephson_energy", "squid-ej_max", "squid-flux",
        "anharmonicity", "ej_ec_ratio-ec", "ej_ec_ratio-ej"])
def test_energy_helpers_refuse_non_finite(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


def test_params_container():
    p = transmon.TransmonParams(c_junction=8e-15, c_shunt=81e-15,
                                l_junction=LJ_BOTTOM)
    assert p.c_total == pytest.approx(89e-15, rel=1e-12)
    with pytest.raises(ValueError):
        transmon.TransmonParams(c_junction=-8e-15, c_shunt=81e-15,
                                l_junction=LJ_BOTTOM)
    with pytest.raises(ValueError):
        transmon.TransmonParams(c_junction=8e-15, c_shunt=81e-15,
                                l_junction=0.0)
