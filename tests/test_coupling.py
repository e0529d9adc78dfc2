"""Interchip pad coupling: Cg, ratio r, exchange g, hybridization, chi."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipkit import coupling

# the stacked-pair operating point at 0.5 mm separation
D_GAP = 0.5e-3
R_POINT = 0.010084
F1 = 5.16e9
F2 = 5.75e9
C_SHUNT = 89e-15

caps = st.floats(min_value=1e-18, max_value=1e-12)


def test_parallel_plate_reference():
    cg = coupling.parallel_plate_cg(1e-6, D_GAP)  # 1 mm^2 pad
    assert cg / 1e-15 == pytest.approx(17.708, abs=1e-3)


def test_parallel_plate_scaling():
    cg = coupling.parallel_plate_cg(1e-6, D_GAP)
    assert coupling.parallel_plate_cg(1e-6, 2 * D_GAP) == \
        pytest.approx(cg / 2.0, rel=1e-12)


def test_parallel_plate_monotone_in_distance():
    vals = [coupling.parallel_plate_cg(1e-6, d * 1e-3)
            for d in (0.1, 0.5, 1.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_parallel_plate_validation():
    with pytest.raises(ValueError):
        coupling.parallel_plate_cg(0.0, D_GAP)
    with pytest.raises(ValueError):
        coupling.parallel_plate_cg(1e-6, -1.0)
    with pytest.raises(ValueError):
        coupling.parallel_plate_cg(1e-6, D_GAP, eps_r=0.5)


def test_capacitance_ratio_small_cg_limit():
    cg = 1e-18  # far below the shunts
    r = coupling.capacitance_ratio(cg, C_SHUNT, C_SHUNT)
    assert r == pytest.approx(cg / (2.0 * C_SHUNT), rel=1e-3)


@given(caps, caps, caps)
def test_capacitance_ratio_bounded_by_half(cg, c1, c2):
    assert 0.0 < coupling.capacitance_ratio(cg, c1, c2) <= 0.5


def test_capacitance_ratio_half_at_zero_shunts():
    assert coupling.capacitance_ratio(5e-15, 0.0, 0.0) == \
        pytest.approx(0.5, rel=1e-12)


def test_coupling_strength_operating_point():
    g = coupling.coupling_strength(R_POINT, F1, F2)
    assert g / 1e6 == pytest.approx(54.93, abs=0.05)


def test_coupling_strength_equal_frequencies():
    assert coupling.coupling_strength(0.01, 6e9, 6e9) == \
        pytest.approx(0.01 * 6e9, rel=1e-12)


def test_coupling_strength_monotone():
    g = coupling.coupling_strength
    assert g(0.01, F1, F2) < g(0.02, F1, F2)
    assert g(0.01, F1, F2) < g(0.01, 1.1 * F1, F2)


def test_coupling_strength_validation():
    with pytest.raises(ValueError):
        coupling.coupling_strength(0.0, F1, F2)
    with pytest.raises(ValueError):
        coupling.coupling_strength(0.6, F1, F2)


# ------------------------------------------------------- hybridization

def test_hybridized_trace_preserved():
    lo, hi = coupling.hybridized_modes(F1, F2, 54.93e6)
    assert lo + hi == pytest.approx(F1 + F2, rel=1e-12)


def test_hybridized_level_repulsion():
    lo, hi = coupling.hybridized_modes(F1, F2, 54.93e6)
    assert lo < F1 < F2 < hi


def test_hybridized_degenerate_split_is_2g():
    g = 54.93e6
    lo, hi = coupling.hybridized_modes(6e9, 6e9, g)
    assert hi - lo == pytest.approx(2.0 * g, rel=1e-9)


@pytest.mark.parametrize("f1,f2,g", [
    (6.0e9, 6.0e9, 54.93e6),
    (F1, F2, 0.0),
    (5.16416e9, 5.16417e9, 300e6),
    (5.16416e9, 5.74989e9, 54.93e6),
    (5.74989e9, 5.16416e9, 54.93e6),
], ids=["delta-zero", "g-zero", "g-dominant", "delta-dominant",
        "f1-above-f2"])
def test_hybridized_matches_closed_form(f1, f2, g):
    # independent oracle: LAPACK on the two-mode matrix
    want = np.linalg.eigvalsh([[f1, g], [g, f2]])
    lo, hi = coupling.hybridized_modes(f1, f2, g)
    assert lo == pytest.approx(want[0], rel=1e-14)
    assert hi == pytest.approx(want[1], rel=1e-14)


def test_hybridized_dispersive_pull():
    # perturbative pull g^2/Delta at the operating detuning
    f1, f2, g = 5.16416e9, 5.74989e9, 54.93e6
    lo, _ = coupling.hybridized_modes(f1, f2, g)
    assert f1 - lo == pytest.approx(g * g / (f2 - f1), rel=0.01)
    assert f1 - lo == pytest.approx(5.15e6, abs=0.2e6)


def test_hybridized_zero_coupling():
    lo, hi = coupling.hybridized_modes(F1, F2, 0.0)
    assert lo == F1 and hi == F2


# ------------------------------------------------------------- chi

def test_dispersive_shift_operating_numbers():
    chi = coupling.dispersive_shift(60e6, -1.95e9, -218e6)
    assert chi / 1e6 == pytest.approx(-0.181, abs=0.005)


def test_dispersive_shift_zero_coupling():
    assert coupling.dispersive_shift(0.0, -1.95e9, -218e6) == 0.0


def test_dispersive_shift_two_level_limit():
    g, delta = 60e6, -1.95e9
    chi = coupling.dispersive_shift(g, delta, -1000.0 * abs(delta))
    assert chi == pytest.approx(g * g / delta, rel=0.01)


def test_dispersive_shift_singularities():
    with pytest.raises(ValueError):
        coupling.dispersive_shift(60e6, 0.0, -218e6)
    with pytest.raises(ValueError):
        coupling.dispersive_shift(60e6, 218e6, -218e6)
    with pytest.raises(ValueError):
        coupling.dispersive_shift(60e6, -1.95e9, 218e6)


# ------------------------------------------------------- non-finite input

@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call,name", [
    (lambda x: coupling.parallel_plate_cg(x, 1e-3), "area"),
    (lambda x: coupling.parallel_plate_cg(1e-6, x), "distance"),
    (lambda x: coupling.parallel_plate_cg(1e-6, 1e-3, x), "eps_r"),
    (lambda x: coupling.capacitance_ratio(x, 1e-13, 1e-13), "cg"),
    (lambda x: coupling.capacitance_ratio(1e-15, x, 1e-13), "c1"),
    (lambda x: coupling.capacitance_ratio(1e-15, 1e-13, x), "c2"),
    (lambda x: coupling.coupling_strength(x, 5e9, 5e9), "r"),
    (lambda x: coupling.coupling_strength(0.01, x, 5e9), "f1"),
    (lambda x: coupling.hybridized_modes(5e9, x, 5e7), "f2"),
    (lambda x: coupling.hybridized_modes(5e9, 5.1e9, x), "g"),
    (lambda x: coupling.dispersive_shift(x, 1e9, -2e8), "g"),
    (lambda x: coupling.dispersive_shift(6e7, x, -2e8), "detuning"),
    (lambda x: coupling.dispersive_shift(6e7, 1e9, x), "anharm"),
], ids=["plate-area", "plate-distance", "plate-eps_r", "ratio-cg",
        "ratio-c1", "ratio-c2", "strength-r", "strength-f1", "modes-f2",
        "modes-g", "chi-g", "chi-detuning", "chi-anharm"])
def test_non_finite_input_is_refused(call, name, value):
    # sign checks such as area <= 0.0 are false for nan, and an infinite
    # distance gave C_g = 0.0
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)
