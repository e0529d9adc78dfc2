"""Conformal-mapping CPW design formulas and the quarter-wave resonator."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipkit import cpw
from flipkit.constants import C_LIGHT, EPS_0, MU_0
from flipkit.numerics import RealInterval

# silicon below, vacuum above
EPS_EFF = 6.45
W = 10e-6
S = 5.806e-6

# full resonator lengths (the 0.25 mm pocket extension included)
L_BOTTOM = 4.2956e-3
L_TOP = 4.0481e-3
EXT = 0.25e-3

lengths = st.floats(min_value=1e-6, max_value=1e-3)
perms = st.floats(min_value=1.0, max_value=30.0)


def test_effective_permittivity_silicon_vacuum():
    assert cpw.effective_permittivity(11.9, 1.0) == 6.45


def test_effective_permittivity_trivia():
    assert cpw.effective_permittivity(1.0, 1.0) == 1.0
    assert cpw.effective_permittivity(11.9, 11.9) == 11.9


@given(perms, perms)
def test_effective_permittivity_symmetric(a, b):
    assert cpw.effective_permittivity(a, b) == \
        cpw.effective_permittivity(b, a)


def test_effective_permittivity_domain():
    with pytest.raises(ValueError):
        cpw.effective_permittivity(0.5, 1.0)


def test_modulus_k0_reference_geometry():
    assert cpw.modulus_k0(W, S) == pytest.approx(0.46271, abs=1e-5)


def test_modulus_k0_equal_width_gap():
    assert cpw.modulus_k0(3.0, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


@given(lengths, lengths)
def test_modulus_identity(w, s):
    k0 = cpw.modulus_k0(w, s)
    assert 0.0 < k0 < 1.0
    k0p = math.sqrt(1.0 - k0 * k0)
    assert k0 * k0 + k0p * k0p == pytest.approx(1.0, rel=1e-14)


def test_impedance_reference_geometry():
    z0 = cpw.characteristic_impedance(W, S, EPS_EFF)
    assert 49.2 <= z0 <= 49.9
    # external-calculator result for the same line, finite-thickness model
    assert z0 == pytest.approx(49.568, abs=0.4)


@given(lengths, lengths, st.floats(min_value=1.1, max_value=20.0))
def test_impedance_scale_invariance(w, s, eps):
    # Z0 depends on the gap-to-width shape only
    z1 = cpw.characteristic_impedance(w, s, eps)
    z2 = cpw.characteristic_impedance(2.0 * w, 2.0 * s, eps)
    assert z2 == pytest.approx(z1, rel=1e-12)


def test_impedance_permittivity_scaling():
    z1 = cpw.characteristic_impedance(W, S, EPS_EFF)
    z4 = cpw.characteristic_impedance(W, S, 4.0 * EPS_EFF)
    assert z4 == pytest.approx(z1 / 2.0, rel=1e-12)


def test_impedance_monotone_in_gap_and_width():
    z = lambda w, s: cpw.characteristic_impedance(w, s, EPS_EFF)
    assert z(W, 2e-6) < z(W, 4e-6) < z(W, 8e-6)
    assert z(20e-6, S) < z(10e-6, S) < z(5e-6, S)


def test_impedance_domain():
    with pytest.raises(ValueError):
        cpw.characteristic_impedance(-W, S, EPS_EFF)
    with pytest.raises(ValueError):
        cpw.characteristic_impedance(W, 0.0, EPS_EFF)


def impedance_range(w, eps_eff):
    """Z0 reached by the accepted gaps, w/100 to 100 w."""
    return (cpw.characteristic_impedance(w, 1e-2 * w, eps_eff),
            cpw.characteristic_impedance(w, 100.0 * w, eps_eff))


def test_gap_synthesis_near_paper_value():
    s = cpw.solve_gap_for_impedance(W, EPS_EFF, 50.0)
    assert s == pytest.approx(5.806e-6, rel=0.04)


def test_gap_synthesis_round_trip():
    s = cpw.solve_gap_for_impedance(W, EPS_EFF, 50.0)
    assert cpw.characteristic_impedance(W, s, EPS_EFF) == \
        pytest.approx(50.0, rel=1e-12)


@given(st.floats(min_value=30.0, max_value=120.0))
def test_gap_synthesis_round_trip_any_target(z_target):
    s = cpw.solve_gap_for_impedance(W, EPS_EFF, z_target)
    assert cpw.characteristic_impedance(W, s, EPS_EFF) == \
        pytest.approx(z_target, rel=1e-12)


def test_gap_synthesis_monotone():
    s45 = cpw.solve_gap_for_impedance(W, EPS_EFF, 45.0)
    s55 = cpw.solve_gap_for_impedance(W, EPS_EFF, 55.0)
    assert s45 < s55


def test_gap_synthesis_unreachable_target():
    # q = exp(-pi tau) underflows to 0 at all four, for k0 or for k0'
    z_lo, z_hi = impedance_range(W, EPS_EFF)
    for z_target in (1e4, 1e300, 1e-3, 5e-324):
        with pytest.raises(ValueError) as err:
            cpw.solve_gap_for_impedance(W, EPS_EFF, z_target)
        assert f"{z_target:g} ohm is out of reach" in str(err.value)
        assert f"give {z_lo:.6g} to {z_hi:.6g} ohm at eps_eff 6.45" in \
            str(err.value)


# ------------------------------------- gap synthesis against bisection

def find_root(f, bracket: RealInterval, tol: float = 1e-12,
              max_iter: int = 200) -> float:
    """Bisection root of a continuous scalar function.

    The bracket endpoints must straddle a sign change; an endpoint that
    is already an exact root is returned as-is.
    """
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) <= tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_find_root_linear():
    got = find_root(lambda x: x - 2.0, RealInterval(0.0, 5.0))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_find_root_sqrt2():
    got = find_root(lambda x: x * x - 2.0, RealInterval(1.0, 2.0), tol=1e-13)
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_cosine():
    got = find_root(math.cos, RealInterval(1.0, 2.0))
    assert got == pytest.approx(math.pi / 2, abs=1e-11)


def test_find_root_requires_sign_change():
    with pytest.raises(ValueError):
        find_root(lambda x: x * x + 1.0, RealInterval(-1.0, 1.0))


def test_find_root_exact_endpoint():
    assert find_root(lambda x: x, RealInterval(-1.0, 3.0)) == \
        pytest.approx(0.0, abs=1e-12)


def bisected_gap(w, eps_eff, z_target):
    """Independent oracle: bisect the forward map gap -> Z0."""
    return find_root(
        lambda s: cpw.characteristic_impedance(w, s, eps_eff) - z_target,
        RealInterval(1e-2 * w, 100.0 * w), tol=1e-16 * w)


def assert_synthesis_matches_oracle(w, eps_eff, z_target):
    s = cpw.solve_gap_for_impedance(w, eps_eff, z_target)
    assert s == pytest.approx(bisected_gap(w, eps_eff, z_target), rel=1e-11)
    assert cpw.characteristic_impedance(w, s, eps_eff) == \
        pytest.approx(z_target, rel=1e-12)
    return s


@given(st.floats(min_value=1e-6, max_value=50e-6),
       st.floats(min_value=1.0, max_value=12.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_gap_synthesis_matches_bisection(w, eps_eff, fraction):
    z_lo, z_hi = impedance_range(w, eps_eff)
    z_target = min(z_lo + fraction * (z_hi - z_lo), z_hi)
    assert_synthesis_matches_oracle(w, eps_eff, z_target)


def tau_one_impedance(eps_eff):
    """Z0 at K(k0') = K(k0), where the nome series switch modulus."""
    return math.sqrt(MU_0 / (16.0 * EPS_0 * eps_eff))


@pytest.mark.parametrize("tau", [1.0 - 1e-12, 1.0 - 1e-6, 1.0,
                                 1.0 + 1e-6, 1.0 + 1e-12])
def test_gap_synthesis_across_tau_one(tau):
    assert_synthesis_matches_oracle(W, EPS_EFF,
                                    tau * tau_one_impedance(EPS_EFF))


def test_gap_synthesis_at_tau_one_is_exact():
    # k0 = 1/sqrt(2) at tau = 1, so the gap is w (sqrt(2) - 1) / 2
    s = cpw.solve_gap_for_impedance(W, EPS_EFF, tau_one_impedance(EPS_EFF))
    assert s == pytest.approx(W * (math.sqrt(2.0) - 1.0) / 2.0, rel=1e-15)


@pytest.mark.parametrize("eps_eff", [1.0, EPS_EFF, 12.0])
def test_gap_synthesis_at_range_ends(eps_eff):
    z_lo, z_hi = impedance_range(W, eps_eff)
    s_lo = assert_synthesis_matches_oracle(W, eps_eff, z_lo)
    s_hi = assert_synthesis_matches_oracle(W, eps_eff, z_hi)
    assert s_lo == pytest.approx(1e-2 * W, rel=1e-11)
    assert s_hi == pytest.approx(100.0 * W, rel=1e-11)
    for z_out in (z_lo * (1.0 - 1e-9), z_hi * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match="out of reach"):
            cpw.solve_gap_for_impedance(W, eps_eff, z_out)


@pytest.mark.parametrize("w,eps_eff,z_target", [
    (0.0, EPS_EFF, 50.0), (-W, EPS_EFF, 50.0), (W, 0.99, 50.0),
    (W, EPS_EFF, 0.0), (W, EPS_EFF, -50.0), (W, EPS_EFF, math.inf),
    (W, EPS_EFF, math.nan),
])
def test_gap_synthesis_domain(w, eps_eff, z_target):
    with pytest.raises(ValueError):
        cpw.solve_gap_for_impedance(w, eps_eff, z_target)


def test_phase_velocity():
    assert cpw.phase_velocity(1.0) == C_LIGHT
    assert cpw.phase_velocity(4.0) == pytest.approx(C_LIGHT / 2.0, rel=1e-15)
    assert cpw.phase_velocity(EPS_EFF) == pytest.approx(1.1804e8, abs=1e4)


def test_quarter_wave_lower_bound_bottom():
    res = cpw.ResonatorSpec(physical_length=L_BOTTOM, pocket_extension=EXT,
                            eps_eff=EPS_EFF)
    f = cpw.quarter_wave_frequency(res, use_extension=True)
    assert f == pytest.approx(6.87e9, abs=0.01e9)


def test_quarter_wave_length_scaling():
    res = cpw.ResonatorSpec(physical_length=L_BOTTOM, pocket_extension=0.0,
                            eps_eff=EPS_EFF)
    dbl = cpw.ResonatorSpec(physical_length=2.0 * L_BOTTOM,
                            pocket_extension=0.0, eps_eff=EPS_EFF)
    assert cpw.quarter_wave_frequency(dbl) == \
        pytest.approx(cpw.quarter_wave_frequency(res) / 2.0, rel=1e-12)


def test_extension_lowers_frequency():
    res = cpw.ResonatorSpec(physical_length=L_TOP, pocket_extension=EXT,
                            eps_eff=EPS_EFF)
    assert cpw.quarter_wave_frequency(res, use_extension=True) < \
        cpw.quarter_wave_frequency(res, use_extension=False)


@pytest.mark.parametrize("length,fem_hz", [(L_BOTTOM, 7.11469e9),
                                           (L_TOP, 7.50486e9)])
def test_interval_brackets_reference_frequency(length, fem_hz):
    res = cpw.ResonatorSpec(physical_length=length, pocket_extension=EXT,
                            eps_eff=EPS_EFF)
    iv = cpw.resonator_interval(res)
    assert isinstance(iv, RealInterval)
    assert iv.lo <= fem_hz <= iv.hi


def test_resonator_spec_validation():
    with pytest.raises(ValueError):
        cpw.ResonatorSpec(physical_length=1e-3, pocket_extension=2e-3,
                          eps_eff=EPS_EFF)
    with pytest.raises(ValueError):
        cpw.ResonatorSpec(physical_length=1e-3, pocket_extension=-1e-6,
                          eps_eff=EPS_EFF)


def test_geometry_validation():
    with pytest.raises(ValueError):
        cpw.CpwGeometry(trace_width=0.0, gap=S, eps_substrate=11.9,
                        eps_superstrate=1.0)
    g = cpw.CpwGeometry(trace_width=W, gap=S, eps_substrate=11.9,
                        eps_superstrate=1.0)
    assert cpw.effective_permittivity(g.eps_substrate,
                                      g.eps_superstrate) == 6.45
