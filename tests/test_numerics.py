"""Kernel checks: AGM, elliptic K, bisection, the interval type.

Frozen values were produced by hand-iterating the defining recurrences
or by an independent route inside the test (quadrature for K), so
nothing here depends on the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipkit.numerics import RealInterval, agm, elliptic_k, find_root

# AGM of (1, 0.46271), iterated by hand to convergence
AGM_046271 = 0.705558

# quadrature oracle values of K at the two paper-geometry moduli
K_046271 = 1.6668
K_088652 = 2.2263

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def k_by_quadrature(k: float, n: int = 20001) -> float:
    """Direct trapezoid evaluation of the defining integral of K."""
    theta = np.linspace(0.0, 0.5 * math.pi, n)
    integrand = 1.0 / np.sqrt(1.0 - (k * np.sin(theta)) ** 2)
    return float(np.trapezoid(integrand, theta))


# ---------------------------------------------------------------- agm

def test_agm_fixed_point():
    assert agm(1.0, 1.0) == 1.0


def test_agm_frozen_value():
    assert agm(1.0, 0.46271) == pytest.approx(AGM_046271, abs=1e-5)


def test_agm_rejects_nonpositive():
    with pytest.raises(ValueError):
        agm(0.0, 1.0)
    with pytest.raises(ValueError):
        agm(1.0, -2.0)


@given(positive)
def test_agm_of_equal_arguments_is_identity(x):
    assert agm(x, x) == pytest.approx(x, rel=1e-14)


@given(positive, positive)
def test_agm_symmetric_and_bounded(a, b):
    m = agm(a, b)
    assert m == pytest.approx(agm(b, a), rel=1e-14)
    assert min(a, b) * (1 - 1e-12) <= m <= max(a, b) * (1 + 1e-12)


# ---------------------------------------------------------- elliptic_k

def test_elliptic_k_at_zero_is_half_pi():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("k,expected", [(0.46271, K_046271),
                                        (0.88652, K_088652)])
def test_elliptic_k_frozen_values(k, expected):
    assert elliptic_k(k) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("k", np.linspace(0.0, 0.99, 23).tolist())
def test_elliptic_k_matches_quadrature(k):
    assert elliptic_k(k) == pytest.approx(k_by_quadrature(k), rel=1e-6)


def test_elliptic_k_strictly_increasing():
    grid = np.linspace(0.0, 0.999, 200)
    vals = [elliptic_k(float(k)) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_elliptic_k_domain(bad):
    with pytest.raises(ValueError):
        elliptic_k(bad)


# ------------------------------------------------------------ find_root

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


# ----------------------------------------------------------- containers

def test_interval_validation():
    with pytest.raises(ValueError):
        RealInterval(2.0, 2.0)
    with pytest.raises(ValueError):
        RealInterval(0.0, math.inf)
    iv = RealInterval(1.0, 3.0)
    assert iv.midpoint == 2.0
