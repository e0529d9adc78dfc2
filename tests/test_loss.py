"""Loss budget: T1 ceiling, dielectric decay rate, composed Q, linearity."""

import math

import numpy as np
import pytest

from flipkit import loss
from flipkit.loss import LossBudget
from flipkit.tables import SweepTable

# eigenmode Q and frequency of the two qubit-like modes
Q_MODE1 = 1.43512e6
F_MODE1 = 5.16416e9
Q_MODE2 = 754259.0
F_MODE2 = 5.74989e9


def budget(tan_d=1e-6, baseline_q=1e7, f=5e9, p_sub=0.9, p_inter=0.08):
    return LossBudget(mode_frequency=f, baseline_q=baseline_q,
                      regions={"substrate": (p_sub, tan_d),
                               "interlayer": (p_inter, tan_d)})


def tangent_rows(b, grid):
    # a loss-tangent sweep's rows: every region takes each tangent, as
    # device.sweep builds them
    return [loss.loss_figures(b, float(t)) for t in grid]


def test_t1_upper_bound_mode1():
    t1 = loss.t1_upper_bound(Q_MODE1, F_MODE1)
    assert t1 * 1e6 == pytest.approx(44.23, rel=1e-3)


def test_t1_upper_bound_mode2():
    t1 = loss.t1_upper_bound(Q_MODE2, F_MODE2)
    assert t1 * 1e6 == pytest.approx(20.88, rel=1e-3)


def test_t1_upper_bound_linear_in_q():
    assert loss.t1_upper_bound(2.0 * Q_MODE1, F_MODE1) == \
        pytest.approx(2.0 * loss.t1_upper_bound(Q_MODE1, F_MODE1), rel=1e-12)


def test_t1_upper_bound_validation():
    with pytest.raises(ValueError):
        loss.t1_upper_bound(0.0, F_MODE1)
    with pytest.raises(ValueError):
        loss.t1_upper_bound(Q_MODE1, -1.0)


def test_decay_rate_zero_tangents():
    assert loss.dielectric_decay_rate(budget(tan_d=0.0)) == 0.0


def test_decay_rate_single_region():
    b = LossBudget(mode_frequency=5e9, baseline_q=1e7,
                   regions={"bulk": (1.0, 1e-6)})
    assert loss.dielectric_decay_rate(b) == pytest.approx(3.1416e4, abs=1.0)


def test_decay_rate_additive_over_regions():
    b_both = LossBudget(mode_frequency=5e9, baseline_q=1e7,
                        regions={"a": (0.4, 2e-6), "b": (0.3, 5e-7)})
    b_a = LossBudget(mode_frequency=5e9, baseline_q=1e7,
                     regions={"a": (0.4, 2e-6)})
    b_b = LossBudget(mode_frequency=5e9, baseline_q=1e7,
                     regions={"b": (0.3, 5e-7)})
    assert loss.dielectric_decay_rate(b_both) == \
        pytest.approx(loss.dielectric_decay_rate(b_a) +
                      loss.dielectric_decay_rate(b_b), rel=1e-12)


def test_decay_rate_linear_in_each_knob():
    b1 = budget(tan_d=1e-6)
    b2 = budget(tan_d=3e-6)
    assert loss.dielectric_decay_rate(b2) == \
        pytest.approx(3.0 * loss.dielectric_decay_rate(b1), rel=1e-12)
    b3 = budget(tan_d=1e-6, p_sub=0.45, p_inter=0.04)
    assert loss.dielectric_decay_rate(b3) == \
        pytest.approx(0.5 * loss.dielectric_decay_rate(b1), rel=1e-12)


def test_q_total_equals_baseline_when_lossless():
    b = budget(tan_d=0.0, baseline_q=Q_MODE1)
    assert loss.q_with_dielectric(b) == Q_MODE1


def test_q_total_below_baseline():
    b = budget(tan_d=1e-5, baseline_q=Q_MODE1)
    assert loss.q_with_dielectric(b) < Q_MODE1


def test_q_total_dominant_loss_asymptote():
    b = budget(tan_d=1e-2, baseline_q=1e9)
    assert loss.q_with_dielectric(b) == \
        pytest.approx(1.0 / b.weighted_loss(), rel=0.01)


def test_q_loglog_slope_minus_one():
    grid = np.logspace(-4, -2, 21)
    rows = tangent_rows(budget(baseline_q=1e9), grid)
    q = np.array([row["q_total"] for row in rows])
    slope = np.polyfit(np.log10(grid), np.log10(q), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_t1_table_monotone_and_zero_row():
    grid = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    b = budget(baseline_q=Q_MODE1, f=F_MODE1)
    t1 = [row["t1_upper_s"] for row in tangent_rows(b, grid)]
    assert t1[0] == pytest.approx(loss.t1_upper_bound(Q_MODE1, F_MODE1),
                                  rel=1e-12)
    assert all(b <= a for a, b in zip(t1, t1[1:]))


def test_t1_halving_participation_doubles_t1_in_dominated_regime():
    tan_d = 1e-2
    full = budget(tan_d=tan_d, baseline_q=1e9)
    halved = budget(tan_d=tan_d, baseline_q=1e9, p_sub=0.45, p_inter=0.04)
    t_full = loss.t1_upper_bound(loss.q_with_dielectric(full), 5e9)
    t_half = loss.t1_upper_bound(loss.q_with_dielectric(halved), 5e9)
    assert t_half == pytest.approx(2.0 * t_full, rel=0.02)


def test_table_csv_header():
    grid = [1e-6, 1e-5]
    table = SweepTable(param_name="tan_delta")
    for tan_d, row in zip(grid, tangent_rows(budget(), grid)):
        table.add_row(tan_d, **row)
    assert table.to_csv().splitlines()[0] == \
        "tan_delta,q_total,t1_upper_s,gamma_cap_per_s"


def test_budget_validation():
    with pytest.raises(ValueError):
        LossBudget(mode_frequency=-5e9, baseline_q=1e6, regions={})
    with pytest.raises(ValueError):
        LossBudget(mode_frequency=5e9, baseline_q=0.0, regions={})
    with pytest.raises(ValueError):
        LossBudget(mode_frequency=5e9, baseline_q=1e6,
                   regions={"a": (1.2, 0.0)})
    with pytest.raises(ValueError):
        LossBudget(mode_frequency=5e9, baseline_q=1e6,
                   regions={"a": (0.7, 0.0), "b": (0.5, 0.0)})
    with pytest.raises(ValueError):
        LossBudget(mode_frequency=5e9, baseline_q=1e6,
                   regions={"a": (0.5, -1e-6)})


def test_tan_delta_replaces_every_region():
    # the figures at a given tangent are those of a budget built with it,
    # to the bit
    for tan_d in (0.0, 2e-5, 1e-3):
        assert loss.loss_figures(budget(tan_d=1e-6), tan_d) == \
            loss.loss_figures(budget(tan_d=tan_d))
    assert budget(tan_d=1e-6).weighted_loss(2e-5) == \
        budget(tan_d=2e-5).weighted_loss()
    for bad in (-1e-6, math.nan):
        with pytest.raises(ValueError, match="^loss tangent must be >= 0$"):
            loss.loss_figures(budget(), bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call,name", [
    (lambda x: budget(f=x), "mode_frequency"),
    (lambda x: budget(baseline_q=x), "baseline_q"),
    (lambda x: budget(tan_d=x), "loss tangent of 'substrate'"),
    (lambda x: loss.t1_upper_bound(x, 5e9), "q"),
    (lambda x: loss.t1_upper_bound(1e6, x), "frequency"),
], ids=["mode_frequency", "baseline_q", "region-tangent", "t1-q",
        "t1-frequency"])
def test_non_finite_input_is_refused(call, name, value):
    # a nan frequency gave t1_upper_s = nan, and t1_upper_bound(inf, f)
    # returned inf
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


def test_non_finite_tan_delta_is_refused():
    # nan and -inf already fail the sign check; inf gave q_total = 0
    with pytest.raises(ValueError, match="^tan_delta must be finite, got inf$"):
        loss.loss_figures(budget(), math.inf)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="^loss tangent must be >= 0$"):
            loss.loss_figures(budget(), bad)
