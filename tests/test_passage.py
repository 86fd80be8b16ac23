import math

import numpy as np
import pytest

from levypassage.levymodel import Boundary, LevyModel, stable_model
from levypassage.passage import (IntegralTest, SurvivalVerdict, boundary_value,
                                 boundary_values,
                                 brownian_integral_test,
                                 subordinator_stays_above, survives)
from levypassage.rng import stream
from levypassage.simulate import PathSample, TimeGrid, sample_path


def path_from(points, values):
    grid = TimeGrid(np.asarray(points, float))
    return PathSample(grid=grid, values=np.asarray(values, float),
                      jump_times=np.empty(0))


def test_boundary_values():
    assert boundary_value(Boundary("decreasing", 1.0, 1.0), 1.0) == 0.0
    assert boundary_value(Boundary("decreasing", 1.0, 1.0), 0.0) == 1.0
    assert boundary_value(Boundary("increasing", 0.5, 1.0), 4.0) == 3.0
    with pytest.raises(ValueError):
        boundary_value(Boundary("constant"), -1.0)


def test_boundary_values_are_each_boundary_bit_for_bit():
    # stacked values, t**gamma shared by boundaries of one gamma, equal the
    # formula f(t) = level, level - t**gamma or level + t**gamma elementwise
    t = np.array([[0.0, 0.5, 1.0, 3.7], [2.0, 1e-9, 1e3, 16384.0]])
    bs = [Boundary("constant", level=0.3), Boundary("decreasing", 1.3, 2.0),
          Boundary("increasing", 1.3, -1.0), Boundary("increasing", 0.5),
          Boundary("decreasing", 2.0)]
    want = [np.full_like(t, 0.3), 2.0 - t ** 1.3, -1.0 + t ** 1.3, 1.0 + t ** 0.5,
            1.0 - t ** 2.0]
    got = boundary_values(bs, t)
    assert got.shape == (5, 2, 4)
    for b, row, w in zip(bs, got, want):
        assert np.array_equal(row, w) and np.array_equal(boundary_value(b, t), w)


def test_zero_path_vs_decreasing():
    p = path_from([0.0, 0.5, 1.0, 1.5, 2.0], [0.0] * 5)
    v = survives(p, Boundary("decreasing", 1.0, 1.0))
    # tie at t=1 survives; first crossing at the first monitored t > 1
    assert not v.survived
    assert v.first_crossing_index == 3


def test_zero_path_vs_constant():
    p = path_from([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert survives(p, Boundary("constant", level=1.0)) == SurvivalVerdict(True, None)


def test_drift_path_vs_increasing():
    grid = TimeGrid(np.linspace(0.0, 2.0, 21))
    p = sample_path(LevyModel(b=1.0), grid, stream(0, 0))
    assert survives(p, Boundary("increasing", 2.0, 1.0)).survived  # t <= 1 + t^2


def test_dominance_orderings():
    m = stable_model(0.7)
    grid = TimeGrid.survival(16.0)
    cons = Boundary("constant")
    dec = Boundary("decreasing", 1.0)
    inc = Boundary("increasing", 1.0)
    for i in range(300):
        p = sample_path(m, grid, stream(41, i))
        s_dec, s_con, s_inc = (survives(p, b).survived for b in (dec, cons, inc))
        assert (not s_dec) or s_con   # dec survival implies constant survival
        assert (not s_con) or s_inc   # constant survival implies inc survival


def test_nesting_in_horizon():
    m = stable_model(0.7)
    grid = TimeGrid.survival(32.0)
    b = Boundary("constant")
    for i in range(300):
        p = sample_path(m, grid, stream(43, i))
        v = survives(p, b)
        if not v.survived:
            tau = p.grid.points[v.first_crossing_index]
            # survival of [0, T2] implies survival of [0, T1], T1 < T2
            sub = p.grid.points <= 8.0
            sub_path = path_from(p.grid.points[sub], p.values[sub])
            assert survives(sub_path, b).survived == (tau > 8.0)


def test_stays_above_exact_for_step_paths():
    # S jumps to 2 at t=1.5 and stays; boundary t**1 - 0.5 crosses 0 at 0.5
    p = path_from([0.0, 1.5, 4.0], [0.0, 2.0, 2.0])
    ok = subordinator_stays_above(p, Boundary("increasing", 1.0, -0.5))
    # fails: on [0, 1.5) the path is 0 < t - 0.5 for t in (0.5, 1.5)
    assert not ok
    p2 = path_from([0.0, 0.25, 4.0], [0.0, 5.0, 5.0])
    assert subordinator_stays_above(p2, Boundary("increasing", 1.0, -0.5))


def test_integral_constant():
    res = brownian_integral_test(Boundary("constant", level=1.0))
    assert res == IntegralTest("convergent", 2.0)


def test_integral_pure_powers():
    # f(t) = t**(1/4): increasing boundary at level 0
    res = brownian_integral_test(Boundary("increasing", 0.25, 0.0))
    assert res.classification == "convergent"
    assert res.value == pytest.approx(4.0, rel=1e-12)
    res = brownian_integral_test(Boundary("increasing", 0.5, 0.0))
    assert res.classification == "divergent" and math.isinf(res.value)


def _dense_integral(f, gamma):
    """int_1^inf |f(t)| t**(-3/2) dt, f ~ +-t**gamma at infinity: trapezoid in
    ln t up to 1e18 plus the analytic remainder of the truncated tail."""
    t = np.geomspace(1.0, 1e18, 2_000_001)
    ref = np.trapezoid(np.abs(f(t)) * t ** -0.5, np.log(t))
    return ref + 1e18 ** (gamma - 0.5) / (0.5 - gamma)


def test_integral_moving_boundaries_closed_form():
    # 1 + t**0.25: 2 + 4 = 6
    res = brownian_integral_test(Boundary("increasing", 0.25, 1.0))
    assert res.value == pytest.approx(6.0, rel=1e-12)
    # |1 - t**0.25| = t**0.25 - 1 on [1, inf): integral = 1/(1/2-1/4) - 2 = 2
    res = brownian_integral_test(Boundary("decreasing", 0.25, 1.0))
    assert res.value == pytest.approx(2.0, rel=1e-12)
    # level above 1: sign split inside the domain; dense-quadrature oracle
    res = brownian_integral_test(Boundary("decreasing", 0.25, 3.0))
    assert res.value == pytest.approx(_dense_integral(lambda t: 3.0 - t ** 0.25, 0.25),
                                      rel=1e-6)
    # increasing boundaries below 0: the sign change at t = 0.5**4 <= 1, then at
    # t = 3**4 inside (1, inf)
    for level in (-0.5, -3.0):
        res = brownian_integral_test(Boundary("increasing", 0.25, level))
        assert res.value == pytest.approx(
            _dense_integral(lambda t: level + t ** 0.25, 0.25), rel=1e-6)
    assert brownian_integral_test(Boundary("decreasing", 0.6, 1.0)).classification \
        == "divergent"

