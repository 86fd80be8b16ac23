import math

import mpmath
import pytest

from levypassage.levymodel import (Boundary, LevyModel, characteristic_exponent,
                                   levy_unit_tail_scale, stable_model,
                                   standard_symmetric_model, tail_only_model)
from levypassage.rvcalc import SlowlyVaryingSpec


def test_pure_drift_exponent():
    assert characteristic_exponent(LevyModel(b=1.0), 1.0) == pytest.approx(1j)


def test_gaussian_exponent():
    psi = characteristic_exponent(LevyModel(sigma2=2.0), 3.0)
    assert psi == pytest.approx(-9.0 + 0.0j)
    with pytest.raises(ValueError):
        LevyModel(sigma2=-1.0)


def test_symmetric_tails_closed_form():
    # Psi(u) = -2 * Gamma(1-a) cos(pi a/2)/a * |u|**a for ell = 1 tails
    m = tail_only_model(0.7, SlowlyVaryingSpec("constant", c=1.0))
    with mpmath.workdps(40):
        expected = float(-2 * mpmath.gamma(0.3) * mpmath.cos(0.35 * mpmath.pi)
                         / 0.7 * 2 ** 0.7)
    psi = characteristic_exponent(m, 2.0)
    assert psi.imag == pytest.approx(0.0, abs=1e-10)
    assert psi.real < 0
    assert psi.real == pytest.approx(expected, rel=1e-8)


def test_quadrature_agrees_at_doubled_resolution():
    m = tail_only_model(0.7, SlowlyVaryingSpec("log-power", p=1.0))
    coarse = characteristic_exponent(m, 2.0)
    fine = characteristic_exponent(m, 2.0, epsabs=1e-12, epsrel=1e-10)
    assert abs(coarse - fine) / abs(fine) < 1e-6


def test_conjugate_symmetry():
    m = stable_model(0.7, 0.5)
    for u in (0.5, 1.0, 2.0, 3.7):
        psi = characteristic_exponent(m, u)
        assert abs(characteristic_exponent(m, -u) - psi.conjugate()) <= 1e-12 * abs(psi)


def test_exponent_vanishes_at_zero():
    m = stable_model(0.7, 0.5)
    assert characteristic_exponent(m, 0.0) == 0.0


def test_matched_tails_reproduce_stable_exponent():
    # stable_model's triplet must reproduce the strictly stable law
    for alpha, beta in ((0.7, 0.0), (0.7, 0.5), (0.5, 1.0)):
        m = stable_model(alpha, beta, 1.0)
        target = -(2.0 ** alpha) * complex(1.0, -beta * math.tan(math.pi * alpha / 2))
        psi = characteristic_exponent(m, 2.0)
        assert psi == pytest.approx(target, rel=1e-7)


def test_unit_tail_scale_gives_ell_one():
    m = standard_symmetric_model(0.7)
    assert m.tail_left.ell.c == pytest.approx(1.0, rel=1e-14)
    assert m.tail_right.ell.c == pytest.approx(1.0, rel=1e-14)
    assert m.stable.scale == pytest.approx(levy_unit_tail_scale(0.7))


def test_boundary_validation():
    with pytest.raises(ValueError):
        Boundary("diagonal")
    with pytest.raises(ValueError):
        Boundary("decreasing", gamma=-1.0)
    Boundary("constant")  # gamma irrelevant


@pytest.mark.parametrize("kind", ["constant", "decreasing", "increasing"])
@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_boundary_level_must_be_finite(kind, level):
    with pytest.raises(ValueError, match="level"):
        Boundary(kind, 0.25, level)
