import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypassage.levymodel import tail_only_model
from levypassage.rvcalc import (RegVaryingTail, SlowlyVaryingSpec, eval_slowly_varying,
                                gl_panels, second_moment_below, tail_mass)
from levypassage.simulate import COMPENSATOR_EDGES, ETA, PerturbedPlan

CONST1 = SlowlyVaryingSpec("constant", c=1.0)


def test_constant_family_returns_c():
    spec = SlowlyVaryingSpec("constant", c=1.0)
    assert eval_slowly_varying(spec, 0.37) == 1.0
    assert eval_slowly_varying(SlowlyVaryingSpec("constant", c=2.5), 123.0) == 2.5


def test_log_power_at_one():
    spec = SlowlyVaryingSpec("log-power", p=1.0)
    assert eval_slowly_varying(spec, 1.0) == pytest.approx(math.log(math.e + 1.0), rel=1e-15)
    assert eval_slowly_varying(spec, 1.0) == pytest.approx(1.313262, abs=1e-6)


def test_log_power_extended_precision_oracle():
    # oracle: (ln(e + 100))**2 in 50-digit arithmetic
    with mpmath.workdps(50):
        expected = float(mpmath.log(mpmath.e + 100) ** 2)
    spec = SlowlyVaryingSpec("log-power", p=2.0)
    assert eval_slowly_varying(spec, 0.01) == pytest.approx(expected, rel=1e-14)


def test_eval_rejects_bad_x():
    with pytest.raises(ValueError):
        eval_slowly_varying(CONST1, 0.0)
    with pytest.raises(ValueError):
        eval_slowly_varying(CONST1, float("nan"))
    with pytest.raises(ValueError):
        eval_slowly_varying(CONST1, float("inf"))


def test_spec_validation():
    with pytest.raises(ValueError):
        SlowlyVaryingSpec("constant", c=-1.0)
    with pytest.raises(ValueError):
        SlowlyVaryingSpec("weird")
    with pytest.raises(ValueError):
        RegVaryingTail(2.0, CONST1, "left")
    with pytest.raises(ValueError):
        RegVaryingTail(0.5, CONST1, "up")


def test_tail_mass_closed_form():
    tail = RegVaryingTail(0.5, CONST1, "left")
    assert tail_mass(tail, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert tail_mass(tail, 4.0) == pytest.approx(1.0, rel=1e-14)


def test_tail_mass_log_power_against_refined_quadrature():
    tail = RegVaryingTail(0.7, SlowlyVaryingSpec("log-power", p=1.0), "right")
    val = tail_mass(tail, 2.0)
    # oracle: high-resolution quadrature of the same integrand
    with mpmath.workdps(40):
        ref = float(mpmath.quad(
            lambda x: x ** -1.7 * mpmath.log(mpmath.e + x), [2, 100, mpmath.inf]))
    assert val == pytest.approx(ref, rel=1e-8)


def test_karamata_ratio_exact_for_constant_ell():
    # at alpha 0.05 the rule reaches u = e**880, past the float range
    for alpha in (0.05, 0.7, 1.9):
        tail = RegVaryingTail(alpha, CONST1, "right")
        for x in np.geomspace(1.0, 1e4, 17):
            assert tail_mass(tail, x) * x ** alpha * alpha == pytest.approx(1.0, rel=1e-12)


def log_power_mass(alpha, p, x):
    """int_x^inf of u**(-alpha-1) ln(e + u)**p du in 40 digits.

    In s = alpha ln u the integrand is exp(-s) ln(e + exp(s/alpha))**p,
    which turns near s = 0 over a width of alpha and then decays like
    exp(-s); a quad in u itself misses 2e-6 of it at alpha 0.2, p 3.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        s0 = a * mpmath.log(x)
        f = lambda s: mpmath.exp(-s) * mpmath.log(mpmath.e + mpmath.exp(s / a)) ** p
        cuts = sorted({s0, *(s for s in (-3 * a, 0, 3 * a) if s > s0),
                       *(s0 + d for d in (1, 5, 20, 60))})
        return float(mpmath.quad(f, cuts + [mpmath.inf]) / a)


@pytest.mark.parametrize("x", [1e-3, 1.0, 1e10])
@pytest.mark.parametrize("p", [-3.0, 1.0, 3.0])
@pytest.mark.parametrize("alpha", [0.03, 0.1, 0.2, 0.5, 1.0, 1.9])
def test_tail_mass_log_power_against_s_variable_reference(alpha, p, x):
    tail = RegVaryingTail(alpha, SlowlyVaryingSpec("log-power", p=p), "right")
    bound = 1e-12 if alpha >= 0.1 else 1e-8
    assert tail_mass(tail, x) == pytest.approx(log_power_mass(alpha, p, x), rel=bound)


def small_jump_references(alpha, ell):
    """(int_0^ETA x**2 nu, int_ETA^1 x nu) in 40 digits, both taken in v = ln x.

    In v the slowly varying part is h(v) = c or ln(e + e**v)**p, and the
    integrands are h(v) e**((2-alpha) v) on (-inf, ln ETA] and
    h(v) e**((1-alpha) v) on [ln ETA, 0].
    """
    with mpmath.workdps(40):
        a, ln_eta = mpmath.mpf(alpha), mpmath.log(mpmath.mpf(ETA))
        if ell.is_constant:
            h = lambda v: mpmath.mpf(ell.c)
        else:
            h = lambda v: mpmath.log(mpmath.e + mpmath.exp(v)) ** ell.p
        # below ln ETA in s = (2 - alpha)(ln ETA - v), which decays like e**-s
        var = mpmath.quad(lambda s: mpmath.exp(-s) * h(ln_eta - s / (2 - a)),
                          [0, 1, 5, 20, 60, mpmath.inf]) * ETA ** (2 - a) / (2 - a)
        comp = mpmath.quad(lambda v: h(v) * mpmath.exp((1 - a) * v), [ln_eta, -3, -1, 0])
        return float(var), float(comp)


@pytest.mark.parametrize("ell", [
    SlowlyVaryingSpec("constant", c=2.5),
    *(SlowlyVaryingSpec("log-power", p=p) for p in (-3.0, 1.0, 3.0))],
    ids=["constant", "p-3", "p1", "p3"])
@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.7, 1.0, 1.5, 1.9])
def test_small_jump_integrals_against_log_variable_reference(alpha, ell):
    tail = RegVaryingTail(alpha, ell, "right")
    var_ref, comp_ref = small_jump_references(alpha, ell)
    comp = np.sum(gl_panels(tail.h, COMPENSATOR_EDGES, 1.0 - alpha))
    assert second_moment_below(tail.h, ETA, alpha) == pytest.approx(var_ref, rel=1e-12)
    assert comp == pytest.approx(comp_ref, rel=1e-12)


def test_perturbed_plan_finite_where_the_variance_rule_reaches_far():
    # at alpha 1.95 the variance rule evaluates h down to v = ln ETA - 44/0.05,
    # about -887, where e**v underflows; h itself stays finite there
    plan = PerturbedPlan.from_model(
        tail_only_model(1.95, SlowlyVaryingSpec("log-power", p=-3.0)))
    assert math.isfinite(plan.var_unit) and plan.var_unit > 0
    assert math.isfinite(plan.drift)


def test_levy_integrability_of_density():
    # x**2 * density integrable at 0, density integrable at infinity
    for alpha in (0.3, 0.7, 1.5):
        tail = RegVaryingTail(alpha, SlowlyVaryingSpec("log-power", p=1.0), "left")
        from scipy.integrate import quad
        inner, _ = quad(lambda x: x * x * tail.density(x), 0, 1)
        assert math.isfinite(inner) and inner > 0
        assert math.isfinite(tail_mass(tail, 1.0))


@given(st.floats(0.05, 1.95), st.floats(-3.0, 3.0),
       st.floats(1e-6, 1e3))
@settings(max_examples=50, deadline=None)
def test_density_positive(alpha, p, x):
    tail = RegVaryingTail(alpha, SlowlyVaryingSpec("log-power", p=p), "right")
    assert tail.density(x) > 0


@given(st.floats(0.2, 1.8))
@settings(max_examples=20, deadline=None)
def test_tail_mass_decreasing_in_x(alpha):
    tail = RegVaryingTail(alpha, SlowlyVaryingSpec("log-power", p=1.0), "left")
    masses = [tail_mass(tail, x) for x in (0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(masses, masses[1:]))
