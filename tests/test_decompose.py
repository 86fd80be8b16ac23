import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypassage.decompose import (GUIDE_BUCKETS_PER_KNOT, NEGATIVE, POSITIVE,
                                   TABLE_HI, InvalidDecompositionError, JumpTable,
                                   build_decomposition, delta, laplace_bound)
from levypassage.estimate import (subordinator_exceedance,
                                  subordinator_laplace_check)
from levypassage.levymodel import LevyModel, tail_only_model
from levypassage.rng import stream
from levypassage.rvcalc import (RegVaryingTail, SlowlyVaryingSpec, eval_slowly_varying,
                                tail_mass)
from levypassage.simulate import ETA, PerturbedPlan

ELL1 = SlowlyVaryingSpec("constant", c=1.0)


def model05():
    return tail_only_model(0.5, ELL1)


def test_delta_values():
    assert delta(math.exp(math.exp(2.0))) == pytest.approx(0.5, rel=1e-12)
    assert delta(math.exp(math.exp(4.0))) == pytest.approx(0.25, rel=1e-12)
    assert delta(100.0) == 0.5  # (ln ln 100)^-1 ~ 0.655, the cap binds


def test_delta_domain():
    with pytest.raises(ValueError):
        delta(math.e)
    with pytest.raises(ValueError):
        delta(1.0)


@given(st.floats(20.0, 1e12), st.floats(1.1, 100.0))
@settings(max_examples=100, deadline=None)
def test_delta_nonincreasing(T, factor):
    assert delta(T * factor) <= delta(T) + 1e-15


def test_total_mass_constant_ell():
    # delta * int_1^inf x**-1.5 dx = delta * 2
    d = build_decomposition(model05(), 100.0, NEGATIVE)          # delta = 1/2
    assert d.total_mass == pytest.approx(1.0, rel=1e-10)
    d = build_decomposition(model05(), math.exp(math.exp(4.0)), NEGATIVE)  # 1/4
    assert d.total_mass == pytest.approx(0.5, rel=1e-10)


def test_total_mass_log_power_doubled_resolution():
    m = tail_only_model(0.7, SlowlyVaryingSpec("log-power", p=1.0))
    d = build_decomposition(m, 100.0, NEGATIVE)
    # oracle: same integral at much finer resolution on a dense log grid,
    # written without the x > 1 indicator so the endpoint is smooth
    x = np.geomspace(1.0, 1e16, 400001)
    y = d.thinning_probability(x) * m.tail_left.density(x) * x
    ref = np.trapezoid(y, np.log(x))
    assert d.total_mass == pytest.approx(ref, rel=1e-6)


def test_measure_split_identity():
    m = tail_only_model(0.7, SlowlyVaryingSpec("log-power", p=0.5))
    d = build_decomposition(m, 1000.0, NEGATIVE)
    # nu_S + nu_rest = nu, each written as density * x**(alpha+1) in ln x
    v = np.log(np.geomspace(1.001, 100.0, 200))
    nu = m.tail_left.h(v)
    rel = np.abs(d.h_S(v) + d.h_rest(v) - nu) / nu
    assert np.max(rel) < 1e-12


@pytest.mark.parametrize("ell", [ELL1, SlowlyVaryingSpec("log-power", p=1.0)])
@pytest.mark.parametrize("side", [NEGATIVE, POSITIVE])
def test_thinned_mask_matches_the_all_jumps_formula(ell, side):
    # thinned() takes the magnitudes of the jumps beyond 1 on its side and
    # their uniforms, and returns the indices it keeps among them; here the
    # probability is evaluated on every jump and masked afterwards
    alpha = 0.7
    d = build_decomposition(tail_only_model(alpha, ell), 256.0, side)
    rng = np.random.default_rng(41)
    for n in (0, 1, 7, 300, 5000):
        signed = 4.0 * rng.standard_cauchy(n)
        u = rng.uniform(size=n)
        x = np.abs(signed)
        p = (d.delta * eval_slowly_varying(ell, d.delta ** (1.0 / alpha) / x)
             / eval_slowly_varying(ell, 1.0 / x))
        on_side = signed < -1.0 if side == NEGATIVE else signed > 1.0
        assert np.array_equal(d.thinned(x[on_side], u[on_side]),
                              np.flatnonzero((u < p)[on_side]))


def test_nu_rest_negative_detected():
    # log-power p=2 at alpha=0.5, delta=1/2 pushes the ratio above 1/delta
    m = tail_only_model(0.5, SlowlyVaryingSpec("log-power", p=2.0))
    with pytest.raises(InvalidDecompositionError, match="x = "):
        build_decomposition(m, 100.0, NEGATIVE)


def test_build_requires_matching_tail():
    m = LevyModel(tail_right=RegVaryingTail(0.5, ELL1, "right"))
    with pytest.raises(ValueError, match="left"):
        build_decomposition(m, 100.0, NEGATIVE)
    build_decomposition(m, 100.0, POSITIVE)


def test_build_requires_large_T():
    with pytest.raises(ValueError):
        build_decomposition(model05(), 10.0, NEGATIVE)


def test_laplace_bound_values():
    d = build_decomposition(model05(), 100.0, NEGATIVE)  # delta = 1/2
    assert d.delta == 0.5
    assert laplace_bound(d, 0.01).value == pytest.approx(math.exp(-0.025), rel=1e-12)
    assert laplace_bound(d, 0.04).value == pytest.approx(math.exp(-0.05), rel=1e-12)
    # lam -> 0+ gives bound -> 1
    assert laplace_bound(d, 1e-12).value == pytest.approx(1.0, abs=1e-6)


def test_laplace_bound_regime_flag():
    d = build_decomposition(model05(), 100.0, NEGATIVE)
    assert laplace_bound(d, 0.05).in_regime
    assert not laplace_bound(d, 0.2).in_regime
    with pytest.raises(ValueError):
        laplace_bound(d, 0.0)


def test_jump_table_matches_pareto_for_constant_ell():
    d = build_decomposition(model05(), 100.0, NEGATIVE)
    s = d.table.sample(stream(3, 0), 200_000)
    assert np.all(s >= 1.0)
    u = np.sort(s)
    emp = 1.0 - np.arange(1, u.size + 1) / u.size
    # exact jump law is Pareto(1/2): P(S > x) = x**-0.5
    assert np.max(np.abs(emp - u ** -0.5)) < 1.628 / math.sqrt(u.size)



def test_jump_table_resolves_a_bending_tail():
    # ell = ln(e + 1/x)**3 at alpha 0.2 puts a third of the mass past 1e10,
    # where a first-order remainder is off by 13% of the rate: the knot
    # segments plus the remainder must sum to tail_mass
    tail = RegVaryingTail(0.2, SlowlyVaryingSpec("log-power", p=3.0), "right")
    table = JumpTable(tail.h, x_lo=ETA, alpha=0.2)
    total = table.total_mass
    assert total == pytest.approx(tail_mass(tail, ETA), rel=1e-12)
    # and the draws past 1e10 follow the same law: the mass beyond a size
    # drawn from u is u * total_mass (a pure power law past 1e10 would put
    # the median of those draws where 69% of their mass still lies beyond)
    u = np.linspace(0.005, 0.995, 100) * tail_mass(tail, TABLE_HI) / total
    beyond = [tail_mass(tail, x) for x in table.sizes(u)]
    assert beyond == pytest.approx(u * total, rel=1e-4)

@pytest.mark.parametrize("ell", [ELL1, SlowlyVaryingSpec("log-power", p=-1.0)])
def test_decomposition_at_a_small_alpha(ell):
    # at alpha 0.01 the tail rule reaches ln x = 4400, and delta**(1/alpha) /
    # x is below the float range: ell's arguments are taken in logs, and the
    # table's draws stop at e**700
    m = tail_only_model(0.01, ell)
    d = build_decomposition(m, 16.0, NEGATIVE)
    if ell.is_constant:
        assert d.total_mass == pytest.approx(d.delta / 0.01, rel=1e-12)
    else:  # p < 0 thins by less than delta
        assert 0.0 < d.total_mass < d.delta * tail_mass(m.tail_left, 1.0)
    sizes = d.table.sizes(stream(3, 0).uniform(size=10_000))
    assert np.all(np.isfinite(sizes)) and np.all(sizes >= 1.0)


@pytest.fixture(scope="module")
def bit_identity_tables():
    m = tail_only_model(0.7, ELL1)
    split = build_decomposition(m, 128.0, POSITIVE)
    log_power = tail_only_model(0.8, SlowlyVaryingSpec("log-power", p=0.5))
    # a breakpoint 1e-9 past the kink of nu_rest at 1 leaves a segment far
    # shorter than the others: the bucket count hits its cap, one bucket
    # holds both ends of that segment, and the segments on either side of it
    # have different slopes
    near = JumpTable(split.h_rest, x_lo=ETA, alpha=0.7,
                     breakpoints=(1.0, 1.0 + 1e-9))
    assert near._guide.size == GUIDE_BUCKETS_PER_KNOT * near._xp.size + 1
    assert near._steps == 2
    return {"X": PerturbedPlan.from_model(m).table_right,
            "Y_T": PerturbedPlan.from_model(m, split).table_right,
            "S_T": split.table,
            "log-power": PerturbedPlan.from_model(log_power).table_right,
            "near-knot": near}


@pytest.mark.parametrize("name", ["X", "Y_T", "S_T", "log-power", "near-knot"])
def test_jump_table_sizes_equal_the_np_interp_formula(bit_identity_tables, name):
    table = bit_identity_tables[name]
    xp, fp, total = table._xp, table._fp, table.total_mass
    # uniforms whose ln(u * total_mass) is exactly a knot, found among a
    # few spacings around exp(knot) / total_mass
    u0 = np.exp(xp) / total
    cand = u0[:, None] + np.arange(-8, 9) * np.spacing(u0)[:, None]
    on_knot = (np.log(cand * total) == xp[:, None]) & (cand < 1.0)
    assert on_knot.any(axis=1).mean() > 0.5
    u = np.concatenate([stream(17, 0).uniform(size=100_000),
                        [1.0 - 2.0 ** -53], cand[on_knot]])

    assert np.array_equal(table.sizes(u), np.exp(np.interp(np.log(u * total), xp, fp)))

    # the lookup itself on targets next to each knot, at fractions of the
    # following segment and outside the knots, where np.interp's edge rules
    # apply
    after = [xp[:-1] + f * np.diff(xp) for f in (1e-3, 1e-2, 0.5)]
    t = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                        *after, [xp[0] - 1.0, xp[-1] + 1.0, -np.inf, np.inf]])
    assert np.array_equal(table._interp(t), np.interp(t, xp, fp))


@pytest.mark.parametrize("name", ["X", "S_T", "near-knot"])
def test_jump_table_lookup_leaves_its_input_unchanged(bit_identity_tables, name):
    # sizes and _interp work in place on arrays of their own, never on the
    # caller's uniforms or targets
    table = bit_identity_tables[name]
    u = stream(19, 0).uniform(size=1000)
    t = np.concatenate([np.log(u * table.total_mass), [-np.inf, np.inf]])
    u_seen, t_seen = u.copy(), t.copy()
    sizes, looked_up = table.sizes(u), table._interp(t)
    assert np.array_equal(u, u_seen) and np.array_equal(t, t_seen)
    assert not np.shares_memory(sizes, u) and not np.shares_memory(looked_up, t)


@pytest.mark.parametrize("side", [NEGATIVE, POSITIVE])
@pytest.mark.parametrize("lam", [1e-3, 1e-2])
def test_empirical_laplace_bound(side, lam):
    # acceptance-scale check lives in test_acceptance; this is the small one
    d = build_decomposition(model05(), 1e6, side)
    chk = subordinator_laplace_check(d, lam, 20_000, 11)
    assert chk.satisfied


def test_total_mass_vanishes_at_rate_delta():
    masses = []
    for T in (1e2, 1e6, 1e12, 1e24):
        d = build_decomposition(model05(), T, NEGATIVE)
        masses.append(d.total_mass / d.delta)
    # mass / delta constant for constant ell, so mass tracks delta exactly
    assert np.allclose(masses, masses[0], rtol=1e-9)
    deltas = [delta(T) for T in (1e2, 1e6, 1e12, 1e24)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_subordinator_tail_bound_decays():
    # P(S_T(t) > c(t) delta**(1/(2 alpha))) shrinks along delta(T) -> 0
    m = model05()
    alpha = 0.5
    probs = []
    for T in (1e2, 1e6, 1e12):
        d = build_decomposition(m, T, NEGATIVE)
        t = math.ceil(d.delta ** -0.5) + 1
        threshold = t ** (1 / alpha) * d.delta ** (1 / (2 * alpha))
        p, se = subordinator_exceedance(d, t, threshold, 40_000, 13)
        probs.append(p)
    assert probs[0] > probs[1] > probs[2]
