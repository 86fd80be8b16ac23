import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypassage import estimate
from levypassage.decompose import DecompositionT, NEGATIVE, build_decomposition
from levypassage.estimate import (SurvivalEstimate,
                                  discrete_survival_experiment, fit_exponent,
                                  lemma_n0N_experiment, product_bound_check,
                                  survival_counts, survival_probability,
                                  wilson_log_ci)
from levypassage.levymodel import (Boundary, brownian_model,
                                   standard_symmetric_model)
from levypassage.rng import stream
from levypassage.rvcalc import SlowlyVaryingSpec
from levypassage.simulate import TimeGrid
from levypassage.stable import StableParams, positivity_parameter, sample_stable

ELL1 = SlowlyVaryingSpec("constant", c=1.0)


def synthetic(T, p, n=10 ** 8):
    return SurvivalEstimate(T=T, n_paths=n, survivors=int(round(p * n)),
                            p_hat=p, log_ci=(math.log(p), math.log(p)), seed=0)


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def test_fit_exact_half():
    ests = [synthetic(T, T ** -0.5) for T in (10.0, 100.0, 1000.0, 10000.0)]
    fit = fit_exponent(ests)
    assert abs(fit.rho_hat - 0.5) < 1e-12
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_with_prefactor():
    ests = [synthetic(T, 7.0 * T ** -0.3) for T in (1e3, 1e4, 1e5, 1e6)]
    assert abs(fit_exponent(ests).rho_hat - 0.3) < 1e-12


@given(st.floats(0.001, 2.5))
@settings(max_examples=50, deadline=None)
def test_fit_scale_invariance(c):
    Ts = (10.0, 100.0, 1000.0, 10000.0)
    base = [synthetic(T, 0.1 * T ** -0.4) for T in Ts]
    scaled = [synthetic(T, c * 0.1 * T ** -0.4) for T in Ts]
    assert fit_exponent(base).rho_hat == pytest.approx(
        fit_exponent(scaled).rho_hat, abs=1e-12)


def test_fit_needs_four_points():
    ests = [synthetic(T, T ** -0.5) for T in (10.0, 100.0, 1000.0)]
    with pytest.raises(ValueError):
        fit_exponent(ests)


def test_fit_drops_zero_survivors_with_warning():
    ests = [synthetic(T, T ** -0.5) for T in (10.0, 100.0, 1000.0, 10000.0)]
    dead = SurvivalEstimate(T=1e5, n_paths=100, survivors=0, p_hat=0.0,
                            log_ci=(-math.inf, -2.0), seed=0)
    with pytest.warns(UserWarning, match="dropping"):
        fit = fit_exponent(ests + [dead])
    assert abs(fit.rho_hat - 0.5) < 1e-12
    assert len(fit.grid) == 4


def test_wilson_interval():
    lo, hi = wilson_log_ci(50, 100)
    assert lo < math.log(0.5) < hi
    lo0, hi0 = wilson_log_ci(0, 100)
    assert lo0 == -math.inf and math.isfinite(hi0)
    lon, hin = wilson_log_ci(100, 100)
    assert hin <= 0.0 and math.isfinite(lon)


@given(st.integers(1, 999), st.integers(1000, 2000))
@settings(max_examples=100, deadline=None)
def test_wilson_brackets_point_estimate(k, n):
    lo, hi = wilson_log_ci(k, n)
    assert lo <= math.log(k / n) <= hi


# ---------------------------------------------------------------------------
# survival engine
# ---------------------------------------------------------------------------

def test_survival_at_time_zero_is_one():
    m = standard_symmetric_model(0.7)
    ests = survival_probability(m, Boundary("constant"), [0.0, 1.0, 4.0],
                                n_paths=500, grid=TimeGrid.survival(4.0), seed=1)
    assert ests[0].p_hat == 1.0
    assert ests[0].T == 0.0


def test_brownian_constant_boundary_oracle():
    # P(max W <= 1 on [0,1]) = 2 Phi(1) - 1, grid bias ~ +0.009 at dt = 1e-3
    m = brownian_model(1.0)
    n = 20_000
    ests = survival_probability(m, Boundary("constant"), [1.0], n_paths=n,
                                grid=TimeGrid.uniform(1.0, 1e-3), seed=2)
    oracle = math.erf(1.0 / math.sqrt(2.0))
    se = math.sqrt(oracle * (1 - oracle) / n)
    assert 0.0 <= ests[0].p_hat - oracle <= 3.0 * se + 0.012


def test_exact_nesting_and_boundary_ordering():
    m = standard_symmetric_model(0.7)
    T_grid = np.array([2.0, 8.0, 32.0])
    bs = [Boundary("decreasing", 1.0), Boundary("constant"),
          Boundary("increasing", 1.0)]
    counts = survival_counts(m, bs, T_grid, 2000, TimeGrid.survival(32.0), seed=3)
    # nesting in T: integer counts nonincreasing along each row
    assert np.all(np.diff(counts, axis=1) <= 0)
    # pointwise boundary ordering: dec <= const <= inc, exactly, per column
    assert np.all(counts[0] <= counts[1]) and np.all(counts[1] <= counts[2])


def test_determinism_across_thread_counts():
    m = standard_symmetric_model(0.7)
    T_grid = np.array([2.0, 8.0, 32.0])
    grid = TimeGrid.survival(32.0)
    base = survival_counts(m, [Boundary("constant")], T_grid, 1500, grid,
                           seed=4, threads=1)
    for threads in (4, 16):
        other = survival_counts(m, [Boundary("constant")], T_grid, 1500, grid,
                                seed=4, threads=threads)
        assert np.array_equal(base, other)


@pytest.mark.parametrize("n", [1, 5, 161, 1003, 16464])
@pytest.mark.parametrize("first", [1, 3, 128])
def test_doubling_blocks_match_one_whole_grid_sample(monkeypatch, n, first):
    """Block draws with a second w cursor, and the carried running sum, are
    bit-equal to one sample_stable call and one cumsum over the grid."""
    params = StableParams(0.7, -0.6, 1.5)
    full = sample_stable(params, n, stream(21, 4, 1))
    blocks, start, size = [], 0, first
    while start < n:
        blocks.append(min(size, n - start))
        start, size = start + blocks[-1], 2 * size
    g, w = stream(21, 4, 1), stream(21, 4, 1, offset=n)
    parts = [sample_stable(params, k, g, w) for k in blocks]
    assert np.array_equal(np.concatenate(parts), full)

    dt_pow = np.linspace(0.5, 2.0, n)
    want = np.empty(n + 1)
    want[0] = 0.0
    np.cumsum(dt_pow * full, out=want[1:])
    monkeypatch.setattr(estimate, "EXACT_BLOCK", first)
    got, sizes = [0.0], []
    for start, vals in estimate._exact_path_blocks(params, dt_pow, 21, 4, 1):
        assert start == len(got) - 1 and vals[0] == got[-1]
        sizes.append(vals.size - 1)
        got.extend(vals[1:])
    assert sizes == blocks
    assert np.array_equal(np.array(got), want)


def test_survival_guard_rails():
    m = standard_symmetric_model(0.7)
    with pytest.raises(ValueError):
        survival_probability(m, Boundary("constant"), [1.0, 2.0], n_paths=0, seed=0)
    with pytest.raises(ValueError):
        survival_counts(m, [Boundary("constant")], [4.0, 2.0], 10,
                        TimeGrid.survival(4.0), seed=0)
    with pytest.raises(ValueError):
        survival_counts(m, [Boundary("constant")], [8.0], 10,
                        TimeGrid.survival(4.0), seed=0)


# ---------------------------------------------------------------------------
# product bound
# ---------------------------------------------------------------------------

def test_product_bound_degenerate_subordinator():
    # S_T == 0 and T**gamma <= 1/2: second factor is exactly 1 and the
    # comparison degenerates to P(X <= 1 - t) vs P(X <= 1/2)
    m = standard_symmetric_model(0.7)
    rep = product_bound_check(m, 0.45, 1.0, 800, seed=5,
                              decomp=DecompositionT.empty(NEGATIVE),
                              grid=TimeGrid.geometric(0.45, t_min=2 ** -10))
    assert rep.p_s == 1.0
    assert rep.satisfied


def test_product_bound_symmetric_stable():
    m = standard_symmetric_model(0.7)
    rep = product_bound_check(m, 256.0, 1.0, 700, seed=6)
    assert rep.satisfied
    assert rep.p_lhs > 0 and rep.p_s > 0


@pytest.mark.slow
def test_product_bound_alpha_half_gamma_15():
    m = standard_symmetric_model(0.5)
    rep = product_bound_check(m, 1024.0, 1.5, 600, seed=7)
    assert rep.satisfied


# ---------------------------------------------------------------------------
# lemma experiment
# ---------------------------------------------------------------------------

def test_lemma_vacuous_at_desk_scale():
    res = lemma_n0N_experiment(0.5, 1.5, ELL1, 10 ** 4, 100, seed=8)
    assert res.vacuous and res.N1 > res.N
    assert res.p_hat == 1.0


def test_lemma_small_N_reported_not_asserted():
    res = lemma_n0N_experiment(0.5, 1.5, ELL1, 100, 50, seed=9)
    assert res.vacuous  # N1(100) ~ 7.7e5 >> 100
    assert 0.0 <= res.p_hat <= 1.0


def test_lemma_nonvacuous_range():
    # gamma*alpha = 0.3 puts N1 ~ 330 inside the horizon: a real MC estimate
    res = lemma_n0N_experiment(0.5, 0.6, ELL1, 10 ** 4, 400, seed=10)
    assert not res.vacuous
    assert res.N1 < res.N
    assert res.p_hat >= 0.99


def test_lemma_argument_validation():
    with pytest.raises(ValueError):
        lemma_n0N_experiment(0.5, 4.0, ELL1, 100, 10, seed=0)  # gamma*alpha >= 1
    with pytest.raises(ValueError):
        lemma_n0N_experiment(0.5, 1.0, SlowlyVaryingSpec("log-power", p=1.0),
                             100, 10, seed=0)


# ---------------------------------------------------------------------------
# discrete-grid experiment
# ---------------------------------------------------------------------------

def test_discrete_trivial_when_level_large():
    m = standard_symmetric_model(0.7)
    res = discrete_survival_experiment(m, 16.0, 1e6, seed=11, n_paths=300)
    assert res.estimate_y.p_hat == 1.0
    assert res.ordering_ok


@pytest.mark.slow
def test_discrete_survival_ordering_and_exponents():
    # Y_T = X - S_T with delta(T) ~ 1/2 at desk scale: Y_T's exponent tracks
    # the positivity parameter of the half-thinned tails, while X stays at
    # rho = 1/2; the pathwise ordering is exact in every run.
    m = standard_symmetric_model(0.7)
    ys, xs = [], []
    for T in (32.0, 64.0, 128.0, 256.0, 512.0):
        res = discrete_survival_experiment(m, T, 1.0, seed=12, n_paths=600)
        assert res.ordering_ok
        assert res.estimate_y.survivors >= res.estimate_x.survivors
        ys.append(res.estimate_y)
        xs.append(res.estimate_x)
    rho_x = fit_exponent(xs).rho_hat
    assert abs(rho_x - 0.5) < 0.2
    d = build_decomposition(m, 128.0, "positive")
    thinned_beta = ((1 - d.delta) - 1.0) / ((1 - d.delta) + 1.0)
    rho_thinned = positivity_parameter(StableParams(0.7, thinned_beta))
    rho_y = fit_exponent(ys).rho_hat
    assert abs(rho_y - rho_thinned) < 0.2
