import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypassage import estimate, simulate
from levypassage.decompose import build_decomposition
from levypassage.estimate import (SurvivalEstimate,
                                  discrete_survival_experiment, fit_exponent,
                                  gaussian_refinement_counts,
                                  lemma_n0N_experiment, product_bound_check,
                                  survival_counts, wilson_log_ci)
from levypassage.fluctuation import spitzer_profile
from levypassage.levymodel import (Boundary, LevyModel, stable_model,
                                   standard_symmetric_model)
from levypassage.passage import boundary_value, first_crossings
from levypassage.rng import stream
from levypassage.rvcalc import SlowlyVaryingSpec, tail_mass
from levypassage.simulate import (ETA, PerturbedPlan, TimeGrid, perturbed_rows,
                                  sample_path)
from levypassage.stable import StableParams, positivity_parameter, sample_stable

ELL1 = SlowlyVaryingSpec("constant", c=1.0)


def synthetic(T, p, n=10 ** 8):
    return SurvivalEstimate(T=T, n_paths=n, survivors=int(round(p * n)),
                            p_hat=p, log_ci=(math.log(p), math.log(p)))


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def test_fit_exact_half():
    ests = [synthetic(T, T ** -0.5) for T in (10.0, 100.0, 1000.0, 10000.0)]
    fit = fit_exponent(ests)
    assert abs(fit.rho_hat - 0.5) < 1e-12


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
                            log_ci=(-math.inf, -2.0))
    with pytest.warns(UserWarning, match="dropping"):
        fit = fit_exponent(ests + [dead])
    assert abs(fit.rho_hat - 0.5) < 1e-12
    assert fit == fit_exponent(ests)  # the dead point is left out entirely


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
    counts = survival_counts(m, [Boundary("constant")], [0.0, 1.0, 4.0], 500,
                             TimeGrid.survival(4.0), seed=1)
    assert SurvivalEstimate.from_counts(0.0, int(counts[0, 0]), 500).p_hat == 1.0


def test_brownian_constant_boundary_oracle():
    # P(max W <= 1 on [0,1]) = 2 Phi(1) - 1, grid bias ~ +0.009 at dt = 1e-3
    m = LevyModel(sigma2=1.0)
    n = 20_000
    counts = survival_counts(m, [Boundary("constant")], [1.0], n,
                             TimeGrid.uniform(1.0, 1e-3), seed=2)
    p_hat = SurvivalEstimate.from_counts(1.0, int(counts[0, 0]), n).p_hat
    oracle = math.erf(1.0 / math.sqrt(2.0))
    se = math.sqrt(oracle * (1 - oracle) / n)
    assert 0.0 <= p_hat - oracle <= 3.0 * se + 0.012


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


@pytest.mark.parametrize("beta, rho, n, T_grid", [
    (-0.5, 0.1471, 4000, np.geomspace(16.0, 16384.0, 8)),
    (0.5, 0.8529, 20_000, 2.0 ** np.arange(4, 11)),
], ids=["beta-0.5", "beta0.5"])
def test_skewed_constant_boundary_exponent(beta, rho, n, T_grid):
    # beta = +-0.5 breaks the rho = 1/2 symmetry every other check sits on
    m = stable_model(0.7, beta)
    closed = positivity_parameter(m.stable)
    assert closed == pytest.approx(rho, abs=1e-4)
    counts = survival_counts(m, [Boundary("constant")], T_grid, n,
                             TimeGrid.survival(float(T_grid[-1])), seed=4242)
    fit = fit_exponent([SurvivalEstimate.from_counts(float(T), int(k), n)
                        for T, k in zip(T_grid, counts[0])])
    assert abs(fit.rho_hat - closed) < 4.0 * fit.stderr


def two_sample_z(k1, n1, k2, n2):
    """Pooled two-sample binomial z of survivor counts k1/n1 against k2/n2."""
    k1, k2 = np.asarray(k1, float), np.asarray(k2, float)
    p = (k1 + k2) / (n1 + n2)
    return (k1 / n1 - k2 / n2) / np.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))


def grid_deaths(limits, pts, path_values):
    """Time of each path's first grid point above limits, inf if none."""
    k = first_crossings(path_values, limits)
    return np.where(k >= 0, pts[k], np.inf)


@pytest.mark.slow
def test_perturbed_grid_survival_matches_exact():
    # Survival over many blocks, the two modes on one monitored set:
    # perturbed paths of the acceptance model scored at the grid points only
    # (exact mode's set) against exact-mode counts.  Tolerance |z| <= 4 per
    # horizon, fixed before the first run.
    m = standard_symmetric_model(0.7)
    plan = PerturbedPlan.from_model(replace(m, stable=None))
    b, T_grid = Boundary("constant"), np.array([4.0, 16.0, 64.0, 256.0])
    grid = TimeGrid.survival(T_grid[-1])
    n_pert, n_exact = 4000, 20_000
    died = np.full(n_pert, np.inf)
    pending = np.ones((n_pert, 1), dtype=bool)
    for rows, mpts, vals in perturbed_rows(plan, grid.points, 77, np.arange(n_pert),
                                           0, pending):
        on_grid = np.isin(mpts, grid.points)
        limits = np.where(on_grid, boundary_value(b, mpts), np.inf)
        died[rows] = [grid_deaths(lim, p, v) for lim, p, v in zip(limits, mpts, vals)]
        pending[rows[died[rows] < np.inf]] = False
    pert = (died[:, None] > T_grid).sum(axis=0)
    exact = survival_counts(m, [b], T_grid, n_exact, grid, seed=78)[0]
    z = two_sample_z(pert, n_pert, exact, n_exact)
    assert np.all(np.abs(z) <= 4.0), (pert, exact, z)


@pytest.mark.parametrize("kind, seed, reflected_seed", [
    ("decreasing", 91, 92), ("increasing", 93, 94)])
def test_reflection_in_law(kind, seed, reflected_seed):
    # X at beta = 0.5 and -X at beta = -0.5 have one law, so one survival
    # below 1 -/+ t**0.5.  Tolerance |z| <= 4 per horizon, fixed before the
    # first run.
    b, T_grid, n = Boundary(kind, 0.5), np.array([1.0, 4.0, 16.0, 64.0]), 10_000
    grid = TimeGrid.survival(T_grid[-1])
    direct = survival_counts(stable_model(0.7, 0.5), [b], T_grid, n, grid, seed=seed)[0]
    neg = stable_model(0.7, -0.5)
    values = -np.array([sample_path(neg, grid, stream(reflected_seed, i)).values
                        for i in range(n)])
    died = grid_deaths(boundary_value(b, grid.points), grid.points, values)
    reflected = (died[:, None] > T_grid).sum(axis=0)
    z = two_sample_z(direct, n, reflected, n)
    assert np.all(np.abs(z) <= 4.0), (direct, reflected, z)


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
    """Batched block rows, drawn on one reused cursor placed again at the
    path's first exponential for each block, with a carried running sum,
    are bit-equal to one sample_stable call and one cumsum over the grid
    for every path."""
    params = StableParams(0.7, -0.6, 1.5)
    paths = np.array([4, 9, 2 ** 40])
    dt_pow = np.linspace(0.5, 2.0, n)
    blocks, start, size = [], 0, first
    while start < n:
        blocks.append(min(size, n - start))
        start, size = start + blocks[-1], 2 * size
    monkeypatch.setattr(simulate, "FIRST_BLOCK", first)
    got = {row: [0.0] for row in range(paths.size)}
    sizes = {row: [] for row in range(paths.size)}
    pending = np.ones((paths.size, 2), dtype=bool)
    for start, rows, vals in simulate.exact_rows(params, dt_pow, 21, paths, 1, pending):
        for r, row in enumerate(rows):
            assert start == len(got[row]) - 1 and vals[r, 0] == got[row][-1]
            sizes[row].append(vals.shape[1] - 1)
            got[row].extend(vals[r, 1:])
    for row, path in enumerate(paths):
        full = sample_stable(params, n, stream(21, int(path), 1))
        want = np.empty(n + 1)
        want[0] = 0.0
        np.cumsum(dt_pow * full, out=want[1:])
        assert sizes[row] == blocks
        assert np.array_equal(np.array(got[row]), want)


def test_cleared_rows_stop_being_drawn():
    """A row is drawn while any of its limits is pending and stops once none is."""
    params = StableParams(0.7)
    pending = np.ones((3, 2), dtype=bool)
    seen = []
    for start, rows, vals in simulate.exact_rows(params, np.ones(1000), 5,
                                                 np.arange(3), 0, pending):
        seen.append((start, rows.tolist()))
        pending[0, 1] = False  # one of two limits cleared: still drawn
        pending[1] = False  # both cleared: stops
    assert seen == [(0, [0, 1, 2]), (128, [0, 2]), (384, [0, 2]), (896, [0, 2])]


def test_pool_parts_match_serial_and_run_in_children():
    parent = os.getpid()

    def worker(lo, hi):
        return np.array([hi - lo, lo * hi, os.getpid() != parent])

    chunks = 3
    n = estimate.CHUNK * (chunks - 1) + 5  # ragged last chunk
    serial = estimate._run_chunks(worker, n, 1)
    pooled = estimate._run_chunks(worker, n, 4)
    assert serial.tolist() == [n, pooled[1], 0] and pooled[0] == n
    assert pooled[2] == (chunks if estimate._usable_cpus() > 1 else 0)

    # a process running another thread keeps its chunks to itself
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        assert estimate._run_chunks(worker, n, 4).tolist() == serial.tolist()
    finally:
        release.set()
        other.join(timeout=30.0)
    assert not other.is_alive()


def test_pool_survival_counts_match_serial():
    m = standard_symmetric_model(0.7)
    n = estimate.CHUNK * 3 + 3
    grid = TimeGrid.survival(8.0)
    args = ([Boundary("constant"), Boundary("decreasing", 1.3)], [2.0, 8.0], n,
            grid, 13)
    assert np.array_equal(survival_counts(m, *args, threads=1),
                          survival_counts(m, *args, threads=4))


def test_chunks_stay_in_process_without_fork_or_affinity(monkeypatch):
    parent = os.getpid()

    def worker(lo, hi):
        return np.array([hi - lo, os.getpid() != parent])

    n = estimate.CHUNK * 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert estimate._run_chunks(worker, n, 4).tolist() == [n, 0]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert estimate._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(estimate.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert estimate._run_chunks(worker, n, 4).tolist() == [n, 0]


def test_survival_guard_rails():
    m = standard_symmetric_model(0.7)
    with pytest.raises(ValueError):
        survival_counts(m, [Boundary("constant")], [4.0, 2.0], 10,
                        TimeGrid.survival(4.0), seed=0)
    with pytest.raises(ValueError):
        survival_counts(m, [Boundary("constant")], [8.0], 10,
                        TimeGrid.survival(4.0), seed=0)
    with pytest.raises(ValueError):
        survival_counts(m, [Boundary("constant")], [], 10,
                        TimeGrid.survival(4.0), seed=0)
    with pytest.raises(ValueError, match="increasing"):
        gaussian_refinement_counts(1.0, 0.0, 1.0, [2.0, 1.0], dt_fine=0.01,
                                   stride=2, n_paths=10, seed=0)
    for T_grid in ([], [32.0, 16.0]):
        with pytest.raises(ValueError, match="increasing"):
            discrete_survival_experiment(m, T_grid, 1.0, seed=0, n_paths=10)
    for t_grid in ([2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="increasing"):
            spitzer_profile(m, t_grid, 10, 0)


@pytest.mark.parametrize("n_paths", [0, -1])
@pytest.mark.parametrize("engine", [
    lambda n: survival_counts(standard_symmetric_model(0.7), [Boundary("constant")],
                              [1.0, 2.0], n, TimeGrid.survival(2.0), seed=0),
    lambda n: spitzer_profile(stable_model(0.7), [1.0, 2.0], n, 1),
    lambda n: discrete_survival_experiment(stable_model(0.7), [16.0], 1.0,
                                           seed=0, n_paths=n),
    lambda n: gaussian_refinement_counts(1.0, 0.0, 1.0, [1.0], dt_fine=0.5,
                                         stride=2, n_paths=n, seed=0),
], ids=["survival", "spitzer", "discrete", "gaussian"])
def test_engines_reject_no_paths(engine, n_paths):
    with pytest.raises(ValueError, match="n_paths must be positive"):
        engine(n_paths)


# ---------------------------------------------------------------------------
# product bound
# ---------------------------------------------------------------------------

def test_product_bound_requires_alpha_below_one():
    with pytest.raises(ValueError, match="alpha < 1"):
        product_bound_check(stable_model(1.3), 64.0, 1.0, 800, seed=5)


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


def test_unthinned_plans_have_the_model_jump_rate(monkeypatch):
    # every plan built with from_model and no split is a plan of X itself,
    # so its jump rate is the model's mass beyond ETA; S_T has a plan of its
    # own (PerturbedPlan.subordinator) and must not come through from_model
    built = []
    from_model = PerturbedPlan.from_model.__func__

    def record(cls, model, remove=None):
        plan = from_model(cls, model, remove)
        built.append((remove, plan.rate))
        return plan

    monkeypatch.setattr(PerturbedPlan, "from_model", classmethod(record))
    m = stable_model(0.7, 0.0, 1.5)
    want = sum(tail_mass(t, ETA) for t in (m.tail_right, m.tail_left))
    product_bound_check(m, 64.0, 1.0, 20, seed=3)
    discrete_survival_experiment(m, (16.0, 32.0), 1.0, seed=3, n_paths=20)
    plain = [rate for remove, rate in built if remove is None]
    assert len(plain) >= 2 and len(built) > len(plain)
    assert plain == pytest.approx([want] * len(plain), rel=1e-6)


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
    # one-sided stable subordinators exist for alpha < 1 only, vacuous range or not
    for gamma in (0.01, 0.6):
        with pytest.raises(ValueError, match="alpha in"):
            lemma_n0N_experiment(1.5, gamma, ELL1, 10 ** 4, 20, seed=1)
    with pytest.raises(ValueError):
        lemma_n0N_experiment(0.5, 1.0, SlowlyVaryingSpec("log-power", p=1.0),
                             100, 10, seed=0)


# ---------------------------------------------------------------------------
# discrete-grid experiment
# ---------------------------------------------------------------------------

def test_discrete_trivial_when_level_large():
    m = standard_symmetric_model(0.7)
    [res] = discrete_survival_experiment(m, [16.0], 1e6, seed=11, n_paths=300)
    assert res.estimate_y.p_hat == 1.0


def test_discrete_survival_reuses_one_path_set():
    # every horizon scores a prefix of the same paths: X survivors nest in T,
    # and the largest horizon counts as in a run at that horizon alone
    m = replace(stable_model(0.7), stable=None)
    Ts = (16.0, 32.0, 64.0, 128.0)
    results = discrete_survival_experiment(m, Ts, 1.0, seed=22, n_paths=60)
    xs = [r.estimate_x.survivors for r in results]
    assert xs == sorted(xs, reverse=True)
    [alone] = discrete_survival_experiment(m, Ts[-1:], 1.0, seed=22, n_paths=60)
    assert (alone.estimate_y, alone.estimate_x) == \
        (results[-1].estimate_y, results[-1].estimate_x)


def test_discrete_ordering_guard(monkeypatch):
    # negative S_T increments put Y_T = X - S_T above X
    real = estimate.discrete_increments

    def negative(*args, **kwargs):
        inc, s_inc = real(*args, **kwargs)
        return inc, -1.0 - s_inc

    monkeypatch.setattr(estimate, "discrete_increments", negative)
    with pytest.raises(RuntimeError, match="pathwise ordering Y_T <= X violated"):
        discrete_survival_experiment(standard_symmetric_model(0.7), [16.0], 1.0,
                                     seed=0, n_paths=10)


@pytest.mark.slow
def test_discrete_survival_ordering_and_exponents():
    # Y_T = X - S_T with delta(T) ~ 1/2 at desk scale: Y_T's exponent tracks
    # the positivity parameter of the half-thinned tails, while X stays at
    # rho = 1/2; the pathwise ordering is exact in every run.
    m = standard_symmetric_model(0.7)
    ys, xs = [], []
    for res in discrete_survival_experiment(m, (32.0, 64.0, 128.0, 256.0, 512.0),
                                            1.0, seed=12, n_paths=600):
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
