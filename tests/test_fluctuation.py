import math

import numpy as np
import pytest

from levypassage.decompose import NEGATIVE, build_decomposition
from levypassage.fluctuation import (LadderSample, PositivityProfile, kappa,
                                     ladder_process, renewal_convergence_gaps,
                                     renewal_estimate, spitzer_profile)
from levypassage.levymodel import (LevyModel, stable_model,
                                   standard_symmetric_model, tail_only_model)
from levypassage.rng import stream
from levypassage.rvcalc import SlowlyVaryingSpec
from levypassage.simulate import TimeGrid, sample_path
from levypassage.stable import StableParams, positivity_parameter


def test_kappa_at_one_is_one():
    assert kappa(PositivityProfile.constant(0.37), 1.0) == 1.0
    tab = PositivityProfile.tabulated([0.1, 1.0, 10.0], [0.4, 0.5, 0.6])
    assert kappa(tab, 1.0) == 1.0


def test_kappa_frullani_closed_form():
    for rho in (0.3, 0.5, 0.7):
        prof = PositivityProfile.constant(rho)
        for a in (0.25, 0.5, 2.0, 4.0):
            assert abs(kappa(prof, a) - a ** rho) / a ** rho < 1e-3


def test_kappa_half_rho_values():
    prof = PositivityProfile.constant(0.5)
    assert kappa(prof, 4.0) == pytest.approx(2.0, rel=1e-6)
    assert kappa(prof, 0.25) == pytest.approx(0.5, rel=1e-6)


def test_kappa_monotone_in_a():
    tab = PositivityProfile.tabulated([0.01, 1.0, 100.0], [0.35, 0.5, 0.62])
    a_grid = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [kappa(tab, a) for a in a_grid]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_kappa_tabulated_near_constant():
    tab = PositivityProfile.tabulated([1e-4, 1.0, 1e4], [0.5, 0.5, 0.5])
    assert kappa(tab, 4.0) == pytest.approx(2.0, rel=1e-6)


def test_kappa_unsupported_arguments():
    prof = PositivityProfile.constant(0.5)
    with pytest.raises(ValueError):
        kappa(prof, 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        PositivityProfile(rho=0.5, t=np.array([1.0]), p=np.array([0.5]))
    with pytest.raises(ValueError):
        PositivityProfile.tabulated([1.0], [1.5])


def test_ladder_records_drift_path():
    grid = TimeGrid(np.linspace(0.0, 2.0, 5))
    path = sample_path(LevyModel(b=1.0), grid, stream(0, 0))
    lad = ladder_process(path)
    assert np.array_equal(lad.epochs, grid.points)
    assert np.allclose(lad.heights, path.values)


def test_ladder_records_decreasing_path():
    from levypassage.simulate import PathSample
    grid = TimeGrid(np.linspace(0.0, 3.0, 4))
    path = PathSample(grid=grid, values=np.array([0.0, -1.0, -2.0, -3.0]),
                      jump_times=np.empty(0))
    lad = ladder_process(path)
    assert lad.epochs.tolist() == [0.0] and lad.heights.tolist() == [0.0]


def test_ladder_refinement_growth_brownian():
    m = LevyModel(sigma2=1.0)
    n = 400
    counts = {}
    for dt in (1e-2, 1e-3):
        grid = TimeGrid.uniform(1.0, dt)
        counts[dt] = np.mean([ladder_process(sample_path(m, grid, stream(71, i))).epochs.size
                              for i in range(n)])
    assert counts[1e-3] > counts[1e-2]


def test_renewal_estimate_basics():
    lad = LadderSample(epochs=np.array([0.0, 1.0, 2.0]),
                       heights=np.array([0.0, 0.5, 1.5]))
    assert renewal_estimate([lad], 0.0) == 0.0
    assert renewal_estimate([lad], 1.0) == 2.0
    assert renewal_estimate([lad], 2.0) == 3.0
    with pytest.raises(ValueError):
        renewal_estimate([], 1.0)


def test_renewal_monotone_in_x():
    m = LevyModel(sigma2=1.0)
    grid = TimeGrid.uniform(16.0, 0.05)
    samples = [ladder_process(sample_path(m, grid, stream(72, i))) for i in range(500)]
    vals = [renewal_estimate(samples, x) for x in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_renewal_brownian_linearity():
    # V(2x)/V(x) ~ 2 for Brownian motion (renewal function linear)
    m = LevyModel(sigma2=1.0)
    grid = TimeGrid.uniform(128.0, 0.02)
    samples = [ladder_process(sample_path(m, grid, stream(73, i)))
               for i in range(100_000)]
    ratio = renewal_estimate(samples, 2.0) / renewal_estimate(samples, 1.0)
    assert 1.8 <= ratio <= 2.2


def test_renewal_gaps_shrink_with_T():
    # |V_T(1) - V(1)| shrinks as delta(T) -> 0, nested thinning, common seeds
    m = tail_only_model(0.7, SlowlyVaryingSpec("constant", c=1.0))
    Ts = (1e2, 1e4, 1e6)
    decomps = [build_decomposition(m, T, NEGATIVE) for T in Ts]
    grid = TimeGrid.integers(64.0)
    gaps = renewal_convergence_gaps(m, decomps, grid, 1.0, 1500, 74)
    assert gaps[1e2] >= gaps[1e4] >= gaps[1e6]


def test_spitzer_symmetric_flat_half():
    m = standard_symmetric_model(0.7)
    n = 20_000
    prof = spitzer_profile(m, [1.0, 4.0, 16.0], n, 75)
    se = math.sqrt(0.25 / n)
    assert np.all(np.abs(prof.p - 0.5) < 3.0 * se)


def test_spitzer_long_t_grid_matches_whole_paths():
    """With more t-values than a first block of rows, exact profiles still
    count each t-value on the whole-grid path of every path index."""
    m = stable_model(0.7, -0.6, 1.5)
    t = np.geomspace(0.01, 100.0, 300)
    n = 40
    prof = spitzer_profile(m, t, n, 78)
    grid = TimeGrid(np.concatenate([[0.0], t]))
    want = sum(sample_path(m, grid, stream(78, i)).values[1:] >= 0.0 for i in range(n))
    assert np.array_equal((prof.p * n).round().astype(int), want)


def test_spitzer_subordinator_always_one():
    m = stable_model(0.5, 1.0)
    prof = spitzer_profile(m, [0.5, 2.0, 8.0], 5000, 76)
    assert np.all(prof.p == 1.0)


def test_spitzer_converges_to_positivity_parameter():
    params = StableParams(0.7, 0.5)
    m = stable_model(0.7, 0.5)
    rho = positivity_parameter(params)
    n = 10 ** 5
    prof = spitzer_profile(m, [1.0, 32.0, 1024.0], n, 77)
    se = math.sqrt(rho * (1 - rho) / n)
    assert abs(prof.p[-1] - rho) < 3.0 * se

