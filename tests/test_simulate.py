import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levypassage.decompose import (NEGATIVE, POSITIVE, JumpTable,
                                   build_decomposition)
from levypassage import estimate
from levypassage.estimate import (_subordinator_marginal, product_bound_check,
                                  survival_counts)
from levypassage.fluctuation import spitzer_profile
from levypassage.levymodel import (Boundary, LevyModel, stable_model,
                                   standard_symmetric_model, tail_only_model)
from levypassage.rng import PHASE_TERTIARY, stream
from levypassage.rvcalc import SlowlyVaryingSpec
from levypassage.passage import boundary_value, subordinator_stays_above, survives
from levypassage.simulate import (ETA, ROW_CAP, PerturbedPlan, TimeGrid, block_ends,
                                  discrete_increments, joined_blocks, perturbed_rows,
                                  sample_path, sample_subordinator_path)
from levypassage.stable import StableParams, sample_stable

ELL1 = SlowlyVaryingSpec("constant", c=1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0, 2.0]))  # duplicate
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 2.0]))  # missing 0
    for pts in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf]):
        with pytest.raises(ValueError):
            TimeGrid(np.array(pts))
    with pytest.raises(ValueError):  # not p = [0, 0] for P(X(t) >= 0)
        spitzer_profile(stable_model(0.7), [math.nan, 1.0], 20, 1)
    g = TimeGrid.uniform(2.0, 0.5)
    assert g.points[-1] == 2.0 and g.points[0] == 0.0
    assert TimeGrid.integers(7.5).points[-1] == 7.5
    assert TimeGrid.survival(100.0).points[-1] == 100.0


def test_survival_grid_contains_integers():
    g = TimeGrid.survival(64.0)
    assert np.all(np.isin(np.arange(1.0, 65.0), g.points))
    assert np.any(g.points[(g.points > 0) & (g.points < 1)])


def test_pure_drift_path():
    path = sample_path(LevyModel(b=1.0), TimeGrid(np.array([0.0, 1.0, 2.0])),
                       stream(0, 0))
    assert np.allclose(path.values, [0.0, 1.0, 2.0], atol=1e-12)


def test_brownian_increment_mean():
    n = 10 ** 5
    grid = TimeGrid(np.array([0.0, 1.0]))
    m = LevyModel(sigma2=1.0)
    vals = np.array([sample_path(m, grid, stream(123, i)).values[1] for i in range(n)])
    assert abs(vals.mean()) < 3.0 / math.sqrt(n)
    assert vals.std() == pytest.approx(1.0, abs=0.02)


def test_exact_self_similarity_on_grid():
    # values[1]/4**(1/alpha) for grid {0,4} matches Z(1) in law
    m = stable_model(0.7)
    n = 10 ** 5
    grid = TimeGrid(np.array([0.0, 4.0]))
    vals = np.array([sample_path(m, grid, stream(5, i)).values[1] for i in range(n)])
    z = sample_stable(StableParams(0.7, 0.0), n, stream(5, n + 1, 1))
    stat = ks_2samp(vals / 4.0 ** (1 / 0.7), z).statistic
    assert stat < 1.628 * math.sqrt(2.0 / n)


def test_exact_increments_uncorrelated():
    m = stable_model(0.7)
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    n = 10 ** 5
    inc = np.empty((n, 2))
    for i in range(n):
        v = sample_path(m, grid, stream(17, i)).values
        inc[i] = np.diff(v)
    # heavy tails: correlate signs, not values (correlation needs 2 moments)
    s = np.sign(inc)
    corr = np.corrcoef(s[:, 0], s[:, 1])[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_path_determinism_bit_identical():
    m = standard_symmetric_model(0.7)
    grid = TimeGrid.survival(32.0)
    a = sample_path(m, grid, stream(99, 4))
    b = sample_path(m, grid, stream(99, 4))
    assert np.array_equal(a.values, b.values)
    plan = PerturbedPlan.from_model(tail_only_model(0.7, ELL1))
    pm = tail_only_model(0.7, ELL1)
    c = sample_path(pm, grid, stream(99, 4), plan=plan)
    d = sample_path(pm, grid, stream(99, 4), plan=plan)
    assert np.array_equal(c.values, d.values)
    assert np.array_equal(c.jump_times, d.jump_times)


def test_perturbed_matches_exact_in_law():
    # Asmussen-Rosinski cutoff eta=1e-3: X(1) from the compound construction
    # must match exact stable draws
    m = standard_symmetric_model(0.7)
    pm = tail_only_model(0.7, ELL1)
    plan = PerturbedPlan.from_model(pm)
    n = 4 * 10 ** 4
    grid = TimeGrid(np.array([0.0, 1.0]))
    vals = np.array([sample_path(pm, grid, stream(31, i), plan=plan).values[-1]
                     for i in range(n)])
    z = m.stable.scale * sample_stable(StableParams(0.7, 0.0), n, stream(31, 0, 5))
    assert ks_2samp(vals, z).statistic < 1.628 * math.sqrt(2.0 / n)


@pytest.mark.slow
@pytest.mark.parametrize("beta, seed", [(0.0, 34), (0.5, 35)])
def test_perturbed_matches_exact_in_law_across_blocks(beta, seed):
    # X(4) from three time blocks, (0, 1], (1, 2] and (2, 4], each drawing
    # its own jumps, against exact stable draws: the unit-tail symmetric
    # model, and a skewed one (constant ell, p_right = 3/4, drift)
    m = standard_symmetric_model(0.7) if beta == 0.0 else stable_model(0.7, beta)
    pm = replace(m, stable=None)
    plan = PerturbedPlan.from_model(pm)
    n, T = 10 ** 4, 4.0
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, T]))
    vals = np.array([sample_path(pm, grid, stream(seed, i), plan=plan).values[-1]
                     for i in range(n)])
    z = T ** (1.0 / 0.7) * m.stable.scale * sample_stable(StableParams(0.7, beta), n,
                                                          stream(seed, 0, 5))
    assert ks_2samp(vals, z).statistic < 1.628 * math.sqrt(2.0 / n)


def test_perturbed_monitors_jump_epochs():
    pm = tail_only_model(0.7, ELL1)
    path = sample_path(pm, TimeGrid(np.array([0.0, 8.0])), stream(3, 7))
    assert path.jump_times.size > 0
    assert np.all(np.isin(path.jump_times, path.grid.points))


def test_subordinator_jump_count_poisson_mean():
    m = tail_only_model(0.5, ELL1)
    d = build_decomposition(m, 100.0, NEGATIVE)  # total mass 1
    grid = TimeGrid(np.array([0.0, 10.0]))
    n = 10 ** 4
    paths = [sample_subordinator_path(d, grid, stream(8, i)) for i in range(n)]
    counts = np.array([p.jump_times.size for p in paths])
    assert abs(counts.mean() - 10.0) < 3.0 * math.sqrt(10.0 / n)
    # the block source's S_T at the horizon and the marginal drawn as unit
    # cells of discrete_increments agree in law: two-sample KS at the 1 % level
    marginal = _subordinator_marginal(d, grid.horizon, n, 9)
    ends = np.array([p.values[-1] for p in paths])
    assert ks_2samp(ends, marginal).statistic < 1.628 * math.sqrt(2.0 / n)


def test_subordinator_paths_nondecreasing():
    m = tail_only_model(0.5, ELL1)
    d = build_decomposition(m, 100.0, POSITIVE)
    grid = TimeGrid.geometric(50.0, t_min=0.25, per_octave=4)
    for i in range(500):
        path = sample_subordinator_path(d, grid, stream(21, i))
        assert np.all(np.diff(path.values) >= 0.0)
        assert path.values[0] == 0.0


def test_subordinator_path_laplace_example():
    # E exp(-0.01 * S_T(1)) stays below the analytic bound, path-based draws
    from levypassage.decompose import laplace_bound
    m = tail_only_model(0.5, ELL1)
    d = build_decomposition(m, 100.0, NEGATIVE)  # delta = 1/2
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 20_000
    vals = np.array([sample_subordinator_path(d, grid, stream(19, i)).values[-1]
                     for i in range(n)])
    emp = np.exp(-0.01 * vals)
    bound = laplace_bound(d, 0.01).value
    assert emp.mean() <= bound + 3.0 * emp.std(ddof=1) / math.sqrt(n)


def test_coupled_decomposition_identity():
    # each split's S_T starts at 0 and jumps only at X's epochs, by the
    # magnitude of a jump of X beyond 1 on its side: X = Y_T - S_T on the
    # negative side, X = Y_T + S_T on the positive one
    m = tail_only_model(0.7, ELL1)
    plan = PerturbedPlan.from_model(m)
    pts = TimeGrid.integers(64.0).points
    for side, sign in ((NEGATIVE, -1.0), (POSITIVE, 1.0)):
        decomps = [build_decomposition(m, T, side) for T in (64.0, 4096.0)]
        merged, x, epochs, s = joined_blocks(plan, pts, stream(13, 2), decomps)
        assert s.shape == (2, merged.size) and np.all(s[:, 0] == 0.0)
        jumps = np.diff(s, axis=1)
        assert np.all(jumps >= 0.0)
        at = jumps.any(axis=0)
        assert np.all(np.isin(merged[1:][at], epochs))
        assert np.all(jumps[jumps > 0.0] > 1.0)
        assert np.all(sign * np.diff(x)[at] > 1.0)
        # the shared uniform nests the thinned jumps: the larger T's S_T
        # takes a subset of the smaller T's jumps
        small, large = jumps
        assert np.count_nonzero(large) > 0
        assert np.all(small[large > 0.0] > 0.0)
        assert np.allclose(large[large > 0.0], small[large > 0.0])


def test_discrete_increments_share_thinning_across_splits():
    # one call with several splits equals one call per split on the same
    # stream, bit for bit; with constant ell the larger T's thinned jumps are
    # a subset of the smaller T's, so its S_T increments are never larger
    m = tail_only_model(0.7, ELL1)
    plan = PerturbedPlan.from_model(m)
    decomps = [build_decomposition(m, T, POSITIVE) for T in (16.0, 1e8)]
    assert decomps[1].delta < decomps[0].delta
    differ = 0
    for i in range(20):
        inc, s_inc = discrete_increments(plan, 64, stream(61, i), decomp=decomps)
        assert s_inc.shape == (2, 64)
        for d, row in zip(decomps, s_inc):
            inc_d, s_d = discrete_increments(plan, 64, stream(61, i), decomp=d)
            assert np.array_equal(inc_d, inc) and np.array_equal(s_d, row)
        assert np.all(s_inc[1] <= s_inc[0])
        differ += np.count_nonzero(s_inc[1] < s_inc[0])
    assert differ > 0


def _masked_signed_sizes(plan, right, u):
    # signed sizes scattered through boolean masks, the reference formula
    sizes = np.empty(right.size)
    nr = np.count_nonzero(right)
    if nr:
        sizes[right] = plan.table_right.sizes(u[:nr])
    if right.size - nr:
        sizes[~right] = -plan.table_left.sizes(u[nr:])
    return sizes


def test_signed_sizes_equal_the_boolean_mask_formula():
    # the index scatter gives the masked scatter's sizes bit for bit: on a
    # skewed plan with unequal tables, on the one-sided S_T plan, and on
    # empty, single, all-right and all-left inputs
    skewed = PerturbedPlan.from_model(replace(stable_model(0.5, beta=0.5), stable=None))
    assert skewed.table_right.total_mass != skewed.table_left.total_mass
    s_plan = PerturbedPlan.subordinator(
        build_decomposition(tail_only_model(0.7, ELL1), 256.0, POSITIVE))
    rng = np.random.default_rng(83)
    cases = []
    for n in (0, 1, 2, 66, 5000):
        u = rng.random(n)
        cases += [(skewed, rng.random(n) < skewed.p_right, u),
                  (skewed, np.ones(n, dtype=bool), u),
                  (skewed, np.zeros(n, dtype=bool), u),
                  (s_plan, np.ones(n, dtype=bool), u)]
    for plan, right, u in cases:
        u_seen = u.copy()
        got = plan.signed_sizes(right, u)
        assert np.array_equal(got, _masked_signed_sizes(plan, right, u))
        assert np.array_equal(u, u_seen)
    assert any(0 < np.count_nonzero(r) < r.size for _, r, _ in cases)


def _per_side_reference(plan, n_steps, rng, splits):
    # the per-side layout written out: each side's cell counts and sizes
    # (right, then left), the normals, then one uniform per jump beyond 1,
    # right ones first; the thinned jumps are picked by boolean masks
    sides = []
    for table, rate in ((plan.table_right, plan.rate * plan.p_right),
                        (plan.table_left, plan.rate * (1.0 - plan.p_right))):
        counts, x = np.zeros(n_steps, dtype=int), np.empty(0)
        if table is not None and rate > 0:
            counts = rng.poisson(rate, size=n_steps)
            x = table.sizes(rng.uniform(size=counts.sum()))
        sides.append((np.repeat(np.arange(n_steps), counts), counts, x))
    inc = np.full(n_steps, plan.drift)
    if plan.var_unit > 0:
        inc = inc + np.sqrt(plan.var_unit) * rng.standard_normal(n_steps)
    for (_, counts, x), sign in zip(sides, (1.0, -1.0)):
        sums = np.zeros(n_steps)
        full = counts > 0
        sums[full] = np.add.reduceat(x, (np.cumsum(counts) - counts)[full])
        inc = inc + sign * sums
    if not splits:
        return inc, None
    n_right = np.count_nonzero(sides[0][2] > 1.0)
    u = rng.uniform(size=n_right + np.count_nonzero(sides[1][2] > 1.0))
    s_inc = []
    for d in splits:
        cell, _, x = sides[0] if d.side == POSITIVE else sides[1]
        mask = x > 1.0
        mask[mask] = (u[:n_right] if d.side == POSITIVE else u[n_right:]) \
            < d.thinning_probability(x[mask])
        s_inc.append(np.bincount(cell[mask], weights=x[mask], minlength=n_steps))
    return inc, np.array(s_inc)


def test_discrete_increments_equal_the_mask_reference():
    # splits on both sides, thinned by index, equal the per-side layout
    # inlined here with boolean masks bit for bit, and the stream stops at
    # the same draw: on the symmetric unit-tail plan and on a skewed one
    # with unequal tables
    for m in (tail_only_model(0.7, ELL1), replace(stable_model(0.5, 0.5), stable=None)):
        plan = PerturbedPlan.from_model(m)
        splits = [build_decomposition(m, T, side) for T in (16.0, 4096.0)
                  for side in (NEGATIVE, POSITIVE)]
        n_steps, thinned = 64, 0
        for i in range(10):
            rng = stream(71, i)
            inc, s_inc = _per_side_reference(plan, n_steps, rng, splits)
            got_rng = stream(71, i)
            got_inc, got_s = discrete_increments(plan, n_steps, got_rng, decomp=splits)
            assert np.array_equal(got_inc, inc) and np.array_equal(got_s, s_inc)
            assert got_rng.random() == rng.random()
            thinned += np.count_nonzero(got_s, axis=1)
        assert np.all(thinned > 0)


def test_discrete_increments_layout_promises():
    # X is the same with no split, one split and four; the splits' draws
    # are the last ones, one per jump beyond 1 in magnitude; the plan of
    # S_T alone draws only right counts and sizes, no left counts and no
    # normals
    m = tail_only_model(0.7, ELL1)
    plan = PerturbedPlan.from_model(m)
    four = [build_decomposition(m, T, side) for T in (16.0, 4096.0)
            for side in (NEGATIVE, POSITIVE)]
    n_steps = 32
    for i in range(5):
        rng = stream(73, i)
        inc, _ = _per_side_reference(plan, n_steps, rng, [])
        bare_rng = stream(73, i)
        bare, none = discrete_increments(plan, n_steps, bare_rng)
        assert none is None and np.array_equal(bare, inc)
        assert bare_rng.random() == rng.random()
        # the candidates, counted on a replay of both sides' draws
        replay, n_cand = stream(73, i), 0
        for table, rate in ((plan.table_right, plan.rate * plan.p_right),
                            (plan.table_left, plan.rate * (1.0 - plan.p_right))):
            x = table.sizes(replay.random(int(replay.poisson(rate, n_steps).sum())))
            n_cand += np.count_nonzero(x > 1.0)
        assert n_cand > 0
        for splits in (four[1], four):
            got_rng = stream(73, i)
            got, _ = discrete_increments(plan, n_steps, got_rng, decomp=splits)
            after = stream(73, i)
            discrete_increments(plan, n_steps, after)
            after.random(n_cand)
            assert np.array_equal(got, bare) and got_rng.random() == after.random()
    s_plan = PerturbedPlan.subordinator(four[1])
    for i in range(5):
        rng = stream(74, i)
        counts = rng.poisson(s_plan.rate, size=n_steps)
        x = s_plan.table_right.sizes(rng.random(int(counts.sum())))
        got_rng = stream(74, i)
        got, _ = discrete_increments(s_plan, n_steps, got_rng)
        cells = np.repeat(np.arange(n_steps), counts)
        assert np.allclose(got, np.bincount(cells, weights=x, minlength=n_steps),
                           rtol=1e-12, atol=0.0)
        assert got_rng.random() == rng.random()


def _old_layout_increments(plan, n_steps, rng, splits):
    # the layout before each side drew its own stream: one Poisson count per
    # cell for both sides, a side uniform and a size uniform per jump, the
    # normals, then one thinning uniform per jump
    counts = rng.poisson(plan.rate, size=n_steps)
    total = int(counts.sum())
    cell = np.repeat(np.arange(n_steps), counts)
    right = rng.uniform(size=total) < plan.p_right
    sizes = _masked_signed_sizes(plan, right, rng.uniform(size=total))
    inc = np.full(n_steps, plan.drift)
    inc = inc + np.sqrt(plan.var_unit) * rng.standard_normal(n_steps)
    inc = inc + np.bincount(cell, weights=sizes, minlength=n_steps)
    u = rng.uniform(size=total)
    s_inc = []
    for d in splits:
        mask = sizes < -1.0 if d.side == NEGATIVE else sizes > 1.0
        mask[mask] = u[mask] < d.thinning_probability(np.abs(sizes[mask]))
        s_inc.append(np.bincount(cell[mask], weights=np.abs(sizes[mask]),
                                 minlength=n_steps))
    return inc, np.array(s_inc)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [75, 76])
def test_per_side_layout_matches_the_old_layout_in_law(seed):
    # the per-side streams against the one-stream layout with side uniforms,
    # on independent streams of a skewed plan (p_right = 3/4): two-sample KS
    # on X after 1, 32 and 128 cells and on the S_T totals of a positive and
    # a negative split, each at the 0.1 % level
    m = replace(stable_model(0.7, 0.5), stable=None)
    plan = PerturbedPlan.from_model(m)
    splits = [build_decomposition(m, 16.0, side) for side in (POSITIVE, NEGATIVE)]
    n, n_steps = 2000, 128
    stats = []
    for draw, phase in ((discrete_increments, 0), (_old_layout_increments, 1)):
        rows = []
        for i in range(n):
            inc, s_inc = draw(plan, n_steps, stream(seed, i, phase), splits)
            x = np.cumsum(inc)
            rows.append([x[0], x[31], x[127], *s_inc.sum(axis=1)])
        stats.append(np.array(rows))
    new, old = stats
    for k in range(new.shape[1]):
        assert ks_2samp(new[:, k], old[:, k]).statistic < 1.949 * math.sqrt(2.0 / n), k


def test_discrete_increments_match_path_law():
    # integer-grid shortcut must agree in law with epoch-based simulation
    pm = tail_only_model(0.7, ELL1)
    plan = PerturbedPlan.from_model(pm)
    n, steps = 3 * 10 ** 4, 4
    a = np.empty(n)
    for i in range(n):
        inc, _ = discrete_increments(plan, steps, stream(51, i))
        a[i] = inc.sum()
    grid = TimeGrid(np.array([0.0, float(steps)]))
    b = np.array([sample_path(pm, grid, stream(52, i), plan=plan).values[-1]
                  for i in range(n)])
    assert ks_2samp(a, b).statistic < 1.628 * math.sqrt(2.0 / n)


def test_small_jump_cutoff_constant():
    assert ETA == 1e-3


SCALED = stable_model(0.7, 0.0, 1.5)


def _block_cases():
    """name -> (plan, grid, model whose tails the splits thin)."""
    x_model = replace(SCALED, stable=None)
    skewed = replace(stable_model(0.5, 0.6), stable=None, sigma2=0.3, b=0.1)
    log_power = tail_only_model(0.8, SlowlyVaryingSpec("log-power", c=0.5, p=0.5))
    return {
        "x-plan-T256": (PerturbedPlan.from_model(x_model), TimeGrid.survival(256.0),
                        x_model),
        "y-plan-T256": (PerturbedPlan.from_model(
            SCALED, build_decomposition(SCALED, 256.0, NEGATIVE)),
            TimeGrid.survival(256.0), SCALED),
        "skewed-diffusive": (PerturbedPlan.from_model(skewed),
                             TimeGrid.geometric(40.5), skewed),
        "log-power-integers": (PerturbedPlan.from_model(log_power),
                               TimeGrid.integers(64.0), log_power),
    }


@pytest.mark.parametrize("ends", ["doubling", "scattered"])
@pytest.mark.parametrize("name", list(_block_cases()))
def test_path_blocks_equal_the_whole_path(name, ends):
    # the blocks of a path, joined, are sample_path on the same stream; with
    # splits of both sides and two T, joined_blocks keeps X, the merged
    # points and the epochs, and thins some jumps.  "doubling" keeps the grid,
    # so blocks end at t = 1, 2, 4, ...; "scattered" drops those times and
    # adds scattered points, so each block ends at the last point before one
    plan, grid, model = _block_cases()[name]
    splits = [build_decomposition(model, 16.0, NEGATIVE),
              build_decomposition(model, 16.0, POSITIVE),
              build_decomposition(model, 1e4, POSITIVE)]
    pts = grid.points
    doubling = 2.0 ** np.arange(math.ceil(math.log2(pts[-1])))
    scattered = ends == "scattered"
    if scattered:
        rng = np.random.default_rng(len(name))
        extra = np.concatenate([rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, pts[-1], 6)])
        pts = np.union1d(pts[~np.isin(pts, doubling)], extra)
        grid = TimeGrid(pts)
    ends = block_ends(pts)
    assert ends.size > 2 and pts[ends[0]] <= 1.0 < pts[ends[0] + 1]
    assert not (scattered and np.any(np.isin(pts[ends[:-1]], doubling)))
    x_model = replace(model, stable=None)
    thinned = 0
    for i in range(8):
        path = sample_path(x_model, grid, stream(61, i), plan=plan)
        # one path alone, every limit pending: one row per block
        blocks = [(m[0], v[0]) for _, m, v in perturbed_rows(
            plan, pts, 61, np.array([i]), 0, np.ones((1, 1), dtype=bool))]
        assert len(blocks) == ends.size
        for (merged, _), a, b in zip(blocks, np.append(0, ends), ends):
            assert merged[0] == pts[a] and merged[-1] == pts[b]
        got_pts = np.concatenate([blocks[0][0]] + [b[0][1:] for b in blocks[1:]])
        got_vals = np.concatenate([blocks[0][1]] + [b[1][1:] for b in blocks[1:]])
        got_epochs = got_pts[~np.isin(got_pts, pts)]
        assert np.array_equal(got_pts, path.grid.points)
        assert np.array_equal(got_vals, path.values)
        assert np.array_equal(got_epochs, path.jump_times)
        whole = joined_blocks(plan, pts, stream(61, i))
        *coupled, s_values = joined_blocks(plan, pts, stream(61, i), splits)
        assert s_values.shape == (3, path.values.size)
        for a, b in zip(whole, coupled):
            assert np.array_equal(a, b)
        thinned += np.count_nonzero(s_values[:, -1])
    assert path.jump_times.size > 0 and thinned > 0


@pytest.mark.parametrize("name", ["x-plan-T256", "skewed-diffusive"])
def test_perturbed_survival_counts_score_the_whole_path(name):
    # survival_counts stops paths early; scoring each whole sample_path with
    # passage.survives, a path survives horizon T unless it crossed by T
    plan, grid, model = _block_cases()[name]
    x_model = replace(model, stable=None)
    T = grid.horizon
    boundaries = [Boundary("constant", level=0.5), Boundary("decreasing", 0.5, 2.0),
                  Boundary("increasing", 1.3)]
    T_grid = [t for t in (0.5, 2.0, 8.0, 32.0, 256.0) if t < T] + [T]
    n_paths, seed = 40, 63
    want = np.zeros((len(boundaries), len(T_grid)), dtype=int)
    for i in range(n_paths):
        path = sample_path(x_model, grid, stream(seed, i), plan=plan)
        for row, b in zip(want, boundaries):
            v = survives(path, b)
            crossed = math.inf if v.survived else path.grid.points[v.first_crossing_index]
            row += [crossed > t for t in T_grid]
    got = survival_counts(x_model, boundaries, T_grid, n_paths, grid, seed, plan=plan)
    assert got.tolist() == want.tolist()
    assert 0 < want[:, -1].sum() and want[:, 0].sum() < n_paths * len(boundaries)


def _reference_blocks(plan, points, rng):
    # one path's blocks built alone, the reference for rows built in groups:
    # jumps, merged points, normals, running sum, then the thinning uniforms
    a, carry = 0, 0.0
    for b in block_ends(points):
        epochs, right, u = plan.draw_jumps(rng, points[a], points[b])
        sizes = plan.signed_sizes(right, u)
        merged = np.union1d(points[a:b + 1], epochs) if epochs.size else points[a:b + 1]
        dt = np.diff(merged)
        inc = plan.drift * dt
        if plan.var_unit > 0:
            inc = inc + np.sqrt(plan.var_unit * dt) * rng.standard_normal(dt.size)
        jumps = np.bincount(np.searchsorted(merged, epochs), weights=sizes,
                            minlength=merged.size)[1:]
        values = np.cumsum(np.append(carry, inc + jumps))
        rng.random(epochs.size)
        a, carry = b, values[-1]
        yield merged, values


def _reference_counts(plan, boundaries, T_grid, n_paths, points, seed, threads):
    # survival_counts' perturbed rows scored one path at a time, the reference
    def rows_of(lo, hi, pending):
        for i in range(lo, hi):
            row = np.array([i - lo])
            for mpts, vals in _reference_blocks(plan, points, stream(seed, i)):
                limits = np.full((len(boundaries), mpts.size), np.inf)
                for b in np.flatnonzero(pending[row[0]]):
                    limits[b] = boundary_value(boundaries[b], mpts)
                yield row, vals[None, None], mpts, limits
                if not pending[row[0]].any():
                    break

    return estimate._survivors(rows_of, len(boundaries), np.asarray(T_grid, dtype=float),
                               n_paths, threads)


def _row_cases():
    """name -> (plan, model): unequal sides (beta = 0.5), one side (beta = 1),
    no jumps, and a Y_T plan with the negative split at T = 64."""
    return {
        "beta-half": (None, replace(stable_model(0.7, 0.5), stable=None)),
        "one-sided": (None, replace(stable_model(0.7, 1.0), stable=None)),
        "jump-free": (None, LevyModel(b=0.05, sigma2=1.0)),
        "y-split": (PerturbedPlan.from_model(SCALED, build_decomposition(SCALED, 64.0, NEGATIVE)),
                    replace(SCALED, stable=None)),
    }


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", list(_row_cases()))
def test_perturbed_survival_counts_equal_the_per_path_rows(name, threads):
    # rows drawn in groups count bit for bit as the per-path rows did: three
    # boundaries, 300 paths (a chunk of 256 and one of 44), rows that die
    # in the first block and rows that die after t = 2
    plan, model = _row_cases()[name]
    boundaries = [Boundary("constant", level=1.0), Boundary("decreasing", 1.3, 2.0),
                  Boundary("increasing", 0.5)]
    T_grid, n_paths, seed = [0.5, 2.0, 8.0, 32.0, 64.0], 300, 17
    points = TimeGrid.survival(64.0).points
    got = survival_counts(model, boundaries, T_grid, n_paths, TimeGrid(points), seed,
                          threads, plan=plan)
    want = _reference_counts(plan or PerturbedPlan.from_model(model), boundaries, T_grid,
                             n_paths, points, seed, threads)
    assert got.tolist() == want.tolist()
    assert np.any(want[:, 0] < n_paths) and np.any(want[:, 1] > want[:, -1])


def _assert_rows_are_reference_blocks(plan, points, seed, paths, phase):
    # every row of every group is its path's reference block, then repeats
    # its last point and value; row r stops after 1 + r % 4 blocks
    want = [list(_reference_blocks(plan, points, stream(seed, int(p), phase))) for p in paths]
    pending = np.ones((paths.size, 2), dtype=bool)
    seen = np.zeros(paths.size, dtype=int)
    padded = 0
    for rows, merged, vals in perturbed_rows(plan, points, seed, paths, phase, pending):
        assert merged.shape == vals.shape and merged.shape[0] == rows.size
        for r, m, v in zip(rows, merged, vals):
            wm, wv = want[r][seen[r]]
            assert np.array_equal(m[:wm.size], wm) and np.array_equal(v[:wm.size], wv)
            assert np.all(m[wm.size:] == wm[-1]) and np.all(v[wm.size:] == wv[-1])
            padded += m.size > wm.size
            seen[r] += 1
            if seen[r] == 1 + r % 4:
                pending[r] = False
    assert seen.tolist() == [min(1 + r % 4, len(w)) for r, w in enumerate(want)]
    return padded


@pytest.mark.parametrize("name", list(_row_cases()))
def test_perturbed_rows_are_the_per_path_blocks(name):
    plan, model = _row_cases()[name]
    plan = plan or PerturbedPlan.from_model(model)
    padded = _assert_rows_are_reference_blocks(plan, TimeGrid.survival(64.0).points, 5,
                                               3 + 7 * np.arange(40), 1)
    assert (padded > 0) == (plan.rate > 0)


def test_perturbed_rows_merge_epochs_on_points_as_union1d(monkeypatch):
    # an epoch on a grid point (the block's end) or on the row's previous
    # epoch is one merged point, its jump in that point's cell
    draw_jumps = PerturbedPlan.draw_jumps

    def on_points(self, rng, lo, hi):
        epochs, right, u = draw_jumps(self, rng, lo, hi)
        if epochs.size > 2:
            epochs[1], epochs[-1] = epochs[0], hi
        return epochs, right, u

    monkeypatch.setattr(PerturbedPlan, "draw_jumps", on_points)
    plan = PerturbedPlan.from_model(replace(stable_model(0.7, 0.5), stable=None))
    _assert_rows_are_reference_blocks(plan, TimeGrid.survival(8.0).points, 6,
                                      np.arange(12), 0)


def test_perturbed_rows_hold_one_row_per_block_wider_than_the_cap():
    # rows are grouped before they draw, by expected width: block points +
    # rate * block length, at most ROW_CAP per group, one row if wider
    plan = PerturbedPlan.from_model(replace(SCALED, stable=None))
    pts = TimeGrid.survival(256.0).points
    ends = block_ends(pts)
    starts = np.append(0, ends[:-1])
    width = ends - starts + 1 + plan.rate * (pts[ends] - pts[starts])
    assert width[0] < ROW_CAP < width[-1]
    groups = {}
    for rows, merged, _ in perturbed_rows(plan, pts, 9, np.arange(6), 0,
                                          np.ones((6, 1), dtype=bool)):
        groups.setdefault(merged[0, 0], []).append(rows.size)
    for a, w in zip(starts, width):
        per = max(1, int(ROW_CAP // w))
        assert groups[pts[a]] == [min(per, 6 - lo) for lo in range(0, 6, per)]


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("model", [SCALED, stable_model(0.5, -0.5)], ids=["scaled", "skewed"])
def test_product_bound_s_factor_is_the_per_path_predicate(model, seed):
    # the S_T factor, counted through _survivors on -S_T, equals
    # subordinator_stays_above on each path of the subordinator plan
    T, gamma, n_paths = 64.0, 1.0, 300
    decomp = build_decomposition(model, T, NEGATIVE)
    b, grid = Boundary("increasing", gamma, -0.5), TimeGrid(np.array([0.0, T]))
    want = sum(subordinator_stays_above(
        sample_subordinator_path(decomp, grid, stream(seed, i, PHASE_TERTIARY)), b)
        for i in range(n_paths))
    assert 0 < want < n_paths
    assert product_bound_check(model, T, gamma, n_paths, seed).p_s == want / n_paths


def test_perturbed_rows_evaluate_only_pending_boundaries(monkeypatch):
    # every path crosses the first level at t = 0 and never the second: the
    # first is evaluated on each path's first block only, the second on
    # every block, and the counts stay those of scoring both everywhere
    model = replace(standard_symmetric_model(0.7), stable=None)
    crossed, never = Boundary("constant", level=-0.5), Boundary("constant", level=1e300)
    T, n_paths, grid = 64.0, 3, TimeGrid.survival(64.0)
    seen = []  # each boundary evaluated, once per row of a group
    real = estimate.boundary_values
    monkeypatch.setattr(estimate, "boundary_values",
                        lambda bs, t: seen.extend(b for b in bs for _ in t) or real(bs, t))
    got = survival_counts(model, [crossed, never], [T], n_paths, grid, 5)
    assert got.tolist() == [[0], [n_paths]]
    assert seen.count(crossed) == n_paths
    assert seen.count(never) == n_paths * block_ends(grid.points).size


def test_crossed_perturbed_paths_draw_one_block(monkeypatch):
    # every path crosses a level below 0 at t = 0, in its first block (0, 1]:
    # it draws that block's jumps once and no sizes beyond them
    model = replace(standard_symmetric_model(0.7), stable=None)
    plan = PerturbedPlan.from_model(model)
    T, n_paths, seed = 2.0 ** 12, 4, 62
    calls, sized = [], []
    draw_jumps, sizes = PerturbedPlan.draw_jumps, JumpTable.sizes

    def record(self, rng, lo, hi):
        out = draw_jumps(self, rng, lo, hi)
        calls.append((lo, hi, out[0].size))
        return out

    monkeypatch.setattr(PerturbedPlan, "draw_jumps", record)
    monkeypatch.setattr(JumpTable, "sizes",
                        lambda self, u: sized.append(u.size) or sizes(self, u))
    got = survival_counts(model, [Boundary("constant", level=-0.5)],
                          [1.0, T], n_paths, TimeGrid.survival(T), seed, plan=plan)
    assert got.tolist() == [[0, 0]]
    assert [(lo, hi) for lo, hi, _ in calls] == [(0.0, 1.0)] * n_paths
    drawn = sum(n for _, _, n in calls)
    assert sum(sized) == drawn and 0 < drawn < 3 * plan.rate * n_paths
    # blocks end at t = 1, 2, 4, ..., 1024, then every 1024 time units
    pts = TimeGrid.survival(2.0 ** 14).points
    assert pts[block_ends(pts)].tolist() == ([2.0 ** k for k in range(11)]
                                             + [1024.0 * k for k in range(2, 17)])
