"""Survival-probability Monte Carlo, exponent regression, lemma experiments.

In the survival engine every path is simulated once and scored against
every horizon and every boundary, so survivor counts are exactly nested in
T and exactly ordered across pointwise-ordered boundaries.  Discrete
survival draws each path once too, over the integer cells of its largest
horizon, so its counts are nested in T as well.  The survival engine,
discrete survival, the product bound's S_T factor, the Gaussian refinement
and the lemma experiment count through one first-passage counter,
_survivors: each engine yields path rows and their limits, and the counter
keeps the rows still pending, the death histogram by horizon bucket and
the nested counts.  In exact mode a path is drawn in doubling blocks while
any of its limits is pending in that mask; the draws and the running sum
are those of the whole-grid path, so the counts are the same as when every
path runs to the largest horizon.  The exact paths of a chunk are drawn
together, row by row on one reused stream cursor.  A perturbed-mode path
stops in the same way: it is drawn in time blocks ending at t = 1, 2, 4,
..., 1024, then every 1024, each block drawing its own jumps and normals
from the path's stream, so a path that stops early draws nothing for later
times; the live rows of a chunk are built and scored together, in groups
per block.  The subordinator S_T is a perturbed plan too: its paths come
from the same blocks, and its marginals from discrete_increments.  Workers
own disjoint path-index ranges with a fixed chunk size and run in forked
processes when run.threads asks for more than one.  The only state they
hand back is integer survivor counts combined by addition, so results are
identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .decompose import (NEGATIVE, POSITIVE, DecompositionT, LaplaceBound,
                        build_decomposition, delta, laplace_bound)
from .levymodel import Boundary, LevyModel
from .passage import boundary_value, boundary_values, first_crossings
from .passage import subordinator_stays_above  # noqa: F401  (bench/child.py wraps it here)
from .rng import PHASE_PATHS, PHASE_SECONDARY, PHASE_TERTIARY, stream
from .simulate import (PerturbedPlan, TimeGrid, _running_sum,
                       discrete_increments, exact_rows, perturbed_rows)
from .simulate import sample_path  # noqa: F401  (bench/child.py wraps it here)
from .simulate import sample_subordinator_path  # noqa: F401  (bench/child.py wraps it here)
from .stable import StableParams, subordinator_unit_scale
from .stable import sample_stable  # noqa: F401  (bench/child.py wraps it here)

WILSON_Z = 1.959963984540054  # two-sided 95%
CHUNK = 256  # paths per work unit; fixed so results never depend on threads


@dataclass(frozen=True)
class SurvivalEstimate:
    T: float
    n_paths: int
    survivors: int
    p_hat: float
    log_ci: tuple[float, float]

    @classmethod
    def from_counts(cls, T: float, survivors: int, n_paths: int) -> "SurvivalEstimate":
        if n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if not (0 <= survivors <= n_paths):
            raise ValueError("survivors must lie in [0, n_paths]")
        return cls(T=T, n_paths=n_paths, survivors=survivors,
                   p_hat=survivors / n_paths,
                   log_ci=wilson_log_ci(survivors, n_paths))


def wilson_log_ci(survivors: int, n: int) -> tuple[float, float]:
    """Wilson 95% interval for the count, mapped to the ln p scale.

    Stays valid at small survivor counts where the Wald interval collapses;
    the lower end is -inf exactly when survivors = 0.
    """
    p, z = survivors / n, WILSON_Z
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if survivors == 0 else max(center - half, 0.0)
    hi = 1.0 if survivors == n else min(center + half, 1.0)
    return (math.log(lo) if lo > 0 else -math.inf, math.log(hi))


@dataclass(frozen=True)
class ExponentFit:
    rho_hat: float
    stderr: float


class FitUnavailable(ValueError):
    """Too few horizons with survivors to fit an exponent."""


def fit_exponent(estimates) -> ExponentFit:
    """Weighted least squares of ln p_hat on ln T; rho_hat = -slope.

    Weights are inverse delta-method variances of ln p_hat with a half-count
    continuity correction so p_hat = 1 keeps a finite weight.  Zero-survivor
    points (and any T <= 0 anchor points) are dropped with a warning.
    """
    usable = []
    for e in estimates:
        if e.T <= 0 or e.p_hat <= 0:
            warnings.warn(f"dropping unusable grid point T={e.T} "
                          f"(survivors={e.survivors}) from exponent fit")
            continue
        usable.append(e)
    if len(usable) < 4:
        raise FitUnavailable("exponent fit needs at least 4 usable grid points")
    x = np.array([math.log(e.T) for e in usable])
    y = np.array([math.log(e.p_hat) for e in usable])
    k = np.array([e.survivors for e in usable], dtype=float)
    n = np.array([e.n_paths for e in usable], dtype=float)
    w = (k + 0.5) * n / np.maximum(n - k + 0.5, 0.5)
    sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    d = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / d
    return ExponentFit(rho_hat=-slope, stderr=math.sqrt(sw / d))


# ---------------------------------------------------------------------------
# survival engine
# ---------------------------------------------------------------------------

def _run_chunks(worker, n_paths: int, threads: int) -> np.ndarray:
    """Sum integer results of worker(lo, hi) over fixed-size path chunks.

    With threads > 1 and more than one chunk, the chunks run in forked
    processes, at most one per usable CPU: a forked child inherits the
    worker closure, which cannot be pickled, and the imported package.
    Where fork is unavailable, or other threads are running (a lock one of
    them holds would stay held in the child), the chunks run in the calling
    process.  Parts come back in chunk order.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    ranges = [(lo, min(lo + CHUNK, n_paths)) for lo in range(0, n_paths, CHUNK)]
    procs = 1
    if (threads > 1 and len(ranges) > 1 and threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()):
        procs = min(threads, _usable_cpus(), len(ranges))
    if procs <= 1:
        parts = [worker(lo, hi) for lo, hi in ranges]
    else:
        global _worker
        _worker = worker
        with multiprocessing.get_context("fork").Pool(procs) as pool:
            parts = pool.starmap(_call_worker, ranges, chunksize=1)
    return np.sum(parts, axis=0)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker = None  # the chunk worker, set before the pool forks; children inherit it


def _call_worker(lo: int, hi: int) -> np.ndarray:
    return _worker(lo, hi)


def _horizons(T_grid) -> np.ndarray:
    """T_grid as floats, checked to be a non-empty increasing 1-D grid."""
    Tg = np.asarray(T_grid, dtype=float)
    if Tg.ndim != 1 or Tg.size == 0 or np.any(np.diff(Tg) <= 0):
        raise ValueError("T_grid must be non-empty and increasing")
    return Tg


def _survivors(rows_of, n_limits: int, Tg: np.ndarray, n_paths: int,
               threads: int) -> np.ndarray:
    """Survivor counts per limit and horizon, shape (n_limits, len(Tg)).

    rows_of(lo, hi, pending) yields (rows, vals, pts, limits) for the paths
    lo..hi-1 of a chunk: the values of chunk rows `rows` at the points pts,
    shared (points,) or one row each (rows, points), and the limits there,
    values and limits both broadcast to (rows, n_limits, points).  A
    row still pending limit b that crosses it (ties survive) dies in the
    horizon bucket of its first crossing and stops pending b.  `pending`,
    shape (hi - lo, n_limits), is also the generator's stop rule: the exact
    engines draw only the rows with a limit still pending.  Deaths after
    the largest horizon fill a last bucket that no count reads.
    """
    def worker(lo: int, hi: int) -> np.ndarray:
        dead = np.zeros((n_limits, Tg.size + 1), dtype=np.int64)
        pending = np.ones((hi - lo, n_limits), dtype=bool)
        for rows, vals, pts, limits in rows_of(lo, hi, pending):
            k = first_crossings(vals, limits)
            r, b = np.nonzero(pending[rows] & (k >= 0))
            pts = np.broadcast_to(pts, (rows.size, pts.shape[-1]))
            bucket = Tg.searchsorted(pts[r, k[r, b]], side="left")
            dead += np.bincount(b * dead.shape[1] + bucket,
                                minlength=dead.size).reshape(dead.shape)
            pending[rows[r], b] = False
        return dead

    return n_paths - np.cumsum(_run_chunks(worker, n_paths, threads)[:, :-1], axis=1)


def survival_counts(model: LevyModel, boundaries: list[Boundary], T_grid,
                    n_paths: int, grid: TimeGrid, seed: int,
                    threads: int = 1, phase: int = PHASE_PATHS,
                    plan: PerturbedPlan | None = None) -> np.ndarray:
    """Integer survivor counts, shape (len(boundaries), len(T_grid)).

    One path set is reused for every boundary and every horizon: counts are
    exactly nonincreasing in T and respect pointwise boundary ordering.  A
    path is scored at the first monitored point where its value exceeds the
    boundary (ties survive); a path, drawn in blocks that continue the
    whole path's stream, stops once every boundary has such a point, since
    later points cannot change its contribution.  Perturbed-mode paths use
    `plan`, by default the plan of the model itself.
    """
    Tg = _horizons(T_grid)
    if Tg[-1] > grid.horizon:
        raise ValueError("monitoring grid must cover the largest horizon")
    pts = grid.points
    if model.stable is not None:
        dt_pow = np.diff(pts) ** (1.0 / model.stable.alpha)
        bvals = np.array([boundary_value(b, pts) for b in boundaries])

        def rows_of(lo, hi, pending):
            for start, rows, vals in exact_rows(model.stable, dt_pow, seed,
                                                np.arange(lo, hi), phase, pending):
                stop = start + vals.shape[1]
                yield rows, vals[:, None], pts[start:stop], bvals[:, start:stop]
    else:
        plan = plan or PerturbedPlan.from_model(model)

        def rows_of(lo, hi, pending):
            for rows, mpts, vals in perturbed_rows(plan, pts, seed, np.arange(lo, hi),
                                                   phase, pending):
                # a limit pending in no row of the group is never read: +inf, not evaluated
                live = np.flatnonzero(pending[rows].any(axis=0))
                limits = np.full((len(boundaries), *mpts.shape), np.inf)
                limits[live] = boundary_values([boundaries[b] for b in live], mpts)
                yield rows, vals[:, None], mpts, limits.transpose(1, 0, 2)

    return _survivors(rows_of, len(boundaries), Tg, n_paths, threads)


# ---------------------------------------------------------------------------
# decomposition-level experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBoundReport:
    p_lhs: float
    se_lhs: float
    p_y: float
    se_y: float
    p_s: float
    se_s: float
    margin: float
    se_margin: float
    satisfied: bool


def product_bound_check(model: LevyModel, T: float, gamma: float, n_paths: int,
                        seed: int, threads: int = 1) -> ProductBoundReport:
    """Lower product bound for the decreasing-boundary survival probability.

    Estimates, with three independent path sets,
        LHS = P(X(t) <= 1 - t**gamma, t <= T)
        RHS = P(Y_T(t) <= 1/2, t <= T) * P(-S_T(t) <= 1/2 - t**gamma, t <= T)
    and asserts LHS >= RHS - 3 combined standard errors.
    """
    if not model.has_jumps or model.alpha >= 1.0:
        raise ValueError("product bound experiments require jumps with alpha < 1")
    decomp = build_decomposition(model, T, NEGATIVE)  # needs the left tail
    grid = TimeGrid.survival(T)
    Tg = np.array([T])

    # X and Y_T both run in perturbed mode so that all factors monitor at
    # comparable (epoch-level) density; mixing exact-mode integer
    # monitoring with epoch monitoring would skew the comparison.
    x_model = replace(model, stable=None)
    k_lhs = survival_counts(x_model, [Boundary("decreasing", gamma, 1.0)], Tg,
                            n_paths, grid, seed, threads, PHASE_PATHS)[0, 0]

    # Y_T is X without the thinned jumps
    k_y = int(survival_counts(x_model, [Boundary("constant", level=0.5)], Tg,
                              n_paths, grid, seed, threads, PHASE_SECONDARY,
                              PerturbedPlan.from_model(model, decomp))[0, 0])

    # S_T is constant between its epochs, so it stays at or above the
    # increasing f(t) = t**gamma - 1/2 on [t_k, t_k+1) iff S(t_k) >= f(t_k+1),
    # and at T iff S(T) >= f(T): -S is scored against -f at the next merged
    # point (at T itself for the last), ties surviving
    s_plan = PerturbedPlan.subordinator(decomp)
    s_boundary = Boundary("increasing", gamma, -0.5)

    def s_rows(lo, hi, pending):
        for rows, mpts, vals in perturbed_rows(s_plan, np.array([0.0, T]), seed,
                                               np.arange(lo, hi), PHASE_TERTIARY, pending):
            after = np.concatenate([mpts[:, 1:], mpts[:, -1:]], axis=1)
            yield rows, -vals[:, None], mpts, -boundary_value(s_boundary, after)[:, None]

    k_s = int(_survivors(s_rows, 1, Tg, n_paths, threads)[0, 0])

    p_lhs, p_y, p_s = k_lhs / n_paths, k_y / n_paths, k_s / n_paths
    se = lambda p: math.sqrt(p * (1.0 - p) / n_paths)
    se_lhs, se_y, se_s = se(p_lhs), se(p_y), se(p_s)
    margin = p_lhs - p_y * p_s
    se_margin = math.sqrt(se_lhs ** 2 + (p_s * se_y) ** 2 + (p_y * se_s) ** 2)
    return ProductBoundReport(p_lhs=p_lhs, se_lhs=se_lhs, p_y=p_y, se_y=se_y,
                              p_s=p_s, se_s=se_s, margin=margin,
                              se_margin=se_margin,
                              satisfied=margin >= -3.0 * se_margin)


@dataclass(frozen=True)
class LemmaN0NResult:
    N: int
    N1: int
    n_paths: int
    survivors: int
    p_hat: float
    vacuous: bool


def lemma_n0N_experiment(alpha: float, gamma: float, ell, N: int,
                         n_paths: int, seed: int,
                         threads: int = 1) -> LemmaN0NResult:
    """P(S_N(n) >= (n+1)**gamma for all n = N1(N), ..., N).

    S_N is the scaled one-sided stable subordinator with Laplace exponent
    delta(N) * c * lam**alpha (constant ell = c only: that family meets the
    required Laplace bound with equality; no canonical construction exists
    here for non-constant ell).  N1(N) = floor((ln ln N)**(4/(1-gamma*alpha-
    epsilon))) with epsilon = min(ga, 1-ga)/2.  At desk scale N1 often
    exceeds N; the index range is then empty and the probability is vacuously
    one, which the result flags.  Otherwise _survivors counts the exact rows
    of -S_N against the limits -(n+1)**gamma at n = N1, ..., N, one horizon
    N: a row dies where -S_N exceeds its limit, so ties survive.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("the lemma's subordinator needs alpha in (0, 1)")
    ga = gamma * alpha
    if not (0.0 < ga < 1.0):
        raise ValueError("need 0 < gamma * alpha < 1")
    if not ell.is_constant:
        raise ValueError("lemma experiment supports constant ell only")
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    eps = min(ga, 1.0 - ga) / 2.0
    d = delta(float(N))
    N1 = int(math.floor(math.log(math.log(N)) ** (4.0 / (1.0 - ga - eps))))
    if N1 > N:
        return LemmaN0NResult(N=N, N1=N1, n_paths=n_paths,
                              survivors=n_paths, p_hat=1.0, vacuous=True)
    N1 = max(N1, 1)
    scale = (d * ell.c) ** (1.0 / alpha) * subordinator_unit_scale(alpha)
    params = StableParams(alpha, 1.0, scale)
    pts = np.append(0.0, np.arange(N1, N + 1, dtype=float))
    limits = np.append(np.inf, -(pts[1:] + 1.0) ** gamma)  # t = 0 is not scored
    dt_pow = np.ones(pts.size - 1)
    dt_pow[0] = N1 ** (1.0 / alpha)  # the first increment spans [0, N1]

    def rows_of(lo, hi, pending):
        for start, rows, vals in exact_rows(params, dt_pow, seed, np.arange(lo, hi),
                                            PHASE_PATHS, pending):
            stop = start + vals.shape[1]
            yield rows, -vals[:, None], pts[start:stop], limits[None, start:stop]

    k = int(_survivors(rows_of, 1, np.array([float(N)]), n_paths, threads)[0, 0])
    return LemmaN0NResult(N=N, N1=N1, n_paths=n_paths,
                          survivors=k, p_hat=k / n_paths, vacuous=False)


@dataclass(frozen=True)
class DiscreteSurvivalResult:
    estimate_y: SurvivalEstimate
    estimate_x: SurvivalEstimate


def discrete_survival_experiment(model: LevyModel, T_grid, x: float,
                                 seed: int, n_paths: int,
                                 threads: int = 1) -> list[DiscreteSurvivalResult]:
    """Integer-grid survival of the thinned remainder Y_T below level x.

    Simulates (X, Y_T = X - S_T) jointly by thinning the big positive jumps
    of one perturbed path set, so the domination survivors(Y) >= survivors(X)
    holds pathwise, not just in expectation; a Y_T above X at any cell
    raises RuntimeError.  Returns one result per horizon T in T_grid, each
    with its own split of the jump measure.  Path i is drawn once, over the
    floor(T) cells of the largest horizon, and every split thins its jumps
    with one shared uniform per jump beyond 1; horizon T scores the first
    floor(T) cells, so the X counts are nested in T.
    """
    if not model.has_jumps or model.alpha >= 1.0:
        raise ValueError("discrete survival experiments require jumps with alpha < 1")
    Tg = _horizons(T_grid)
    Ts = [float(T) for T in Tg]
    decomps = [build_decomposition(model, T, POSITIVE) for T in Ts]  # needs the right tail
    plan = PerturbedPlan.from_model(model)
    ends = np.arange(1.0, math.floor(Ts[-1]) + 1.0)  # cell end times

    def rows_of(lo, hi, pending):
        for i in range(lo, hi):
            inc, s_inc = discrete_increments(plan, ends.size, stream(seed, i), decomp=decomps)
            xv = np.cumsum(inc)
            paths = np.vstack([xv, xv - np.cumsum(s_inc, axis=1)])  # X, then Y_T per T
            if np.any(paths[1:] > xv):
                raise RuntimeError("pathwise ordering Y_T <= X violated")
            yield np.array([i - lo]), paths[None], ends, x

    k = _survivors(rows_of, 1 + len(Ts), Tg, n_paths, threads)
    return [DiscreteSurvivalResult(
        estimate_y=SurvivalEstimate.from_counts(T, int(k[1 + j, j]), n_paths),
        estimate_x=SurvivalEstimate.from_counts(T, int(k[0, j]), n_paths))
        for j, T in enumerate(Ts)]


# ---------------------------------------------------------------------------
# subordinator marginal checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceCheck:
    empirical: float
    bound: LaplaceBound
    satisfied: bool


def _subordinator_marginal(decomp: DecompositionT, t: float, n_draws: int,
                           seed: int) -> np.ndarray:
    """n_draws of S_T(t): the unit cells of S_T's plan with its rate times t,
    since a pure-jump S(t) has the law of one unit cell at rate t * total_mass."""
    plan = PerturbedPlan.subordinator(decomp)
    return discrete_increments(replace(plan, rate=plan.rate * t), n_draws,
                               stream(seed, 0))[0]


def subordinator_laplace_check(decomp: DecompositionT, lam: float,
                               n_draws: int, seed: int) -> LaplaceCheck:
    """Empirical E exp(-lam * S_T(1)) against the analytic upper bound."""
    s = _subordinator_marginal(decomp, 1.0, n_draws, seed)
    vals = np.exp(-lam * s)
    emp = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_draws))
    b = laplace_bound(decomp, lam)
    return LaplaceCheck(empirical=emp, bound=b,
                        satisfied=emp <= b.value + 3.0 * se)


def subordinator_exceedance(decomp: DecompositionT, t: float, threshold: float,
                            n_draws: int, seed: int) -> tuple[float, float]:
    """(p_hat, se) for P(S_T(t) > threshold)."""
    s = _subordinator_marginal(decomp, t, n_draws, seed)
    p = float(np.mean(s > threshold))
    return p, math.sqrt(p * (1.0 - p) / n_draws)


def gaussian_refinement_counts(sigma2: float, drift: float, level: float,
                               T_grid, dt_fine: float, stride: int,
                               n_paths: int, seed: int,
                               threads: int = 1) -> np.ndarray:
    """Survivor counts on a fine uniform grid and its strided subgrid.

    One Gaussian path set, evaluated against the constant boundary on the
    dt_fine grid and on every stride-th point (i.e. dt = stride * dt_fine).
    The subgrid counts dominate the fine counts pathwise, which makes the
    shrinking of the monitoring bias under grid halving an exact integer
    comparison rather than a noisy one.  Returns shape (2, len(T_grid)):
    row 0 the strided (coarse) counts, row 1 the fine counts.
    """
    Tg = _horizons(T_grid)
    T = float(Tg[-1])
    pts = TimeGrid.uniform(T, dt_fine).points
    if pts[::stride][-1] != T:
        raise ValueError("stride must divide the fine grid")
    sd = math.sqrt(sigma2 * dt_fine)
    limits = np.full((2, pts.size), level)
    limits[0] = np.inf  # the coarse row is scored on the subgrid only
    limits[0, ::stride] = level

    def rows_of(lo, hi, pending):
        for i in range(lo, hi):
            g = stream(seed, i)
            vals = _running_sum(drift * dt_fine + sd * g.standard_normal(pts.size - 1))
            yield np.array([i - lo]), vals[None, None], pts, limits

    return _survivors(rows_of, 2, Tg, n_paths, threads)
