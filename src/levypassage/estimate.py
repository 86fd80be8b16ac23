"""Survival-probability Monte Carlo, exponent regression, lemma experiments.

Every path is simulated once and scored against every horizon and every
boundary, so survivor counts are exactly nested in T and exactly ordered
across pointwise-ordered boundaries.  In exact mode the survival engine draws
a path in doubling blocks and stops once every boundary has been crossed;
the draws and the running sum are those of the whole-grid path, so the
counts are the same as when every path runs to the largest horizon.  Workers
own disjoint path-index ranges with a fixed chunk size; the only cross-thread
state is integer survivor counts combined by addition, so results are
identical for any thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .decompose import (NEGATIVE, POSITIVE, DecompositionT, LaplaceBound,
                        build_decomposition, delta, laplace_bound)
from .levymodel import Boundary, LevyModel
from .passage import boundary_value, subordinator_stays_above
from .rng import PHASE_PATHS, PHASE_SECONDARY, PHASE_TERTIARY, stream
from .simulate import (PerturbedPlan, TimeGrid, discrete_increments,
                       sample_path, sample_subordinator_path)
from .stable import StableParams, sample_stable, subordinator_unit_scale

WILSON_Z = 1.959963984540054  # two-sided 95%
CHUNK = 256  # paths per work unit; fixed so results never depend on threads
EXACT_BLOCK = 128  # increments in an exact path's first block; later ones double


@dataclass(frozen=True)
class SurvivalEstimate:
    T: float
    n_paths: int
    survivors: int
    p_hat: float
    log_ci: tuple[float, float]
    seed: int

    @classmethod
    def from_counts(cls, T: float, survivors: int, n_paths: int,
                    seed: int) -> "SurvivalEstimate":
        if n_paths <= 0:
            raise ValueError("n_paths must be positive")
        if not (0 <= survivors <= n_paths):
            raise ValueError("survivors must lie in [0, n_paths]")
        return cls(T=T, n_paths=n_paths, survivors=survivors,
                   p_hat=survivors / n_paths,
                   log_ci=wilson_log_ci(survivors, n_paths), seed=seed)


def wilson_log_ci(survivors: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson interval for the count, mapped to the ln p scale.

    Stays valid at small survivor counts where the Wald interval collapses;
    the lower end is -inf exactly when survivors = 0.
    """
    p = survivors / n
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
    r2: float
    grid: tuple[float, ...]
    intercept: float = 0.0


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
    intercept = (sxx * sy - sx * sxy) / d
    resid = y - (intercept + slope * x)
    ybar = sy / sw
    ss_tot = float((w * (y - ybar) ** 2).sum())
    r2 = 1.0 - float((w * resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(rho_hat=-slope, stderr=math.sqrt(sw / d), r2=r2,
                       grid=tuple(e.T for e in usable), intercept=intercept)


# ---------------------------------------------------------------------------
# survival engine
# ---------------------------------------------------------------------------

def _run_chunks(worker, n_paths: int, threads: int) -> np.ndarray:
    """Sum integer results of worker(lo, hi) over fixed-size path chunks."""
    ranges = [(lo, min(lo + CHUNK, n_paths)) for lo in range(0, n_paths, CHUNK)]
    if threads <= 1:
        parts = [worker(lo, hi) for lo, hi in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: worker(*r), ranges))
    return np.sum(parts, axis=0)


def _exact_path_blocks(params: StableParams, dt_pow: np.ndarray, seed: int,
                       path: int, phase: int):
    """Values of one exact path over doubling blocks of grid cells.

    Yields (start, vals) where vals[k] is the path at grid index start + k;
    vals[0] repeats the last value of the previous block (0 at t = 0).  The
    first block holds EXACT_BLOCK increments and each later one twice as
    many, so a caller that stops early skips the rest of the grid.  The
    draws are those of one sample_stable(params, n, stream) call over the
    whole grid: the uniforms come from the path's stream in order and the
    exponentials from a second cursor on the same stream, placed at raw draw
    n where that call would begin them (a uniform takes one raw draw).  The
    running sum is carried into each block's cumsum, which rounds exactly as
    one cumsum over the whole grid would.
    """
    n = dt_pow.size
    g = stream(seed, path, phase)
    w = None if n <= EXACT_BLOCK else stream(seed, path, phase, offset=n)
    start, size, carry = 0, EXACT_BLOCK, 0.0
    while start < n:
        stop = min(start + size, n)
        vals = np.empty(stop - start + 1)
        vals[0] = carry
        vals[1:] = dt_pow[start:stop] * sample_stable(params, stop - start, g, w)
        np.cumsum(vals, out=vals)
        yield start, vals
        start, size, carry = stop, 2 * size, vals[-1]


def survival_counts(model: LevyModel, boundaries: list[Boundary], T_grid,
                    n_paths: int, grid: TimeGrid, seed: int,
                    threads: int = 1, phase: int = PHASE_PATHS) -> np.ndarray:
    """Integer survivor counts, shape (len(boundaries), len(T_grid)).

    One path set is reused for every boundary and every horizon: counts are
    exactly nonincreasing in T and respect pointwise boundary ordering.  A
    path is scored at the first monitored point where its value exceeds the
    boundary (ties survive); an exact-mode path stops being simulated once
    every boundary has such a point, since later points cannot change its
    contribution.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    Tg = np.asarray(T_grid, dtype=float)
    if Tg.ndim != 1 or np.any(np.diff(Tg) <= 0):
        raise ValueError("T_grid must be increasing")
    if Tg[-1] > grid.horizon:
        raise ValueError("monitoring grid must cover the largest horizon")
    exact = model.stable is not None
    plan = None if exact else PerturbedPlan.from_model(model)
    pts = grid.points
    if exact:
        dt_pow = np.diff(pts) ** (1.0 / model.stable.alpha)
        bvals = [boundary_value(b, pts) for b in boundaries]

    def worker(lo: int, hi: int) -> np.ndarray:
        dead = np.zeros((len(boundaries), Tg.size + 1), dtype=np.int64)
        for i in range(lo, hi):
            if exact:
                blocks = _exact_path_blocks(model.stable, dt_pow, seed, i, phase)
                mpts, cur_bvals = pts, bvals
            else:
                path = sample_path(model, grid, stream=stream(seed, i, phase),
                                   plan=plan)
                mpts = path.grid.points
                cur_bvals = [boundary_value(b, mpts) for b in boundaries]
                blocks = [(0, path.values)]
            pending = list(range(len(boundaries)))
            for start, vals in blocks:
                stop = start + vals.size
                for bi in tuple(pending):
                    crossed = vals > cur_bvals[bi][start:stop]
                    k = int(crossed.argmax())
                    if crossed[k]:
                        tau = mpts[start + k]
                        dead[bi, Tg.searchsorted(tau, side="left")] += 1
                        pending.remove(bi)
                if not pending:
                    break
            dead[pending, Tg.size] += 1
        return dead

    dead = _run_chunks(worker, n_paths, threads)
    return n_paths - np.cumsum(dead[:, :-1], axis=1)


def survival_probability(model: LevyModel, boundary: Boundary, T_grid,
                         n_paths: int, grid: TimeGrid | None = None,
                         seed: int = 0, threads: int = 1,
                         phase: int = PHASE_PATHS) -> list[SurvivalEstimate]:
    """Survival estimates over the horizon grid, one reused path set."""
    Tg = np.asarray(T_grid, dtype=float)
    if grid is None:
        grid = TimeGrid.survival(float(Tg[-1]))
    counts = survival_counts(model, [boundary], Tg, n_paths, grid, seed, threads, phase)
    return [SurvivalEstimate.from_counts(float(T), int(k), n_paths, seed)
            for T, k in zip(Tg, counts[0])]


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
    n_paths: int
    T: float
    gamma: float


def product_bound_check(model: LevyModel, T: float, gamma: float, n_paths: int,
                        seed: int, threads: int = 1,
                        decomp: DecompositionT | None = None,
                        grid: TimeGrid | None = None) -> ProductBoundReport:
    """Lower product bound for the decreasing-boundary survival probability.

    Estimates, with three independent path sets,
        LHS = P(X(t) <= 1 - t**gamma, t <= T)
        RHS = P(Y_T(t) <= 1/2, t <= T) * P(-S_T(t) <= 1/2 - t**gamma, t <= T)
    and asserts LHS >= RHS - 3 combined standard errors.
    """
    if decomp is None:
        if model.tail_left is None:
            raise ValueError("product bound needs the left tail")
        if model.alpha >= 1.0:
            raise ValueError("product bound experiments require alpha < 1")
        decomp = build_decomposition(model, T, NEGATIVE)
    if grid is None:
        grid = TimeGrid.survival(T)
    Tg = np.array([T])

    # X runs in perturbed mode when it has jumps so that all factors monitor
    # at comparable (epoch-level) density; mixing exact-mode integer
    # monitoring with epoch monitoring would skew the comparison.
    x_model = replace(model, stable=None) if model.has_jumps else model
    k_lhs = survival_counts(x_model, [Boundary("decreasing", gamma, 1.0)], Tg,
                            n_paths, grid, seed, threads, PHASE_PATHS)[0, 0]

    y_boundary = Boundary("constant", level=0.5)
    if decomp.total_mass > 0:
        plan_y = PerturbedPlan.from_model(model, remove=decomp)
        y_model = LevyModel(b=model.b, sigma2=model.sigma2,
                            tail_left=model.tail_left, tail_right=model.tail_right)

        def y_worker(lo, hi):
            dead = np.zeros(2, dtype=np.int64)
            for i in range(lo, hi):
                path = sample_path(y_model, grid, stream(seed, i, PHASE_SECONDARY),
                                   plan=plan_y)
                ok = not (path.values > boundary_value(y_boundary, path.grid.points)).any()
                dead[0 if ok else 1] += 1
            return dead

        k_y = int(_run_chunks(y_worker, n_paths, threads)[0])
    else:
        k_y = int(survival_counts(model, [y_boundary], Tg, n_paths, grid,
                                  seed, threads, PHASE_SECONDARY)[0, 0])

    s_boundary = Boundary("increasing", gamma, -0.5)  # S(t) >= t**gamma - 1/2
    s_grid = TimeGrid(np.array([0.0, T]), "uniform")

    def s_worker(lo, hi):
        count = np.zeros(1, dtype=np.int64)
        for i in range(lo, hi):
            path = sample_subordinator_path(decomp, s_grid, stream(seed, i, PHASE_TERTIARY))
            count[0] += subordinator_stays_above(path, s_boundary)
        return count

    k_s = int(_run_chunks(s_worker, n_paths, threads)[0])

    p_lhs, p_y, p_s = k_lhs / n_paths, k_y / n_paths, k_s / n_paths
    se = lambda p: math.sqrt(p * (1.0 - p) / n_paths)
    se_lhs, se_y, se_s = se(p_lhs), se(p_y), se(p_s)
    margin = p_lhs - p_y * p_s
    se_margin = math.sqrt(se_lhs ** 2 + (p_s * se_y) ** 2 + (p_y * se_s) ** 2)
    return ProductBoundReport(p_lhs=p_lhs, se_lhs=se_lhs, p_y=p_y, se_y=se_y,
                              p_s=p_s, se_s=se_s, margin=margin,
                              se_margin=se_margin,
                              satisfied=margin >= -3.0 * se_margin,
                              n_paths=n_paths, T=T, gamma=gamma)


@dataclass(frozen=True)
class LemmaN0NResult:
    N: int
    N1: int
    epsilon: float
    delta: float
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
    one, which the result flags.
    """
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
        return LemmaN0NResult(N=N, N1=N1, epsilon=eps, delta=d, n_paths=n_paths,
                              survivors=n_paths, p_hat=1.0, vacuous=True)
    N1 = max(N1, 1)
    scale = (d * ell.c) ** (1.0 / alpha) * subordinator_unit_scale(alpha)
    params = StableParams(alpha, 1.0, scale)
    steps = N - N1 + 1
    bound = (np.arange(N1, N + 1, dtype=float) + 1.0) ** gamma

    def worker(lo, hi):
        count = np.zeros(1, dtype=np.int64)
        for i in range(lo, hi):
            g = stream(seed, i)
            draws = sample_stable(params, steps, g)
            draws[0] *= N1 ** (1.0 / alpha)  # increment over [0, N1]
            s = np.cumsum(draws)
            count[0] += bool(np.all(s >= bound))
        return count

    k = int(_run_chunks(worker, n_paths, threads)[0])
    return LemmaN0NResult(N=N, N1=N1, epsilon=eps, delta=d, n_paths=n_paths,
                          survivors=k, p_hat=k / n_paths, vacuous=False)


@dataclass(frozen=True)
class DiscreteSurvivalResult:
    estimate_y: SurvivalEstimate
    estimate_x: SurvivalEstimate
    ordering_ok: bool


def discrete_survival_experiment(model: LevyModel, T: float, x: float,
                                 seed: int, n_paths: int,
                                 threads: int = 1) -> DiscreteSurvivalResult:
    """Integer-grid survival of the thinned remainder Y_T below level x.

    Simulates (X, Y_T = X - S_T) jointly by thinning the big positive jumps
    of one perturbed path set, so the domination survivors(Y) >= survivors(X)
    holds pathwise, not just in expectation.
    """
    if model.tail_right is None:
        raise ValueError("discrete survival experiment needs the right tail")
    if model.alpha >= 1.0:
        raise ValueError("discrete survival experiments require alpha < 1")
    decomp = build_decomposition(model, T, POSITIVE)
    plan = PerturbedPlan.from_model(model)
    n_steps = int(math.floor(T))

    def worker(lo, hi):
        res = np.zeros(3, dtype=np.int64)  # survivors_y, survivors_x, violations
        for i in range(lo, hi):
            g = stream(seed, i)
            inc, s_inc = discrete_increments(plan, n_steps, g, decomp=decomp)
            xv = np.cumsum(inc)
            yv = xv - np.cumsum(s_inc)
            ok_y = bool(np.all(yv <= x))
            ok_x = bool(np.all(xv <= x))
            res[0] += ok_y
            res[1] += ok_x
            res[2] += ok_x and not ok_y
        return res

    k_y, k_x, violations = (int(v) for v in _run_chunks(worker, n_paths, threads))
    return DiscreteSurvivalResult(
        estimate_y=SurvivalEstimate.from_counts(T, k_y, n_paths, seed),
        estimate_x=SurvivalEstimate.from_counts(T, k_x, n_paths, seed),
        ordering_ok=violations == 0)


# ---------------------------------------------------------------------------
# subordinator marginal checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceCheck:
    lam: float
    empirical: float
    se: float
    bound: LaplaceBound
    satisfied: bool


def _subordinator_marginal(decomp: DecompositionT, t: float, n_draws: int,
                           seed: int, phase: int = PHASE_PATHS) -> np.ndarray:
    """n_draws of S_T(t): compound Poisson sums, one vectorized stream."""
    rng = stream(seed, 0, phase)
    counts = rng.poisson(decomp.total_mass * t, size=n_draws)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n_draws)
    sizes = decomp.table.sample(rng, total)
    idx = np.repeat(np.arange(n_draws), counts)
    return np.bincount(idx, weights=sizes, minlength=n_draws)


def subordinator_laplace_check(decomp: DecompositionT, lam: float,
                               n_draws: int, seed: int) -> LaplaceCheck:
    """Empirical E exp(-lam * S_T(1)) against the analytic upper bound."""
    s = _subordinator_marginal(decomp, 1.0, n_draws, seed)
    vals = np.exp(-lam * s)
    emp = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_draws))
    b = laplace_bound(decomp, lam)
    return LaplaceCheck(lam=lam, empirical=emp, se=se, bound=b,
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
    Tg = np.asarray(T_grid, dtype=float)
    T = float(Tg[-1])
    grid = TimeGrid.uniform(T, dt_fine)
    pts = grid.points
    sub = pts[::stride]
    if sub[-1] != T:
        raise ValueError("stride must divide the fine grid")
    sd = math.sqrt(sigma2 * dt_fine)

    def worker(lo, hi):
        dead = np.zeros((2, Tg.size + 1), dtype=np.int64)
        for i in range(lo, hi):
            g = stream(seed, i)
            vals = np.empty(pts.size)
            vals[0] = 0.0
            np.cumsum(drift * dt_fine + sd * g.standard_normal(pts.size - 1),
                      out=vals[1:])
            for row, (p, v) in enumerate(((sub, vals[::stride]), (pts, vals))):
                crossed = v > level
                if crossed.any():
                    tau = p[int(np.argmax(crossed))]
                    dead[row, np.searchsorted(Tg, tau, side="left")] += 1
                else:
                    dead[row, Tg.size] += 1
        return dead

    dead = _run_chunks(worker, n_paths, threads)
    return n_paths - np.cumsum(dead[:, :-1], axis=1)
