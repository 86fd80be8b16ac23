"""Numerical fluctuation theory: kappa(a, 0), ladder records, renewal sums.

kappa uses the local-time normalization c = 1, so for a constant positivity
profile rho the Frullani identity gives kappa(a, 0) = a**rho exactly; that is
the quadrature oracle.  Ladder extraction on discretely monitored paths uses
strict records of the running supremum as the computable stand-in for the
continuous ladder process; only its refinement behaviour is asserted, never
its absolute normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import NEGATIVE, DecompositionT
from .levymodel import LevyModel
from .rng import PHASE_PATHS, stream
from .estimate import _run_chunks
from .simulate import (PathSample, PerturbedPlan, TimeGrid, exact_rows, joined_blocks,
                       sample_path)

KAPPA_U_RANGE = 40.0
KAPPA_PANELS = 10_000


@dataclass(frozen=True, eq=False)
class PositivityProfile:
    """P(X(t) >= 0) tabulated at increasing times t > 0; a constant rho is the
    one-point table (1, rho)."""

    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not (self.t.ndim == 1 and self.t.size and np.all(np.isfinite(self.t))
                and self.t[0] > 0 and np.all(np.diff(self.t) > 0)):
            raise ValueError("times must be finite, > 0 and strictly increasing")
        if self.p.shape != self.t.shape or not np.all((self.p >= 0) & (self.p <= 1)):
            raise ValueError("one probability in [0, 1] per time")

    @classmethod
    def constant(cls, rho: float) -> "PositivityProfile":
        return cls.tabulated([1.0], [rho])

    @classmethod
    def tabulated(cls, t, p) -> "PositivityProfile":
        return cls(np.asarray(t, float), np.asarray(p, float))

    def prob(self, t: np.ndarray) -> np.ndarray:
        """P(X(t) >= 0), interpolated in ln t and clamped at the table ends."""
        return np.interp(np.log(t), np.log(self.t), self.p)


def kappa(profile: PositivityProfile, a: float) -> float:
    """kappa(a, 0) = exp( int_0^inf (e**-t - e**-at) t**-1 P(X(t) >= 0) dt ).

    Quadrature after t = e**u, trapezoid on u in [-40, 40] with 10^4 panels;
    the integrand decays double-exponentially at both ends.  kappa(a, b) for
    b > 0 would need the joint inverse-local-time / ladder-height marginal
    and is not implemented.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError("kappa requires a > 0")
    u = np.linspace(-KAPPA_U_RANGE, KAPPA_U_RANGE, KAPPA_PANELS + 1)
    t = np.exp(u)
    with np.errstate(under="ignore"):
        integrand = (np.exp(-t) - np.exp(-a * t)) * profile.prob(t)
    return float(np.exp(np.trapezoid(integrand, u)))


@dataclass(frozen=True, eq=False)
class LadderSample:
    epochs: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        if self.epochs.shape != self.heights.shape:
            raise ValueError("epochs and heights must have equal length")


def ladder_process(path: PathSample) -> LadderSample:
    """Strict records of the running supremum along the monitored points.

    t = 0 is always a record (the initial supremum 0); later points are
    records iff they exceed every earlier value.
    """
    rec = _record_mask(path.values)
    return LadderSample(epochs=path.grid.points[rec], heights=path.values[rec])


def _record_mask(v: np.ndarray) -> np.ndarray:
    rec = np.empty(v.size, dtype=bool)
    rec[0] = True
    rec[1:] = v[1:] > np.maximum.accumulate(v)[:-1]
    return rec


def renewal_estimate(samples, x: float) -> float:
    """MC estimate of V(x): mean number of ladder heights strictly below x."""
    samples = list(samples)
    if not samples:
        raise ValueError("renewal_estimate needs at least one ladder sample")
    return float(np.mean([np.count_nonzero(s.heights < x) for s in samples]))


def spitzer_profile(model: LevyModel, t_grid, n_paths: int, seed: int,
                    threads: int = 1) -> PositivityProfile:
    """Tabulated MC estimates of P(X(t) >= 0) at increasing times t > 0."""
    t_grid = np.asarray(t_grid, dtype=float)
    grid = TimeGrid(np.concatenate([[0.0], t_grid]))
    if model.stable is not None:
        dt_pow = np.diff(grid.points) ** (1.0 / model.stable.alpha)
    else:
        plan = PerturbedPlan.from_model(model)

    def worker(lo, hi):
        counts = np.zeros(t_grid.size, dtype=np.int64)
        if model.stable is not None:
            for start, _, vals in exact_rows(model.stable, dt_pow, seed, np.arange(lo, hi),
                                             PHASE_PATHS, np.ones((hi - lo, 1), dtype=bool)):
                counts[start:start + vals.shape[1] - 1] += np.count_nonzero(
                    vals[:, 1:] >= 0.0, axis=0)
        else:
            for i in range(lo, hi):
                path = sample_path(model, grid, stream(seed, i), plan=plan)
                counts += path.values[np.searchsorted(path.grid.points, t_grid)] >= 0.0
        return counts

    return PositivityProfile.tabulated(t_grid, _run_chunks(worker, n_paths, threads) / n_paths)


def renewal_convergence_gaps(model: LevyModel, splits: list[DecompositionT],
                             grid: TimeGrid, x: float, n_paths: int,
                             seed: int) -> dict[float, float]:
    """|V_T(x) - V(x)| per split, keyed by its T, with common seeds and coupled thinning.

    Simulates X once per path and derives each Y_T by thinning with a shared
    per-jump uniform; when the thinning probability decreases with T (always
    true for constant ell) the removed-jump sets are nested across T and the
    gaps shrink monotonically as delta(T) decreases.
    """
    plan = PerturbedPlan.from_model(model)
    count_x = 0.0
    count_y = [0.0] * len(splits)
    for i in range(n_paths):
        _, vx, _, s_values = joined_blocks(plan, grid.points, stream(seed, i), splits)
        count_x += int(np.count_nonzero(vx[_record_mask(vx)] < x))
        for j, (d, vs) in enumerate(zip(splits, s_values)):
            # negative side: X = Y - S  =>  Y = X + S ; positive side: Y = X - S
            vy = vx + vs if d.side == NEGATIVE else vx - vs
            count_y[j] += int(np.count_nonzero(vy[_record_mask(vy)] < x))
    v_x = count_x / n_paths
    return {d.T: abs(c / n_paths - v_x) for d, c in zip(splits, count_y)}
