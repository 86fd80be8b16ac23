"""T-dependent subordinator split of a heavy-tailed Lévy process.

For a horizon T the jump measure beyond |x| > 1 on the chosen side is thinned
with probability

    delta(T) * ell(delta(T)**(1/alpha) / |x|) / ell(1 / |x|)

into a finite-mass subordinator measure nu_S; the remainder nu_rest keeps the
process law intact: nu_S + nu_rest = nu pointwise.  The "negative" side
removes big negative jumps (X = Y_T - S_T), the "positive" side big positive
ones (X = Y_T + S_T).  The thinning probability must stay <= 1 for nu_rest to
be a measure; that is validated on a log grid at build time and is a genuine
runtime failure mode for strongly varying ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .levymodel import LevyModel
from .rvcalc import (RegVaryingTail, eval_slowly_varying, gl_panels,
                     slowly_varying_at_log, tail_knots)

NEGATIVE = "negative"   # thin big negative jumps (decreasing-boundary side)
POSITIVE = "positive"   # thin big positive jumps (increasing-boundary side)

VALIDATION_GRID_POINTS = 512
VALIDATION_GRID_HI = 1e6
TABLE_KNOTS = 4096
TABLE_HI = 1e10
LN_SIZE_CAP = 700.0  # ln of the largest jump a table draws: sums of many stay finite
GUIDE_BUCKETS_PER_KNOT = 4
MIN_EXPERIMENT_T = 16.0
LAPLACE_REGIME_MAX = 0.1


class InvalidDecompositionError(ValueError):
    """nu_rest went negative: the thinning ratio exceeded 1/delta somewhere."""


def delta(T: float) -> float:
    """delta(T) = min(1 / ln ln T, 1/2); requires T > e so ln ln T > 0."""
    if not (math.isfinite(T) and T > math.e):
        raise ValueError("delta(T) requires T > e")
    return min(1.0 / math.log(math.log(T)), 0.5)


class JumpTable:
    """Inverse-CDF sampler for a density on [x_lo, inf), piecewise linear in logs.

    Built from the density's slowly varying part h(v) = density(e**v) *
    e**((alpha+1) v) (see rvcalc).  Holds ln(tail mass) against ln(x) on
    4096 log-spaced knots up to 1e10, with segment masses from
    `rvcalc.gl_panels`, and past 1e10 on the panel edges of `tail_knots`,
    the rule of `tail_mass`, while a uniform can reach them and up to
    e**LN_SIZE_CAP; a draw beyond the last knot takes its size.  A target's
    segment is found through a Chen-Asau (1974) guide table: a direct index
    into equal buckets of ln(mass), then as many forward steps as the
    fullest bucket holds knots, each taken while the next knot is at or
    below the target.  The value is np.interp's own formula and edge rules,
    so the sizes equal np.interp's bit for bit.
    """

    def __init__(self, h: Callable[[np.ndarray], np.ndarray], x_lo: float,
                 alpha: float, breakpoints: tuple[float, ...] = ()):
        pts = np.geomspace(x_lo, TABLE_HI, TABLE_KNOTS)
        for bp in breakpoints:
            if x_lo < bp < TABLE_HI:
                pts = np.union1d(pts, [bp])
        ln_pts = np.log(pts)
        seg = gl_panels(h, ln_pts, -alpha)  # in v = ln x, density * x = h * e**(-alpha v)
        ln_far, far = tail_knots(h, TABLE_HI, alpha)
        near = np.cumsum(seg[::-1])[::-1] + far[0]
        # a uniform u > 0 is at least 2**-53: no draw needs a knot with less mass
        keep = (far >= near[0] * 2.0 ** -53) & (ln_far <= LN_SIZE_CAP)
        mass = np.concatenate([near, far[keep]])
        self.total_mass = float(mass[0])
        # ln(mass) decreases in ln(x): knots xp = ln(mass) increasing, fp = ln(x)
        xp = np.ascontiguousarray(np.log(mass)[::-1])
        fp = np.ascontiguousarray(np.concatenate([ln_pts[:-1], ln_far[keep]])[::-1])
        self._xp, self._fp = xp, fp
        # np.interp's slope expression per segment; the last knot gets slope 0
        # and a NaN next knot (never <= a target), so a target at xp[-1]
        # stops there and takes fp[-1]
        self._slopes = np.append((fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1]), 0.0)
        self._xnext = np.append(xp[1:], np.nan)
        # about one knot per bucket; the cap bounds the table when a
        # breakpoint sits next to a knot, and extra forward steps absorb it
        span = xp[-1] - xp[0]
        n_buckets = math.ceil(min(span / np.min(np.diff(xp)),
                                  GUIDE_BUCKETS_PER_KNOT * xp.size))
        self._scale = n_buckets / span
        # bucket b starts from the last knot in an earlier bucket: bucket
        # indices are monotone in the target, so that knot is <= every target
        # in b, and reaching the right knot takes at most as many steps as a
        # bucket holds knots
        bucket = self._bucket(xp)
        first = np.searchsorted(bucket, np.arange(n_buckets + 1))
        self._guide = np.maximum(first - 1, 0).astype(np.intp)
        self._steps = int(np.bincount(bucket).max())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sizes(rng.uniform(size=n))

    def sizes(self, u: np.ndarray) -> np.ndarray:
        """Jump sizes from uniforms on [0, 1), one per uniform, elementwise."""
        t = u * self.total_mass
        out = self._interp(np.log(t, out=t))
        return np.exp(out, out=out)

    def _bucket(self, t: np.ndarray) -> np.ndarray:
        """Guide-table bucket of targets in [xp[0], xp[-1]]."""
        return ((t - self._xp[0]) * self._scale).astype(np.intp)

    def _interp(self, t: np.ndarray) -> np.ndarray:
        """np.interp(t, xp, fp) bit for bit, segments found by the guide table.

        Works on one new array of clipped targets and leaves t unchanged; the
        in-place steps are the IEEE operations of slope * (t - xp[j]) + fp[j].
        """
        xp = self._xp
        out = np.maximum(t, xp[0])  # np.interp's edge values
        np.minimum(out, xp[-1], out=out)
        j = self._guide.take(self._bucket(out))
        for _ in range(self._steps):
            j += self._xnext.take(j) <= out
        out -= xp.take(j)
        out *= self._slopes.take(j)
        out += self._fp.take(j)
        return out


@dataclass(frozen=True)
class DecompositionT:
    """The pair (nu_S, nu_rest) with delta(T), on one side of the origin."""

    T: float
    delta: float
    side: str
    tail: RegVaryingTail
    table: JumpTable | None  # inverse-CDF sampler of nu_S, set by build_decomposition

    @property
    def total_mass(self) -> float:
        """Total mass of nu_S, the jump rate of S_T."""
        return self.table.total_mass

    def thinning_probability(self, x):
        """delta * ell(delta**(1/alpha)/x) / ell(1/x) at magnitude x > 1."""
        return self._thinning(np.log(np.asarray(x, dtype=float)))

    def _thinning(self, v):
        """thinning_probability at x = e**v, with ell's arguments taken in logs."""
        ell, shift = self.tail.ell, math.log(self.delta) / self.tail.alpha
        return self.delta * (slowly_varying_at_log(ell, shift - v)
                             / slowly_varying_at_log(ell, -v))

    def thinned(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the candidate jumps handed to S_T.

        x holds the magnitudes of one path's jumps beyond 1 on this side,
        the only jumps S_T can take, and u their uniforms: a jump goes to
        S_T when its uniform falls below the thinning probability at its
        magnitude.  Callers draw one uniform per candidate and share it
        across horizons, so the splits' thinned jumps nest.
        """
        return np.flatnonzero(u < self.thinning_probability(x))

    def h_S(self, v):
        """nu_S(x) * x**(alpha+1) at v = ln x (zero for x <= 1), as in rvcalc."""
        return np.where(v > 0.0, self._thinning(v), 0.0) * self.tail.h(v)

    def h_rest(self, v):
        """nu_rest(x) * x**(alpha+1) at v = ln x."""
        return np.where(v > 0.0, 1.0 - self._thinning(v), 1.0) * self.tail.h(v)


def build_decomposition(model: LevyModel, T: float, side: str) -> DecompositionT:
    """Construct nu_S / nu_rest for the given side, validating nu_rest >= 0."""
    if side not in (NEGATIVE, POSITIVE):
        raise ValueError(f"side must be {NEGATIVE!r} or {POSITIVE!r}")
    if T < MIN_EXPERIMENT_T:
        raise ValueError(f"decomposition experiments require T >= {MIN_EXPERIMENT_T}")
    tail = model.tail_left if side == NEGATIVE else model.tail_right
    if tail is None:
        raise ValueError(f"model lacks the {'left' if side == NEGATIVE else 'right'} "
                         f"tail needed for the {side} side")
    d = DecompositionT(T=T, delta=delta(T), side=side, tail=tail, table=None)
    grid = np.geomspace(1.0, VALIDATION_GRID_HI, VALIDATION_GRID_POINTS)
    probs = d.thinning_probability(grid)
    bad = np.nonzero(probs > 1.0 + 1e-12)[0]
    if bad.size:
        x_bad = grid[bad[0]]
        raise InvalidDecompositionError(
            f"nu_rest < 0 at x = {x_bad:.6g}: thinning probability {probs[bad[0]]:.6g} > 1")
    return replace(d, table=JumpTable(d.h_S, x_lo=1.0, alpha=tail.alpha))


class LaplaceBound(NamedTuple):
    value: float
    in_regime: bool


def laplace_bound(decomp: DecompositionT, lam: float) -> LaplaceBound:
    """exp(-(1/(4*alpha)) * delta * lam**alpha * ell(lam * delta**(1/alpha))).

    Upper bound for E exp(-lam * S_T(1)), valid in the small-lam Karamata
    regime; lam > 0.1 flags the result as out of regime instead of raising.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    a = decomp.tail.alpha
    ell_val = eval_slowly_varying(decomp.tail.ell, lam * decomp.delta ** (1.0 / a))
    value = math.exp(-decomp.delta * lam ** a * ell_val / (4.0 * a))
    return LaplaceBound(value, lam <= LAPLACE_REGIME_MAX)
