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
from .rvcalc import RegVaryingTail, eval_slowly_varying, power_tail_remainder

NEGATIVE = "negative"   # thin big negative jumps (decreasing-boundary side)
POSITIVE = "positive"   # thin big positive jumps (increasing-boundary side)

VALIDATION_GRID_POINTS = 512
VALIDATION_GRID_HI = 1e6
TABLE_KNOTS = 4096
TABLE_HI = 1e10
GUIDE_BUCKETS_PER_KNOT = 4
REMAINDER_TOL = 1e-6  # largest share of a table's mass its two tail remainders may differ by
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

    Holds ln(tail mass) against ln(x) on 4096 log-spaced knots; segment
    masses come from vectorized Gauss-Legendre panels and the mass past the
    last knot from the regular-variation tail asymptotic.  That asymptotic
    is taken from the log-log slope over (x, 2x); where the slope over
    (x, 4x) moves it by more than REMAINDER_TOL of the total mass, ell bends
    too much for it, and the table raises ValueError.  A target's
    segment is found through a Chen-Asau (1974) guide table: a direct index
    into equal buckets of ln(mass), then as many forward steps as the
    fullest bucket holds knots, each taken while the next knot is at or
    below the target.  The value is np.interp's own formula and edge rules,
    so the sizes equal np.interp's bit for bit.  Draws landing beyond the
    last knot fall back to the pure power-law inverse.
    """

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], x_lo: float,
                 alpha: float, breakpoints: tuple[float, ...] = ()):
        pts = np.geomspace(x_lo, TABLE_HI, TABLE_KNOTS)
        for bp in breakpoints:
            if x_lo < bp < TABLE_HI:
                pts = np.union1d(pts, [bp])
        # Gauss-Legendre in u = ln x per segment
        lo, hi = np.log(pts[:-1]), np.log(pts[1:])
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * self._GL_NODES[None, :]
        x = np.exp(u)
        seg = half * np.sum(self._GL_WEIGHTS[None, :] * density(x) * x, axis=1)
        rest, rest_4x = power_tail_remainder(lambda v: density(np.asarray([v]))[0],
                                             TABLE_HI)
        mass = np.concatenate([np.cumsum(seg[::-1])[::-1] + rest, [rest]])
        if abs(rest_4x - rest) > REMAINDER_TOL * mass[0]:
            raise ValueError(
                f"jump table cannot resolve its tail beyond {TABLE_HI:g}: remainders "
                f"from two slopes differ by {abs(rest_4x - rest) / mass[0]:.3g} "
                "of the total mass")
        self.alpha = alpha
        self.total_mass = float(mass[0])
        self._ln_rest = math.log(rest)
        # ln(mass) decreases in ln(x): knots xp = ln(mass) increasing, fp = ln(x)
        xp = np.ascontiguousarray(np.log(mass)[::-1])
        fp = np.ascontiguousarray(np.log(pts)[::-1])
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
        self._guide = np.maximum(first - 1, 0).astype(np.int32)
        self._steps = int(np.bincount(bucket).max())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sizes(rng.uniform(size=n))

    def sizes(self, u: np.ndarray) -> np.ndarray:
        """Jump sizes from uniforms on [0, 1), one per uniform, elementwise."""
        target = np.log(u * self.total_mass)
        lnx = self._interp(target)
        beyond = target < self._ln_rest
        if beyond.any():
            lnx[beyond] = self._fp[0] + (self._ln_rest - target[beyond]) / self.alpha
        return np.exp(lnx)

    def _bucket(self, t: np.ndarray) -> np.ndarray:
        """Guide-table bucket of targets in [xp[0], xp[-1]]."""
        return ((t - self._xp[0]) * self._scale).astype(np.intp)

    def _interp(self, t: np.ndarray) -> np.ndarray:
        """np.interp(t, xp, fp) bit for bit, segments found by the guide table."""
        xp = self._xp
        t = np.minimum(np.maximum(t, xp[0]), xp[-1])  # np.interp's edge values
        j = self._guide[self._bucket(t)].astype(np.intp)  # int32 indexes slowly
        for _ in range(self._steps):
            j += self._xnext[j] <= t
        return self._slopes[j] * (t - xp[j]) + self._fp[j]


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
        a = self.tail.alpha
        num = eval_slowly_varying(self.tail.ell, self.delta ** (1.0 / a) / np.asarray(x, float))
        den = eval_slowly_varying(self.tail.ell, 1.0 / np.asarray(x, float))
        return self.delta * num / den

    def thinned(self, signed: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Mask of the signed jumps handed to S_T.

        A jump beyond 1 on this side goes to S_T when its uniform u falls
        below the thinning probability, evaluated on those jumps only;
        callers draw u so that one uniform per jump can be shared across
        horizons.
        """
        mask = signed < -1.0 if self.side == NEGATIVE else signed > 1.0
        mask[mask] = u[mask] < self.thinning_probability(np.abs(signed[mask]))
        return mask

    def nu_S(self, x):
        """Subordinator jump density at magnitude x (zero for x <= 1)."""
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 1.0,
                       self.thinning_probability(arr) * self.tail.density(arr), 0.0)
        return float(out) if arr.ndim == 0 else out

    def nu_rest(self, x):
        """Remainder density at magnitude x on the decomposed side."""
        arr = np.asarray(x, dtype=float)
        keep = np.where(arr > 1.0, 1.0 - self.thinning_probability(arr), 1.0)
        out = keep * self.tail.density(arr)
        return float(out) if arr.ndim == 0 else out


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
    return replace(d, table=JumpTable(d.nu_S, x_lo=1.0, alpha=tail.alpha))


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
