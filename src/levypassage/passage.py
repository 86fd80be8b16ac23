"""Boundary evaluation, survival predicates, and the Brownian integral test.

Inequalities are non-strict throughout: a path touching the boundary
survives.  Crossings are localized to the first monitored index, not an
interpolated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levymodel import Boundary
from .simulate import PathSample


@dataclass(frozen=True)
class SurvivalVerdict:
    survived: bool
    first_crossing_index: int | None = None


def boundary_value(b: Boundary, t):
    """f(t) for t >= 0; vectorized."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("boundaries are defined for t >= 0")
    out = boundary_values([b], arr)[0]
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def boundary_values(bs, t: np.ndarray) -> np.ndarray:
    """f(t) of each boundary of bs at the points t >= 0, stacked along a new
    first axis; t**gamma is computed once per distinct gamma."""
    out = np.empty((len(bs), *t.shape))
    powers = {}
    for i, b in enumerate(bs):
        if b.kind == "constant":
            out[i] = b.level
            continue
        if b.gamma not in powers:
            powers[b.gamma] = t ** b.gamma
        pw = powers[b.gamma]
        out[i] = b.level - pw if b.kind == "decreasing" else b.level + pw
    return out


def first_crossings(values: np.ndarray, limits) -> np.ndarray:
    """First index along the last axis with values > limits, or -1.

    Ties survive.  values holds one path or a stack of paths.
    """
    crossed = values > limits
    return np.where(crossed.any(axis=-1), crossed.argmax(axis=-1), -1)


def survives(path: PathSample, b: Boundary) -> SurvivalVerdict:
    """True iff values <= f(t) at every monitored point (ties survive)."""
    k = int(first_crossings(path.values, boundary_value(b, path.grid.points)))
    return SurvivalVerdict(k < 0, k if k >= 0 else None)


def subordinator_stays_above(path: PathSample, b: Boundary) -> bool:
    """Exact check that a piecewise-constant nondecreasing path stays >= f(t).

    Requires every jump epoch to be a monitored point; the path is then
    constant on [t_k, t_{k+1}), so it suffices to compare values[k] with the
    supremum of f over that interval (f(t_{k+1}) for nondecreasing f, f(t_k)
    otherwise) and the final value with f(T).
    """
    pts, v = path.grid.points, path.values
    f = boundary_value(b, pts)
    if b.kind == "decreasing":
        return bool(np.all(v >= f))
    return bool(np.all(v[:-1] >= f[1:]) and v[-1] >= f[-1])


@dataclass(frozen=True)
class IntegralTest:
    classification: str  # "convergent" | "divergent"
    value: float         # the full integral, inf when divergent


def brownian_integral_test(boundary: Boundary) -> IntegralTest:
    """Evaluate int_1^inf |f(t)| t**(-3/2) dt and classify it.

    For the three boundary kinds the integral is in closed form: power
    boundaries converge iff gamma < 1/2.  f(t) = level + s*t**gamma with
    s = +-1 is monotone, so it changes sign at most once, at
    r = (-s*level)**(1/gamma); the integral is |I(1, r)| + |I(r, inf)| when
    r > 1 and |I(1, inf)| otherwise, where I(a, b) = int_a^b f(t) t**(-3/2) dt
    comes from the antiderivatives -2 t**(-1/2) and
    t**(gamma-1/2) / (gamma-1/2), and inf**-x = 0 for x > 0.
    """
    level, gamma = boundary.level, boundary.gamma
    if boundary.kind == "constant":
        return IntegralTest("convergent", 2.0 * abs(level))
    if gamma >= 0.5:
        return IntegralTest("divergent", math.inf)
    s = 1.0 if boundary.kind == "increasing" else -1.0

    def integral(a: float, b: float) -> float:
        return (2.0 * level * (a ** -0.5 - b ** -0.5)
                + s * (a ** (gamma - 0.5) - b ** (gamma - 0.5)) / (0.5 - gamma))

    r = max(-s * level, 0.0) ** (1.0 / gamma)
    if r > 1.0:
        return IntegralTest("convergent", abs(integral(1.0, r)) + abs(integral(r, math.inf)))
    return IntegralTest("convergent", abs(integral(1.0, math.inf)))
