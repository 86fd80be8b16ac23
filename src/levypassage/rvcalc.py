"""Slowly varying functions and regularly varying Lévy-measure tails.

Two concrete slowly-varying-at-zero families are supported:

* ``constant``:  ell(x) = c,  c > 0
* ``log-power``: ell(x) = (ln(e + 1/x))**p

A regularly varying tail is the jump density |x|**(-alpha-1) * ell(1/|x|) on
one side of the origin, written in the magnitude coordinate x > 0; only
RegVaryingTail checks that its index lies in (0, 2).  Tail masses are
integrated adaptively, truncated where the integrand has dropped below 1e-16
of its value at the left endpoint, and completed from the local log-log
slope.  `quad` and `mass_beyond` are the package's one quadrature recipe.

`quadpack` is the one entry to scipy's quadrature: `scipy.integrate` is
imported on its first call, never at module import, because it costs most
of a run's start-up and exact-mode runs integrate nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
TAIL_DROP = 1e-16

CONSTANT = "constant"
LOG_POWER = "log-power"


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """One member of the supported slowly-varying-at-zero families."""

    family: str
    c: float = 1.0
    p: float = 0.0

    def __post_init__(self):
        if self.family not in (CONSTANT, LOG_POWER):
            raise ValueError(f"unknown slowly varying family {self.family!r}")
        if self.family == CONSTANT and not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("constant family requires c > 0")
        if self.family == LOG_POWER and not math.isfinite(self.p):
            raise ValueError("log-power family requires finite p")

    @property
    def is_constant(self) -> bool:
        return self.family == CONSTANT


def eval_slowly_varying(spec: SlowlyVaryingSpec, x):
    """Evaluate ell(x) for x > 0.  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("eval_slowly_varying requires finite x > 0")
    if spec.family == CONSTANT:
        out = np.full_like(arr, spec.c)
    else:
        out = np.log(np.e + 1.0 / arr) ** spec.p
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class RegVaryingTail:
    """One-sided jump density x**(-alpha-1) * ell(1/x), x > 0 in magnitude."""

    alpha: float
    ell: SlowlyVaryingSpec
    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"tail side must be 'left' or 'right', got {self.side!r}")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("tail index alpha must lie in (0, 2)")

    def density(self, x):
        """Jump density at magnitude x > 0."""
        arr = np.asarray(x, dtype=float)
        out = arr ** (-self.alpha - 1.0) * eval_slowly_varying(self.ell, 1.0 / arr)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def truncation_point(tail: RegVaryingTail, x: float) -> float:
    """Upper cutoff where the tail density falls below TAIL_DROP of its value at x."""
    target = tail.density(x) * TAIL_DROP
    # pure power-law guess, then expand for slowly varying corrections
    hi = x * TAIL_DROP ** (-1.0 / (tail.alpha + 1.0))
    while tail.density(hi) > target:
        hi *= 10.0
    return hi


def power_tail_remainder(density, x: float) -> tuple[float, float]:
    """int_x^inf of a regularly varying density, from its local log-log slope.

    Locally density ~ C * u**s with s = d ln g / d ln u near x, so the
    remainder is g(x) * x / (-(s + 1)); exact for pure power laws, first-order
    accurate in the slowly varying drift otherwise.  Returns the remainder
    with s measured over (x, 2x), then with s over (x, 4x): their difference
    shows how far that first order falls short.
    """
    g0 = float(density(x))
    if g0 <= 0.0:
        return 0.0, 0.0
    s2, s4 = (math.log(float(density(k * x)) / g0) / math.log(k) for k in (2.0, 4.0))
    if max(s2, s4) >= -1.0:
        raise ValueError("density does not decay fast enough for a tail remainder")
    return g0 * x / (-(s2 + 1.0)), g0 * x / (-(s4 + 1.0))


def quadpack():
    """The `scipy.integrate` module, imported on the first call."""
    from scipy import integrate
    return integrate


def quad(f, a: float, b: float) -> float:
    """Adaptive quadrature of f over [a, b] at the package's tolerances."""
    return quadpack().quad(f, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                           limit=200)[0]


def mass_beyond(density, x: float, hi: float) -> float:
    """int_x^inf of a regularly varying density, truncated at hi.

    Integrates in v = ln u, where the integrand decays exponentially, up to
    hi, and completes the truncated tail with its regular-variation
    asymptotic.
    """
    inner = quad(lambda v: density(math.exp(v)) * math.exp(v),
                 math.log(x), math.log(hi))
    return inner + power_tail_remainder(density, hi)[0]


def tail_mass(tail: RegVaryingTail, x: float) -> float:
    """nu_+(x) or nu_-(x): integrated density from x to infinity, x > 0."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError("tail_mass requires finite x > 0")
    if tail.ell.is_constant:
        return tail.ell.c * x ** (-tail.alpha) / tail.alpha
    return mass_beyond(tail.density, x, truncation_point(tail, x))

