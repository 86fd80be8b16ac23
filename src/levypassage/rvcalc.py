"""Slowly varying functions and regularly varying Lévy-measure tails.

Two concrete slowly-varying-at-zero families are supported:

* ``constant``:  ell(x) = c,  c > 0
* ``log-power``: ell(x) = (ln(e + 1/x))**p

A regularly varying tail is the jump density |x|**(-alpha-1) * ell(1/|x|) on
one side of the origin, written in the magnitude coordinate x > 0; only
RegVaryingTail checks that its index lies in (0, 2).  A measure's slowly
varying part h(v) = density(e**v) * e**((alpha+1) v) is taken in v = ln x,
where it is finite for every finite v, however far past the float range e**v
lies.  Every tail mass, of a tail or of a jump table past its last knot,
comes from `tail_knots`: one fixed Gauss-Legendre rule in t = alpha * ln(u/x),
exact to rounding for a constant ell and within 1e-11 of 40-digit references
for the log-power family at alpha >= 0.03; with index alpha - 2 it gives
the second moment near 0 (`second_moment_below`).  `gl_panels` integrates
over finite panels in v.  `quadpack`, scipy's quadrature, serves only
`levymodel.characteristic_exponent` and is imported on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
TAIL_PANELS = 704  # tail_knots' panels: width 1/16 on t in [0, 44]

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
    out = slowly_varying_at_log(spec, np.log(arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def slowly_varying_at_log(spec: SlowlyVaryingSpec, w):
    """ell(e**w) for finite w: ln(e + e**-w) neither over- nor underflows."""
    w = np.asarray(w, dtype=float)
    if spec.family == CONSTANT:
        return np.full_like(w, spec.c)
    return np.logaddexp(1.0, -w) ** spec.p


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

    def h(self, v):
        """density(x) * x**(alpha+1) = ell(1/x) at v = ln x."""
        return slowly_varying_at_log(self.ell, -np.asarray(v, dtype=float))


def quadpack():
    """The `scipy.integrate` module, imported on the first call."""
    from scipy import integrate
    return integrate


@cache
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    """tail_knots' nodes t and weights times exp(-t), one row per panel."""
    t = (np.arange(TAIL_PANELS) / 16)[:, None] + (GL_NODES + 1.0) / 32
    w = GL_WEIGHTS / 32 * np.exp(-t)
    t.flags.writeable = w.flags.writeable = False  # shared by every call
    return t, w


def tail_knots(h, x: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """ln u and the mass beyond u at the panel edges u = x * e**(k/(16 alpha)).

    h(v) is a measure's density(e**v) * e**((alpha+1) v), slowly varying for
    a density regularly varying with index -alpha-1.  With u = x * e**(t/alpha)
    the mass beyond u is x**-alpha / alpha * int_t^inf e**-s h(ln x + s/alpha) ds
    (Karamata's theorem; Bingham, Goldie & Teugels 1987), so one fixed rule
    in t serves every ell: 8-point Gauss-Legendre panels of width 1/16 on
    [0, 44], where e**-44 < 1e-19.  A panel spans about 2 in ln u at alpha
    0.03, narrow enough for a log-power ell's turn near u = 1.  The first
    knot is (ln x, mass beyond x).
    """
    t, w = _tail_rule()
    ln_x = math.log(x)
    panels = np.sum(w * h(ln_x + t / alpha), axis=1)
    mass = x ** -alpha / alpha * np.cumsum(panels[::-1])[::-1]
    return ln_x + np.arange(TAIL_PANELS) / (16 * alpha), mass


def second_moment_below(h, x: float, alpha: float) -> float:
    """int_0^x u**2 nu(u) du, nu with slowly varying part h: `tail_knots`' rule
    at index alpha - 2, where u = x * e**(t/(alpha-2)) runs down to 0 and the
    mass returned is the integral negated."""
    return float(-tail_knots(h, x, alpha - 2.0)[1][0])


def gl_panels(h, edges: np.ndarray, k: float) -> np.ndarray:
    """int h(v) e**(k v) dv on each panel between edges in v = ln x, 8-point
    Gauss-Legendre: the mass of the measure there at k = -alpha, its first
    moment at k = 1 - alpha."""
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    v = mid[:, None] + half[:, None] * GL_NODES[None, :]
    return half * np.sum(GL_WEIGHTS[None, :] * h(v) * np.exp(k * v), axis=1)


def tail_mass(tail: RegVaryingTail, x: float) -> float:
    """nu_+(x) or nu_-(x): integrated density from x to infinity, x > 0."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError("tail_mass requires finite x > 0")
    return float(tail_knots(tail.h, x, tail.alpha)[1][0])
