"""Lévy triplet data model and characteristic exponent.

A model is (b, sigma2, nu) with nu given by up to two regularly varying
tails, plus optional exact strictly-stable increment parameters.  Two
simulation modes hang off this: exact stable increments when `stable` is
set, otherwise Gaussian + drift + compound-Poisson big jumps with a
variance-matched small-jump correction (see simulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rvcalc import CONSTANT, RegVaryingTail, SlowlyVaryingSpec, tail_mass
from .stable import StableParams


@dataclass(frozen=True)
class LevyModel:
    b: float = 0.0
    sigma2: float = 0.0
    tail_left: RegVaryingTail | None = None
    tail_right: RegVaryingTail | None = None
    stable: StableParams | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError("sigma2 must be finite and >= 0")
        if not math.isfinite(self.b):
            raise ValueError("drift b must be finite")

    @property
    def alpha(self) -> float:
        if self.stable is not None:
            return self.stable.alpha
        t = self.tail_left or self.tail_right
        if t is None:
            raise AttributeError("model has no stable index")
        return t.alpha

    @property
    def has_jumps(self) -> bool:
        return self.tail_left is not None or self.tail_right is not None


BOUNDARY_KINDS = ("constant", "decreasing", "increasing")


@dataclass(frozen=True)
class Boundary:
    """f(t) = level (constant), level - t**gamma, or level + t**gamma."""

    kind: str  # one of BOUNDARY_KINDS
    gamma: float = 1.0
    level: float = 1.0

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if not math.isfinite(self.level):
            raise ValueError("boundary level must be finite")
        if self.kind != "constant" and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("moving boundaries require gamma > 0")


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------

def _jump_side_integrals(tail: RegVaryingTail, u: float,
                         epsabs: float, epsrel: float) -> tuple[float, float]:
    """(I_cos, I_sin) for one tail in the magnitude coordinate.

    I_cos = int_0^inf (cos(ux) - 1) g(x) dx
    I_sin = int_0^1 (sin(ux) - ux) g(x) dx + int_1^inf sin(ux) g(x) dx

    The oscillatory pieces past 1 use QUADPACK's Fourier-integral routine on
    the infinite interval; both are computed at |u| so that Psi(-u) is the
    exact float conjugate of Psi(u).  scipy is imported here, on the first
    call, so that no path simulation loads it.
    """
    from scipy import integrate
    g = tail.density
    kw = dict(epsabs=epsabs, epsrel=epsrel, limit=500)
    i_cos_inner, _ = integrate.quad(lambda x: (math.cos(u * x) - 1.0) * g(x), 0.0, 1.0, **kw)
    i_sin_inner, _ = integrate.quad(lambda x: (math.sin(u * x) - u * x) * g(x), 0.0, 1.0, **kw)
    if u == 0.0:
        return i_cos_inner, i_sin_inner
    au = abs(u)
    cos_outer, _ = integrate.quad(g, 1.0, np.inf, weight="cos", wvar=au,
                                  epsabs=epsabs, limlst=200, limit=500)
    sin_outer, _ = integrate.quad(g, 1.0, np.inf, weight="sin", wvar=au,
                                  epsabs=epsabs, limlst=200, limit=500)
    mass_outer = tail_mass(tail, 1.0)
    return i_cos_inner + (cos_outer - mass_outer), \
        i_sin_inner + math.copysign(1.0, u) * sin_outer


def characteristic_exponent(model: LevyModel, u: float,
                            epsabs: float = 1e-10, epsrel: float = 1e-8) -> complex:
    """Psi(u) = i*b*u - sigma2/2 * u**2 + integral term, by quadrature.

    The jump integral is evaluated per tail; the left tail contributes the
    conjugate combination of the same two real integrals, which makes the
    symmetry Psi(-u) = conj(Psi(u)) exact up to float rounding.
    """
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    out = complex(-0.5 * model.sigma2 * u * u, model.b * u)
    if model.tail_right is not None:
        re, im = _jump_side_integrals(model.tail_right, u, epsabs, epsrel)
        out += complex(re, im)
    if model.tail_left is not None:
        re, im = _jump_side_integrals(model.tail_left, u, epsabs, epsrel)
        out += complex(re, -im)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def stable_tail_constant(alpha: float, scale: float = 1.0) -> float:
    """Total Lévy density constant of a strictly stable law of given scale.

    nu(dx) = C * (1+beta)/2 * x**(-alpha-1) dx on x > 0 and
    C * (1-beta)/2 * |x|**(-alpha-1) dx on x < 0 reproduces
    Psi(u) = -scale**alpha * |u|**alpha * (1 - i*beta*tan(pi*alpha/2)*sgn(u))
    when C = scale**alpha * alpha / (Gamma(1-alpha) * cos(pi*alpha/2)).
    """
    if alpha == 1.0:
        raise ValueError("alpha = 1 has no finite tail constant in this parameterization")
    return scale ** alpha * alpha / (math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def stable_model(alpha: float, beta: float = 0.0, scale: float = 1.0) -> LevyModel:
    """Strictly stable model carrying both exact params and matched tails.

    The drift b is chosen so the Lévy–Khintchine form with the matched tails
    reproduces the strictly stable characteristic exponent (for alpha < 1 the
    compensator of |x| <= 1 jumps must be cancelled; for symmetric models it
    vanishes by symmetry).
    """
    params = StableParams(alpha, beta, scale)
    C = stable_tail_constant(alpha, scale)
    cp, cm = C * (1.0 + beta) / 2.0, C * (1.0 - beta) / 2.0
    right = RegVaryingTail(alpha, SlowlyVaryingSpec(CONSTANT, c=cp), "right") if cp > 0 else None
    left = RegVaryingTail(alpha, SlowlyVaryingSpec(CONSTANT, c=cm), "left") if cm > 0 else None
    if alpha >= 1.0 and beta != 0.0:
        raise ValueError("skewed tail-matched models are only built for alpha < 1")
    b = (cp - cm) / (1.0 - alpha) if alpha < 1.0 else 0.0
    return LevyModel(b=b, sigma2=0.0, tail_left=left, tail_right=right,
                     stable=params)


def levy_unit_tail_scale(alpha: float) -> float:
    """CF scale whose matched symmetric tails have constant ell = 1.

    With this scale the jump density is exactly |x|**(-alpha-1) on both
    sides, the canonical normalization of the regularly varying measure.
    """
    return (2.0 * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
            / alpha) ** (1.0 / alpha)


def standard_symmetric_model(alpha: float) -> LevyModel:
    """Symmetric strictly stable model with unit Lévy tail density."""
    return stable_model(alpha, 0.0, levy_unit_tail_scale(alpha))


def tail_only_model(alpha: float, ell: SlowlyVaryingSpec) -> LevyModel:
    """Pure-jump model with the same tail on both sides (no exact-increment mode)."""
    return LevyModel(tail_left=RegVaryingTail(alpha, ell, "left"),
                     tail_right=RegVaryingTail(alpha, ell, "right"))
