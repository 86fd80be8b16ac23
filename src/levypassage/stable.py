"""Strictly stable law sampling and the scalar quantities attached to it.

Sampling uses the classical single-draw trigonometric transform: one uniform
on (-pi/2, pi/2) and one unit exponential per variate, no rejection loop.
The parameterization is the strictly stable one without shift, in which
beta = +-1 with alpha < 1 gives a one-sided law supported on a half line.
alpha = 1 is supported only for beta = 0 (Cauchy); the skewed alpha = 1 case
has a drift ambiguity in this parameterization, and StableParams rejects it,
so the transform and rho below need no check of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StableParams:
    alpha: float
    beta: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2)")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [-1, 1]")
        if self.alpha == 1.0 and self.beta != 0.0:
            raise ValueError("alpha = 1 with beta != 0 is unsupported")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive")


def sample_stable(params: StableParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws of Z(1); deterministic given the generator's state.

    The n uniforms come first from `rng`, then the n exponentials.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return cms_transform(params, rng.random(n), rng.standard_exponential(n))


def cms_transform(params: StableParams, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck variates from unit uniforms u and exponentials w.

    With U = pi*u - pi/2 (rounded as rng.uniform(-pi/2, pi/2) rounds it):

        S * sin(alpha*(U+B)) / cos(U)**(1/alpha)
          * (cos(U - alpha*(U+B)) / W)**((1-alpha)/alpha)

    B = arctan(beta*tan(pi*alpha/2))/alpha and S = (1 + beta**2 *
    tan(pi*alpha/2)**2)**(1/(2*alpha)); tan(U) for alpha = 1, beta = 0.
    """
    a, b = params.alpha, params.beta
    U = u * math.pi - math.pi / 2.0
    if a == 1.0:
        return np.tan(U) * params.scale
    tb = b * math.tan(math.pi * a / 2.0)
    B = math.atan(tb) / a
    S = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    v = (U + B) * a
    return (np.sin(v) * S / np.cos(U) ** (1.0 / a)
            * (np.cos(U - v) / w) ** ((1.0 - a) / a) * params.scale)


def positivity_parameter(params: StableParams) -> float:
    """rho = P(Z(1) > 0) = 1/2 + arctan(beta * tan(pi*alpha/2)) / (pi*alpha).

    The Cauchy law (alpha = 1, where beta = 0) gets exactly 1/2.
    """
    a, b = params.alpha, params.beta
    return 0.5 + math.atan(b * math.tan(math.pi * a / 2.0)) / (math.pi * a)


def subordinator_unit_scale(alpha: float) -> float:
    """Scale making the one-sided stable Laplace exponent exactly lambda**alpha.

    For beta = 1, alpha < 1 the law sampled here satisfies
    E exp(-lam * Z) = exp(-(scale**alpha / cos(pi*alpha/2)) * lam**alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("one-sided subordinator laws need alpha in (0, 1)")
    return math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha)
