"""Strictly stable law sampling and the scalar quantities attached to it.

Sampling uses the classical single-draw trigonometric transform: one uniform
on (-pi/2, pi/2) and one unit exponential per variate, no rejection loop.
The parameterization is the strictly stable one without shift, in which
beta = +-1 with alpha < 1 gives a one-sided law supported on a half line.
alpha = 1 is supported only for beta = 0 (Cauchy); the skewed alpha = 1 case
has a drift ambiguity in this parameterization and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator


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
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive")


def sample_stable(params: StableParams, n: int, stream,
                  w_stream: np.random.Generator | None = None) -> np.ndarray:
    """n i.i.d. draws of Z(1); deterministic given the stream id.

    The n uniforms come first from `stream`, then the n exponentials.  With
    `w_stream` the exponentials come from that generator instead, which lets
    a caller split one long sample into blocks with the same draws: `stream`
    supplies the uniforms in order and `w_stream`, started where the single
    call would begin its exponentials, supplies the rest.

    For alpha != 1 the draw is

        S * sin(alpha*(U+B)) / cos(U)**(1/alpha)
          * (cos(U - alpha*(U+B)) / W)**((1-alpha)/alpha)

    with U uniform on (-pi/2, pi/2), W standard exponential,
    B = arctan(beta*tan(pi*alpha/2))/alpha and
    S = (1 + beta**2 * tan(pi*alpha/2)**2)**(1/(2*alpha)).
    For alpha = 1, beta = 0 it reduces to tan(U) (Cauchy).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = params.alpha, params.beta
    rng = as_generator(stream)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    w = (rng if w_stream is None else w_stream).standard_exponential(size=n)
    if a == 1.0:
        if b != 0.0:
            raise ValueError("alpha = 1 with beta != 0 is unsupported")
        return params.scale * np.tan(u)
    tb = b * math.tan(math.pi * a / 2.0)
    B = math.atan(tb) / a
    S = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    z = S * np.sin(a * (u + B)) / np.cos(u) ** (1.0 / a) \
        * (np.cos(u - a * (u + B)) / w) ** ((1.0 - a) / a)
    return params.scale * z


def positivity_parameter(params: StableParams) -> float:
    """rho = P(Z(1) > 0) = 1/2 + arctan(beta * tan(pi*alpha/2)) / (pi*alpha)."""
    a, b = params.alpha, params.beta
    if a == 1.0:
        if b != 0.0:
            raise ValueError("alpha = 1 with beta != 0 is unsupported")
        return 0.5
    return 0.5 + math.atan(b * math.tan(math.pi * a / 2.0)) / (math.pi * a)


def norming_function(model, t):
    """Norming c(t) = scale * t**(1/alpha) that makes X(t)/c(t) converge.

    Accepts anything exposing `alpha` and `scale` attributes (StableParams or
    a Lévy model).  A perturbation of the stable law leaves c unchanged up to
    slow variation, so the same formula is used for perturbed models.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("norming_function requires finite t > 0")
    out = model.scale * arr ** (1.0 / model.alpha)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def subordinator_unit_scale(alpha: float) -> float:
    """Scale making the one-sided stable Laplace exponent exactly lambda**alpha.

    For beta = 1, alpha < 1 the law sampled here satisfies
    E exp(-lam * Z) = exp(-(scale**alpha / cos(pi*alpha/2)) * lam**alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("one-sided subordinator laws need alpha in (0, 1)")
    return math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha)
