"""Closed forms the benchmark checks the program's outputs against.

Each is written out here from its formula and imports nothing from
levypassage, so a fault in the program cannot cancel out of a check.
"""

from __future__ import annotations

import math

WILSON_Z = 1.959963984540054  # two-sided 95 %
ETA = 1e-3  # the program's small-jump cutoff, pinned by its own tests


def positivity(alpha: float, beta: float) -> float:
    """rho = P(Z > 0) of a strictly stable law, alpha != 1."""
    return 0.5 + math.atan(beta * math.tan(math.pi * alpha / 2.0)) / (math.pi * alpha)


def tail_constant(alpha: float, scale: float) -> float:
    """c in the Lévy density c |x|^(-1-alpha) on each side of a symmetric law.

    For E exp(iuX) = exp(-scale^alpha |u|^alpha), integrating
    (1 - cos ux) c |x|^(-1-alpha) over both sides gives
    2 c Gamma(1-alpha) cos(pi alpha/2) / alpha |u|^alpha.
    """
    return alpha * scale ** alpha / (
        2.0 * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def unit_density_scale(alpha: float) -> float:
    """The scale at which tail_constant(alpha, scale) is exactly 1."""
    return (2.0 * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
            / alpha) ** (1.0 / alpha)


def jump_rate(alpha: float, c: float) -> float:
    """Mass of c |x|^(-1-alpha) on |x| > ETA, both sides."""
    return 2.0 * c * ETA ** -alpha / alpha


def delta(T: float) -> float:
    """delta(T) = min(1 / ln ln T, 1/2) of the subordinator split."""
    return min(1.0 / math.log(math.log(T)), 0.5)


def nu_s_mass(alpha: float, c: float, T: float) -> float:
    """Mass of the thinned measure delta(T) c x^(-1-alpha) on x > 1 (constant ell)."""
    return delta(T) * c / alpha


def sparre_andersen(n: int, rho: float) -> float:
    """P(S_1 <= 0, ..., S_n <= 0) for a random walk with P(S_k > 0) = rho for all k.

    Sparre Andersen (1954): the generating function of these probabilities is
    exp(sum_k s^k/k P(S_k <= 0)) = (1 - s)^-(1-rho), whose n-th coefficient is
    Gamma(n+1-rho) / (Gamma(1-rho) n!).  For rho = 1/2 it is C(2n, n) / 4^n.
    """
    return math.exp(math.lgamma(n + 1.0 - rho) - math.lgamma(1.0 - rho)
                    - math.lgamma(n + 1.0))


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def wilson_log_bounds(k: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson interval for k successes in n, as ln p.

    Written as the two roots of (k/n - q)^2 = z^2 q (1 - q) / n in q, not as
    centre plus half-width, so it shares no arithmetic with the program.
    """
    root = z * math.sqrt(z * z + 4.0 * k * (n - k) / n)
    den = 2.0 * (n + z * z)
    lo = (2.0 * k + z * z - root) / den
    hi = (2.0 * k + z * z + root) / den
    return (-math.inf if k == 0 else math.log(lo),
            0.0 if k == n else math.log(hi))
