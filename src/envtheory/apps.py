"""Closed-form envelope results for three benchmark systems.

Each formula here is the analytic solution of the same stationarity system
the generic solver integrates numerically, specialized to a shape where the
algebra closes.  Tests verify that the generic route reproduces them.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import _quotient
from .errors import CollapseRegime, NonFiniteResult, PerturbationSizeWarning
from .model import checked, require_count, require_counts


@dataclass(frozen=True)
class BaryonParams:
    """Ultrarelativistic particles, linear confinement, Coulomb-like pair attraction.

    One-body potential a1 * x, pairwise potential a2 * x - b / x.
    """

    n: int
    d: int
    a1: float = 0.0
    a2: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        require_counts(n=self.n, d=self.d)
        for name in ("a1", "a2", "b"):
            checked(getattr(self, name), name)
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise ValueError("confinement strengths a1, a2 must be non-negative")
        if self.a1 + self.a2 <= 0.0:
            raise ValueError("at least one confinement strength must be positive")
        if self.b < 0.0:
            raise ValueError(f"pair attraction b must be non-negative, got {self.b}")


def baryon_bounds(params: BaryonParams) -> tuple[float, float]:
    """Ground-state upper and lower envelope bounds (E_upper, E_lower).

    With C = N(N-1)/2 pairs,

        E_upper^2 = 4 C (a1 + a2 sqrt(C)) (D - b sqrt(C))
        E_lower^2 = 2 C (a1 + a2 N) (D - 1 - b (N - 1))

    Both require the attraction to stay under the collapse threshold:
    D - b sqrt(C) > 0 and D - 1 - b (N - 1) > 0.
    """
    n, d = params.n, params.d
    c = n * (n - 1) / 2.0
    root_c = math.sqrt(c)
    upper_margin = d - params.b * root_c
    lower_margin = (d - 1.0) - params.b * (n - 1.0)
    if upper_margin <= 0.0 or lower_margin <= 0.0:
        raise CollapseRegime(
            f"pair attraction b={params.b} exceeds the collapse threshold for "
            f"n={n}, d={d} (margins {upper_margin:.3g}, {lower_margin:.3g})"
        )
    e_upper = math.sqrt(4.0 * c * (params.a1 + params.a2 * root_c) * upper_margin)
    e_lower = math.sqrt(2.0 * c * (params.a1 + params.a2 * n) * lower_margin)
    if not math.isfinite(e_upper + e_lower):
        raise NonFiniteResult(f"the baryon bounds are not finite, got ({e_upper}, {e_lower})")
    return e_upper, e_lower


@dataclass(frozen=True)
class BosonStarParams:
    """Semirelativistic bosons with pairwise Coulomb-like gravitational attraction."""

    n: int
    mass: float
    alpha: float  # pair attraction strength G * m**2

    def __post_init__(self) -> None:
        require_counts(n=self.n)
        checked(self.mass, "mass", positive=True)
        checked(self.alpha, "attraction strength", positive=True)


def boson_star_mass(params: BosonStarParams, q: float) -> float:
    """Total-energy upper bound M = N m sqrt(1 - N (N-1)^3 alpha^2 / (8 Q^2)).

    Past the square root's zero the stationary point disappears: that is the
    collapse threshold of the self-gravitating system.  Where Q**2 is not a
    normal float or the expression leaves the float range, the ratio is
    formed with no power of N, alpha or Q.
    """
    n, m, alpha = params.n, params.mass, params.alpha
    qv = checked(q, "quantum number", positive=True)
    ratio = math.nan
    if qv * qv >= sys.float_info.min:
        try:
            ratio = n * (n - 1.0) ** 3 * alpha * alpha / (8.0 * qv * qv)
        except OverflowError:  # (n - 1) ** 3 past the float range
            pass
    if not 0.0 < ratio < math.inf:
        ratio = _quotient((n, n - 1, n - 1, n - 1, alpha, alpha), (8.0, qv, qv))
    arg = 1.0 - ratio
    if arg < 0.0:
        raise CollapseRegime(
            f"alpha={alpha} exceeds the collapse threshold at n={n}, Q={qv}"
        )
    value = n * m * math.sqrt(arg)
    if not math.isfinite(value):
        raise NonFiniteResult(f"the boson-star mass at Q = {qv} and mass {m} is not finite, got {value}")
    return value


def boson_star_limit(d: int) -> float:
    """Large-N cap on M * G * m for the bosonic ground state: D / sqrt(2)."""
    require_counts(d=d)
    return d / math.sqrt(2.0)


def boson_star_max_mass(
    d: int, mass: float, alpha: float, n_max: int = 10**5
) -> tuple[int, float]:
    """Maximum of the ground-state mass bound over the particle number.

    For the bosonic ground state Q = (N-1) D / 2, so the bound reduces to
    N m sqrt(1 - N (N-1) c) with c = alpha^2 / (2 D^2).  Its real maximizer
    is the positive root N* = (3c + sqrt(9c^2 + 32c)) / (8c) of
    4c N^2 - 3c N - 2 = 0; the integer argmax is one of the integers next to
    N*, clamped to [2, n_max], and ties go to the smaller N.
    """
    require_counts(d=d)
    checked(mass, "mass", positive=True)
    checked(alpha, "alpha", positive=True)
    require_count(n_max, "n_max", 2)
    coeff = alpha * alpha / (2.0 * d * d)
    if coeff > 0.0:
        peak = (3.0 * coeff + math.sqrt(9.0 * coeff * coeff + 32.0 * coeff)) / (8.0 * coeff)
    else:  # alpha^2 underflows: the bound grows with N
        peak = math.inf
    near = math.floor(min(peak, n_max))
    ns = np.clip(np.arange(near - 1, near + 3, dtype=float), 2.0, float(n_max))
    masses = ns * mass * np.sqrt(np.clip(1.0 - ns * (ns - 1.0) * coeff, 0.0, None))
    idx = int(np.argmax(masses))
    return int(ns[idx]), float(masses[idx])


def minimal_length_energy(
    n: int, d: int, mass: float, spring: float, deformation: float, q: float
) -> float:
    """Harmonic system with a small quartic kinetic deformation, at first order.

    The unperturbed pairwise oscillator gives sqrt(2 N spring / mass) * Q and
    the p**4 deformation adds exactly 2 * spring * deformation * Q**2 at
    first order.  The result is exact again when the deformation vanishes.
    """
    require_counts(n=n, d=d)
    checked(mass, "mass", positive=True)
    checked(spring, "spring constant", positive=True)
    if deformation < 0.0:
        raise ValueError(f"deformation must be non-negative, got {deformation}")
    checked(deformation, "deformation")
    qv = checked(q, "quantum number", positive=True)
    base = math.sqrt(2.0 * n * spring / mass) * qv
    correction = 2.0 * spring * deformation * qv * qv
    energy = base + correction
    if not math.isfinite(energy):
        raise NonFiniteResult(f"the minimal-length level at Q = {qv} is not finite, got {energy}")
    if correction > 0.1 * base:
        warnings.warn(
            f"quartic correction {correction:.6g} exceeds 10% of the harmonic level "
            f"{base:.6g}; first order is indicative only",
            PerturbationSizeWarning,
            stacklevel=2,
        )
    return energy
