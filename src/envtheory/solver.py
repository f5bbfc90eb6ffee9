"""Stationary-point solver for the envelope approximation.

For N identical particles with one-body potential U and pairwise potential V,
the auxiliary-oscillator treatment reduces the eigenvalue problem to a single
transcendental equation in the mean radial scale r0, with the conjugate
momentum scale fixed by r0 * p0 = Q:

    E(r0)    = N T(p0) + N U(r0 / N) + C_N V(r0 / sqrt(C_N)),
    F(r0)    = N p0 T'(p0) - r0 U'(r0 / N) - sqrt(C_N) r0 V'(r0 / sqrt(C_N)),

with C_N = N (N - 1) / 2 pairs and p0 = Q / r0.  A stationary scale is a root
of F.  The two-body reduction (one relative coordinate) is the same structure
with E = T(p0) + V(r0) and F = p0 T'(p0) - r0 V'(r0).

Roots are located by scanning a logarithmic grid around the natural guess
r0 ~ Q for sign changes and polishing each bracket with a safeguarded
bisection/secant method.  All roots are reported; the lowest-energy one is
the physical envelope level.  A residual with one sign across the whole scan
means there is nothing stationary: attraction wins at every scale (collapse)
or kinetic pressure does (unbound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import InvalidAuxiliaryExponent, NoStationaryPoint, ScanExhausted
from .model import (
    ConvexityVerdict,
    EnvelopeSolution,
    KineticLaw,
    PotentialLaw,
    StationaryRoot,
    SystemSpec,
    checked,
)
from .qnum import QValue
from .roots import brentq, sign_change_brackets

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the bracket scan and the polish stage."""

    tolerance: float = 1e-12
    max_iterations: int = 200
    bracket_expansion: float = 2.0
    points_per_decade: int = 64
    decades: float = 8.0

    def __post_init__(self) -> None:
        for name in ("tolerance", "bracket_expansion", "decades"):
            checked(getattr(self, name), name)
        if not (0.0 < self.tolerance <= 1e-6):
            raise ValueError(f"tolerance must lie in (0, 1e-6], got {self.tolerance}")
        if self.max_iterations < 10:
            raise ValueError(f"max_iterations must be >= 10, got {self.max_iterations}")
        if self.bracket_expansion <= 1.0:
            raise ValueError("bracket_expansion must exceed 1")
        if self.points_per_decade < 8:
            raise ValueError("points_per_decade must be >= 8")
        if self.decades <= 0.0:
            raise ValueError("decades must be positive")


_DEFAULT_CONFIG = SolverConfig()


def auxiliary_energy(mu: float, rho: float, aux_exponent: float, q: QValue | float) -> float:
    """Closed-form level of the auxiliary power-law system.

    A two-body system with kinetic term p**2 / (2 mu) and potential
    rho * sgn(lam) * x**lam has envelope-exact levels

        E = (lam + 2) / (2 lam) * (|lam| rho)^(2/(lam+2)) * (Q^2 / mu)^(lam/(lam+2))

    for rho > 0 and 0 != lam > -2.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    lam = float(aux_exponent)
    if lam == 0.0 or lam <= -2.0:
        raise InvalidAuxiliaryExponent(
            f"auxiliary exponent must be nonzero and > -2, got {aux_exponent}"
        )
    qv = checked(q, "quantum number", positive=True)
    return (
        (lam + 2.0)
        / (2.0 * lam)
        * (abs(lam) * rho) ** (2.0 / (lam + 2.0))
        * (qv * qv / mu) ** (lam / (lam + 2.0))
    )


# ---------------------------------------------------------------------------
# N-body path
# ---------------------------------------------------------------------------


def nbody_energy(spec: SystemSpec, r0, p0):
    """Envelope energy functional at mean scales (r0, p0)."""
    c = float(spec.pair_count)
    total = spec.n * spec.kinetic.value(p0)
    if spec.onebody is not None:
        total = total + spec.n * spec.onebody.value(r0 / spec.n)
    if spec.twobody is not None:
        total = total + c * spec.twobody.value(r0 / np.sqrt(c))
    return total


def stationary_residual(spec: SystemSpec, q: QValue | float, r0):
    """Stationarity defect at trial scale r0 (vectorized over r0)."""
    qv = checked(q, "quantum number", positive=True)
    p0 = qv / r0
    c = float(spec.pair_count)
    res = spec.n * p0 * spec.kinetic.derivative(p0)
    if spec.onebody is not None:
        res = res - r0 * spec.onebody.derivative(r0 / spec.n)
    if spec.twobody is not None:
        root_c = np.sqrt(c)
        res = res - root_c * r0 * spec.twobody.derivative(r0 / root_c)
    return res


def solve_nbody(
    spec: SystemSpec, q: QValue | float, config: SolverConfig | None = None
) -> EnvelopeSolution:
    """Envelope level of the N-body system at global quantum number Q."""
    cfg = config or _DEFAULT_CONFIG
    qv = checked(q, "quantum number", positive=True)

    def residual(r0):
        return stationary_residual(spec, qv, r0)

    def energy(r0, p0):
        return nbody_energy(spec, r0, p0)

    return _solve(residual, energy, qv, cfg, _nbody_verdict(spec))


def _nbody_verdict(spec: SystemSpec):
    def verdict(r0: float, p0: float) -> ConvexityVerdict:
        return analysis.classify_bound(
            spec,
            (r0 / 10.0, 10.0 * r0),
            momentum_domain=(p0 / 10.0, 10.0 * p0),
        )

    return verdict


# ---------------------------------------------------------------------------
# Two-body path
# ---------------------------------------------------------------------------


def two_body_energy(kinetic: KineticLaw, potential: PotentialLaw, r0, p0):
    return kinetic.value(p0) + potential.value(r0)


def two_body_residual(kinetic: KineticLaw, potential: PotentialLaw, q: QValue | float, r0):
    qv = checked(q, "quantum number", positive=True)
    p0 = qv / r0
    return p0 * kinetic.derivative(p0) - r0 * potential.derivative(r0)


def solve_two_body(
    kinetic: KineticLaw,
    potential: PotentialLaw,
    aux_exponent: float | None,
    q: QValue | float,
    config: SolverConfig | None = None,
) -> EnvelopeSolution:
    """Envelope level of a two-body system in relative coordinates.

    ``aux_exponent`` names the auxiliary power law whose spectrum supplied Q;
    it enters only the bound classification (the potential chart uses the
    sgn(lam) x**lam substitution on this path).  ``None`` keeps the default
    quadratic chart.
    """
    lam = 2.0 if aux_exponent is None else float(aux_exponent)
    if lam == 0.0 or lam <= -2.0:
        raise InvalidAuxiliaryExponent(
            f"auxiliary exponent must be nonzero and > -2, got {aux_exponent}"
        )
    cfg = config or _DEFAULT_CONFIG
    qv = checked(q, "quantum number", positive=True)

    def residual(r0):
        return two_body_residual(kinetic, potential, qv, r0)

    def energy(r0, p0):
        return two_body_energy(kinetic, potential, r0, p0)

    def verdict(r0: float, p0: float) -> ConvexityVerdict:
        return analysis.classify_two_body(
            kinetic,
            potential,
            lam,
            (r0 / 10.0, 10.0 * r0),
            momentum_domain=(p0 / 10.0, 10.0 * p0),
        )

    return _solve(residual, energy, qv, cfg, verdict)


# ---------------------------------------------------------------------------
# Root machinery
# ---------------------------------------------------------------------------


def _solve(residual, energy, qv: float, cfg: SolverConfig, verdict) -> EnvelopeSolution:
    roots = _scan_and_polish(residual, qv, cfg)
    stationary = []
    for r0 in roots:
        p0 = qv / r0
        stationary.append(
            StationaryRoot(
                r0=r0,
                p0=p0,
                energy=float(energy(r0, p0)),
                residual=float(residual(r0)),
            )
        )
    stationary.sort(key=lambda root: root.energy)
    primary = stationary[0]
    return EnvelopeSolution(
        energy=primary.energy,
        r0=primary.r0,
        p0=primary.p0,
        q=qv,
        bound=verdict(primary.r0, primary.p0),
        roots=tuple(stationary),
    )


def _scan_and_polish(residual, guess: float, cfg: SolverConfig) -> list[float]:
    decades = cfg.decades
    last_sign = 0
    for _expansion in range(3):
        grid = _log_grid(guess, decades, cfg.points_per_decade)
        with np.errstate(all="ignore"):
            values = np.asarray(residual(grid), dtype=float)
        if np.all(np.isnan(values)):
            raise ScanExhausted(
                "stationarity residual could not be evaluated anywhere on the scan grid"
            )
        brackets, signs = sign_change_brackets(grid, values)
        if brackets:
            return _polish_all(residual, brackets, cfg)
        last_sign = signs
        decades *= cfg.bracket_expansion
    if last_sign < 0:
        raise NoStationaryPoint(
            "attraction dominates at every scanned scale (collapse regime)"
        )
    if last_sign > 0:
        raise NoStationaryPoint(
            "kinetic pressure dominates at every scanned scale (no bound stationary point)"
        )
    raise ScanExhausted(
        "residual changes sign but no adjacent finite bracket could be isolated"
    )


def _log_grid(guess: float, decades: float, per_decade: int) -> np.ndarray:
    half = decades / 2.0
    count = int(round(per_decade * decades)) + 1
    return guess * np.logspace(-half, half, count)


def _polish_all(residual, brackets, cfg: SolverConfig) -> list[float]:
    roots: list[float] = []
    rtol = max(cfg.tolerance, 4.0 * _EPS)
    for lo, hi in brackets:
        if lo == hi:
            roots.append(float(lo))
            continue
        root = brentq(
            lambda x: float(residual(x)),
            lo,
            hi,
            xtol=1e-300,
            rtol=rtol,
            maxiter=cfg.max_iterations,
        )
        roots.append(float(root))
    return roots
