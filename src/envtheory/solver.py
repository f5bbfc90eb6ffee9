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

``solve_nbody_many`` solves a sequence of N-body points, a sweep, in blocks:
one 2-D scan finds the brackets on every point's first grid, and each point's
polish starts from them, with its floats unchanged from ``solve_nbody``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import EnvelopeError, InvalidAuxiliaryExponent, NoStationaryPoint, ScanExhausted
from .model import (
    FAMILIES,
    ConvexityVerdict,
    EnvelopeSolution,
    KineticFamily,
    KineticLaw,
    PotentialFamily,
    PotentialLaw,
    StationaryRoot,
    SystemSpec,
    checked,
)
from .qnum import QValue
from .roots import brentq, sign_change_brackets

_EPS = float(np.finfo(float).eps)
# Grid samples in one block scan of ``solve_nbody_many``; it bounds the memory
# a block holds (31 points at the default 513-sample grid).
_BLOCK_SAMPLES = 2**14


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
    return _nbody_residual(
        spec.n, float(spec.pair_count), spec.kinetic, spec.onebody, spec.twobody, qv, r0
    )


def _nbody_residual(n, c, kinetic, onebody, twobody, q, r0):
    """F(r0) for n particles in c pairs; the numbers may be arrays that broadcast against r0."""
    p0 = q / r0
    res = n * p0 * kinetic.derivative(p0)
    if onebody is not None:
        res = res - r0 * onebody.derivative(r0 / n)
    if twobody is not None:
        root_c = np.sqrt(c)
        res = res - root_c * r0 * twobody.derivative(r0 / root_c)
    return res


def solve_nbody(
    spec: SystemSpec, q: QValue | float, config: SolverConfig | None = None, *, _brackets=None
) -> EnvelopeSolution:
    """Envelope level of the N-body system at global quantum number Q.

    ``_brackets`` is internal to ``solve_nbody_many``: the brackets its block
    scan found on this point's first grid, so the polish starts from them.
    """
    cfg = config or _DEFAULT_CONFIG
    qv = checked(q, "quantum number", positive=True)

    def residual(r0):
        return stationary_residual(spec, qv, r0)

    def energy(r0, p0):
        return nbody_energy(spec, r0, p0)

    return _solve(residual, energy, qv, cfg, _nbody_verdict(spec), _brackets)


def solve_nbody_many(
    specs: list[SystemSpec], qs: list[QValue | float], config: SolverConfig | None = None
) -> list[EnvelopeSolution]:
    """``[solve_nbody(spec, q, config) for spec, q in zip(specs, qs)]``, solved in blocks.

    Consecutive points whose laws belong to the same families form a block
    of at most ``_BLOCK_SAMPLES`` grid samples.  A block takes one 2-D
    stationarity scan, one row per point, and each row sees the floats its
    single-point scan sees; every point is then solved by ``solve_nbody``
    from the brackets of its row.  A point with a custom law or an invalid
    Q, a point whose row has no bracket and every point of a block whose
    scan raises take the full single-point scan.  Each result, and the error
    of the first point that fails, are therefore those of the loop above.
    """
    cfg = config or _DEFAULT_CONFIG
    size = max(1, _BLOCK_SAMPLES // _unit_grid(cfg.decades, cfg.points_per_decade).size)
    solutions: list[EnvelopeSolution] = []
    block: list = []
    block_key = None
    for spec, q in zip(specs, qs, strict=True):
        key = _block_key(spec, q)
        if block and (key != block_key or len(block) == size):
            solutions += _solve_block(block, cfg)
            block = []
        if key is None:
            solutions.append(solve_nbody(spec, q, cfg))
        else:
            block.append((spec, q))
            block_key = key
    if block:
        solutions += _solve_block(block, cfg)
    return solutions


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


def _solve(residual, energy, qv: float, cfg: SolverConfig, verdict, brackets=None) -> EnvelopeSolution:
    roots = _polish_all(residual, brackets, cfg) if brackets else _scan_and_polish(residual, qv, cfg)
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


@functools.lru_cache(maxsize=32)
def _unit_grid(decades: float, per_decade: int) -> np.ndarray:
    """The scan grid around a guess of 1, read-only; every scan with these settings scales it."""
    half = decades / 2.0
    count = int(round(per_decade * decades)) + 1
    unit = np.logspace(-half, half, count)
    unit.flags.writeable = False
    return unit


def _log_grid(guess: float, decades: float, per_decade: int) -> np.ndarray:
    return guess * _unit_grid(decades, per_decade)


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


# ---------------------------------------------------------------------------
# Block solve
# ---------------------------------------------------------------------------


def _block_key(spec: SystemSpec, q):
    """What a point shares with its block, or None for a point solved alone.

    That is its law families and its power-law exponents: ``np.power`` takes
    a fast path for some scalar exponents (2, 0.5, -1, ...) that a column of
    exponents does not, so a block passes its exponent as the points' own
    float.
    """
    laws = (spec.kinetic, spec.onebody, spec.twobody)
    families = tuple(None if law is None else law.family for law in laws)
    if KineticFamily.CUSTOM in families or PotentialFamily.CUSTOM in families:
        return None
    try:
        checked(q, "quantum number", positive=True)
    except (TypeError, ValueError):
        return None
    exponents = tuple(
        repr(law.exponent) for law in laws if law is not None and law.family is PotentialFamily.POWER_LAW
    )
    return families + exponents


def _block_residual(specs: list[SystemSpec], qs: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """F at r0[k, :] for point specs[k], for every k, in one evaluation.

    Each law is rebuilt with its parameters as (points, 1) columns, so the
    formulas of ``FAMILIES`` and ``_nbody_residual`` broadcast over the
    points unchanged.  A number every point shares stays the points' own
    scalar, which keeps ``np.power``'s scalar-exponent path.
    """

    def column(values):
        if len(set(map(repr, values))) == 1:
            return values[0]
        return np.array(values, dtype=float)[:, None]

    laws = {}
    for slot in ("kinetic", "onebody", "twobody"):
        law = getattr(specs[0], slot)
        if law is not None:
            params = {
                param.name: column([getattr(getattr(spec, slot), param.name) for spec in specs])
                for param in FAMILIES[law.family].params
            }
            laws[slot] = type(law)(law.family, **params)
    return _nbody_residual(
        column([spec.n for spec in specs]),
        column([float(spec.pair_count) for spec in specs]),
        laws["kinetic"],
        laws.get("onebody"),
        laws.get("twobody"),
        column(qs.tolist()),
        r0,
    )


def _solve_block(block: list, cfg: SolverConfig) -> list[EnvelopeSolution]:
    specs = [spec for spec, _ in block]
    qs = np.array([float(q) for _, q in block])
    try:
        with np.errstate(all="ignore"):
            grid = qs[:, None] * _unit_grid(cfg.decades, cfg.points_per_decade)
            values = _block_residual(specs, qs, grid)
        brackets, _ = sign_change_brackets(grid, values)
    except (ArithmeticError, ValueError, EnvelopeError):
        # the single-point scans raise it again, from the point it belongs to
        brackets = [[]] * len(block)
    return [solve_nbody(spec, q, cfg, _brackets=pairs) for (spec, q), pairs in zip(block, brackets)]
