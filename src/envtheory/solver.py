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

Roots are located by ``roots.scan``, which samples ``roots.log_grid`` scaled
to the natural guess r0 ~ Q for sign changes, and each bracket is polished
with a safeguarded bisection/secant method (``roots.brentq``), which starts
from the scan's own samples at the bracket's ends and hands back F at the
root, so a level evaluates no point twice.  All roots are reported; the lowest-energy one is
the physical envelope level, and its bound verdict reads each term's chart on
the one-decade windows (r0/10, 10 r0) and (p0/10, 10 p0) around it.  A scan
with no bracket gives its verdict from its own samples: no positive one means
attraction wins at every scale (collapse), no negative one that kinetic
pressure does (unbound).

``solve_nbody_many`` solves a sequence of N-body points, a sweep, in blocks:
one 2-D scan finds the brackets on every point's first grid, and each point's
polish starts from them, with its floats unchanged from ``solve_nbody``.
Points that share Q share that grid, so a law sweep's block scans one grid
row: p0, the kinetic term and every unswept law are evaluated once for the
block, and only the swept term once per point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import analysis
from .errors import EnvelopeError, NoStationaryPoint, ScanExhausted
from .model import (
    FAMILIES,
    EnvelopeSolution,
    KineticFamily,
    KineticLaw,
    PotentialFamily,
    PotentialLaw,
    StationaryRoot,
    SystemSpec,
    _require_positive,
    auxiliary_exponent,
    chart_exponent,
    checked,
    require_count,
)
from .qnum import QValue
from .roots import _RTOL_MIN, brentq, log_grid, scan

# Grid samples in one block scan of ``solve_nbody_many``; it bounds the memory
# a block holds (31 points at the default 513-sample grid).
_BLOCK_SAMPLES = 2**14
# Grid samples in the widest scan pass one solve may take (16 MiB of floats).
_MAX_SCAN_SAMPLES = 2**20


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for the bracket scan and the polish stage."""

    tolerance: float = 1e-12
    max_iterations: int = 200
    bracket_expansion: float = 2.0
    points_per_decade: int = 64
    decades: float = 8.0

    def __post_init__(self) -> None:
        for each in fields(self):
            checked(getattr(self, each.name), each.name)
        require_count(self.max_iterations, "max_iterations", 10)
        if not (0.0 < self.tolerance <= 1e-6):
            raise ValueError(f"tolerance must lie in (0, 1e-6], got {self.tolerance}")
        if self.bracket_expansion <= 1.0:
            raise ValueError(f"bracket_expansion must exceed 1, got {self.bracket_expansion}")
        require_count(self.points_per_decade, "points_per_decade", 8)
        checked(self.decades, "decades", positive=True)
        # the third pass is the widest, at about widest + 1 samples; `not <=` also rejects inf
        with np.errstate(over="ignore"):  # numpy scalars warn where floats go to inf
            widest = self.points_per_decade * self.decades * self.bracket_expansion * self.bracket_expansion
        if not widest + 1 <= _MAX_SCAN_SAMPLES:
            raise ValueError(
                f"the widest scan, points_per_decade * decades * bracket_expansion**2 = {self.points_per_decade}"
                f" * {self.decades} * {self.bracket_expansion}**2, takes more than {_MAX_SCAN_SAMPLES} samples"
            )


_DEFAULT_CONFIG = SolverConfig()


def auxiliary_energy(mu: float, rho: float, aux_exponent: float, q: QValue | float) -> float:
    """Closed-form level of the auxiliary power-law system.

    A two-body system with kinetic term p**2 / (2 mu) and potential
    rho * sgn(lam) * x**lam has envelope-exact levels

        E = (lam + 2) / (2 lam) * (|lam| rho)^(2/(lam+2)) * (Q^2 / mu)^(lam/(lam+2))

    for rho > 0 and 0 != lam > -2.
    """
    checked(mu, "mu", positive=True)
    checked(rho, "rho", positive=True)
    lam = auxiliary_exponent(aux_exponent)
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


# The residual bound to the last system evaluated, as (spec, F(q, r0)).  A
# solve evaluates one system many times in a row, so this one entry binds each
# system's numbers and law formulas once.  Holding the spec keeps its id from
# passing to another spec, and the pair is read and replaced as one tuple, so
# threads racing here at worst bind a system twice.
_bound = (None, None)


def stationary_residual(spec: SystemSpec, q: QValue | float, r0):
    """Stationarity defect at trial scale r0 (vectorized over r0)."""
    global _bound
    qv = checked(q, "quantum number", positive=True)
    bound_spec, residual = _bound
    if bound_spec is not spec:
        residual = _residual_of(
            spec.n,
            float(spec.pair_count),
            spec.kinetic.derivative_function(),
            None if spec.onebody is None else spec.onebody.derivative_function(),
            None if spec.twobody is None else spec.twobody.derivative_function(),
        )
        _bound = (spec, residual)
    return residual(qv, r0)


def _residual_of(n, c, kinetic, onebody, twobody):
    """F(q, r0) for n particles in c pairs, from each term's derivative function (None if absent).

    The numbers may be arrays that broadcast against r0.  Each separation is
    checked positive just before its term is evaluated.
    """
    root_c = np.sqrt(c)

    def residual(q, r0):
        p0 = q / r0
        res = n * p0 * kinetic(p0)
        if onebody is not None:
            x = r0 / n
            _require_positive(x, "separation")
            res = res - r0 * onebody(x)
        if twobody is not None:
            x = r0 / root_c
            _require_positive(x, "separation")
            res = res - root_c * r0 * twobody(x)
        return res

    return residual


def solve_nbody(
    spec: SystemSpec, q: QValue | float, config: SolverConfig | None = None, *, _brackets=None
) -> EnvelopeSolution:
    """Envelope level of the N-body system at global quantum number Q.

    ``_brackets`` is internal to ``solve_nbody_many``: the brackets its block
    scan found on this point's first grid, with their samples, so the polish
    starts from them.
    """
    qv = checked(q, "quantum number", positive=True)
    return _solve(
        partial(stationary_residual, spec, qv),
        partial(nbody_energy, spec),
        partial(analysis.classify_bound, spec),
        qv,
        config or _DEFAULT_CONFIG,
        _brackets,
    )


def solve_nbody_many(
    specs: list[SystemSpec], qs: list[QValue | float], config: SolverConfig | None = None
) -> list[EnvelopeSolution]:
    """``[solve_nbody(spec, q, config) for spec, q in zip(specs, qs)]``, solved in blocks.

    Consecutive points whose laws belong to the same families form a block
    of at most ``_BLOCK_SAMPLES`` grid samples, whatever their parameters,
    so a sweep of a power-law exponent is blocked too.  A block takes one 2-D
    stationarity scan, one row per point, and each row sees the floats its
    single-point scan sees; every point is then solved by ``solve_nbody``
    from the brackets of its row.  A point with a custom law or an invalid
    Q, a point whose row has no bracket and every point of a block whose
    scan raises take the full single-point scan.  Each result, and the error
    of the first point that fails, are therefore those of the loop above.
    """
    cfg = config or _DEFAULT_CONFIG
    size = max(1, _BLOCK_SAMPLES // log_grid(cfg.decades, cfg.points_per_decade).size)
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
    lam = chart_exponent(aux_exponent)
    qv = checked(q, "quantum number", positive=True)
    return _solve(
        partial(two_body_residual, kinetic, potential, qv),
        partial(two_body_energy, kinetic, potential),
        partial(analysis.classify_two_body, kinetic, potential, lam),
        qv,
        config or _DEFAULT_CONFIG,
    )


# ---------------------------------------------------------------------------
# Root machinery
# ---------------------------------------------------------------------------


def _solve(residual, energy, verdict, qv: float, cfg: SolverConfig, brackets=None) -> EnvelopeSolution:
    """The level at Q: every root of ``residual`` by ``energy``, and one ``verdict`` around the lowest.

    Each bracket's root is polished from the bracket's own samples: ``brentq``
    starts from the scan's values at the ends and hands back F at the root it
    returns, so no point is evaluated twice; a zero-width bracket is a
    sampled zero, which ``brentq`` returns with its sample.
    """
    rtol = max(cfg.tolerance, _RTOL_MIN)
    stationary = []
    for lo, hi, f_lo, f_hi in brackets or _scan_passes(residual, qv, cfg):
        r0, value = brentq(residual, lo, hi, xtol=1e-300, rtol=rtol, maxiter=cfg.max_iterations, fa=f_lo, fb=f_hi)
        p0 = qv / r0
        stationary.append(StationaryRoot(r0=r0, p0=p0, energy=float(energy(r0, p0)), residual=value))
    stationary.sort(key=lambda root: root.energy)
    primary = stationary[0]
    r0, p0 = primary.r0, primary.p0
    return EnvelopeSolution(
        energy=primary.energy,
        r0=r0,
        p0=p0,
        q=qv,
        bound=verdict((r0 / 10.0, 10.0 * r0), (p0 / 10.0, 10.0 * p0)),
        roots=tuple(stationary),
    )


def _scan_passes(residual, guess: float, cfg: SolverConfig) -> list[tuple[float, float, float, float]]:
    """The brackets of the first of three ever wider scans around ``guess`` that finds any."""
    decades = cfg.decades
    for _expansion in range(3):
        values, brackets = scan(residual, guess, decades, cfg.points_per_decade)
        if brackets:
            return brackets
        if np.isnan(values).all():
            raise ScanExhausted(
                "stationarity residual could not be evaluated anywhere on the scan grid"
            )
        decades *= cfg.bracket_expansion
    # the widest scan has no zero and no finite sign change; NaN samples carry no sign
    if not (values > 0.0).any():
        raise NoStationaryPoint(
            "attraction dominates at every scanned scale (collapse regime)"
        )
    if not (values < 0.0).any():
        raise NoStationaryPoint(
            "kinetic pressure dominates at every scanned scale (no bound stationary point)"
        )
    raise ScanExhausted(
        "residual changes sign but no adjacent finite bracket could be isolated"
    )


# ---------------------------------------------------------------------------
# Block solve
# ---------------------------------------------------------------------------


def _block_key(spec: SystemSpec, q):
    """What a point shares with its block, or None for a point solved alone.

    That is its law families alone: a block may mix every parameter,
    power-law exponents included (see ``_block_residual``).
    """
    laws = (spec.kinetic, spec.onebody, spec.twobody)
    families = tuple(None if law is None else law.family for law in laws)
    if KineticFamily.CUSTOM in families or PotentialFamily.CUSTOM in families:
        return None
    try:
        checked(q, "quantum number", positive=True)
    except (TypeError, ValueError):
        return None
    return families


def _block_residual(specs: list[SystemSpec], qs: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """F at r0[k, :] for point specs[k], for every k, in one evaluation: one row per point.

    Each law's formula in ``FAMILIES`` is bound to a namespace of its
    parameters as (points, 1) columns, so it broadcasts over the points
    unchanged.  A number every point shares stays the points' own scalar,
    and is evaluated once for the whole block: when the points share Q,
    ``r0`` may be one (1, S) grid row, so p0, the kinetic term and every
    unswept law take one row and only the terms whose parameters differ
    spread to one row per point.
    ``np.power`` takes a fast path for some scalar exponents (2, 0.5, -1,
    ...) that a column of exponents does not, so a power law whose exponent
    differs between rows is evaluated row by row, one ``np.power`` call per
    row with that point's own exponent.  Rows that come out as one are
    returned as a read-only broadcast view of it.
    """

    def shared(values) -> bool:
        return len(set(map(repr, values))) == 1

    def column(values):
        return values[0] if shared(values) else np.array(values, dtype=float)[:, None]

    def row_by_row(laws):
        functions = [law.derivative_function() for law in laws]
        return lambda x: np.stack(
            [f(row) for f, row in zip(functions, np.broadcast_to(x, (len(functions), x.shape[-1])))]
        )

    terms = []
    for slot in ("kinetic", "onebody", "twobody"):
        laws = [getattr(spec, slot) for spec in specs]
        law = laws[0]
        if law is None:
            terms.append(None)
        elif law.family is PotentialFamily.POWER_LAW and not shared([each.exponent for each in laws]):
            terms.append(row_by_row(laws))
        else:
            record = FAMILIES[law.family]
            params = {param.name: column([getattr(each, param.name) for each in laws]) for param in record.params}
            terms.append(partial(record.derivative, SimpleNamespace(**params)))
    residual = _residual_of(
        column([spec.n for spec in specs]), column([float(spec.pair_count) for spec in specs]), *terms
    )
    return np.broadcast_to(residual(column(qs.tolist()), r0), (len(specs), np.shape(r0)[-1]))


def _solve_block(block: list, cfg: SolverConfig) -> list[EnvelopeSolution]:
    """Every point of ``block`` solved by ``solve_nbody`` from the brackets of one 2-D ``scan``.

    Points that share Q share their grid, so the block samples one (1, S)
    row, which ``_block_residual`` spreads to a row per point only where a
    parameter differs; each sample is still the float its point's own scan
    computes.
    """
    specs = [spec for spec, _ in block]
    qs = np.array([float(q) for _, q in block])
    if (qs == qs[0]).all():
        qs = qs[:1]
    try:
        _, brackets = scan(partial(_block_residual, specs, qs), qs[:, None], cfg.decades, cfg.points_per_decade)
    except (ArithmeticError, ValueError, EnvelopeError):
        # the single-point scans raise it again, from the point it belongs to
        brackets = [[]] * len(block)
    return [solve_nbody(spec, q, cfg, _brackets=pairs) for (spec, q), pairs in zip(block, brackets)]
