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

A level depends on the system and Q alone, so the solver takes no settings.
Roots are located by ``roots.scan``, which samples ``roots.log_grid`` scaled
to the natural guess r0 ~ Q for sign changes, over 8, then 16, then 32
decades until a pass finds one (``_PASS_DECADES``).  Each bracket is
polished to 1e-12 relative with a safeguarded bisection/secant method
(``roots.brentq``), which starts from the scan's own samples at the
bracket's ends and hands back F at the root, so a level evaluates no point
twice.  All roots are reported; the lowest-energy one is
the physical envelope level, and its bound verdict reads each term's chart on
the one-decade windows (r0/10, 10 r0) and (p0/10, 10 p0) around it.  A scan
with no bracket gives its verdict from its own samples: no positive one means
attraction wins at every scale (collapse), no negative one that kinetic
pressure does (unbound).

``solve_nbody_many`` solves a sequence of N-body points, a sweep, a run of
points at a time: one 2-D scan per block of points finds the brackets on
every point's first grid, and one lane polish (``roots.brentq`` over
arrays) polishes every bracket of the run at once, each lane with the
floats of its point's own polish in ``solve_nbody``.  Points that share Q
share that grid, so a law sweep's block scans one grid row: p0, the kinetic
term and every unswept law are evaluated once for the block, and only the
swept term once per point.  Both go through ``stationary_residual``, which
takes a tuple of specs for a block or the lanes of a run.
"""

from __future__ import annotations

import itertools
import math
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
)
from .roots import brentq, scan

# The polish: each root to 1e-12 relative (the absolute tolerance never
# decides), in at most 200 Brent iterations.
_RTOL = 1e-12
_XTOL = 1e-300
_MAXITER = 200
# The scan passes, each over this many decades around Q at ``_PER_DECADE``
# samples a decade; a pass runs only when the one before finds no bracket.
_PASS_DECADES = (8.0, 16.0, 32.0)
_PER_DECADE = 64
# Points in one block scan of ``solve_nbody_many``: 31 rows of the first
# pass's 513 samples, about 2**14 samples, bound the memory a block holds.
_BLOCK_POINTS = 31
# Points in one run of ``solve_nbody_many``, polished as lanes of one loop; it
# bounds the brackets and roots a run holds, and the work done before a
# failing point raises (a 100,000-point sweep takes 98 runs).
_RUN_POINTS = 1024


def auxiliary_energy(mu: float, rho: float, aux_exponent: float, q: float) -> float:
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


def stationary_residual(spec: SystemSpec | tuple[SystemSpec, ...], q, r0):
    """Stationarity defect at trial scale r0 (vectorized over r0).

    ``spec`` may be a tuple of specs whose laws share their families, with
    ``q`` their Qs as a (points, 1) column, or one float they all share (see
    ``_column``).  Row k of the 2-D result is then F of ``spec[k]`` at row k
    of ``r0``, or at its one row when ``r0`` has one: a block's scan and a
    run's lane polish evaluate every point at once.  Their Qs are not
    checked here; ``_block_key`` admits only valid ones.
    """
    global _bound
    block = isinstance(spec, tuple)
    qv = q if block else checked(q, "quantum number", positive=True)
    bound_spec, residual = _bound
    if bound_spec is not spec:
        residual = _block_residual_of(spec) if block else _residual_of(
            spec.n,
            float(spec.pair_count),
            spec.kinetic.derivative_function(),
            None if spec.onebody is None else spec.onebody.derivative_function(),
            None if spec.twobody is None else spec.twobody.derivative_function(),
        )
        _bound = (spec, residual)
    if block:
        return np.broadcast_to(residual(qv, r0), (len(spec), np.shape(r0)[-1]))
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


def solve_nbody(spec: SystemSpec, q: float, *, _roots=None) -> EnvelopeSolution:
    """Envelope level of the N-body system at global quantum number Q.

    ``_roots`` is internal to ``solve_nbody_many``: this point's (r0, F)
    pairs from its run's lane polish, the roots its own scan and polish find,
    so the level is formed from them.
    """
    qv = checked(q, "quantum number", positive=True)
    return _solve(
        partial(stationary_residual, spec, qv),
        partial(nbody_energy, spec),
        partial(analysis.classify_bound, spec),
        qv,
        _roots,
    )


def solve_nbody_many(specs: list[SystemSpec], qs: list[float]) -> list[EnvelopeSolution]:
    """``[solve_nbody(spec, q) for spec, q in zip(specs, qs)]``, solved a run at a time.

    Up to ``_RUN_POINTS`` consecutive points whose laws belong to the same
    families form a run, whatever their parameters, so a sweep of a
    power-law exponent is one run too.  A run is scanned in blocks of at most ``_BLOCK_POINTS``
    points, one 2-D stationarity scan and one row per point, and each row
    sees the floats its single-point scan sees.  Every bracket of the run is
    then polished as one lane of one ``brentq`` over arrays, and each point
    is finished by ``solve_nbody`` from its roots.  A point with a custom law
    or an invalid Q, a point whose row has no bracket and every point of a
    block whose scan raises take the full single-point scan; if the lane
    polish raises, every point of its run does.  Each result, and the error
    of the first point that fails, are therefore those of the loop above.
    """
    solutions: list[EnvelopeSolution] = []
    run: list = []
    run_key = None
    for spec, q in zip(specs, qs, strict=True):
        key = _block_key(spec, q)
        if run and (key != run_key or len(run) == _RUN_POINTS):
            solutions += _solve_run(run)
            run = []
        if key is None:
            solutions.append(solve_nbody(spec, q))
        else:
            run.append((spec, q))
            run_key = key
    if run:
        solutions += _solve_run(run)
    return solutions


# ---------------------------------------------------------------------------
# Two-body path
# ---------------------------------------------------------------------------


def two_body_energy(kinetic: KineticLaw, potential: PotentialLaw, r0, p0):
    return kinetic.value(p0) + potential.value(r0)


def two_body_residual(kinetic: KineticLaw, potential: PotentialLaw, q: float, r0):
    qv = checked(q, "quantum number", positive=True)
    p0 = qv / r0
    return p0 * kinetic.derivative(p0) - r0 * potential.derivative(r0)


def solve_two_body(
    kinetic: KineticLaw,
    potential: PotentialLaw,
    aux_exponent: float | None,
    q: float,
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
    )


# ---------------------------------------------------------------------------
# Root machinery
# ---------------------------------------------------------------------------


def _solve(residual, energy, verdict, qv: float, roots=None) -> EnvelopeSolution:
    """The level at Q: every root of ``residual`` by ``energy``, and one ``verdict`` around the lowest.

    Each bracket's root is polished from the bracket's own samples: ``brentq``
    starts from the scan's values at the ends and hands back F at the root it
    returns, so no point is evaluated twice; a zero-width bracket is a
    sampled zero, which ``brentq`` returns with its sample.  ``roots``, the
    (r0, F) pairs a lane polish already found, replace the scan and polish.
    The scan, the polish and the energies run with numpy's warnings off, as
    a lane polish does: a value past the float range reaches the level as
    inf or NaN, which ``brentq`` or ``StationaryRoot`` reports as the one
    error, with no warning before it.
    """
    stationary = []
    with np.errstate(all="ignore"):
        if roots is None:
            roots = (
                brentq(residual, lo, hi, xtol=_XTOL, rtol=_RTOL, maxiter=_MAXITER, fa=f_lo, fb=f_hi)
                for lo, hi, f_lo, f_hi in _scan_passes(residual, qv)
            )
        for r0, value in roots:
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


def _scan_passes(residual, guess: float) -> list[tuple[float, float, float, float]]:
    """The brackets of the first of the ever wider ``_PASS_DECADES`` scans around ``guess`` that finds any."""
    for decades in _PASS_DECADES:
        values, brackets = scan(residual, guess, decades, _PER_DECADE)
        if brackets:
            return brackets
        if np.isnan(values).all():
            raise ScanExhausted(
                "stationarity residual could not be evaluated anywhere on the scan grid"
            )
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
    """What a point shares with its run, or None for a point solved alone.

    That is its law families alone: a run may mix every parameter,
    power-law exponents included (see ``_block_residual_of``).
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


def _shared(values: list) -> bool:
    """True when every point holds the same value, with 0.0 and -0.0 told apart."""
    first = values[0]
    if values.count(first) != len(values):
        return False
    return first != 0 or len({math.copysign(1.0, value) for value in values}) == 1


def _column(values):
    """``values`` as a (points, 1) column, or their one value when every point shares it."""
    return values[0] if _shared(values) else np.array(values, dtype=float)[:, None]


def _block_residual_of(specs: tuple[SystemSpec, ...]):
    """F(q, r0) for every point of ``specs`` in one evaluation: one row per point.

    Each law's formula in ``FAMILIES`` is bound to a namespace of its
    parameters as ``_column``s, so it broadcasts over the points unchanged.
    A number every point shares stays the points' own scalar, and is
    evaluated once for all of them: when the points share Q, ``r0`` may be
    one (1, S) grid row, so p0, the kinetic term and every unswept law take
    one row and only the terms whose parameters differ spread to one row per
    point.
    ``np.power`` takes a fast path for some scalar exponents (2, 0.5, -1,
    ...) that a column of exponents does not, so a power law whose exponent
    differs between rows is evaluated row by row, one ``np.power`` call per
    row with that point's own exponent.
    """

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
        elif law.family is PotentialFamily.POWER_LAW and not _shared([each.exponent for each in laws]):
            terms.append(row_by_row(laws))
        else:
            record = FAMILIES[law.family]
            params = {param.name: _column([getattr(each, param.name) for each in laws]) for param in record.params}
            terms.append(partial(record.derivative, SimpleNamespace(**params)))
    return _residual_of(
        _column([spec.n for spec in specs]), _column([float(spec.pair_count) for spec in specs]), *terms
    )


def _solve_run(run: list) -> list[EnvelopeSolution]:
    """Every point of ``run`` solved by ``solve_nbody`` from the roots of one lane polish.

    The run is scanned in blocks of at most ``_BLOCK_POINTS`` points.
    If the lane polish raises, every point of the run is solved alone, so
    the first point that fails raises its own error.
    """
    rows = []
    for start in range(0, len(run), _BLOCK_POINTS):
        rows += _scan_block(run[start : start + _BLOCK_POINTS])
    try:
        polished = _polish_rows(run, rows)
    except Exception:  # noqa: BLE001 - each point's own solve raises what it raises
        return [solve_nbody(spec, q) for spec, q in run]
    return [solve_nbody(spec, q, _roots=roots or None) for (spec, q), roots in zip(run, polished)]


def _polish_rows(run: list, rows: list[list]) -> list[list[tuple[float, float]]]:
    """Each point's (r0, F) roots from its row of brackets: every bracket of the run is a lane of one ``brentq``.

    Each lane computes the floats of its point's own polish, with numpy's
    warnings off as in ``_solve``.
    """
    lanes = [k for k, row in enumerate(rows) for _ in row]
    roots: list[list] = [[] for _ in run]
    if not lanes:
        return roots
    lo, hi, f_lo, f_hi = (np.array(column)[:, None] for column in zip(*itertools.chain.from_iterable(rows)))
    specs = tuple(run[k][0] for k in lanes)
    residual = partial(stationary_residual, specs, _column([float(run[k][1]) for k in lanes]))
    with np.errstate(all="ignore"):
        r0, values = brentq(residual, lo, hi, xtol=_XTOL, rtol=_RTOL, maxiter=_MAXITER, fa=f_lo, fb=f_hi)
    for k, root in zip(lanes, zip(r0[:, 0].tolist(), values[:, 0].tolist())):
        roots[k].append(root)
    return roots


def _scan_block(block: list) -> list[list]:
    """The brackets of each point of ``block`` on its first grid, from one 2-D ``scan``; none where the scan raises."""
    specs = tuple(spec for spec, _ in block)
    qs = np.array([float(q) for _, q in block])
    if (qs == qs[0]).all():
        qs = qs[:1]
    residual = partial(stationary_residual, specs, _column(qs.tolist()))
    try:
        _, brackets = scan(residual, qs[:, None], _PASS_DECADES[0], _PER_DECADE)
    except (ArithmeticError, ValueError, EnvelopeError):
        # the single-point scans raise it again, from the point it belongs to
        brackets = [[]] * len(block)
    return brackets
