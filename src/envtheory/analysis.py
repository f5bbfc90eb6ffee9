"""Bound classification, first-order corrections, and critical couplings.

The envelope level inherits a one-sided relation to the true level from the
curvature of the composition charts: when every term's chart is concave the
level is an upper bound, when every chart is convex it is a lower bound, and
an all-linear system is reproduced exactly.  Linear charts never constrain
the direction; mixed curvatures leave the direction unknown.

A built-in law carries its curvature class as a closed-form tag.  The one
chart evaluated here is a custom profile's, b(s) = law(s**(1/lam)), whose
curvature is sampled by Richardson-refined central differences.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import (
    EvaluationDomainError,
    NoCriticalPoint,
    NonFiniteResult,
    NotShortRange,
    PerturbationSizeWarning,
)
from .model import (
    BoundKind,
    Convexity,
    ConvexityVerdict,
    EnvelopeSolution,
    KineticLaw,
    PotentialLaw,
    SystemSpec,
    chart_exponent,
    checked,
    require_counts,
    require_finite,
)
from .qnum import QValue
from .roots import brentq, scan

_SAMPLES = 33
_FD_REL_STEP = 1e-4  # relative step of the curvature's finite differences
_SIGN_REL_TOL = 1e-5
_EPS = float(np.finfo(float).eps)
_S_MIN = float(np.sqrt(np.finfo(float).tiny))
_S_MAX = float(np.sqrt(np.finfo(float).max))


def _check_interval(domain: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"domain must satisfy 0 < lo < hi, got ({lo}, {hi})")
    return lo, hi


def _chart(law: KineticLaw | PotentialLaw, aux_exponent: float | None) -> tuple[float, Callable]:
    """The chart exponent lam (2 for a kinetic law) and the chart b(s) = law(s**(1/lam))."""
    lam = chart_exponent(aux_exponent)
    if isinstance(law, KineticLaw) and lam != 2.0:
        raise EvaluationDomainError("kinetic charts use the x**2 substitution only")
    return lam, lambda s: law.value(np.power(s, 1.0 / lam))


def _richardson_second(b: Callable, s):
    """Second derivative of ``b`` at ``s`` by Richardson-refined differences."""
    h = _FD_REL_STEP * np.asarray(s, dtype=float)
    twice_center = 2.0 * b(s)  # both steps share it

    def d2(step):
        return (b(s + step) - twice_center + b(s - step)) / (step * step)

    return (4.0 * d2(0.5 * h) - d2(h)) / 3.0


def term_convexity(
    law: KineticLaw | PotentialLaw,
    domain: tuple[float, float],
    aux_exponent: float | None = None,
) -> Convexity:
    """Curvature classification of one term's chart.

    A built-in family's verdict is its closed-form tag, which holds on all of
    (0, inf) whatever ``domain`` is.  Only a custom profile gets its chart
    curvature sampled, on a log-spaced image of ``domain`` under the
    substitution, with a relative sign tolerance so that numerically flat
    terms count as linear.
    """
    tag = law.convexity_tag() if isinstance(law, KineticLaw) else law.convexity_tag(aux_exponent)
    if tag is not None:
        return tag
    lo, hi = _check_interval(domain)
    xs = np.logspace(np.log10(lo), np.log10(hi), _SAMPLES)
    lam, chart = _chart(law, aux_exponent)
    with np.errstate(all="ignore"):
        ss = np.power(xs, lam)  # image of the radial interval under the substitution
        # only samples whose s, s**2 and local scale |b|/s**2 are normal floats
        ss = ss[(ss > _S_MIN) & (ss < _S_MAX)]
        curv = np.asarray(_richardson_second(chart, ss), dtype=float) if ss.size else ss
    keep = np.isfinite(curv)
    curv, ss = curv[keep], ss[keep]
    if curv.size == 0:
        return Convexity.MIXED
    with np.errstate(all="ignore"):
        vals = np.asarray(chart(ss), dtype=float)
    # Compare each curvature sample against the chart's local magnitude
    # |b(s)| / s**2: finite-difference roundoff sits orders of magnitude
    # below that scale, while genuine curvature is of the same order, so
    # a numerically flat chart still reads as linear.
    local = np.abs(vals) / (ss * ss)
    local[~np.isfinite(local)] = 0.0
    cutoff = _SIGN_REL_TOL * np.maximum(local, float(np.max(np.abs(curv))) * _EPS)
    has_pos = bool(np.any(curv > cutoff))
    has_neg = bool(np.any(curv < -cutoff))
    if has_pos and has_neg:
        return Convexity.MIXED
    if has_pos:
        return Convexity.CONVEX
    if has_neg:
        return Convexity.CONCAVE
    return Convexity.LINEAR


def classify_bound(
    spec: SystemSpec,
    domain: tuple[float, float],
    momentum_domain: tuple[float, float] | None = None,
) -> ConvexityVerdict:
    """Many-body bound direction from per-term chart curvatures.

    ``domain`` is the radial sampling interval; the kinetic chart is sampled
    over ``momentum_domain`` (defaults to the same numbers).
    """
    potentials = {"onebody": spec.onebody, "twobody": spec.twobody}
    return _verdict(spec.kinetic, potentials, None, domain, momentum_domain)


def classify_two_body(
    kinetic: KineticLaw,
    potential: PotentialLaw,
    aux_exponent: float,
    domain: tuple[float, float],
    momentum_domain: tuple[float, float] | None = None,
) -> ConvexityVerdict:
    """Two-body bound direction; the potential chart uses the auxiliary substitution."""
    return _verdict(kinetic, {"potential": potential}, aux_exponent, domain, momentum_domain)


def _verdict(kinetic, potentials, aux_exponent, domain, momentum_domain) -> ConvexityVerdict:
    """Bound direction from the kinetic chart and the chart of each law in ``potentials`` not None."""
    terms = {"kinetic": term_convexity(kinetic, momentum_domain or domain)}
    for key, law in potentials.items():
        if law is not None:
            terms[key] = term_convexity(law, domain, aux_exponent)
    return ConvexityVerdict.from_terms(terms)


# ---------------------------------------------------------------------------
# First-order perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationSpec:
    """Small additive deformations: coefficient/shape pairs per term."""

    kinetic: tuple[float, KineticLaw | PotentialLaw] | None = None
    onebody: tuple[float, PotentialLaw] | None = None
    twobody: tuple[float, PotentialLaw] | None = None

    def __post_init__(self) -> None:
        if self.kinetic is None and self.onebody is None and self.twobody is None:
            raise ValueError("a perturbation needs at least one coefficient/shape pair")
        for slot, name, shapes in (
            ("kinetic", "tau", (KineticLaw, PotentialLaw)),
            ("onebody", "eta", (PotentialLaw,)),
            ("twobody", "epsilon", (PotentialLaw,)),
        ):
            pair = getattr(self, slot)
            if pair is None:
                continue
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise TypeError(f"{slot} must be a (coefficient, shape) pair or None, got {pair!r}")
            checked(pair[0], name)
            if not isinstance(pair[1], shapes):
                kinds = " or ".join(kind.__name__ for kind in shapes)
                raise TypeError(f"{slot} shape must be a {kinds}, got {pair[1]!r}")


def perturbed_energy(
    base: EnvelopeSolution, spec: SystemSpec, pert: PerturbationSpec
) -> float:
    """First-order corrected level: shapes evaluated at the unperturbed scales.

    The correction is N tau t(p0) + N eta u(r0/N) + C_N eps v(r0/sqrt(C_N)).
    A warning is emitted when its size exceeds a tenth of |E|, where first
    order stops being trustworthy.
    """
    n = spec.n
    c = float(spec.pair_count)
    correction = 0.0
    if pert.kinetic is not None:
        tau, shape = pert.kinetic
        correction += n * tau * float(shape.value(base.p0))
    if pert.onebody is not None:
        eta, shape = pert.onebody
        correction += n * eta * float(shape.value(base.r0 / n))
    if pert.twobody is not None:
        eps, shape = pert.twobody
        correction += c * eps * float(shape.value(base.r0 / np.sqrt(c)))
    if abs(correction) > 0.1 * abs(base.energy):
        warnings.warn(
            f"first-order correction {correction:.6g} exceeds 10% of the level "
            f"{base.energy:.6g}; the result is indicative only",
            PerturbationSizeWarning,
            stacklevel=2,
        )
    return base.energy + correction


# ---------------------------------------------------------------------------
# Critical couplings of short-range wells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalCoupling:
    """Coupling at which the first level crosses zero, with its stationary scale."""

    mode: Literal["onebody", "twobody"]
    y0: float
    value: float
    bound: BoundKind

    def __post_init__(self) -> None:
        require_finite(self, "y0", "value")


def critical_coupling(
    mode: Literal["onebody", "twobody"],
    shape: PotentialLaw,
    n: int,
    q: QValue | float,
    mass: float,
) -> CriticalCoupling:
    """Minimal well depth binding N nonrelativistic particles.

    Writing the well as W(x) = -kappa w(x), with kappa the coupling (1 for a
    custom profile) and w positive and vanishing at infinity, the envelope
    level reaches zero exactly when the profile scale y0 solves
    2 w(y) + y w'(y) = 0; y0 depends on the shape only.  The threshold depth
    is then

        twobody:  g_c = (2 / (N (N-1)^2)) (Q^2 / m) / (y0^2 w(y0)),
        onebody:  k_c = (1 / (2 N^2))     (Q^2 / m) / (y0^2 w(y0)).

    The flag carried by the result states on which side of the true critical
    coupling this estimate falls, inherited from the bound direction of the
    envelope level itself.  Where the prefactor is not a normal float or
    Q**2 is not finite, as at a huge N, the same quotient is formed with no
    power of N or Q.  A coupling beyond the float range (say, from an
    enormous Q) raises ``NonFiniteResult``.
    """
    if mode not in ("onebody", "twobody"):
        raise ValueError(f"mode must be 'onebody' or 'twobody', got {mode!r}")
    if not shape.short_range:
        raise NotShortRange(f"{shape.family.value} potential is not short range")
    require_counts(n=n)
    checked(mass, "mass", positive=True)
    qv = checked(q, "quantum number", positive=True)

    kappa = shape.coupling if shape.profile is None else 1.0
    y0 = _profile_stationary_scale(shape, kappa)
    w0 = float(-shape.value(y0) / kappa)
    try:
        prefactor = 2.0 / (n * (n - 1.0) ** 2) if mode == "twobody" else 1.0 / (2.0 * n * n)
    except OverflowError:  # (n - 1) ** 2 past the float range
        prefactor = 0.0
    if prefactor >= sys.float_info.min and math.isfinite(qv * qv):
        value = prefactor * (qv * qv / mass) / (y0 * y0 * w0)
    elif mode == "twobody":
        value = _quotient((2.0, qv, qv), (n, n - 1, n - 1, mass, y0, y0, w0))
    else:
        value = _quotient((qv, qv), (2.0, n, n, mass, y0, y0, w0))
    if not np.isfinite(value):
        raise NonFiniteResult(f"the critical coupling at Q = {qv} and mass {mass} is not finite, got {value}")

    # The envelope level for a nonrelativistic particle in this well carries
    # the well's own chart curvature (the kinetic chart is linear).
    tag = term_convexity(shape, (y0 / 10.0, 10.0 * y0))
    verdict = ConvexityVerdict.from_terms({"kinetic": Convexity.LINEAR, "well": tag})
    return CriticalCoupling(mode=mode, y0=y0, value=value, bound=verdict.classification)


def _quotient(numerators, denominators) -> float:
    """The product of ``numerators`` over the product of ``denominators``, none of them 0.

    Mantissas and binary exponents are multiplied apart, so no partial
    product leaves the float range; a quotient past it is inf.
    """
    mantissa, exponent = 1.0, 0
    for factor in numerators:
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa * m, exponent + e
    for factor in denominators:
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _profile_stationary_scale(shape: PotentialLaw, kappa: float) -> float:
    """Root of 2 w(y) + y w'(y) = 0, w = -W / kappa, on a log grid around the screening length."""

    def residual(y):
        return 2.0 * (-shape.value(y) / kappa) + y * (-shape.derivative(y) / kappa)

    center = shape.screening if shape.screening > 0.0 else 1.0
    values, brackets = scan(residual, center, 16.0, 64)
    if not brackets:
        if not np.any(np.isfinite(values)):
            raise NonFiniteResult(
                f"the well profile is not finite anywhere on the stationary-scale scan "
                f"around the screening length {center}"
            )
        raise NoCriticalPoint(
            "the well profile admits no stationary scale: 2 w(y) + y w'(y) never crosses zero"
        )
    lo, hi, f_lo, f_hi = brackets[0]
    return brentq(residual, lo, hi, xtol=1e-300, fa=f_lo, fb=f_hi)[0]
