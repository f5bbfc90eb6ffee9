"""Declarative Hamiltonian building blocks.

Kinetic and potential terms are small immutable records that know how to
evaluate themselves, their first derivative, and the curvature class of their
composition chart ``b`` — the function with ``T(x) = b(x**2)`` and
``W(x) = b(x**2)`` (many-body rule) or ``W(x) = b(sgn(lam) * x**lam)``
(two-body auxiliary rule).  The sign of ``b''`` on all of (0, inf) decides
whether an envelope energy is an upper or a lower bound.  Since

    b''(s) = x / (lam**2 s**2) * [x V''(x) - (lam - 1) V'(x)],   s = x**lam,

that sign is algebra about the family: every built-in family states it in
closed form for every chart exponent, as its convexity tag.  A law never
evaluates its chart; only a custom profile has no tag, and ``analysis``
samples its chart curvature.

Each family is one ``LawFamily`` record in ``FAMILIES``: its parameters with
their ranges and config defaults, its value and derivative, and its curvature
rule.  The laws and the CLI read every per-family fact from that table, and a
law checks its parameters against it however it is built: by ``of``, a named
constructor, directly or by ``dataclasses.replace``.

All evaluation methods accept floats or numpy arrays of strictly positive
arguments and are pure functions of the law's parameters.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import (
    EmptyState,
    EvaluationDomainError,
    InvalidAuxiliaryExponent,
    NonFiniteResult,
    NonPositiveArgument,
)

_DERIV_REL_STEP = 6.0e-6  # ~cbrt(eps), central first differences for custom laws


class Convexity(Enum):
    CONCAVE = "concave"
    CONVEX = "convex"
    LINEAR = "linear"
    MIXED = "mixed"


class BoundKind(Enum):
    UPPER = "UpperBound"
    LOWER = "LowerBound"
    EXACT = "Exact"
    UNKNOWN = "Unknown"


class KineticFamily(Enum):
    # Enum hashes a member by its name in Python code; an identity hash agrees
    # with Enum's identity equality and keeps ``FAMILIES[law.family]`` in C.
    __hash__ = object.__hash__

    NONRELATIVISTIC = "nonrelativistic"
    SEMIRELATIVISTIC = "semirelativistic"
    ULTRARELATIVISTIC = "ultrarelativistic"
    MINIMAL_LENGTH_QUARTIC = "minimal-length"
    EXPONENTIAL_QUADRATIC = "exponential-quadratic"
    CUSTOM = "custom"


class PotentialFamily(Enum):
    __hash__ = object.__hash__  # see KineticFamily

    POWER_LAW = "powerlaw"
    COULOMB = "coulomb"
    SQUARE_ROOT = "squareroot"
    LOGARITHMIC = "logarithmic"
    YUKAWA = "yukawa"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CustomProfile:
    """User-supplied radial (or momentum) profile.

    ``value`` must accept positive floats and numpy arrays.  When
    ``derivative`` is omitted it is replaced by a central finite difference
    of ``value``.  A root polish starts from the array samples of the
    solver's scan, so a profile should give a float the same number it gives
    that float inside an array: numpy ufuncs such as ``np.power`` do, while
    Python's ``**`` on a float can differ from them in the last bit.  A root
    of such a profile still converges, but can land a few solver tolerances
    away from one polished from scalar end values.
    """

    value: Callable[..., object]
    derivative: Callable[..., object] | None = None

    def __post_init__(self) -> None:
        if not callable(self.value):
            raise TypeError(f"value must be callable, got {self.value!r}")
        if self.derivative is not None and not callable(self.derivative):
            raise TypeError(f"derivative must be callable or None, got {self.derivative!r}")


def checked(value, what: str, positive: bool = False) -> float:
    """``value`` as a finite float, positive when ``positive`` is set.

    The one number check behind the law constructors, ``SystemSpec``,
    ``SolverConfig``, ``QValue``, the solver's Q, the oracles and the closed
    forms: NaN, ±inf and a value that is not > 0 where ``positive`` asks for
    one raise ValueError naming ``what``.  An integer past the float range
    counts as ±inf.
    """
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if positive and not number > 0.0:
        raise ValueError(f"{what} must be positive, got {number}")
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number}")
    return number


def require_finite(result, *names: str) -> None:
    """Raise NonFiniteResult unless each float field ``names`` of ``result`` is finite."""
    for name in names:
        value = getattr(result, name)
        if not math.isfinite(value):
            raise NonFiniteResult(f"{type(result).__name__}.{name} is not finite, got {value}")


def require_count(value, what: str, least: int | None = None):
    """``value`` unchanged when it is a Python or numpy integer of at least ``least``.

    The one count rule, behind every integer input: anything else raises
    ValueError reading ``{what} must be an integer, got {value}`` or
    ``{what} must be >= {least}, got {value}``.  Without ``least`` only the
    type is checked.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def require_counts(n: int | None = None, d: int | None = None, degeneracy: int | None = None) -> None:
    """``require_count`` on each given system count: n >= 2, d >= 2 and degeneracy >= 1.

    Every count is type-checked before any range.  n must also keep its
    pair count n (n - 1) / 2 within the float range, where the solvers use it.
    """
    rules = ((n, "n", 2), (d, "d", 2), (degeneracy, "degeneracy", 1))
    counts = [rule for rule in rules if rule[0] is not None]
    for count, name, _ in counts:
        require_count(count, name)
    for count, name, least in counts:
        require_count(count, name, least)
    if n is not None and int(n) * (int(n) - 1) // 2 > sys.float_info.max:
        raise ValueError(f"n must keep the pair count n (n - 1) / 2 within the float range, got {n}")


def _require_positive(x, what: str = "argument") -> None:
    if isinstance(x, float):  # a scalar (np.float64 too) skips building an array
        ok = x > 0.0
    else:
        arr = np.asarray(x, dtype=float)
        ok = arr.size > 0 and np.all(arr > 0.0)
    if not ok:
        raise NonPositiveArgument(f"{what} must be strictly positive, got {x!r}")


def _central_difference(f: Callable, x):
    h = _DERIV_REL_STEP * np.asarray(x, dtype=float)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def auxiliary_exponent(value) -> float:
    """``value`` as an auxiliary exponent lam: the one check that lam is finite, nonzero and > -2."""
    lam = float(value)
    if lam > -2.0 and lam != 0.0 and math.isfinite(lam):
        return lam
    rule = "nonzero and > -2" if math.isfinite(lam) else "finite"
    raise InvalidAuxiliaryExponent(f"auxiliary exponent must be {rule}, got {value}")


def chart_exponent(aux_exponent: float | None) -> float:
    """Substitution exponent of the composition chart (2 for the x->x**2 rule)."""
    return 2.0 if aux_exponent is None else auxiliary_exponent(aux_exponent)


# ---------------------------------------------------------------------------
# Law families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One law parameter: its name (also the law's field), its range and its config default."""

    name: str
    rule: str  # ">" or ">=" against ``bound``; "!=" asks for a nonzero value
    bound: float = 0.0
    default: float | None = None  # None makes the config key required

    def lack(self, value) -> str | None:
        """What an out-of-range ``value`` lacks, worded to follow "<family> needs"."""
        if self.rule == "!=":
            return f"a nonzero {self.name}" if value == self.bound else None
        if value > self.bound if self.rule == ">" else value >= self.bound:
            return None
        return f"{self.name} {self.rule} {self.bound:g}, got {value}"


@dataclass(frozen=True)
class LawFamily:
    """Everything that defines one kinetic or potential family.

    ``value`` and ``derivative`` take (law, x).  ``tag`` takes (law, lam) and
    gives the sign of the chart curvature on all of s > 0 under the chart
    exponent lam: the sign of x V'' - (lam - 1) V' for a potential, and the
    x**2 chart's sign for a kinetic law.  ``MIXED`` means that sign flips
    somewhere on (0, inf).  The tag is the family's only statement about its
    chart; no record evaluates the chart itself.  Only a custom family gives
    None, so ``analysis.term_convexity`` samples its chart from ``value``.
    """

    label: str  # how constructor errors name the family
    params: tuple[Param, ...]
    value: Callable
    derivative: Callable
    tag: Callable = lambda law, lam: None
    short_range: bool = False

    def named(self, args) -> dict:
        """The parameters ``args``, given in table order, by name."""
        if len(args) != len(self.params):
            raise TypeError(f"{self.label} takes {len(self.params)} parameters, got {len(args)}")
        return {param.name: value for param, value in zip(self.params, args)}

    def check(self, law) -> None:
        """Check each parameter field of ``law`` in table order, and store it as a float."""
        for param in self.params:
            value = getattr(law, param.name)
            try:
                number = checked(value, param.name)
            except ValueError as exc:
                raise ValueError(f"{self.label} {exc}") from None
            lack = param.lack(value)
            if lack is not None:
                raise ValueError(f"{self.label} needs {lack}")
            if number is not value:
                object.__setattr__(law, param.name, number)


def _tagged(convexity: Convexity) -> Callable:
    return lambda law, lam: convexity


def _sign(*factors: float) -> Convexity:
    """The class of a chart whose b'' has, everywhere, the sign of the product of ``factors``.

    The signs are counted rather than the factors multiplied, so no product can underflow to 0.
    """
    negatives = 0
    for factor in factors:
        if factor == 0.0:
            return Convexity.LINEAR
        negatives += factor < 0.0
    return Convexity.CONCAVE if negatives % 2 else Convexity.CONVEX


def _square_root_tag(law, lam: float) -> Convexity:
    """x V'' - (lam-1) V' has the sign of scale * [offset (2-lam) - (lam-1) x**2]."""
    if law.offset == 0.0:
        return _sign(law.scale, 1.0 - lam)
    if 1.0 < lam < 2.0:
        return Convexity.MIXED
    return _sign(law.scale, 1.0 if lam <= 1.0 else -1.0)


def _custom_family(kind: str) -> LawFamily:
    """A user profile: no parameters, no closed forms and no a-priori tag."""

    def call(fn: Callable, x):
        try:
            return fn(x)
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationDomainError(f"custom {kind} profile failed at {x!r}") from exc

    def value(law, x):
        if law.profile is None:
            raise EvaluationDomainError(f"custom {kind} law carries no profile")
        return call(law.profile.value, x)

    def derivative(law, x):
        if law.profile is not None and law.profile.derivative is not None:
            return call(law.profile.derivative, x)
        return _central_difference(law.value, x)

    return LawFamily(f"custom {kind} law", (), value, derivative)


def _short_range_family(
    label: str, value: Callable, derivative: Callable, concave_from: float
) -> LawFamily:
    """A well -coupling * w(x / screening) with a positive profile w vanishing at infinity.

    Its chart is concave for every lam >= ``concave_from``; below that,
    x V'' - (lam-1) V' changes sign at a finite x, so the chart is mixed.
    """
    params = (Param("coupling", ">"), Param("screening", ">", default=1.0))

    def tag(law, lam):
        return Convexity.CONCAVE if lam >= concave_from else Convexity.MIXED

    return LawFamily(label, params, value, derivative, tag=tag, short_range=True)


def _minimal_length_value(law, p):
    p2 = p * p
    return p2 / (2.0 * law.mass) + law.deformation * p2 * p2 / law.mass


def _yukawa_derivative(law, x):
    r = law.screening
    return law.coupling * np.exp(-x / r) * (1.0 / (x * x) + 1.0 / (r * x))


def _gaussian_value(law, x):
    u = x / law.screening
    return -law.coupling * np.exp(-u * u)


def _gaussian_derivative(law, x):
    r2 = law.screening * law.screening
    u = x / law.screening
    return 2.0 * law.coupling * x / r2 * np.exp(-u * u)


# One record per family member: ``KineticLaw``, ``PotentialLaw`` and the CLI
# take every per-family fact from here.
FAMILIES: dict[KineticFamily | PotentialFamily, LawFamily] = {
    KineticFamily.NONRELATIVISTIC: LawFamily(
        "nonrelativistic kinetic law",
        (Param("mass", ">"),),
        value=lambda law, p: p * p / (2.0 * law.mass),
        derivative=lambda law, p: p / law.mass,
        tag=_tagged(Convexity.LINEAR),
    ),
    KineticFamily.SEMIRELATIVISTIC: LawFamily(
        "semirelativistic kinetic law",
        (Param("mass", ">="),),
        value=lambda law, p: np.sqrt(p * p + law.mass * law.mass),
        derivative=lambda law, p: p / np.sqrt(p * p + law.mass * law.mass),
        tag=_tagged(Convexity.CONCAVE),
    ),
    KineticFamily.ULTRARELATIVISTIC: LawFamily(
        "ultrarelativistic kinetic law",
        (),
        value=lambda law, p: p + 0.0,
        derivative=lambda law, p: np.ones_like(np.asarray(p, dtype=float)) if np.ndim(p) else 1.0,
        tag=_tagged(Convexity.CONCAVE),
    ),
    KineticFamily.MINIMAL_LENGTH_QUARTIC: LawFamily(
        "minimal-length kinetic law",
        (Param("mass", ">"), Param("deformation", ">=")),
        value=_minimal_length_value,
        derivative=lambda law, p: p / law.mass + 4.0 * law.deformation * p * p * p / law.mass,
        tag=lambda law, lam: Convexity.CONVEX if law.deformation > 0.0 else Convexity.LINEAR,
    ),
    KineticFamily.EXPONENTIAL_QUADRATIC: LawFamily(
        "exponential-quadratic kinetic law",
        (Param("stiffness", ">"),),
        value=lambda law, p: np.exp(law.stiffness * p * p),
        derivative=lambda law, p: 2.0 * law.stiffness * p * np.exp(law.stiffness * p * p),
        tag=_tagged(Convexity.CONVEX),
    ),
    KineticFamily.CUSTOM: _custom_family("kinetic"),
    PotentialFamily.POWER_LAW: LawFamily(
        "power-law potential",
        (Param("amplitude", "!="), Param("exponent", ">", -2.0)),
        value=lambda law, x: law.amplitude * np.power(x, law.exponent),
        derivative=lambda law, x: law.amplitude * law.exponent * np.power(x, law.exponent - 1.0),
        tag=lambda law, lam: _sign(law.amplitude, law.exponent, law.exponent - lam),
    ),
    PotentialFamily.COULOMB: LawFamily(
        "coulomb potential",
        (Param("strength", ">"),),
        value=lambda law, x: -law.strength / x,
        derivative=lambda law, x: law.strength / (x * x),
        tag=lambda law, lam: _sign(-law.strength, 1.0 + lam),
    ),
    PotentialFamily.SQUARE_ROOT: LawFamily(
        "square-root potential",
        (Param("offset", ">=", default=0.0), Param("scale", "!=", default=1.0)),
        value=lambda law, x: law.scale * np.sqrt(x * x + law.offset),
        derivative=lambda law, x: law.scale * x / np.sqrt(x * x + law.offset),
        tag=_square_root_tag,
    ),
    PotentialFamily.LOGARITHMIC: LawFamily(
        "logarithmic potential",
        (Param("scale", "!=", default=1.0),),
        value=lambda law, x: law.scale * np.log(x),
        derivative=lambda law, x: law.scale / x,
        tag=lambda law, lam: _sign(-lam, law.scale),
    ),
    PotentialFamily.YUKAWA: _short_range_family(
        "yukawa potential",
        lambda law, x: -law.coupling * np.exp(-x / law.screening) / x,
        _yukawa_derivative,
        concave_from=-1.0,
    ),
    PotentialFamily.EXPONENTIAL: _short_range_family(
        "exponential potential",
        lambda law, x: -law.coupling * np.exp(-x / law.screening),
        lambda law, x: (law.coupling / law.screening) * np.exp(-x / law.screening),
        concave_from=1.0,
    ),
    PotentialFamily.GAUSSIAN: _short_range_family(
        "gaussian potential", _gaussian_value, _gaussian_derivative, concave_from=2.0
    ),
    PotentialFamily.CUSTOM: _custom_family("potential"),
}


def _family_of(law, families: type[Enum]) -> LawFamily:
    """The ``FAMILIES`` record of ``law``, whose family must be a member of ``families``."""
    if not isinstance(law.family, families):
        raise TypeError(f"family must be a {families.__name__}, got {law.family!r}")
    return FAMILIES[law.family]


@dataclass(frozen=True)
class KineticLaw:
    """Single-particle kinetic energy T(p); its family record in ``FAMILIES`` holds the formulas."""

    family: KineticFamily
    mass: float = 0.0
    deformation: float = 0.0  # quartic coefficient of the minimal-length family
    stiffness: float = 0.0  # exponent rate of the exponential-quadratic family
    profile: CustomProfile | None = None

    def __post_init__(self) -> None:
        _family_of(self, KineticFamily).check(self)

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, family: KineticFamily, *params: float) -> "KineticLaw":
        """A law of ``family`` from its parameters in table order."""
        return cls(family, **FAMILIES[family].named(params))

    @classmethod
    def nonrelativistic(cls, mass: float) -> "KineticLaw":
        return cls.of(KineticFamily.NONRELATIVISTIC, mass)

    @classmethod
    def semirelativistic(cls, mass: float) -> "KineticLaw":
        return cls.of(KineticFamily.SEMIRELATIVISTIC, mass)

    @classmethod
    def ultrarelativistic(cls) -> "KineticLaw":
        return cls.of(KineticFamily.ULTRARELATIVISTIC)

    @classmethod
    def minimal_length_quartic(cls, mass: float, deformation: float) -> "KineticLaw":
        return cls.of(KineticFamily.MINIMAL_LENGTH_QUARTIC, mass, deformation)

    @classmethod
    def exponential_quadratic(cls, stiffness: float) -> "KineticLaw":
        return cls.of(KineticFamily.EXPONENTIAL_QUADRATIC, stiffness)

    @classmethod
    def custom(cls, profile: CustomProfile) -> "KineticLaw":
        return cls(KineticFamily.CUSTOM, profile=profile)

    # -- evaluation ----------------------------------------------------------

    def value(self, p):
        return FAMILIES[self.family].value(self, p)

    def derivative(self, p):
        return FAMILIES[self.family].derivative(self, p)

    def derivative_function(self) -> Callable:
        """``derivative`` as a function of p alone, its family formula looked up once."""
        return functools.partial(FAMILIES[self.family].derivative, self)

    def convexity_tag(self) -> Convexity | None:
        """Sign of the x**2 chart's curvature on all of s > 0; None for a custom profile."""
        return FAMILIES[self.family].tag(self, 2.0)


@dataclass(frozen=True)
class PotentialLaw:
    """Radial interaction profile W(x), one- or two-body; formulas live in ``FAMILIES``."""

    family: PotentialFamily
    amplitude: float = 0.0  # power-law prefactor
    exponent: float = 0.0  # power-law exponent
    strength: float = 0.0  # Coulomb attraction strength
    offset: float = 0.0  # square-root well regulator
    scale: float = 1.0  # square-root / logarithmic prefactor
    coupling: float = 0.0  # short-range well depth
    screening: float = 1.0  # short-range length scale
    profile: CustomProfile | None = None
    short_range: bool = False  # a built-in family's comes from ``FAMILIES``; a custom law keeps its own

    def __post_init__(self) -> None:
        record = _family_of(self, PotentialFamily)
        record.check(self)
        if self.family is not PotentialFamily.CUSTOM:
            object.__setattr__(self, "short_range", record.short_range)

    # -- constructors -------------------------------------------------------

    @classmethod
    def of(cls, family: PotentialFamily, *params: float) -> "PotentialLaw":
        """A law of ``family`` from its parameters in table order."""
        return cls(family, **FAMILIES[family].named(params))

    @classmethod
    def power_law(cls, amplitude: float, exponent: float) -> "PotentialLaw":
        return cls.of(PotentialFamily.POWER_LAW, amplitude, exponent)

    @classmethod
    def coulomb(cls, strength: float) -> "PotentialLaw":
        return cls.of(PotentialFamily.COULOMB, strength)

    @classmethod
    def square_root(cls, offset: float = 0.0, scale: float = 1.0) -> "PotentialLaw":
        return cls.of(PotentialFamily.SQUARE_ROOT, offset, scale)

    @classmethod
    def logarithmic(cls, scale: float = 1.0) -> "PotentialLaw":
        return cls.of(PotentialFamily.LOGARITHMIC, scale)

    @classmethod
    def yukawa(cls, coupling: float, screening: float = 1.0) -> "PotentialLaw":
        return cls.of(PotentialFamily.YUKAWA, coupling, screening)

    @classmethod
    def exponential(cls, coupling: float, screening: float = 1.0) -> "PotentialLaw":
        return cls.of(PotentialFamily.EXPONENTIAL, coupling, screening)

    @classmethod
    def gaussian(cls, coupling: float, screening: float = 1.0) -> "PotentialLaw":
        return cls.of(PotentialFamily.GAUSSIAN, coupling, screening)

    @classmethod
    def custom(cls, profile: CustomProfile, short_range: bool = False) -> "PotentialLaw":
        return cls(PotentialFamily.CUSTOM, profile=profile, short_range=short_range)

    # -- evaluation ----------------------------------------------------------

    def value(self, x):
        _require_positive(x, "separation")
        return FAMILIES[self.family].value(self, x)

    def derivative(self, x):
        _require_positive(x, "separation")
        return FAMILIES[self.family].derivative(self, x)

    def derivative_function(self) -> Callable:
        """``derivative`` as a function of x alone, unchecked: the solver checks each separation it forms."""
        return functools.partial(FAMILIES[self.family].derivative, self)

    def convexity_tag(self, aux_exponent: float | None = None) -> Convexity | None:
        """Sign of the chart curvature on all of s > 0; None for a custom profile."""
        return FAMILIES[self.family].tag(self, chart_exponent(aux_exponent))


@dataclass(frozen=True)
class SystemSpec:
    """N identical particles in D dimensions with optional one- and two-body terms."""

    n: int
    d: int
    kinetic: KineticLaw
    onebody: PotentialLaw | None = None
    twobody: PotentialLaw | None = None

    def __post_init__(self) -> None:
        require_counts(n=self.n, d=self.d)
        if not isinstance(self.kinetic, KineticLaw):
            raise TypeError(f"kinetic must be a KineticLaw, got {self.kinetic!r}")
        for slot in ("onebody", "twobody"):
            law = getattr(self, slot)
            if law is not None and not isinstance(law, PotentialLaw):
                raise TypeError(f"{slot} must be a PotentialLaw or None, got {law!r}")
        if self.onebody is None and self.twobody is None:
            raise ValueError("at least one of onebody/twobody must be present")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class StateSpec:
    """Internal excitation quanta: one (n_i, l_i) pair per relative coordinate."""

    quanta: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.quanta) == 0:
            raise EmptyState("a state needs at least one (n, l) pair")
        for n_i, l_i in self.quanta:
            require_count(n_i, "quantum number n", 0)
            require_count(l_i, "quantum number l", 0)

    @classmethod
    def ground(cls, n_particles: int) -> "StateSpec":
        require_count(n_particles, "n_particles", 2)
        return cls(((0, 0),) * (n_particles - 1))

    @property
    def n_particles(self) -> int:
        return len(self.quanta) + 1


@dataclass(frozen=True)
class ConvexityVerdict:
    """Bound classification with the per-term chart curvatures that imply it."""

    classification: BoundKind
    terms: Mapping[str, Convexity] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, terms: Mapping[str, Convexity]) -> "ConvexityVerdict":
        kinds = [c for c in terms.values() if c is not Convexity.LINEAR]
        if not kinds:
            verdict = BoundKind.EXACT
        elif all(c is Convexity.CONCAVE for c in kinds):
            verdict = BoundKind.UPPER
        elif all(c is Convexity.CONVEX for c in kinds):
            verdict = BoundKind.LOWER
        else:
            verdict = BoundKind.UNKNOWN
        return cls(verdict, dict(terms))


@dataclass(frozen=True)
class StationaryRoot:
    """One solution of the stationarity condition with its diagnostics."""

    r0: float
    p0: float
    energy: float
    residual: float

    def __post_init__(self) -> None:
        require_finite(self, "r0", "p0", "energy", "residual")


@dataclass(frozen=True)
class EnvelopeSolution:
    """Envelope approximation at a stationary point of the auxiliary system."""

    energy: float
    r0: float
    p0: float
    q: float
    bound: ConvexityVerdict
    roots: tuple[StationaryRoot, ...] = ()

    def __post_init__(self) -> None:
        require_finite(self, "energy", "r0", "p0", "q")

    @property
    def n_roots(self) -> int:
        return len(self.roots)
