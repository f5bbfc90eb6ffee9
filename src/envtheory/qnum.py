"""Global oscillator quantum numbers.

The auxiliary many-body oscillator organizes its spectrum through a single
number ``Q = sum_i (2 n_i + l_i) + (N - 1) D / 2`` built from the N-1
internal excitation pairs.  This module provides that count, the bosonic
ground-state value, the large-N asymptotic for spin-degenerate fermions, and
the two-body towers that make the envelope exact for specific auxiliary
power-law exponents.

The linear auxiliary tower needs zeros of the Airy function Ai.  They come
from mpmath (``airyaizero``), which is imported on the first Airy call only,
and each zero is cached once computed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

from .errors import UnsupportedAuxiliary
from .model import StateSpec, checked, require_counts

# mpmath's working precision is process-global, so its calls are serialized.
_airy_lock = threading.Lock()
_airy_zeros: dict[int, float] = {}


class QProvenance(Enum):
    OSCILLATOR_TOWER = "oscillator-tower"
    BOSON_GROUND_STATE = "boson-ground-state"
    FERMION_ASYMPTOTIC = "fermion-asymptotic"
    COULOMB_EXACT = "coulomb-exact"
    HARMONIC_EXACT = "harmonic-exact"
    AIRY_LINEAR = "airy-linear"
    USER_DEFINED = "user-defined"


@dataclass(frozen=True)
class QValue:
    """A positive global quantum number plus how it was obtained."""

    value: float
    provenance: QProvenance = QProvenance.USER_DEFINED

    def __post_init__(self) -> None:
        checked(self.value, "quantum number", positive=True)

    def __float__(self) -> float:
        return float(self.value)


def q_from_quanta(state: StateSpec, d: int) -> QValue:
    """Q for an explicit excitation listing in d spatial dimensions."""
    require_counts(d=d)
    total = sum(2 * n_i + l_i for n_i, l_i in state.quanta)
    value = total + len(state.quanta) * d / 2.0
    return QValue(value, QProvenance.OSCILLATOR_TOWER)


def q_boson_ground(n: int, d: int) -> QValue:
    """Ground-state Q for n identical bosons: all internal quanta at zero."""
    require_counts(n=n, d=d)
    return QValue((n - 1) * d / 2.0, QProvenance.BOSON_GROUND_STATE)


def q_fermion_asymptotic(n: int, d: int, degeneracy: int = 1) -> QValue:
    """Large-n ground-state Q for identical fermions with internal degeneracy.

    Filling the lowest oscillator shells under the Pauli principle gives
    Q ~ (d/(d+1)) (d! n^(d+1) / degeneracy)^(1/d) once n is large; this is
    the leading term only and is not a shell-exact count at small n.
    """
    require_counts(n=n, d=d, degeneracy=degeneracy)
    value = d / (d + 1.0) * (math.factorial(d) * float(n) ** (d + 1) / degeneracy) ** (1.0 / d)
    return QValue(value, QProvenance.FERMION_ASYMPTOTIC)


def q_two_body_auxiliary(aux_exponent: float, n: int, l: int, d: int) -> QValue:
    """Exact two-body tower for the auxiliary exponents that admit one.

    Exponent -1 (Coulomb-like auxiliary) gives n + l + (d-1)/2; exponent 2
    (oscillator auxiliary) gives 2n + l + d/2; exponent 1 (linear auxiliary,
    d = 3, l = 0 only) maps the k-th Airy zero alpha_n onto
    Q = 2 (-alpha_n / 3)^(3/2).
    """
    checked(n, "quantum number n", integer=True)
    checked(l, "quantum number l", integer=True)
    if n < 0 or l < 0:
        raise ValueError(f"quantum numbers must be non-negative, got n={n}, l={l}")
    require_counts(d=d)
    lam = float(aux_exponent)
    if lam == -1.0:
        return QValue(n + l + (d - 1) / 2.0, QProvenance.COULOMB_EXACT)
    if lam == 2.0:
        return QValue(2 * n + l + d / 2.0, QProvenance.HARMONIC_EXACT)
    if lam == 1.0:
        if d != 3 or l != 0:
            raise UnsupportedAuxiliary(
                "the linear auxiliary tower is exact only for d=3, l=0"
            )
        alpha = airy_zero(n)
        return QValue(2.0 * (-alpha / 3.0) ** 1.5, QProvenance.AIRY_LINEAR)
    raise UnsupportedAuxiliary(
        f"no closed-form tower for auxiliary exponent {aux_exponent}"
    )


# ---------------------------------------------------------------------------
# Airy machinery
# ---------------------------------------------------------------------------


def airy_ai(x: float) -> float:
    """Ai(x), evaluated by mpmath."""
    import mpmath

    with _airy_lock:
        return float(mpmath.airyai(x))


def airy_zero(index: int) -> float:
    """The index-th negative zero of Ai (0-based), from mpmath, cached."""
    checked(index, "zero index", integer=True)
    if index < 0:
        raise ValueError(f"zero index must be >= 0, got {index}")
    with _airy_lock:
        if index not in _airy_zeros:
            import mpmath

            _airy_zeros[index] = float(mpmath.airyaizero(index + 1))
        return _airy_zeros[index]
