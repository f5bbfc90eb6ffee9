"""Each input rule has one home, and bad input fails at construction with a typed error.

The auxiliary exponent lam is checked by ``model.auxiliary_exponent``, finite
and positive numbers by ``model.checked`` and every integer input, with its
least value, by ``model.require_count``.  NaN, ±inf and non-integer counts
never reach a result.
"""

import math

import numpy as np
import pytest

from envtheory.analysis import _chart, classify_two_body, critical_coupling
from envtheory.errors import EvaluationDomainError, InvalidAuxiliaryExponent
from envtheory.model import CustomProfile, KineticLaw, PotentialLaw, StateSpec, SystemSpec, require_counts
from envtheory.apps import boson_star_max_mass
from envtheory.oracle import RadialProblem, SemiclassicalGeometry, harmonic_exact, radial_eigenvalue, radial_eigenvalues
from envtheory.qnum import airy_zero, q_boson_ground, q_fermion_asymptotic, q_from_quanta, q_two_body_auxiliary
from envtheory.solver import SolverConfig, auxiliary_energy, solve_two_body

NON_FINITE = [math.nan, math.inf, -math.inf]
KINETIC = KineticLaw.nonrelativistic(1.0)
LINEAR = PotentialLaw.power_law(1.0, 1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CustomProfile(3.0), "^value must be callable, got 3.0$"),
        (lambda: CustomProfile(math.sqrt, 0.5), "^derivative must be callable or None, got 0.5$"),
    ],
    ids=["value", "derivative"],
)
def test_a_custom_profile_checks_its_functions_at_construction(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_invalid_auxiliary_exponent_is_an_evaluation_domain_error():
    assert issubclass(InvalidAuxiliaryExponent, EvaluationDomainError)


# --- the auxiliary exponent --------------------------------------------------------


@pytest.mark.parametrize("lam", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda lam: solve_two_body(KINETIC, LINEAR, lam, 1.5),
        lambda lam: auxiliary_energy(1.0, 1.0, lam, 1.5),
        lambda lam: classify_two_body(KINETIC, LINEAR, lam, (0.5, 2.0)),
        lambda lam: _chart(LINEAR, lam),
        lambda lam: LINEAR.convexity_tag(lam),
        lambda lam: PotentialLaw.yukawa(1.0).convexity_tag(lam),
    ],
    ids=["solve_two_body", "auxiliary_energy", "classify_two_body", "chart_curvature", "power_tag", "sampled_tag"],
)
def test_non_finite_auxiliary_exponent_is_rejected(call, lam):
    with pytest.raises(InvalidAuxiliaryExponent, match=f"^auxiliary exponent must be finite, got {lam}$"):
        call(lam)
    with pytest.raises(EvaluationDomainError):
        call(lam)


@pytest.mark.parametrize("lam", [0, 0.0, -2.0, -3])
def test_finite_auxiliary_exponent_messages_are_unchanged(lam):
    expected = f"^auxiliary exponent must be nonzero and > -2, got {lam}$"
    with pytest.raises(InvalidAuxiliaryExponent, match=expected):
        solve_two_body(KINETIC, LINEAR, lam, 1.5)
    with pytest.raises(InvalidAuxiliaryExponent, match=expected):
        auxiliary_energy(1.0, 1.0, lam, 1.5)
    # the chart's own wording gave way to the same rule's text
    with pytest.raises(InvalidAuxiliaryExponent, match=expected):
        LINEAR.convexity_tag(lam)


def test_a_valid_auxiliary_exponent_still_solves():
    sol = solve_two_body(KINETIC, LINEAR, 1.0, 1.5)
    assert sol.bound.classification.value == "Exact"
    assert auxiliary_energy(1.0, 1.0, 1.0, 1.5) == pytest.approx(sol.energy, rel=1e-10)


# --- finite and positive numbers ---------------------------------------------------


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: auxiliary_energy(v, 1.0, 2.0, 1.5),
        lambda v: auxiliary_energy(1.0, v, 2.0, 1.5),
        lambda v: harmonic_exact(3, 3, v, 1.0, 0.0, StateSpec.ground(3)),
        lambda v: harmonic_exact(3, 3, 1.0, v, 0.0, StateSpec.ground(3)),
        lambda v: harmonic_exact(3, 3, 1.0, 1.0, v, StateSpec.ground(3)),
        lambda v: RadialProblem(mu=v, potential=LINEAR, d=3, l=0, r_max=10.0),
        lambda v: RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=v),
        lambda v: SemiclassicalGeometry.for_system(3, v),
    ],
    ids=[
        "auxiliary_energy-mu", "auxiliary_energy-rho", "harmonic_exact-mu", "harmonic_exact-nu",
        "harmonic_exact-rho", "RadialProblem-mu", "RadialProblem-r_max", "geometry-r0",
    ],
)
def test_non_finite_number_is_rejected(call, value):
    with pytest.raises(ValueError, match=f"got {value}$"):
        call(value)


def test_finite_positivity_messages_are_unchanged():
    with pytest.raises(ValueError, match="^mu must be positive, got -1.0$"):
        auxiliary_energy(-1.0, 1.0, 2.0, 1.5)
    with pytest.raises(ValueError, match="^rho must be positive, got 0.0$"):
        auxiliary_energy(1.0, 0.0, 2.0, 1.5)
    with pytest.raises(ValueError, match="^mass must be positive, got 0.0$"):
        harmonic_exact(3, 3, 0.0, 1.0, 0.0, StateSpec.ground(3))
    with pytest.raises(ValueError, match="^r_max must be positive, got -1.0$"):
        RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=-1.0)
    with pytest.raises(ValueError, match="^r0 must be positive, got 0.0$"):
        SemiclassicalGeometry.for_system(3, 0.0)


# --- counts ------------------------------------------------------------------------

YUKAWA = PotentialLaw.yukawa(1.0)
LINEAR_WELL = RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=10.0)


@pytest.mark.parametrize("count", [3.5, 3.0])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda k: q_from_quanta(StateSpec(((0, 0),)), k), "d"),
        (lambda k: q_boson_ground(k, 3), "n"),
        (lambda k: q_boson_ground(3, k), "d"),
        (lambda k: harmonic_exact(k, 3, 1.0, 1.0, 0.0, StateSpec.ground(3)), "n"),
        (lambda k: harmonic_exact(3, k, 1.0, 1.0, 0.0, StateSpec.ground(3)), "d"),
        (lambda k: critical_coupling("twobody", YUKAWA, k, 3.0, 1.0), "n"),
        (lambda k: StateSpec.ground(k), "n_particles"),
        (lambda k: airy_zero(k), "zero index"),
        (lambda k: radial_eigenvalues(LINEAR_WELL, k), "level count"),
        (lambda k: radial_eigenvalue(LINEAR_WELL, k), "level index"),
        (lambda k: boson_star_max_mass(3, 1.0, 1e-3, k), "n_max"),
    ],
    ids=["q_from_quanta-d", "q_boson_ground-n", "q_boson_ground-d", "harmonic_exact-n", "harmonic_exact-d",
         "critical_coupling-n", "StateSpec.ground", "airy_zero", "radial_eigenvalues", "radial_eigenvalue",
         "boson_star_max_mass"],
)
def test_non_integer_count_is_rejected(call, name, count):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count}$"):
        call(count)


@pytest.mark.parametrize("n_max", [math.nan, math.inf])
def test_a_non_integer_n_max_is_a_typed_error(n_max):
    # nan used to fail in math.floor with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^n_max must be an integer, got {n_max}$"):
        boson_star_max_mass(3, 1.0, 1e-3, n_max)


def test_integer_count_range_messages_are_unchanged():
    with pytest.raises(ValueError, match="^n_particles must be >= 2, got 1$"):
        StateSpec.ground(1)
    with pytest.raises(ValueError, match="^zero index must be >= 0, got -1$"):
        airy_zero(-1)
    with pytest.raises(ValueError, match="^level count must be >= 1, got 0$"):
        radial_eigenvalues(LINEAR_WELL, 0)
    with pytest.raises(ValueError, match="^level index must be >= 0, got -1$"):
        radial_eigenvalue(LINEAR_WELL, -1)
    with pytest.raises(ValueError, match="^grid points must be >= 200, got 100$"):
        RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=10.0, points=100)
    with pytest.raises(ValueError, match="^n_max must be >= 2, got 1$"):
        boson_star_max_mass(3, 1.0, 1e-3, 1)
    with pytest.raises(ValueError, match="^mass must be positive, got 0.0$"):
        boson_star_max_mass(3, 0.0, 1e-3, 2.5)
    assert StateSpec.ground(np.int64(3)) == StateSpec.ground(3)
    assert boson_star_max_mass(3, 1.0, 1e-3, np.int64(10**5)) == boson_star_max_mass(3, 1.0, 1e-3, 10**5)


def test_numpy_integer_counts_are_accepted():
    three = np.int64(3)
    assert q_from_quanta(StateSpec(((0, 0),)), three) == q_from_quanta(StateSpec(((0, 0),)), 3)
    assert q_boson_ground(three, three) == q_boson_ground(3, 3)
    ground = StateSpec.ground(3)
    assert harmonic_exact(three, three, 1.0, 1.0, 0.0, ground) == harmonic_exact(3, 3, 1.0, 1.0, 0.0, ground)
    assert critical_coupling("twobody", YUKAWA, three, 3.0, 1.0) == critical_coupling("twobody", YUKAWA, 3, 3.0, 1.0)


# one count rule behind every caller: the same wording wherever a count comes in
COUNT_CALLERS = [
    ("require_counts", lambda n, d, degeneracy: require_counts(n=n, d=d, degeneracy=degeneracy), "n d degeneracy"),
    ("SystemSpec", lambda n, d, degeneracy: SystemSpec(n, d, KINETIC, twobody=LINEAR), "n d"),
    ("q_boson_ground", lambda n, d, degeneracy: q_boson_ground(n, d), "n d"),
    ("harmonic_exact", lambda n, d, degeneracy: harmonic_exact(n, d, 1.0, 1.0, 0.0, StateSpec.ground(3)), "n d"),
    ("q_fermion_asymptotic", lambda n, d, degeneracy: q_fermion_asymptotic(n, d, degeneracy), "n d degeneracy"),
]
COUNT_CASES = [(caller, call, name) for caller, call, names in COUNT_CALLERS for name in names.split()]
VALID_COUNTS = {"n": 3, "d": 3, "degeneracy": 1}
LEAST_COUNTS = {"n": 2, "d": 2, "degeneracy": 1}


@pytest.mark.parametrize(
    "call, name", [case[1:] for case in COUNT_CASES], ids=[f"{caller}-{name}" for caller, _, name in COUNT_CASES]
)
def test_every_caller_states_the_one_count_rule(call, name):
    least = LEAST_COUNTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(**dict(VALID_COUNTS, **{name: least - 1}))
    for count in (3.5, 3.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count}$"):
            call(**dict(VALID_COUNTS, **{name: count}))
    assert call(**dict(VALID_COUNTS, **{name: np.int64(VALID_COUNTS[name])})) == call(**VALID_COUNTS)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateSpec(((0.5, 0), (0, 0.25))), "quantum number n must be an integer, got 0.5"),
        (lambda: StateSpec(((0, 0), (0, 0.25))), "quantum number l must be an integer, got 0.25"),
        (lambda: q_two_body_auxiliary(2.0, 0.5, 0, 3), "quantum number n must be an integer, got 0.5"),
        (lambda: q_two_body_auxiliary(2.0, 0, 1.0, 3), "quantum number l must be an integer, got 1.0"),
        (lambda: RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0.5, r_max=10.0), "angular degree must be an integer, got 0.5"),
        (
            lambda: RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=10.0, points=300.5),
            "grid points must be an integer, got 300.5",
        ),
        (lambda: q_fermion_asymptotic(10, 3, 2.5), "degeneracy must be an integer, got 2.5"),
    ],
    ids=["StateSpec-n", "StateSpec-l", "q_two_body_auxiliary-n", "q_two_body_auxiliary-l", "RadialProblem-l",
         "RadialProblem-points", "q_fermion_asymptotic-degeneracy"],
)
def test_non_integer_quantum_number_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_integer_quantum_number_range_messages_are_unchanged():
    with pytest.raises(ValueError, match="^quantum number l must be >= 0, got -1$"):
        StateSpec(((0, -1),))
    with pytest.raises(ValueError, match="^quantum number n must be >= 0, got -1$"):
        q_two_body_auxiliary(2.0, -1, 0, 3)
    with pytest.raises(ValueError, match="^angular degree must be >= 0, got -1$"):
        RadialProblem(mu=1.0, potential=LINEAR, d=3, l=-1, r_max=10.0)
    with pytest.raises(ValueError, match="^degeneracy must be >= 1, got 0$"):
        q_fermion_asymptotic(10, 3, 0)
    assert q_from_quanta(StateSpec(((np.int64(1), np.int64(2)),)), 3) == q_from_quanta(StateSpec(((1, 2),)), 3)


# every integer input of the library, its least value and a valid value:
# ``model.require_count`` words the rule the same way at every site
SMALL_WELL = RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=10.0, points=200)
COUNT_SITES = [
    ("require_counts-n", lambda k: require_counts(n=k), "n", 2, 3),
    ("require_counts-d", lambda k: require_counts(d=k), "d", 2, 3),
    ("require_counts-degeneracy", lambda k: require_counts(degeneracy=k), "degeneracy", 1, 2),
    ("StateSpec-n", lambda k: StateSpec(((k, 0),)), "quantum number n", 0, 1),
    ("StateSpec-l", lambda k: StateSpec(((0, k),)), "quantum number l", 0, 1),
    ("StateSpec.ground", lambda k: StateSpec.ground(k), "n_particles", 2, 3),
    ("q_two_body_auxiliary-n", lambda k: q_two_body_auxiliary(2.0, k, 0, 3), "quantum number n", 0, 1),
    ("q_two_body_auxiliary-l", lambda k: q_two_body_auxiliary(2.0, 0, k, 3), "quantum number l", 0, 1),
    ("airy_zero", lambda k: airy_zero(k), "zero index", 0, 1),
    ("RadialProblem-l", lambda k: RadialProblem(mu=1.0, potential=LINEAR, d=3, l=k, r_max=10.0), "angular degree", 0, 1),
    ("RadialProblem-points", lambda k: RadialProblem(mu=1.0, potential=LINEAR, d=3, l=0, r_max=10.0, points=k),
     "grid points", 200, 300),
    ("radial_eigenvalues", lambda k: tuple(radial_eigenvalues(SMALL_WELL, k)), "level count", 1, 2),
    ("radial_eigenvalue", lambda k: radial_eigenvalue(SMALL_WELL, k), "level index", 0, 1),
    ("boson_star_max_mass", lambda k: boson_star_max_mass(3, 1.0, 1e-3, k), "n_max", 2, 100),
    ("SolverConfig", lambda k: SolverConfig(max_iterations=k), "max_iterations", 10, 50),
]


@pytest.mark.parametrize(
    "call, name, least, valid", [site[1:] for site in COUNT_SITES], ids=[site[0] for site in COUNT_SITES]
)
def test_every_count_meets_its_least_value_in_one_wording(call, name, least, valid):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)
    for count in (valid + 0.5, float(valid)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count}$"):
            call(count)
    assert call(np.int64(valid)) == call(valid)
    assert call(np.int64(least)) == call(least)


@pytest.mark.parametrize("value", [200.5, 200.0])
def test_non_integer_max_iterations_is_rejected_at_construction(value):
    with pytest.raises(ValueError, match=f"^max_iterations must be an integer, got {value}$"):
        SolverConfig(max_iterations=value)
