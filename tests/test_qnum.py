import math
import time

import mpmath
import numpy as np
import pytest

import envtheory
from envtheory import (
    BosonStarParams,
    KineticLaw,
    PotentialLaw,
    StateSpec,
    SystemSpec,
    airy_zero,
    auxiliary_energy,
    boson_star_mass,
    critical_coupling,
    minimal_length_energy,
    q_boson_ground,
    q_fermion_asymptotic,
    q_from_quanta,
    q_two_body_auxiliary,
    solve_nbody,
    solve_two_body,
)
from envtheory.errors import NonFiniteResult, UnsupportedAuxiliary
from envtheory.qnum import _AIRY_ZEROS


def airy_ai(x):
    """Ai(x) from mpmath, the reference the zeros are checked against."""
    return float(mpmath.airyai(x))


# First ten negative zeros of the Airy function, root-found here once and
# frozen; cross-checked against Ai itself below.
AIRY_ZEROS = [
    -2.338107410459767,
    -4.08794944413097,
    -5.520559828095551,
    -6.786708090071759,
    -7.944133587120853,
    -9.02265085334098,
    -10.040174341558085,
    -11.008524303733262,
    -11.936015563236262,
    -12.828776752865757,
]


def test_oscillator_tower():
    state = StateSpec(((1, 2), (0, 1)))
    # sum(2n+l) = 4+1 = 5, plus (N-1) D/2 with N=3, D=4
    assert float(q_from_quanta(state, 4)) == pytest.approx(5.0 + 4.0)


def test_boson_ground_state():
    assert float(q_boson_ground(3, 3)) == pytest.approx(3.0)
    assert float(q_boson_ground(2, 5)) == pytest.approx(2.5)
    ground = StateSpec(tuple((0, 0) for _ in range(4)))
    assert float(q_from_quanta(ground, 6)) == pytest.approx(
        float(q_boson_ground(5, 6))
    )


def test_fermion_asymptotic_frozen_values():
    assert float(q_fermion_asymptotic(1000, 3, 2)) == pytest.approx(
        10816.871777305563, rel=1e-12
    )
    assert float(q_fermion_asymptotic(100, 2, 1)) == pytest.approx(
        942.80904158206337, rel=1e-12
    )


def test_fermion_asymptotic_scaling():
    # Q_F ~ D/(D+1) (D! N^{D+1}/d)^{1/D}: doubling the degeneracy divides
    # the leading factor by 2^{1/D}
    d = 3
    q1 = float(q_fermion_asymptotic(500, d, 1))
    q2 = float(q_fermion_asymptotic(500, d, 2))
    assert q1 / q2 == pytest.approx(2.0 ** (1.0 / d), rel=1e-12)


def _fermion_q_mpmath(n, d, degeneracy=1):
    with mpmath.workdps(50):
        return float(d / mpmath.mpf(d + 1) * (mpmath.factorial(d) * mpmath.mpf(n) ** (d + 1) / degeneracy) ** (mpmath.mpf(1) / d))


@pytest.mark.parametrize("n, d", [(3, 200), (3, 3_000_000), (10**100, 3)], ids=["d-200", "d-3e6", "n-1e100"])
def test_fermion_asymptotic_past_the_float_range_of_its_factors(n, d):
    # d! or n ** (d + 1) leaves the float range while Q does not
    start = time.perf_counter()
    q = float(q_fermion_asymptotic(n, d))
    assert time.perf_counter() - start < 1.0
    assert q == pytest.approx(_fermion_q_mpmath(n, d), rel=1e-13, abs=0.0)


def test_fermion_asymptotic_keeps_its_floats_up_to_d_170():
    rng = np.random.default_rng(170)
    compared = 0
    for _ in range(2000):
        n, d, g = int(2 ** rng.uniform(1, 20)), int(rng.integers(2, 171)), int(rng.integers(1, 9))
        try:
            want = d / (d + 1.0) * (math.factorial(d) * float(n) ** (d + 1) / g) ** (1.0 / d)
        except OverflowError:
            continue
        if 0.0 < want < math.inf:
            assert float(q_fermion_asymptotic(n, d, g)).hex() == want.hex(), (n, d, g)
            compared += 1
    assert compared > 800  # n drawn on a log scale, so large d keeps small n in range


def test_a_q_past_the_float_range_is_non_finite():
    # d past the float range is no count at all; a d within it can still carry Q past it
    for call in (lambda: q_fermion_asymptotic(3, 10**308), lambda: q_boson_ground(10**10, 10**300),
                 lambda: q_from_quanta(StateSpec(((10**400, 0),)), 3), lambda: q_two_body_auxiliary(2.0, 10**400, 0, 3)):
        with pytest.raises(NonFiniteResult, match=" Q is past the float range$"):
            call()
    for call in (lambda: q_fermion_asymptotic(3, 10**400), lambda: q_boson_ground(3, 10**400)):
        with pytest.raises(ValueError, match=r"^d must lie within the float range, got 10{400}$"):
            call()


def test_two_body_auxiliary_towers():
    # harmonic: 2n + l + D/2
    assert float(q_two_body_auxiliary(2.0, 1, 2, 3)) == pytest.approx(5.5)
    # coulomb-like: n + l + (D-1)/2
    assert float(q_two_body_auxiliary(-1.0, 1, 2, 3)) == pytest.approx(4.0)
    assert float(q_two_body_auxiliary(-1.0, 0, 0, 5)) == pytest.approx(2.0)
    # linear (D=3, l=0 only): 2 (-airy_zero(n)/3)^{3/2}
    for n in range(3):
        want = 2.0 * (-AIRY_ZEROS[n] / 3.0) ** 1.5
        assert float(q_two_body_auxiliary(1.0, n, 0, 3)) == pytest.approx(
            want, rel=1e-12
        )


def test_linear_tower_ground_state_value():
    assert float(q_two_body_auxiliary(1.0, 0, 0, 3)) == pytest.approx(
        1.3760835433437753, rel=1e-12
    )


def test_linear_tower_needs_d3_swave():
    with pytest.raises(UnsupportedAuxiliary):
        q_two_body_auxiliary(1.0, 0, 0, 4)
    with pytest.raises(UnsupportedAuxiliary):
        q_two_body_auxiliary(1.0, 0, 1, 3)
    with pytest.raises(UnsupportedAuxiliary):
        q_two_body_auxiliary(0.5, 0, 0, 3)


@pytest.mark.parametrize(
    "tower",
    [
        lambda: q_from_quanta(StateSpec(((1, 2), (0, 1))), 4),
        lambda: q_boson_ground(3, 3),
        lambda: q_boson_ground(np.int64(3), np.int64(3)),
        lambda: q_fermion_asymptotic(1000, 3, 2),
        lambda: q_fermion_asymptotic(3, 200),
        lambda: q_two_body_auxiliary(-1.0, 1, 2, 3),
        lambda: q_two_body_auxiliary(2.0, 1, 2, 3),
        lambda: q_two_body_auxiliary(1.0, 50, 0, 3),
    ],
    ids=["quanta", "boson", "boson-numpy-counts", "fermion", "fermion-logs", "coulomb", "harmonic", "airy"],
)
def test_every_tower_returns_a_plain_float(tower):
    assert type(tower()) is float


def test_the_q_wrapper_names_are_not_exported():
    for name in ("QValue", "QProvenance"):
        assert name not in envtheory.__all__
        assert not hasattr(envtheory, name)


def test_a_fermion_q_that_underflows_is_an_error():
    # log(degeneracy) / d sends the power through exp to 0
    with pytest.raises(NonFiniteResult, match="^the fermion-asymptotic Q underflows to 0$"):
        q_fermion_asymptotic(2, 2, 10**4000)


def _q_consumers():
    level = SystemSpec(n=3, d=3, kinetic=KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    return [
        lambda q: solve_nbody(level, q),
        lambda q: solve_two_body(KineticLaw.nonrelativistic(0.5), PotentialLaw.coulomb(1.0), None, q),
        lambda q: critical_coupling("twobody", PotentialLaw.yukawa(1.0, 1.0), 2, q, 1.0),
        lambda q: auxiliary_energy(1.0, 1.0, 2.0, q),
        lambda q: boson_star_mass(BosonStarParams(n=3, mass=1.0, alpha=0.1), q),
        lambda q: minimal_length_energy(2, 3, 1.0, 1.0, 1e-3, q),
    ]


@pytest.mark.parametrize("q", [0.0, -1.0])
def test_every_q_consumer_rejects_a_non_positive_q(q):
    # Q is a plain float: each consumer's own check is the one positivity rule
    for consume in _q_consumers():
        consume(2.5)
        with pytest.raises(ValueError, match=f"^quantum number must be positive, got {q}$"):
            consume(q)


@pytest.mark.parametrize("q", [math.inf, 1e400, math.nan], ids=["inf", "1e400", "nan"])
def test_every_q_consumer_rejects_a_non_finite_q(q):
    message = "positive, got nan" if math.isnan(q) else "finite, got inf"
    for consume in _q_consumers():
        with pytest.raises(ValueError, match=f"^quantum number must be {message}$"):
            consume(q)


def test_airy_zeros_against_frozen_table():
    for i, want in enumerate(AIRY_ZEROS):
        assert airy_zero(i) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_airy_zeros_are_actual_roots():
    for i in range(10):
        z = airy_zero(i)
        assert abs(airy_ai(z)) < 1e-13
        # simple root: the function visibly changes sign across it
        assert airy_ai(z - 1e-4) * airy_ai(z + 1e-4) < 0.0


def test_airy_zero_ordering_and_spacing():
    zeros = [airy_zero(i) for i in range(12)]
    for a, b in zip(zeros, zeros[1:]):
        assert b < a
    # zeros behave like -(3 pi (4k-1) / 8)^{2/3} for large k
    k = 12
    est = -((3.0 * math.pi * (4 * k - 1) / 8.0) ** (2.0 / 3.0))
    assert zeros[-1] == pytest.approx(est, rel=1e-3)


def _mcmahon_airy_zero(index):
    # McMahon's large-k expansion of the k-th zero, k = index + 1, five terms
    t = 3.0 * math.pi / 8.0 * (4 * (index + 1) - 1)
    series = 1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4 + 77125.0 / 82944.0 * t**-6
    series -= 108056875.0 / 6967296.0 * t**-8
    return -(t ** (2.0 / 3.0)) * series


def test_airy_zeros_match_mcmahon_expansion_at_high_index():
    # the neglected terms are below 1e-14 relative from index 10 on
    zeros = [airy_zero(i) for i in range(10, 41)]
    for i, z in zip(range(10, 41), zeros):
        assert z == pytest.approx(_mcmahon_airy_zero(i), rel=1e-12)
    for a, b in zip(zeros, zeros[1:]):
        assert b < a


def test_linear_tower_q_at_high_index():
    q = q_two_body_auxiliary(1.0, 30, 0, 3)
    assert float(q) == pytest.approx(2.0 * (-_mcmahon_airy_zero(30) / 3.0) ** 1.5, rel=1e-12)


def test_airy_series_known_values():
    # Ai(0) = 3^{-2/3} / Gamma(2/3)
    want = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert airy_ai(0.0) == pytest.approx(want, rel=1e-14)
    assert airy_ai(1.0) == pytest.approx(0.13529241631288141, rel=1e-13)
    assert airy_ai(-1.0) == pytest.approx(0.53556088329235211, rel=1e-13)


def test_airy_zero_rejects_negative_index():
    with pytest.raises(ValueError):
        airy_zero(-1)


def test_the_airy_table_holds_mpmaths_floats():
    assert [airy_zero(k) for k in range(len(_AIRY_ZEROS))] == list(_AIRY_ZEROS)
    assert list(_AIRY_ZEROS) == [float(mpmath.airyaizero(k + 1)) for k in range(len(_AIRY_ZEROS))]


def test_the_airy_series_is_within_3_ulps_of_mpmath_past_the_table():
    for k in range(len(_AIRY_ZEROS), 600):
        want = float(mpmath.airyaizero(k + 1))
        assert abs(airy_zero(k) - want) <= 3 * math.ulp(want), k


@pytest.mark.parametrize(
    "index, want", [(10**11, -60556498.37101557), (10**14, -6055649837.071309)], ids=["1e11", "1e14"]
)
def test_far_airy_zeros(index, want):
    # mpmath's airyaizero returned -60556490.94315525 at 1e11, a zero ~18,000 places off,
    # and raised "Could not find root within given tolerance" at 1e14
    assert airy_zero(index) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_a_numpy_airy_index_does_not_wrap():
    # 4 k + 3 wraps in int64 at k = 2**62
    assert airy_zero(np.int64(2**62)) == airy_zero(2**62)


def test_an_airy_index_past_the_float_range_is_named():
    # t = 3 pi (4k + 3) / 8 leaves the float range from k ~ 3.82e307, and 4k + 3 itself from k ~ 4.5e307
    assert math.isfinite(airy_zero(int(3.8e307)))
    for index in (int(3.82e307), int(4.6e307), 10**400):
        with pytest.raises(ValueError, match=f"^zero index {index} is too large: ") as err:
            airy_zero(index)
        assert type(err.value) is ValueError
