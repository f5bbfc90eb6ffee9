import math

import pytest

from envtheory import (
    QProvenance,
    QValue,
    StateSpec,
    airy_ai,
    airy_zero,
    q_boson_ground,
    q_fermion_asymptotic,
    q_from_quanta,
    q_two_body_auxiliary,
)
from envtheory.errors import UnsupportedAuxiliary

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
    assert q_from_quanta(state, 4).provenance is QProvenance.OSCILLATOR_TOWER


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


def test_qvalue_positivity():
    with pytest.raises(ValueError):
        QValue(0.0)
    with pytest.raises(ValueError):
        QValue(-1.0)
    assert float(QValue(2.5)) == 2.5


@pytest.mark.parametrize("value", [math.inf, 1e400, math.nan])
def test_qvalue_rejects_non_finite(value):
    with pytest.raises(ValueError):
        QValue(value)


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
