import math
import pickle
import random

import numpy as np
import pytest

from envtheory import (
    BoundKind,
    Convexity,
    ConvexityVerdict,
    CriticalCoupling,
    CustomProfile,
    EnvelopeSolution,
    KineticFamily,
    KineticLaw,
    PotentialFamily,
    PotentialLaw,
    StateSpec,
    StationaryRoot,
    SystemSpec,
    critical_coupling,
    term_convexity,
)
from envtheory.analysis import _chart, _richardson_second
from envtheory.errors import EvaluationDomainError, NonFiniteResult, NonPositiveArgument
from envtheory.model import _require_positive


def test_nonrelativistic_values_and_derivative():
    law = KineticLaw.nonrelativistic(2.0)
    assert law.value(3.0) == pytest.approx(9.0 / 4.0)
    assert law.derivative(3.0) == pytest.approx(3.0 / 2.0)


def test_semirelativistic_reduces_to_mass_at_rest():
    law = KineticLaw.semirelativistic(1.5)
    assert law.value(0.0) == pytest.approx(1.5)
    # large-momentum limit is ultrarelativistic
    assert law.value(1e8) == pytest.approx(1e8, rel=1e-15)


def test_ultrarelativistic_is_identity():
    law = KineticLaw.ultrarelativistic()
    p = np.array([0.5, 1.0, 7.0])
    assert np.allclose(law.value(p), p)
    assert np.allclose(law.derivative(p), 1.0)


def test_minimal_length_quartic_terms():
    law = KineticLaw.minimal_length_quartic(2.0, 0.3)
    p = 1.7
    want = p * p / 4.0 + 0.3 * p**4 / 2.0
    assert law.value(p) == pytest.approx(want, rel=1e-15)
    want_d = p / 2.0 + 4.0 * 0.3 * p**3 / 2.0
    assert law.derivative(p) == pytest.approx(want_d, rel=1e-15)


def test_exponential_quadratic_derivative_matches_finite_difference():
    law = KineticLaw.exponential_quadratic(0.4)
    rng = random.Random(7)
    for _ in range(25):
        p = rng.uniform(0.1, 3.0)
        h = 1e-6 * p
        fd = (law.value(p + h) - law.value(p - h)) / (2.0 * h)
        assert law.derivative(p) == pytest.approx(fd, rel=1e-8)


def test_kinetic_mass_validation():
    with pytest.raises(ValueError):
        KineticLaw.nonrelativistic(0.0)
    with pytest.raises(ValueError):
        KineticLaw.semirelativistic(-1.0)
    with pytest.raises(ValueError):
        KineticLaw.minimal_length_quartic(1.0, -0.1)
    with pytest.raises(ValueError):
        KineticLaw.exponential_quadratic(0.0)


def test_potential_families_evaluate():
    x = 1.3
    cases = [
        (PotentialLaw.power_law(2.0, 1.5), 2.0 * x**1.5),
        (PotentialLaw.coulomb(0.7), -0.7 / x),
        (PotentialLaw.square_root(0.2, 3.0), 3.0 * math.sqrt(x * x + 0.2)),
        (PotentialLaw.logarithmic(2.0), 2.0 * math.log(x)),
        (PotentialLaw.yukawa(1.1, 0.9), -1.1 * math.exp(-x / 0.9) / x),
        (PotentialLaw.exponential(1.1, 0.9), -1.1 * math.exp(-x / 0.9)),
        (PotentialLaw.gaussian(1.1, 0.9), -1.1 * math.exp(-((x / 0.9) ** 2))),
    ]
    for law, want in cases:
        assert float(law.value(x)) == pytest.approx(want, rel=1e-15), law.family


def test_potential_derivatives_match_finite_difference():
    rng = random.Random(20260815)
    laws = [
        PotentialLaw.power_law(1.4, -0.5),
        PotentialLaw.power_law(0.3, 2.0),
        PotentialLaw.coulomb(2.0),
        PotentialLaw.square_root(0.5, 1.2),
        PotentialLaw.logarithmic(0.8),
        PotentialLaw.yukawa(3.0, 2.0),
        PotentialLaw.exponential(3.0, 2.0),
        PotentialLaw.gaussian(3.0, 2.0),
    ]
    for law in laws:
        for _ in range(10):
            x = rng.uniform(0.2, 4.0)
            h = 1e-6 * x
            fd = (float(law.value(x + h)) - float(law.value(x - h))) / (2.0 * h)
            assert float(law.derivative(x)) == pytest.approx(fd, rel=2e-8), law.family


def test_value_and_derivative_dispatch():
    law = PotentialLaw.coulomb(1.0)
    assert law.value(2.0) == pytest.approx(-0.5)
    assert law.derivative(2.0) == pytest.approx(0.25)


def test_short_range_flags():
    assert PotentialLaw.yukawa(1.0, 1.0).short_range
    assert PotentialLaw.exponential(1.0, 1.0).short_range
    assert PotentialLaw.gaussian(1.0, 1.0).short_range
    assert not PotentialLaw.coulomb(1.0).short_range
    assert not PotentialLaw.power_law(1.0, 1.0).short_range


def test_well_profile_strips_coupling():
    # critical_coupling reads the well as W = -kappa w: kappa is a built-in
    # well's coupling, so the threshold does not depend on it, and 1 for a
    # custom profile, whose own depth stays in w
    q, mass = 1.5, 1.0
    for coupling in (5.0, 1.0):
        cc = critical_coupling("twobody", PotentialLaw.yukawa(coupling, 2.0), 2, q, mass)
        assert cc.y0 == pytest.approx(2.0, rel=1e-12)
        # w(y0) = exp(-1) / y0: g_c = Q^2 e / (m y0)
        assert cc.value == pytest.approx(2.25 * math.e / 2.0, rel=1e-12)
    deep = PotentialLaw.custom(CustomProfile(lambda x: -5.0 * np.exp(-x / 2.0) / x), short_range=True)
    cc = critical_coupling("twobody", deep, 2, q, mass)
    # a custom profile's derivative is a central difference
    assert cc.y0 == pytest.approx(2.0, rel=1e-9)
    assert cc.value == pytest.approx(2.25 * math.e / 10.0, rel=1e-9)


def test_nonpositive_arguments_rejected():
    with pytest.raises(NonPositiveArgument):
        PotentialLaw.coulomb(1.0).value(0.0)
    with pytest.raises(NonPositiveArgument):
        PotentialLaw.logarithmic(1.0).value(-1.0)
    with pytest.raises(NonPositiveArgument):
        PotentialLaw.power_law(1.0, -0.5).value(0.0)


@pytest.mark.parametrize(
    "x",
    [1.5, np.float64(2.0), math.inf, 5e-324, 3, [1.0, 2.0], np.array([1.0, 2.0])],
    ids=["float", "float64", "inf", "subnormal", "int", "list", "ndarray"],
)
def test_require_positive_accepts(x):
    _require_positive(x, "separation")


# Exception type and message pinned as the array-only check produced them,
# so the scalar fast path changes neither.
@pytest.mark.parametrize(
    "x, shown",
    [
        (math.nan, "nan"),
        (np.float64("nan"), "np.float64(nan)"),
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (-1.0, "-1.0"),
        (-math.inf, "-inf"),
        (np.float64(-3.0), "np.float64(-3.0)"),
        (0, "0"),
        (np.array([1.0, 0.0, 2.0]), "1 of 3 values not > 0, the smallest 0.0"),
        (np.array([1.0, math.nan]), "1 of 2 values not > 0, the smallest nan"),
        (np.array([]), "an empty array"),
    ],
    ids=[
        "nan", "float64-nan", "zero", "negative-zero", "negative", "negative-inf",
        "float64-negative", "int-zero", "ndarray-one-bad", "ndarray-nan", "empty",
    ],
)
def test_require_positive_rejects_with_pinned_message(x, shown):
    with pytest.raises(NonPositiveArgument) as info:
        _require_positive(x, "separation")
    assert type(info.value) is NonPositiveArgument
    assert str(info.value) == f"separation must be strictly positive, got {shown}"
    with pytest.raises(NonPositiveArgument, match="^argument must be strictly positive"):
        _require_positive(x)


# --- the squared-argument chart that decides bound direction ---------------
# A law carries only the chart's curvature class; analysis samples the chart
# b(s) = law(s**(1/lam)) of a custom profile, and these tests sample it for
# built-in laws too.


def test_chart_second_derivative_matches_finite_difference():
    rng = random.Random(99)
    laws = [
        PotentialLaw.square_root(0.3, 1.0),
        PotentialLaw.yukawa(2.0, 1.5),
        PotentialLaw.gaussian(2.0, 1.5),
        PotentialLaw.logarithmic(1.0),
    ]
    for law in laws:
        for _ in range(8):
            s = rng.uniform(0.5, 3.0)
            got = float(_richardson_second(_chart(law, None)[1], s))
            # direct second difference of b(s) = V(sqrt(s))
            h = 1e-4 * s
            b = lambda t: float(law.value(math.sqrt(t)))
            fd = (b(s + h) - 2.0 * b(s) + b(s - h)) / (h * h)
            assert got == pytest.approx(fd, rel=5e-3, abs=1e-10), law.family


def test_chart_supports_negative_aux_exponent():
    # with lam = -1 the chart is b(s) = V(1/s); for a Coulomb profile that is
    # -s, which the sampled custom-law verdict reads as linear
    law = PotentialLaw.custom(CustomProfile(lambda x: -1.0 / x))
    lam, chart = _chart(law, -1.0)
    assert lam == -1.0
    assert chart(np.array([0.3, 1.0, 2.5])) == pytest.approx([-0.3, -1.0, -2.5], rel=1e-15)
    assert term_convexity(law, (0.3, 2.5), aux_exponent=-1.0) is Convexity.LINEAR


def test_chart_rejects_kinetic_with_aux_exponent():
    law = KineticLaw.custom(CustomProfile(lambda p: p * p * p))
    with pytest.raises(EvaluationDomainError, match="^kinetic charts use the x\\*\\*2 substitution only$"):
        term_convexity(law, (0.5, 2.0), aux_exponent=1.0)
    with pytest.raises(EvaluationDomainError):
        _chart(KineticLaw.nonrelativistic(1.0), 1.0)
    assert term_convexity(law, (0.5, 2.0), aux_exponent=2.0) is Convexity.CONVEX


def test_convexity_tags():
    assert KineticLaw.nonrelativistic(1.0).convexity_tag() is Convexity.LINEAR
    assert KineticLaw.semirelativistic(1.0).convexity_tag() is Convexity.CONCAVE
    assert KineticLaw.ultrarelativistic().convexity_tag() is Convexity.CONCAVE
    assert (
        KineticLaw.minimal_length_quartic(1.0, 0.1).convexity_tag()
        is Convexity.CONVEX
    )
    assert (
        KineticLaw.minimal_length_quartic(1.0, 0.0).convexity_tag()
        is Convexity.LINEAR
    )
    assert KineticLaw.exponential_quadratic(1.0).convexity_tag() is Convexity.CONVEX

    assert PotentialLaw.power_law(1.0, 2.0).convexity_tag() is Convexity.LINEAR
    assert PotentialLaw.power_law(1.0, 1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.power_law(1.0, 3.0).convexity_tag() is Convexity.CONVEX
    assert PotentialLaw.coulomb(1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.square_root(0.5, 1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.logarithmic(1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.yukawa(1.0, 1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.exponential(1.0, 1.0).convexity_tag() is Convexity.CONCAVE
    assert PotentialLaw.gaussian(1.0, 1.0).convexity_tag() is Convexity.CONCAVE


def test_coulomb_is_linear_under_inverse_chart():
    tag = PotentialLaw.coulomb(1.0).convexity_tag(aux_exponent=-1.0)
    assert tag is Convexity.LINEAR


def test_custom_profile_round_trip():
    prof = CustomProfile(
        value=lambda x: np.sinh(x),
        derivative=lambda x: np.cosh(x),
    )
    law = PotentialLaw.custom(prof)
    assert float(law.value(0.7)) == pytest.approx(math.sinh(0.7))
    assert float(law.derivative(0.7)) == pytest.approx(math.cosh(0.7))


def test_custom_profile_derivative_falls_back_to_differences():
    law = PotentialLaw.custom(CustomProfile(value=lambda x: x**3))
    assert float(law.derivative(2.0)) == pytest.approx(12.0, rel=1e-7)


def test_verdict_aggregation():
    v = ConvexityVerdict.from_terms(
        {"kinetic": Convexity.LINEAR, "twobody": Convexity.CONCAVE}
    )
    assert v.classification is BoundKind.UPPER
    v = ConvexityVerdict.from_terms(
        {"kinetic": Convexity.CONVEX, "twobody": Convexity.LINEAR}
    )
    assert v.classification is BoundKind.LOWER
    v = ConvexityVerdict.from_terms({"kinetic": Convexity.LINEAR})
    assert v.classification is BoundKind.EXACT
    v = ConvexityVerdict.from_terms(
        {"kinetic": Convexity.CONVEX, "twobody": Convexity.CONCAVE}
    )
    assert v.classification is BoundKind.UNKNOWN
    v = ConvexityVerdict.from_terms({"kinetic": Convexity.MIXED})
    assert v.classification is BoundKind.UNKNOWN


def test_system_spec_validation():
    kin = KineticLaw.nonrelativistic(1.0)
    pot = PotentialLaw.power_law(1.0, 2.0)
    with pytest.raises(ValueError):
        SystemSpec(n=1, d=3, kinetic=kin, twobody=pot)
    with pytest.raises(ValueError):
        SystemSpec(n=3, d=1, kinetic=kin, twobody=pot)
    with pytest.raises(ValueError):
        SystemSpec(n=3, d=3, kinetic=kin)  # no potential at all
    spec = SystemSpec(n=5, d=3, kinetic=kin, twobody=pot)
    assert spec.pair_count == 10.0


@pytest.mark.parametrize(
    "counts", [{"n": 2.5}, {"n": 3.0}, {"d": 3.0}, {"n": "3"}]
)
def test_system_spec_counts_must_be_integers(counts):
    kin = KineticLaw.nonrelativistic(1.0)
    pot = PotentialLaw.power_law(1.0, 2.0)
    with pytest.raises(ValueError, match="must be an integer"):
        SystemSpec(**{"n": 3, "d": 3, **counts}, kinetic=kin, twobody=pot)
    spec = SystemSpec(n=np.int64(4), d=np.int32(3), kinetic=kin, twobody=pot)
    assert spec.pair_count == 6


_KIN = KineticLaw.nonrelativistic(1.0)
_POT = PotentialLaw.power_law(1.0, 2.0)


@pytest.mark.parametrize(
    "laws, message",
    [
        ({"kinetic": None, "twobody": _POT}, "kinetic must be a KineticLaw, got None"),
        ({"kinetic": "x", "twobody": _POT}, "kinetic must be a KineticLaw, got 'x'"),
        ({"kinetic": _POT, "twobody": _POT}, "kinetic must be a KineticLaw, got PotentialLaw("),
        ({"kinetic": _KIN, "twobody": "x"}, "twobody must be a PotentialLaw or None, got 'x'"),
        ({"kinetic": _KIN, "onebody": _KIN}, "onebody must be a PotentialLaw or None, got KineticLaw("),
    ],
    ids=["kinetic-none", "kinetic-str", "kinetic-potential", "twobody-str", "onebody-kinetic"],
)
def test_system_spec_laws_are_type_checked(laws, message):
    with pytest.raises(TypeError) as raised:
        SystemSpec(3, 3, **laws)
    assert str(raised.value).startswith(message)


def test_families_hash_by_identity_and_laws_still_pickle_compare_and_hash():
    for family in [*KineticFamily, *PotentialFamily]:
        # the C-level identity hash: a FAMILIES lookup runs no Python frame
        assert type(family).__hash__ is object.__hash__
        assert pickle.loads(pickle.dumps(family)) is family
        assert type(family)(family.value) is family
    laws = [
        KineticLaw.semirelativistic(0.5),
        KineticLaw.minimal_length_quartic(1.0, 0.3),
        PotentialLaw.power_law(1.0, 2.0),
        PotentialLaw.yukawa(2.0, 0.5),
        SystemSpec(3, 3, _KIN, onebody=PotentialLaw.coulomb(0.4), twobody=_POT),
    ]
    for law in laws:
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and hash(copy) == hash(law)
        assert {law: "found"}[copy] == "found"
    assert PotentialLaw.power_law(1.0, 2.0) != PotentialLaw.power_law(1.0, 3.0)


def _richardson_two_calls(b, s):
    """The curvature formula before b(s) was shared: each step evaluates it again."""
    h = 1e-4 * np.asarray(s, dtype=float)

    def d2(step):
        return (b(s + step) - 2.0 * b(s) + b(s - step)) / (step * step)

    return (4.0 * d2(0.5 * h) - d2(h)) / 3.0


@pytest.mark.parametrize(
    "law, aux",
    [
        (KineticLaw.semirelativistic(0.7), None),
        (KineticLaw.custom(CustomProfile(lambda p: np.sqrt(p * p + 1.0) + 0.2 * p**4)), None),
        (PotentialLaw.yukawa(1.5, 0.8), None),
        (PotentialLaw.square_root(0.3, -2.0), 1.0),
        (PotentialLaw.logarithmic(1.2), -1.0),
        (PotentialLaw.custom(CustomProfile(lambda x: x**1.3 - np.exp(-x))), 0.5),
    ],
    ids=["semirel", "custom-kinetic", "yukawa", "sqrt-aux", "log-aux", "custom-aux"],
)
def test_sampled_curvature_is_the_two_call_formula_bit_for_bit(law, aux):
    s = np.geomspace(1e-3, 1e3, 41)
    if isinstance(law, KineticLaw):
        b = lambda u: law.value(np.sqrt(u))  # noqa: E731
    else:
        b = lambda u: law.value(np.power(u, 1.0 / (2.0 if aux is None else aux)))  # noqa: E731
    with np.errstate(all="ignore"):
        for point in (s, 0.37, np.float64(12.5)):
            got = np.asarray(_richardson_second(_chart(law, aux)[1], point))
            assert got.tobytes() == np.asarray(_richardson_two_calls(b, point)).tobytes()


def test_state_spec():
    state = StateSpec(((0, 0), (1, 2)))
    assert state.n_particles == 3
    with pytest.raises(Exception):
        StateSpec(())
    with pytest.raises(ValueError):
        StateSpec(((0, -1),))


def test_families_are_frozen():
    law = PotentialLaw.coulomb(1.0)
    with pytest.raises(Exception):
        law.strength = 2.0


def test_enum_wire_names():
    # CSV and config files spell these; keep them stable
    assert BoundKind.UPPER.value == "UpperBound"
    assert BoundKind.LOWER.value == "LowerBound"
    assert BoundKind.EXACT.value == "Exact"
    assert BoundKind.UNKNOWN.value == "Unknown"
    assert KineticFamily.MINIMAL_LENGTH_QUARTIC.value == "minimal-length"
    assert PotentialFamily.POWER_LAW.value == "powerlaw"


# --- result records hold finite floats only ----------------------------------------

_RECORDS = [
    (StationaryRoot, dict(r0=1.0, p0=2.0, energy=-0.5, residual=0.0)),
    (EnvelopeSolution, dict(energy=-0.5, r0=1.0, p0=2.0, q=2.0, bound=ConvexityVerdict.from_terms({}))),
    (CriticalCoupling, dict(mode="twobody", y0=1.0, value=0.8, bound=BoundKind.UPPER)),
]


@pytest.mark.parametrize("record, valid", _RECORDS, ids=[record.__name__ for record, _ in _RECORDS])
def test_a_result_record_holds_only_finite_floats(record, valid):
    assert record(**valid) == record(**valid)
    floats = [name for name, value in valid.items() if isinstance(value, float)]
    assert len(floats) == {StationaryRoot: 4, EnvelopeSolution: 4, CriticalCoupling: 2}[record]
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteResult, match=f"^{record.__name__}.{name} is not finite, got {bad}$") as info:
                record(**{**valid, name: bad})
            # the CLI prints an EnvelopeError as one `error:` line; a ValueError escapes as a traceback
            assert not isinstance(info.value, ValueError)

