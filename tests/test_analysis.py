import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from envtheory import (
    BoundKind,
    Convexity,
    CustomProfile,
    KineticLaw,
    PerturbationSpec,
    PotentialLaw,
    SystemSpec,
    classify_bound,
    classify_two_body,
    critical_coupling,
    perturbed_energy,
    q_boson_ground,
    solve_nbody,
    term_convexity,
)
from envtheory.errors import (
    NoCriticalPoint,
    NonFiniteResult,
    NotShortRange,
    PerturbationSizeWarning,
)
from envtheory.roots import brentq, sign_change_brackets

EPS = 2.220446049250313e-16


# --- convexity classification ------------------------------------------------


def test_term_convexity_analytic_families():
    dom = (0.1, 10.0)
    assert term_convexity(PotentialLaw.power_law(1.0, 1.0), dom) is Convexity.CONCAVE
    assert term_convexity(PotentialLaw.power_law(1.0, 2.0), dom) is Convexity.LINEAR
    assert term_convexity(PotentialLaw.power_law(1.0, 3.0), dom) is Convexity.CONVEX
    assert term_convexity(PotentialLaw.coulomb(1.0), dom) is Convexity.CONCAVE
    assert term_convexity(KineticLaw.nonrelativistic(1.0), dom) is Convexity.LINEAR
    assert term_convexity(KineticLaw.semirelativistic(1.0), dom) is Convexity.CONCAVE
    assert (
        term_convexity(KineticLaw.minimal_length_quartic(1.0, 0.2), dom)
        is Convexity.CONVEX
    )


def test_term_convexity_sampled_custom():
    concave = PotentialLaw.custom(CustomProfile(value=lambda x: np.sqrt(x)))
    assert term_convexity(concave, (0.1, 10.0)) is Convexity.CONCAVE
    convex = PotentialLaw.custom(CustomProfile(value=lambda x: x**4))
    assert term_convexity(convex, (0.1, 10.0)) is Convexity.CONVEX
    flat = PotentialLaw.custom(CustomProfile(value=lambda x: 3.0 * x * x))
    assert term_convexity(flat, (0.1, 10.0)) is Convexity.LINEAR


def test_term_convexity_mixed_profile():
    # x^2 (1 + sin(log x)/2) wobbles around linearity in the chart
    law = PotentialLaw.custom(
        CustomProfile(value=lambda x: x * x * (1.0 + 0.5 * np.sin(np.log(x))))
    )
    assert term_convexity(law, (0.05, 50.0)) is Convexity.MIXED


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("domain", [(1e-5, 1e-3), (1e3, 1e5)], ids=["underflow", "overflow"])
def test_term_convexity_window_outside_the_float_range_reads_mixed(domain):
    # under lam = 100 the image s = x**100 of either window leaves the range
    # where s, s**2 and |b|/s**2 are normal floats: no sample is trusted, and
    # a b'' that underflows to 0 there must not read as linear (an Exact level)
    law = PotentialLaw.custom(CustomProfile(value=lambda x: np.power(x, 1.5)))
    assert term_convexity(law, domain, aux_exponent=100.0) is Convexity.MIXED


def test_term_convexity_respects_negative_aux_exponent():
    # under the s = x^{-1} chart the Coulomb term is exactly linear
    law = PotentialLaw.coulomb(2.0)
    assert term_convexity(law, (0.1, 10.0), aux_exponent=-1.0) is Convexity.LINEAR
    # a shape that is NOT linear under that chart: V = -1/x^{1.5} maps to
    # -(-s)^{3/2}, whose second derivative -0.75 (-s)^{-1/2} is negative
    law2 = PotentialLaw.power_law(-1.0, -1.5)
    assert term_convexity(law2, (0.1, 10.0), aux_exponent=-1.0) is Convexity.CONCAVE


def test_classify_bound_full_system():
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.semirelativistic(1.0),
        twobody=PotentialLaw.coulomb(0.1),
    )
    verdict = classify_bound(spec, (0.5, 50.0))
    assert verdict.classification is BoundKind.UPPER
    assert verdict.terms["kinetic"] is Convexity.CONCAVE
    assert verdict.terms["twobody"] is Convexity.CONCAVE
    assert "onebody" not in verdict.terms


def test_classify_two_body_mixed_is_unknown():
    verdict = classify_two_body(
        KineticLaw.exponential_quadratic(0.5),  # convex
        PotentialLaw.coulomb(1.0),  # concave
        2.0,
        (0.5, 5.0),
    )
    assert verdict.classification is BoundKind.UNKNOWN


def test_classify_handles_momentum_domain():
    verdict = classify_two_body(
        KineticLaw.exponential_quadratic(0.5),
        PotentialLaw.power_law(1.0, 2.0),
        2.0,
        (0.5, 5.0),
        momentum_domain=(0.2, 3.0),
    )
    assert verdict.classification is BoundKind.LOWER


# --- first-order perturbation -------------------------------------------------


def harmonic_solution(n=2, d=3, m=1.0, k=1.0):
    spec = SystemSpec(
        n=n,
        d=d,
        kinetic=KineticLaw.nonrelativistic(m),
        twobody=PotentialLaw.power_law(k, 2.0),
    )
    return spec, solve_nbody(spec, q_boson_ground(n, d))


def test_perturbed_energy_twobody_shift():
    spec, sol = harmonic_solution(n=3)
    eps = 1e-3
    shape = PotentialLaw.power_law(1.0, 1.0)
    pert = PerturbationSpec(twobody=(eps, shape))
    corrected = perturbed_energy(sol, spec, pert)
    c = spec.pair_count
    want = sol.energy + c * eps * float(shape.value(sol.r0 / math.sqrt(c)))
    assert corrected == pytest.approx(want, rel=1e-14)


def test_perturbed_energy_all_three_slots():
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        onebody=PotentialLaw.power_law(0.5, 2.0),
        twobody=PotentialLaw.power_law(0.5, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    pert = PerturbationSpec(
        kinetic=(1e-4, PotentialLaw.power_law(1.0, 4.0)),
        onebody=(1e-4, PotentialLaw.power_law(1.0, 1.0)),
        twobody=(1e-4, PotentialLaw.coulomb(1.0)),
    )
    corrected = perturbed_energy(sol, spec, pert)
    n, c = 3, spec.pair_count
    want = (
        sol.energy
        + n * 1e-4 * sol.p0**4
        + n * 1e-4 * (sol.r0 / n)
        + c * 1e-4 * (-1.0 / (sol.r0 / math.sqrt(c)))
    )
    assert corrected == pytest.approx(want, rel=1e-13)


def test_perturbation_warns_when_large():
    spec, sol = harmonic_solution()
    pert = PerturbationSpec(twobody=(10.0, PotentialLaw.power_law(1.0, 2.0)))
    with pytest.warns(PerturbationSizeWarning):
        perturbed_energy(sol, spec, pert)


def test_perturbation_silent_when_small():
    spec, sol = harmonic_solution()
    pert = PerturbationSpec(twobody=(1e-6, PotentialLaw.power_law(1.0, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perturbed_energy(sol, spec, pert)


def test_perturbation_spec_needs_a_term():
    with pytest.raises(ValueError):
        PerturbationSpec()


@pytest.mark.parametrize("slot, name", [("kinetic", "tau"), ("onebody", "eta"), ("twobody", "epsilon")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_perturbation_spec_rejects_non_finite_coefficients(slot, name, value):
    shape = PotentialLaw.power_law(1.0, 2.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        PerturbationSpec(**{slot: (value, shape)})


@pytest.mark.parametrize(
    "pair, message",
    [
        ((0.1, None), "^twobody shape must be a PotentialLaw, got None$"),
        ((0.1, "x^2"), "^twobody shape must be a PotentialLaw, got 'x\\^2'$"),
        ((0.1,), "^twobody must be a \\(coefficient, shape\\) pair or None, got \\(0.1,\\)$"),
        ([0.1, PotentialLaw.power_law(1.0, 2.0)], "^twobody must be a \\(coefficient, shape\\) pair or None"),
    ],
    ids=["no-shape", "string-shape", "no-pair", "list"],
)
def test_perturbation_spec_checks_each_shape_at_construction(pair, message):
    with pytest.raises(TypeError, match=message):
        PerturbationSpec(twobody=pair)


def test_perturbation_spec_takes_a_kinetic_shape_of_either_law():
    for shape in (KineticLaw.nonrelativistic(1.0), PotentialLaw.power_law(1.0, 4.0)):
        assert PerturbationSpec(kinetic=(0.1, shape)).kinetic == (0.1, shape)
    with pytest.raises(TypeError, match="^kinetic shape must be a KineticLaw or PotentialLaw, got 1.0$"):
        PerturbationSpec(kinetic=(0.1, 1.0))
    with pytest.raises(TypeError, match="^onebody shape must be a PotentialLaw, got KineticLaw"):
        PerturbationSpec(onebody=(0.1, KineticLaw.nonrelativistic(1.0)))


# --- critical couplings -------------------------------------------------------


def test_critical_scale_yukawa():
    cc = critical_coupling(
        "twobody", PotentialLaw.yukawa(1.0, 1.0), 2, 1.5, 1.0
    )
    assert cc.y0 == pytest.approx(1.0, abs=1e-12)
    assert cc.value == pytest.approx(2.25 * math.e, rel=1e-12)


def test_critical_scale_exponential():
    cc = critical_coupling(
        "twobody", PotentialLaw.exponential(1.0, 1.0), 2, 1.5, 1.0
    )
    assert cc.y0 == pytest.approx(2.0, abs=1e-12)
    # w(2) = e^{-2}: g_c = Q^2/m * e^2 / 4 at N=2
    assert cc.value == pytest.approx(2.25 * math.exp(2.0) / 4.0, rel=1e-12)


def test_critical_scale_gaussian():
    cc = critical_coupling(
        "twobody", PotentialLaw.gaussian(1.0, 1.0), 2, 1.5, 1.0
    )
    assert cc.y0 == pytest.approx(1.0, abs=1e-12)
    assert cc.value == pytest.approx(2.25 * math.e, rel=1e-12)


def test_critical_scale_tracks_screening_length():
    # y0 is proportional to the range of the well; the depth threshold
    # scales with 1/range^2 through y0^2 w(y0)
    a = critical_coupling("twobody", PotentialLaw.yukawa(1.0, 1.0), 2, 1.5, 1.0)
    b = critical_coupling("twobody", PotentialLaw.yukawa(1.0, 3.0), 2, 1.5, 1.0)
    assert b.y0 == pytest.approx(3.0 * a.y0, rel=1e-12)
    # yukawa carries a 1/x: w(y0) drops by the extra 1/3, so value scales 1/3
    assert b.value == pytest.approx(a.value / 3.0, rel=1e-10)


def test_critical_value_homogeneity():
    # value * N (N-1)^2 m / Q^2 is a pure shape constant for pair wells;
    # value * 2 N^2 m / Q^2 for one-body wells
    shape = PotentialLaw.yukawa(1.0, 1.0)
    pair_const = 2.0 * math.e
    one_const = math.e
    for n in (2, 3, 5):
        for qv in (1.0, 2.5, 7.0):
            for m in (0.5, 1.0, 4.0):
                g = critical_coupling("twobody", shape, n, qv, m)
                assert g.value * n * (n - 1) ** 2 * m / qv**2 == pytest.approx(
                    pair_const, rel=1e-10
                )
                assert g.y0 == pytest.approx(1.0, abs=1e-12)
                k = critical_coupling("onebody", shape, n, qv, m)
                assert k.value * 2.0 * n * n * m / qv**2 == pytest.approx(
                    one_const, rel=1e-10
                )


def test_critical_requires_short_range():
    with pytest.raises(NotShortRange):
        critical_coupling("twobody", PotentialLaw.coulomb(1.0), 2, 1.5, 1.0)


def test_critical_rejects_profile_without_turnover():
    # w = 1/x^2 has x^2 w(x) constant: no finite stationary scale
    law = PotentialLaw.custom(
        CustomProfile(value=lambda x: -1.0 / (x * x)), short_range=True
    )
    with pytest.raises(NoCriticalPoint):
        critical_coupling("twobody", law, 2, 1.5, 1.0)


def test_critical_scan_without_a_finite_sample_is_not_finite():
    # 1/(x x) overflows on the whole scan around screening 1e-200
    with pytest.raises(NonFiniteResult, match="screening length 1e-200"):
        critical_coupling("twobody", PotentialLaw.yukawa(1.0, 1e-200), 3, 1.5, 1.0)
    # a scan with finite samples and no sign change keeps its NoCriticalPoint
    law = PotentialLaw.custom(
        CustomProfile(value=lambda x: np.where(x < 1.0, np.nan, -1.0 / (x * x))), short_range=True
    )
    with pytest.raises(NoCriticalPoint):
        critical_coupling("twobody", law, 2, 1.5, 1.0)


@pytest.mark.parametrize(
    "q, mass",
    [(1.5, math.nan), (1.5, math.inf), (math.inf, 1.0), (math.nan, 1.0)],
    ids=["mass-nan", "mass-inf", "q-inf", "q-nan"],
)
def test_critical_rejects_non_finite_inputs(q, mass):
    for mode in ("onebody", "twobody"):
        with pytest.raises(ValueError):
            critical_coupling(mode, PotentialLaw.yukawa(1.0, 1.0), 2, q, mass)


def test_critical_coupling_beyond_the_float_range_is_an_error():
    # Q**2 overflows; a coupling of 1e+300**2 would otherwise come back as inf
    for mode in ("onebody", "twobody"):
        with pytest.raises(NonFiniteResult, match="is not finite, got inf"):
            critical_coupling(mode, PotentialLaw.yukawa(1.0, 1.0), 3, 1e300, 1.0)
        assert math.isfinite(critical_coupling(mode, PotentialLaw.yukawa(1.0, 1.0), 3, 1e150, 1.0).value)


def _critical_mpmath(mode, n, q, mass):
    """The Yukawa (coupling 5, screening 1) threshold at y0 = 1, w(y0) = 1/e, to 40 digits."""
    with mpmath.workdps(40):
        n, q = mpmath.mpf(n), mpmath.mpf(q)
        prefactor = 2 / (n * (n - 1) ** 2) if mode == "twobody" else 1 / (2 * n * n)
        return float(prefactor * q * q / mass * mpmath.e)


@pytest.mark.parametrize(
    "mode, n, q, mass, expected",
    [
        ("twobody", 10**107, None, 1.0, 1.2232268228065704e-106),
        ("twobody", 15 * 10**153, None, 1.0, 8.1548454853771357e-154),
        ("onebody", 15 * 10**153, None, 1.0, 3.0580670570164259),
        ("twobody", 3, 1e200, 1e300, None),
        ("onebody", 3, 1e200, 1e300, None),
    ],
    ids=["twobody-n-1e107", "twobody-n-1.5e154", "onebody-n-1.5e154", "twobody-q-squared-inf", "onebody-q-squared-inf"],
)
def test_critical_coupling_past_the_powers_float_range(mode, n, q, mass, expected):
    # the boson tower's Q at d = 3 is 3 (n - 1) / 2; n (n - 1)**2 or Q**2 leaves the float range
    q = q_boson_ground(n, 3) if q is None else q
    reference = _critical_mpmath(mode, n, float(q), mass)
    if expected is not None:
        assert reference == pytest.approx(expected, rel=1e-15, abs=0.0)
    result = critical_coupling(mode, PotentialLaw.yukawa(5.0, 1.0), n, q, mass)
    assert result.y0 == pytest.approx(1.0, rel=1e-14)
    assert result.value == pytest.approx(reference, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mode", ["onebody", "twobody"])
def test_critical_coupling_keeps_its_bits_where_its_powers_are_normal(mode):
    # the expression every corpus and earlier release used, wherever its
    # prefactor is a normal float and Q * Q is finite
    rng = random.Random(2026)
    for shape in (PotentialLaw.yukawa(5.0, 1.0), PotentialLaw.exponential(2.0, 0.7), PotentialLaw.gaussian(1.0, 2.0)):
        for _ in range(100):
            n = int(10 ** rng.uniform(math.log10(2), 100))
            q, mass = 10 ** rng.uniform(-3, 100), 10 ** rng.uniform(-3, 3)
            result = critical_coupling(mode, shape, n, q, mass)
            y0, w0 = result.y0, float(-shape.value(result.y0) / shape.coupling)
            if mode == "twobody":
                value = (2.0 / (n * (n - 1.0) ** 2)) * (q * q / mass) / (y0 * y0 * w0)
            else:
                value = (1.0 / (2.0 * n * n)) * (q * q / mass) / (y0 * y0 * w0)
            assert result.value == value, (n, q, mass)


def test_critical_bound_side_is_reported():
    cc = critical_coupling(
        "twobody", PotentialLaw.yukawa(1.0, 1.0), 2, 1.5, 1.0
    )
    # envelope lies above the true level, so binding needs more depth than
    # the true threshold: the estimate is an upper bound on the coupling
    assert cc.bound is BoundKind.UPPER


def test_critical_scale_on_a_grid_zero_is_that_point():
    # w = 1 and w' = -2 make 2 w + y w' = 2 - 2y, exactly zero on the grid point y = 1
    law = PotentialLaw.custom(
        CustomProfile(
            value=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
            derivative=lambda y: 2.0 * np.ones_like(np.asarray(y, dtype=float)),
        ),
        short_range=True,
    )
    assert critical_coupling("twobody", law, 2, 1.5, 1.0).y0 == 1.0


@pytest.mark.parametrize(
    "shape",
    [
        PotentialLaw.yukawa(1.0, 1.3),
        PotentialLaw.exponential(2.0, 0.7),
        PotentialLaw.gaussian(1.0, 2.0),
        PotentialLaw.custom(CustomProfile(lambda x: -np.exp(-np.power(x, 1.5))), short_range=True),
    ],
    ids=["yukawa", "exponential", "gaussian", "custom"],
)
def test_critical_scale_polishes_from_its_scan(shape):
    # the polish starts from the scan's samples and lands where a polish that
    # evaluates its own bracket ends does
    kappa = shape.coupling if shape.profile is None else 1.0

    def residual(y):  # 2 w(y) + y w'(y) with w = -W / kappa
        return 2.0 * (-shape.value(y) / kappa) + y * (-shape.derivative(y) / kappa)

    center = shape.screening if shape.screening > 0.0 else 1.0
    grid = center * np.logspace(-8.0, 8.0, 1025)
    with np.errstate(all="ignore"):
        (lo, hi, _, _), *_ = sign_change_brackets(grid, residual(grid))
    want = brentq(lambda t: float(residual(t)), lo, hi, xtol=1e-300, rtol=4.0 * EPS)[0]
    assert critical_coupling("twobody", shape, 2, 1.5, 1.0).y0 == want


def test_critical_scale_evaluates_no_scanned_point_again():
    scalars = []

    def well(x):
        if np.ndim(x) == 0:
            scalars.append(float(x))
        return -np.exp(-np.power(x, 1.5))

    y0 = critical_coupling("twobody", PotentialLaw.custom(CustomProfile(well), short_range=True), 2, 1.5, 1.0).y0
    assert y0 in scalars
    assert not set(scalars) & set(np.logspace(-8.0, 8.0, 1025).tolist())
