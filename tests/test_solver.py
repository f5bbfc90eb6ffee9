import dataclasses
import inspect
import math
import random

import numpy as np
import pytest

from envtheory import (
    BoundKind,
    CustomProfile,
    KineticLaw,
    PotentialLaw,
    SolverConfig,
    SystemSpec,
    auxiliary_energy,
    nbody_energy,
    q_boson_ground,
    q_two_body_auxiliary,
    solve_nbody,
    solve_nbody_many,
    solve_two_body,
    solver,
    stationary_residual,
    two_body_energy,
    two_body_residual,
)
from envtheory.errors import (
    InvalidAuxiliaryExponent,
    NoStationaryPoint,
    ScanExhausted,
)
from envtheory.roots import brentq, log_grid, sign_change_brackets

EPS = 2.220446049250313e-16


def harmonic_spec(n, d, m, k):
    return SystemSpec(
        n=n,
        d=d,
        kinetic=KineticLaw.nonrelativistic(m),
        twobody=PotentialLaw.power_law(k, 2.0),
    )


# --- auxiliary power-law levels ---------------------------------------------


def test_auxiliary_energy_harmonic():
    # lam = 2 is the oscillator: E = sqrt(2 rho / mu) Q
    for q in (1.5, 3.0, 7.25):
        assert auxiliary_energy(1.0, 0.5, 2.0, q) == pytest.approx(q, rel=1e-14)
        assert auxiliary_energy(2.0, 4.0, 2.0, q) == pytest.approx(
            2.0 * q, rel=1e-14
        )


def test_auxiliary_energy_coulomb():
    # lam = -1: E = -mu rho^2 / (2 Q^2)
    assert auxiliary_energy(1.0, 1.0, -1.0, 1.0) == pytest.approx(-0.5)
    assert auxiliary_energy(0.5, 2.0, -1.0, 2.0) == pytest.approx(-0.25)


def test_auxiliary_energy_linear_frozen():
    q = float(q_two_body_auxiliary(1.0, 0, 0, 3))
    assert auxiliary_energy(2.0, 3.0, 1.0, q) == pytest.approx(
        3.0637874373492417, rel=1e-12
    )


def test_auxiliary_energy_linear_equals_airy_form():
    # for mu=1, rho=1 the lam=1 level with the linear tower reproduces the
    # exact linear-potential ground state (1/2)^{1/3} |alpha_0|
    q = float(q_two_body_auxiliary(1.0, 0, 0, 3))
    want = 0.5 ** (1.0 / 3.0) * 2.338107410459767
    assert auxiliary_energy(1.0, 1.0, 1.0, q) == pytest.approx(want, rel=1e-12)


def test_auxiliary_energy_rejects_bad_exponent():
    for lam in (0.0, -2.0, -3.0):
        with pytest.raises(InvalidAuxiliaryExponent):
            auxiliary_energy(1.0, 1.0, lam, 1.0)


# --- N-body solves ----------------------------------------------------------


def test_harmonic_three_body_closed_form():
    # three particles, pairwise k r^2: every mode has omega = sqrt(2 N k / m)
    sol = solve_nbody(harmonic_spec(3, 3, 1.0, 1.0), q_boson_ground(3, 3))
    assert sol.energy == pytest.approx(3.0 * math.sqrt(6.0), rel=1e-12)
    assert sol.bound.classification is BoundKind.EXACT
    assert sol.n_roots == 1


def test_harmonic_half_strength_value():
    # pairwise amplitude 0.5 at N=3, D=3 lands on 3 sqrt(3)
    sol = solve_nbody(harmonic_spec(3, 3, 1.0, 0.5), q_boson_ground(3, 3))
    assert sol.energy == pytest.approx(5.196152422706632, rel=1e-12)


def test_harmonic_random_sweep_matches_closed_form():
    rng = random.Random(314159)
    for _ in range(40):
        n = rng.randint(2, 7)
        d = rng.randint(2, 6)
        m = rng.uniform(0.3, 4.0)
        k = rng.uniform(0.3, 4.0)
        q = q_boson_ground(n, d)
        sol = solve_nbody(harmonic_spec(n, d, m, k), q)
        want = math.sqrt(2.0 * n * k / m) * float(q)
        assert sol.energy == pytest.approx(want, rel=1e-10)
        # scales p0 r0 = Q
        assert sol.p0 * sol.r0 == pytest.approx(float(q), rel=1e-12)


def test_onebody_harmonic_closed_form():
    # one-body nu |r_i - R|^2 only: omega = sqrt(2 nu / m)
    spec = SystemSpec(
        n=4,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        onebody=PotentialLaw.power_law(0.7, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(4, 3))
    want = math.sqrt(2.0 * 0.7) * float(q_boson_ground(4, 3))
    assert sol.energy == pytest.approx(want, rel=1e-11)
    assert sol.bound.classification is BoundKind.EXACT


def test_mixed_one_and_two_body_harmonic():
    # nu + N rho sets the frequency when both quadratic terms are present
    n, nu, rho, m = 3, 0.4, 0.9, 1.2
    spec = SystemSpec(
        n=n,
        d=3,
        kinetic=KineticLaw.nonrelativistic(m),
        onebody=PotentialLaw.power_law(nu, 2.0),
        twobody=PotentialLaw.power_law(rho, 2.0),
    )
    q = q_boson_ground(n, 3)
    sol = solve_nbody(spec, q)
    want = math.sqrt(2.0 * (nu + n * rho) / m) * float(q)
    assert sol.energy == pytest.approx(want, rel=1e-11)


def test_two_body_coulomb_framings_agree():
    # N-body at N=2 with particle mass m is the relative problem at mu = m/2
    nb = solve_nbody(
        SystemSpec(
            n=2,
            d=3,
            kinetic=KineticLaw.nonrelativistic(1.0),
            twobody=PotentialLaw.coulomb(1.0),
        ),
        1.5,
    )
    tb = solve_two_body(
        KineticLaw.nonrelativistic(0.5), PotentialLaw.coulomb(1.0), None, 1.5
    )
    assert nb.energy == pytest.approx(tb.energy, rel=1e-12)
    assert nb.energy == pytest.approx(-1.0 / 9.0, rel=1e-12)


def test_two_body_coulomb_exact_with_inverse_tower():
    sol = solve_two_body(
        KineticLaw.nonrelativistic(1.0),
        PotentialLaw.coulomb(1.0),
        -1.0,
        q_two_body_auxiliary(-1.0, 0, 0, 3),
    )
    assert sol.energy == pytest.approx(-0.5, rel=1e-12)
    assert sol.bound.classification is BoundKind.EXACT


def test_two_body_linear_exact_with_linear_tower():
    sol = solve_two_body(
        KineticLaw.nonrelativistic(1.0),
        PotentialLaw.power_law(1.0, 1.0),
        1.0,
        q_two_body_auxiliary(1.0, 0, 0, 3),
    )
    want = 0.5 ** (1.0 / 3.0) * 2.338107410459767
    assert sol.energy == pytest.approx(want, rel=1e-11)
    assert sol.bound.classification is BoundKind.EXACT


def test_fourier_swap_invariance():
    # exchanging the kinetic and potential shapes leaves the level alone and
    # swaps the mean radius and momentum
    q = 2.5
    a = solve_two_body(
        KineticLaw.nonrelativistic(0.5),  # p^2
        PotentialLaw.power_law(1.0, 1.0),  # + r
        2.0,
        q,
    )
    swapped = solve_two_body(
        KineticLaw.ultrarelativistic(),  # p
        PotentialLaw.power_law(1.0, 2.0),  # + r^2
        2.0,
        q,
    )
    assert a.energy == pytest.approx(swapped.energy, rel=1e-11)
    assert a.r0 == pytest.approx(swapped.p0, rel=1e-9)
    assert a.p0 == pytest.approx(swapped.r0, rel=1e-9)


def test_semirelativistic_upper_bound_value():
    # frozen: N=3 gravitating semirelativistic bosons, alpha = 0.1
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.semirelativistic(1.0),
        twobody=PotentialLaw.coulomb(0.1),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    assert sol.energy == pytest.approx(2.9949958263743874, rel=1e-10)
    assert sol.bound.classification is BoundKind.UPPER


def test_ultrarelativistic_coulomb_collapses():
    # N p0 and the Coulomb pull scale identically with r0: no stationary
    # point once the attraction dominates
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.ultrarelativistic(),
        twobody=PotentialLaw.coulomb(10.0),
    )
    with pytest.raises(NoStationaryPoint) as err:
        solve_nbody(spec, q_boson_ground(3, 3))
    assert "collapse" in str(err.value)


def test_subcritical_well_is_unbound():
    # a shallow Yukawa cannot hold the level below zero; kinetic pressure wins
    spec = SystemSpec(
        n=2,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.yukawa(0.5, 1.0),
    )
    with pytest.raises(NoStationaryPoint) as err:
        solve_nbody(spec, 1.5)
    assert "kinetic" in str(err.value)


# --- a scan with no bracket: the verdict its samples give --------------------------


def _solve_with_residual(samples):
    """Solve a two-body level whose stationarity residual is -r0 h(r0) for ``h = samples(r0)``.

    The kinetic law is flat, so the residual is the potential term alone.
    """
    flat = KineticLaw.custom(CustomProfile(lambda p: 0.0 * p, lambda p: 0.0 * p))
    potential = PotentialLaw.custom(CustomProfile(lambda x: 0.0 * x, samples))
    return solve_two_body(flat, potential, None, 2.5)


@pytest.mark.parametrize(
    "samples, error, message",
    [
        # residual negative throughout, -inf above r0 = 1e3 and NaN below 1e-3
        (
            lambda x: np.where(x > 1e3, np.inf, np.where(x < 1e-3, np.nan, 1.0)),
            NoStationaryPoint,
            "attraction dominates at every scanned scale (collapse regime)",
        ),
        # residual positive throughout, NaN below 1e-3
        (
            lambda x: np.where(x < 1e-3, np.nan, -1.0),
            NoStationaryPoint,
            "kinetic pressure dominates at every scanned scale (no bound stationary point)",
        ),
        (
            lambda x: np.full(np.shape(x), np.nan),
            ScanExhausted,
            "stationarity residual could not be evaluated anywhere on the scan grid",
        ),
        # positive below r0 = 1, +inf on [1, 2], negative above: no finite bracket
        (
            lambda x: np.where(x < 1.0, -1.0, np.where(x <= 2.0, -np.inf, 1.0)),
            ScanExhausted,
            "residual changes sign but no adjacent finite bracket could be isolated",
        ),
    ],
    ids=["collapse", "unbound", "all-nan", "broken-by-inf"],
)
def test_a_scan_without_a_bracket_gives_its_samples_verdict(samples, error, message):
    with pytest.raises(error) as err:
        _solve_with_residual(samples)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_sampled_zero_is_a_root_with_its_own_sample(zero):
    at = float(2.5 * log_grid(8.0, 64)[300])
    scalar_calls = []

    def residual(r0):
        if np.ndim(r0) == 0:
            scalar_calls.append(r0)
        return np.where(r0 == at, zero, at - r0)

    (bracket,) = solver._scan_passes(residual, 2.5, SolverConfig())
    assert [x.hex() for x in bracket] == [at.hex(), at.hex(), zero.hex(), zero.hex()]
    lo, hi, f_lo, f_hi = bracket
    # polished as ``_solve`` polishes it: the sample is the root's own value
    r0, value = brentq(residual, lo, hi, xtol=1e-300, fa=f_lo, fb=f_hi)
    assert (r0.hex(), value.hex()) == (at.hex(), zero.hex())
    assert scalar_calls == []


def test_overcritical_yukawa_two_roots():
    spec = SystemSpec(
        n=2,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.yukawa(8.0, 1.0),
    )
    sol = solve_nbody(spec, 1.5)
    assert sol.n_roots == 2
    # the reported level is the lowest one
    assert sol.energy == pytest.approx(min(r.energy for r in sol.roots), rel=0)
    assert sol.energy < 0.0
    # both roots satisfy the stationarity condition
    for root in sol.roots:
        assert abs(float(stationary_residual(spec, 1.5, root.r0))) < 1e-8


def test_logarithmic_mass_independence_of_splittings():
    # level differences of -(1/2m) Lap + c ln(r) do not depend on m; the
    # envelope inherits that through Q -> Q' at fixed tower spacing
    c = 1.0
    for m in (0.5, 1.0, 2.0):
        sols = [
            solve_two_body(
                KineticLaw.nonrelativistic(m),
                PotentialLaw.logarithmic(c),
                2.0,
                q_two_body_auxiliary(2.0, n, 0, 3),
            )
            for n in (0, 1)
        ]
        gap = sols[1].energy - sols[0].energy
        # envelope gap for ln r: c ln(Q1/Q0), independent of mass
        want = c * math.log(3.5 / 1.5)
        assert gap == pytest.approx(want, rel=1e-10)


def test_residual_and_energy_are_consistent():
    spec = harmonic_spec(4, 3, 1.0, 1.0)
    q = float(q_boson_ground(4, 3))
    sol = solve_nbody(spec, q)
    # the residual vanishes at r0 and the energy function is stationary there
    assert abs(float(stationary_residual(spec, q, sol.r0))) < 1e-9
    h = 1e-6 * sol.r0
    e = lambda r: float(nbody_energy(spec, r, q / r))
    slope = (e(sol.r0 + h) - e(sol.r0 - h)) / (2.0 * h)
    assert abs(slope) < 1e-6
    assert e(sol.r0) == pytest.approx(sol.energy, rel=1e-14)


def test_two_body_energy_shape():
    kin = KineticLaw.nonrelativistic(1.0)
    pot = PotentialLaw.power_law(1.0, 2.0)
    assert two_body_energy(kin, pot, 2.0, 3.0) == pytest.approx(
        9.0 / 2.0 + 4.0, rel=1e-15
    )


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=3)
    with pytest.raises(ValueError):
        SolverConfig(bracket_expansion=1.0)
    with pytest.raises(ValueError):
        SolverConfig(points_per_decade=4)


@pytest.mark.parametrize(
    "field", ["tolerance", "max_iterations", "bracket_expansion", "points_per_decade", "decades"]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        SolverConfig(**{field: value})


def test_solver_config_finite_messages_unchanged():
    with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1e-6\], got 0.001$"):
        SolverConfig(tolerance=1e-3)
    with pytest.raises(ValueError, match="^bracket_expansion must exceed 1, got 1.0$"):
        SolverConfig(bracket_expansion=1.0)
    with pytest.raises(ValueError, match=r"^decades must be positive, got -1.0$"):
        SolverConfig(decades=-1.0)
    # the finite check comes first
    with pytest.raises(ValueError, match="^decades must be finite, got inf$"):
        SolverConfig(decades=math.inf)


def test_points_per_decade_is_a_count():
    with pytest.raises(ValueError, match=r"^points_per_decade must be an integer, got 8.5$"):
        SolverConfig(points_per_decade=8.5)
    with pytest.raises(ValueError, match="^points_per_decade must be >= 8, got 7$"):
        SolverConfig(points_per_decade=7)
    assert SolverConfig(points_per_decade=np.int64(8)).points_per_decade == 8


def test_the_widest_scan_is_bounded():
    # the third pass scans points_per_decade * decades * bracket_expansion**2 + 1 samples, at most 2**20
    assert SolverConfig(points_per_decade=2**15 - 1).points_per_decade == 2**15 - 1
    for fields in ({"points_per_decade": 2**15}, {"bracket_expansion": 1e200}, {"decades": 1e300}):
        with pytest.raises(ValueError, match=r"^the widest scan, .* takes more than 1048576 samples$"):
            SolverConfig(**fields)


def test_tight_tolerance_is_honored():
    spec = harmonic_spec(3, 3, 1.0, 1.0)
    sol = solve_nbody(spec, q_boson_ground(3, 3), SolverConfig(tolerance=1e-12))
    want_r0 = (3.0 * 9.0 / 2.0) ** 0.25
    assert sol.r0 == pytest.approx(want_r0, rel=1e-12)


# --- non-finite quantum numbers ---------------------------------------------


@pytest.mark.parametrize("q", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_q_is_rejected(q):
    with pytest.raises(ValueError):
        solve_nbody(harmonic_spec(3, 3, 1.0, 1.0), q)
    with pytest.raises(ValueError):
        solve_two_body(KineticLaw.nonrelativistic(0.5), PotentialLaw.power_law(1.0, 1.0), 2.0, q)
    with pytest.raises(ValueError):
        auxiliary_energy(1.0, 1.0, 2.0, q)


def test_log_grid_equals_the_logspace_expression_bit_for_bit():
    for guess in (1.0, 0.37, 4.5, 1234.5678, 3e-7):
        for decades, per_decade in ((8.0, 64), (16.0, 64), (32.0, 64), (3.3, 9), (12.5, 100)):
            half = decades / 2.0
            count = int(round(per_decade * decades)) + 1
            want = guess * np.logspace(-half, half, count)
            got = guess * log_grid(decades, per_decade)
            assert got.tobytes() == want.tobytes()
            assert (guess * log_grid(decades, per_decade)).tobytes() == want.tobytes()  # cached unit grid
    # the critical-coupling profile scan's grid
    assert log_grid(16.0, 64).tobytes() == np.logspace(-8.0, 8.0, 1025).tobytes()
    assert not log_grid(8.0, 64).flags.writeable


# --- a level polishes from its scan's samples ------------------------------------


_NBODY_LEVELS = [
    harmonic_spec(4, 3, 1.0, 1.0),
    SystemSpec(2, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.yukawa(8.0, 1.0)),  # two roots
    SystemSpec(3, 3, KineticLaw.semirelativistic(0.5), onebody=PotentialLaw.power_law(0.7, 1.0)),
    SystemSpec(5, 2, KineticLaw.minimal_length_quartic(1.0, 0.2), twobody=PotentialLaw.logarithmic(1.1)),
    SystemSpec(
        3,
        3,
        KineticLaw.custom(CustomProfile(lambda p: np.sqrt(p * p + 1.0) + 0.2 * p * p)),
        twobody=PotentialLaw.custom(CustomProfile(lambda x: np.power(x, 1.4) - np.exp(-x))),
    ),
]


def _scalar_points(monkeypatch, name):
    """The scalar r0 of every call the solver makes to its residual function ``name``."""
    points = []
    original = getattr(solver, name)

    def recorded(*args):
        if np.ndim(args[-1]) == 0:
            points.append(float(args[-1]))
        return original(*args)

    monkeypatch.setattr(solver, name, recorded)
    return points


def _reference_roots(f, grid):
    """The roots as a polish that evaluates its own bracket ends finds them."""
    with np.errstate(all="ignore"):
        brackets = sign_change_brackets(grid, f(grid))
    rtol = max(SolverConfig().tolerance, 4.0 * EPS)
    return sorted(
        lo if lo == hi else brentq(lambda r: float(f(r)), lo, hi, xtol=1e-300, rtol=rtol, maxiter=200)[0]
        for lo, hi, _, _ in brackets
    )


def _assert_polished_from_the_scan(solution, points, f, q):
    grid = q * log_grid(8.0, 64)
    # the polish went through the residual function under test
    assert points
    # no point evaluated twice, and no scanned point evaluated again
    assert len(points) == len(set(points))
    assert not set(points) & set(grid.tolist())
    assert sorted(root.r0 for root in solution.roots) == _reference_roots(f, grid)
    for root in solution.roots:
        assert root.residual.hex() == float(f(root.r0)).hex()


@pytest.mark.parametrize("spec", _NBODY_LEVELS, ids=lambda spec: spec.kinetic.family.value)
def test_nbody_level_polishes_from_its_scan(monkeypatch, spec):
    q = 1.5
    f = lambda r0: stationary_residual(spec, q, r0)  # noqa: E731
    points = _scalar_points(monkeypatch, "stationary_residual")
    solution = solve_nbody(spec, q)
    _assert_polished_from_the_scan(solution, points, f, q)
    # the block path hands each row's samples to the same polish, with n,
    # pair_count and q differing between rows
    other = dataclasses.replace(spec, n=spec.n + 1)
    alone = list(points)
    points.clear()
    other_solution = solve_nbody(other, 2.0)
    other_points = list(points)
    points.clear()
    blocked = solve_nbody_many([spec, other, spec], [q, 2.0, q])
    assert blocked == [solution, other_solution, solution]
    assert sorted(points) == sorted(2 * alone + other_points)


@pytest.mark.parametrize(
    "kinetic, potential, lam",
    [
        (KineticLaw.semirelativistic(1.0), PotentialLaw.power_law(1.0, 1.0), 1.0),
        (KineticLaw.nonrelativistic(1.0), PotentialLaw.coulomb(1.0), -1.0),
        (KineticLaw.nonrelativistic(1.0), PotentialLaw.yukawa(8.0, 1.0), 2.0),
        (KineticLaw.ultrarelativistic(), PotentialLaw.square_root(0.3, 1.0), 2.0),
    ],
    ids=["semirel-linear", "coulomb", "yukawa", "ultrarel-sqrt"],
)
def test_two_body_level_polishes_from_its_scan(monkeypatch, kinetic, potential, lam):
    q = 2.5
    f = lambda r0: two_body_residual(kinetic, potential, q, r0)  # noqa: E731
    points = _scalar_points(monkeypatch, "two_body_residual")
    _assert_polished_from_the_scan(solve_two_body(kinetic, potential, lam, q), points, f, q)


def test_a_float_power_profile_polishes_within_the_tolerance():
    # Python's ** on a float is libm's pow and can differ in the last bit from
    # np.power's array sample, so this profile's polish starts from end values
    # an ulp off the scalar ones: it still converges, and lands within a few
    # tolerances of a polish that evaluates its own ends
    spec = SystemSpec(
        3,
        3,
        KineticLaw.custom(CustomProfile(lambda p: p**3, lambda p: 3.0 * p * p)),
        twobody=PotentialLaw.custom(CustomProfile(lambda x: x**1.3, lambda x: 1.3 * x**0.3)),
    )
    tolerance = SolverConfig().tolerance
    for q in np.linspace(0.5, 20.0, 400).tolist():
        got = sorted(root.r0 for root in solve_nbody(spec, q).roots)
        want = _reference_roots(lambda r0: stationary_residual(spec, q, r0), q * log_grid(8.0, 64))
        assert len(got) == len(want)
        for r0, reference in zip(got, want):
            assert abs(r0 - reference) <= 10.0 * tolerance * reference


_YUKAWA = PotentialLaw.yukawa(8.0, 1.0)  # two roots on both paths


@pytest.mark.parametrize(
    "name, solve",
    [
        ("classify_bound", lambda: solve_nbody(_NBODY_LEVELS[1], 1.5)),
        ("classify_two_body", lambda: solve_two_body(KineticLaw.nonrelativistic(1.0), _YUKAWA, 2.0, 2.5)),
    ],
)
def test_a_level_calls_its_verdict_once_on_the_decade_around_its_lowest_root(monkeypatch, name, solve):
    calls = []
    original = getattr(solver.analysis, name)
    signature = inspect.signature(original)

    def recorded(*args, **kwargs):
        given = signature.bind(*args, **kwargs).arguments
        calls.append((given["domain"], given["momentum_domain"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(solver.analysis, name, recorded)
    solution = solve()
    assert solution.n_roots == 2 and solution.energy == min(root.energy for root in solution.roots)
    r0, p0 = solution.r0, solution.p0
    assert calls == [((r0 / 10.0, 10.0 * r0), (p0 / 10.0, 10.0 * p0))]
