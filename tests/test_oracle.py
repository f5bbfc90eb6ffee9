import math

import numpy as np
import pytest

from envtheory import (
    CustomProfile,
    KineticLaw,
    PotentialLaw,
    RadialProblem,
    SemiclassicalGeometry,
    StateSpec,
    SystemSpec,
    centripetal_balance,
    harmonic_exact,
    mean_separation,
    q_boson_ground,
    radial_eigenvalue,
    radial_eigenvalues,
    solve_nbody,
)
from envtheory.errors import (
    DimensionTooSmall,
    NotConverged,
    UnboundedBelow,
    UnboundOscillator,
)


# --- exact oscillator spectrum --------------------------------------------------


def test_harmonic_exact_ground_state():
    state = StateSpec.ground(3)
    e = harmonic_exact(3, 3, 1.0, 0.0, 1.0, state)
    assert e == pytest.approx(3.0 * math.sqrt(6.0), rel=1e-15)


def test_harmonic_exact_mixed_couplings():
    state = StateSpec.ground(3)
    # nu + N rho = 0.4 + 3 * 0.9
    want = math.sqrt(2.0 * (0.4 + 3 * 0.9) / 1.2) * 3.0
    assert harmonic_exact(3, 3, 1.2, 0.4, 0.9, state) == pytest.approx(want, rel=1e-15)


def test_harmonic_exact_excited_level():
    state = StateSpec(quanta=((1, 2), (0, 1)))
    # Q = (2 + 2) + (0 + 1) + 2 * 4 / 2 = 9 at D = 4
    assert harmonic_exact(3, 4, 1.0, 0.5, 0.0, state) == pytest.approx(
        math.sqrt(1.0) * 9.0, rel=1e-15
    )


def test_harmonic_exact_unbound():
    with pytest.raises(UnboundOscillator):
        harmonic_exact(3, 3, 1.0, 0.3, -0.2, StateSpec.ground(3))


def test_harmonic_exact_pair_count_mismatch():
    with pytest.raises(ValueError):
        harmonic_exact(4, 3, 1.0, 0.0, 1.0, StateSpec.ground(3))


def test_harmonic_exact_envelope_agreement():
    # quadratic laws make the envelope construction exact: both routes agree
    spec = SystemSpec(
        n=4,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(0.7, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(4, 3))
    exact = harmonic_exact(4, 3, 1.0, 0.0, 0.7, StateSpec.ground(4))
    assert sol.energy == pytest.approx(exact, rel=1e-12)


# --- radial eigensolver ---------------------------------------------------------


def test_radial_hydrogen_levels():
    prob = RadialProblem(mu=1.0, potential=PotentialLaw.coulomb(1.0), d=3, l=0, r_max=80.0)
    levels = radial_eigenvalues(prob, 3)
    for i, e in enumerate(levels):
        assert e == pytest.approx(-0.5 / (i + 1) ** 2, rel=2e-7), f"level {i}"
    assert levels[0] == pytest.approx(-0.5, abs=1e-8)


def test_radial_hydrogen_higher_dimension_and_l():
    # Coulomb level at degree l in D dimensions: -mu a^2 / (2 (n + l + (D-1)/2)^2)
    prob = RadialProblem(mu=1.0, potential=PotentialLaw.coulomb(1.0), d=5, l=1, r_max=150.0)
    e0 = radial_eigenvalue(prob, 0)
    assert e0 == pytest.approx(-1.0 / 18.0, rel=1e-7)


def test_radial_harmonic_tower():
    prob = RadialProblem(mu=1.0, potential=PotentialLaw.power_law(1.0, 2.0), d=3, l=0, r_max=12.0)
    levels = radial_eigenvalues(prob, 3)
    omega = math.sqrt(2.0)
    for i, e in enumerate(levels):
        assert e == pytest.approx(omega * (2 * i + 1.5), rel=1e-8), f"level {i}"


def test_radial_harmonic_two_dimensions():
    # the D = 2 angular sector stresses the discretization hardest
    prob = RadialProblem(mu=1.0, potential=PotentialLaw.power_law(1.0, 2.0), d=2, l=0, r_max=12.0)
    levels = radial_eigenvalues(prob, 2)
    omega = math.sqrt(2.0)
    assert levels[0] == pytest.approx(omega * 1.0, rel=1e-7)
    assert levels[1] == pytest.approx(omega * 3.0, rel=1e-7)


def test_radial_linear_airy():
    # mu = 1/2 makes -u'' + r u = E u exactly: levels are minus the Airy zeros
    prob = RadialProblem(mu=0.5, potential=PotentialLaw.power_law(1.0, 1.0), d=3, l=0, r_max=30.0)
    levels = radial_eigenvalues(prob, 2)
    assert levels[0] == pytest.approx(2.338107410459767, rel=1e-8)
    assert levels[1] == pytest.approx(4.08794944413097, rel=1e-8)


def test_radial_levels_increase_with_l():
    base = dict(mu=1.0, potential=PotentialLaw.power_law(1.0, 2.0), d=3, r_max=12.0)
    e_l0 = radial_eigenvalue(RadialProblem(l=0, **base), 0)
    e_l1 = radial_eigenvalue(RadialProblem(l=1, **base), 0)
    e_l2 = radial_eigenvalue(RadialProblem(l=2, **base), 0)
    assert e_l0 < e_l1 < e_l2
    omega = math.sqrt(2.0)
    assert e_l1 == pytest.approx(omega * 2.5, rel=1e-8)


def test_radial_rejects_nonfinite_potential():
    law = PotentialLaw.custom(CustomProfile(value=lambda r: np.log(r - 1.0)))
    prob = RadialProblem(mu=1.0, potential=law, d=3, l=0, r_max=10.0)
    with pytest.raises(UnboundedBelow):
        radial_eigenvalues(prob, 1)


def test_radial_not_converged_when_box_swamps_well():
    # an absurd box leaves the well unresolved at every affordable grid
    prob = RadialProblem(
        mu=1.0, potential=PotentialLaw.power_law(1.0, 2.0), d=3, l=0,
        r_max=1e6, points=200,
    )
    with pytest.raises(NotConverged):
        radial_eigenvalues(prob, 1)


def test_radial_problem_validation():
    v = PotentialLaw.power_law(1.0, 2.0)
    with pytest.raises(ValueError):
        RadialProblem(mu=0.0, potential=v, d=3, l=0, r_max=10.0)
    with pytest.raises(ValueError):
        RadialProblem(mu=1.0, potential=v, d=1, l=0, r_max=10.0)
    with pytest.raises(ValueError):
        RadialProblem(mu=1.0, potential=v, d=3, l=-1, r_max=10.0)
    with pytest.raises(ValueError):
        RadialProblem(mu=1.0, potential=v, d=3, l=0, r_max=0.0)
    with pytest.raises(ValueError):
        RadialProblem(mu=1.0, potential=v, d=3, l=0, r_max=10.0, points=100)
    with pytest.raises(ValueError):
        radial_eigenvalue(RadialProblem(mu=1.0, potential=v, d=3, l=0, r_max=10.0), -1)


def test_radial_centrifugal_constant():
    v = PotentialLaw.power_law(1.0, 2.0)
    assert RadialProblem(mu=1.0, potential=v, d=3, l=2, r_max=5.0).centrifugal == 6.0
    assert RadialProblem(mu=1.0, potential=v, d=2, l=0, r_max=5.0).centrifugal == -0.25


# --- semiclassical geometry -----------------------------------------------------


def test_geometry_two_and_three_bodies_coincide():
    for n in (2, 3):
        _, deviation = mean_separation(n, 4.2)
        assert deviation < 1e-14


def test_geometry_four_body_deviation():
    _, deviation = mean_separation(4, 1.0)
    assert deviation == pytest.approx(0.014401440347113598, rel=1e-10)


def test_geometry_deviation_monotone_and_saturates():
    devs = [mean_separation(n, 1.0)[1] for n in range(4, 40)]
    assert all(b > a for a, b in zip(devs, devs[1:]))
    limit = 1.0 - 2.0 * math.sqrt(2.0) / math.pi
    _, far = mean_separation(10**4, 1.0)
    assert far == pytest.approx(limit, abs=1e-4)
    assert far < limit


def test_geometry_scales_with_r0():
    a = SemiclassicalGeometry.for_system(5, 1.0)
    b = SemiclassicalGeometry.for_system(5, 3.0)
    assert b.orbit_radius == pytest.approx(3.0 * a.orbit_radius, rel=1e-15)
    assert b.circle_separation == pytest.approx(3.0 * a.circle_separation, rel=1e-15)
    assert b.simplex_edge == pytest.approx(3.0 * a.simplex_edge, rel=1e-15)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SemiclassicalGeometry.for_system(1, 1.0)
    with pytest.raises(ValueError):
        SemiclassicalGeometry.for_system(3, 0.0)


def test_balance_simplex_closes_exactly():
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    *_, residual = centripetal_balance(spec, sol, geometry="simplex")
    assert abs(residual) < 1e-10


def test_balance_circle_matches_separation_deviation_for_linear_pairs():
    # with a constant pair force the circle residual is exactly the
    # circle-vs-simplex separation mismatch
    spec = SystemSpec(
        n=4,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 1.0),
    )
    sol = solve_nbody(spec, q_boson_ground(4, 3))
    *_, residual = centripetal_balance(spec, sol, geometry="circle")
    assert abs(residual) == pytest.approx(0.014401440347113598, abs=1e-10)


def test_balance_circle_small_for_few_bodies():
    for n in (2, 3):
        spec = SystemSpec(
            n=n,
            d=3,
            kinetic=KineticLaw.nonrelativistic(1.0),
            twobody=PotentialLaw.power_law(1.0, 2.0),
        )
        sol = solve_nbody(spec, q_boson_ground(n, 3))
        *_, residual = centripetal_balance(spec, sol, geometry="circle")
        assert abs(residual) < 1e-10


def test_balance_circle_harmonic_four_bodies():
    spec = SystemSpec(
        n=4,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(4, 3))
    *_, residual = centripetal_balance(spec, sol, geometry="circle")
    assert 0.0 < abs(residual) < 0.03


def test_balance_simplex_needs_enough_dimensions():
    spec = SystemSpec(
        n=4,
        d=2,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(4, 2))
    with pytest.raises(DimensionTooSmall):
        centripetal_balance(spec, sol, geometry="simplex")


def test_balance_rejects_unknown_geometry():
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    with pytest.raises(ValueError):
        centripetal_balance(spec, sol, geometry="hexagon")


def test_balance_includes_onebody_force():
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        onebody=PotentialLaw.power_law(0.5, 2.0),
        twobody=PotentialLaw.power_law(0.5, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    f_c, f_1, f_2, residual = centripetal_balance(spec, sol, geometry="simplex")
    assert f_1 > 0.0 and f_2 > 0.0
    assert abs(residual) < 1e-10


def test_the_grid_bounds_the_levels_and_the_kinetic_scale():
    problem = RadialProblem(mu=0.5, potential=PotentialLaw.power_law(1.0, 2.0), d=3, l=0, r_max=10.0, points=200)
    with pytest.raises(ValueError, match="200 grid points hold at most 200 levels, got 201"):
        radial_eigenvalues(problem, 201)
    # 1e-150 / 4000 squares to a normal float; only the sixth doubling underflows
    for r_max in (1e-300, 1e-150):
        with pytest.raises(ValueError, match="kinetic scale 1/\\(2 mu h\\^2\\) of its finest doubling is not finite"):
            RadialProblem(mu=0.5, potential=problem.potential, d=3, l=0, r_max=r_max)
    RadialProblem(mu=0.5, potential=problem.potential, d=3, l=0, r_max=1e-130)
