import math
import warnings

import numpy as np
import pytest

from envtheory import (
    BaryonParams,
    BosonStarParams,
    KineticLaw,
    PerturbationSpec,
    PotentialLaw,
    QValue,
    SystemSpec,
    baryon_bounds,
    boson_star_limit,
    boson_star_mass,
    boson_star_max_mass,
    minimal_length_energy,
    perturbed_energy,
    q_boson_ground,
    solve_nbody,
)
from envtheory.errors import CollapseRegime, PerturbationSizeWarning


# --- light-quark baryon bounds -------------------------------------------------


def test_baryon_frozen_values():
    e_up, e_lo = baryon_bounds(BaryonParams(n=3, d=3, a1=0.0, a2=0.2, b=0.4))
    assert e_up == pytest.approx(3.0968961581712615, rel=1e-15)
    assert e_lo == pytest.approx(2.078460969082653, rel=1e-15)


def test_baryon_closed_form_against_formula():
    p = BaryonParams(n=4, d=3, a1=0.3, a2=0.15, b=0.2)
    c = 6.0
    want_up = math.sqrt(4 * c * (0.3 + 0.15 * math.sqrt(c)) * (3 - 0.2 * math.sqrt(c)))
    want_lo = math.sqrt(2 * c * (0.3 + 0.15 * 4) * (2 - 0.2 * 3))
    e_up, e_lo = baryon_bounds(p)
    assert e_up == pytest.approx(want_up, rel=1e-15)
    assert e_lo == pytest.approx(want_lo, rel=1e-15)


def test_baryon_bracket_orders_correctly():
    e_up, e_lo = baryon_bounds(BaryonParams(n=3, d=3, a1=0.1, a2=0.2, b=0.1))
    assert e_lo < e_up


def test_baryon_matches_generic_solver():
    p = BaryonParams(n=3, d=3, a1=0.0, a2=0.2, b=0.4)
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.ultrarelativistic(),
        twobody=PotentialLaw.custom(
            # a2 * x - b / x with analytic slope
            profile_pair_attraction(0.2, 0.4)
        ),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    e_up, _ = baryon_bounds(p)
    assert sol.energy == pytest.approx(e_up, rel=1e-10)


def profile_pair_attraction(a2, b):
    from envtheory import CustomProfile

    return CustomProfile(
        value=lambda x: a2 * x - b / x,
        derivative=lambda x: a2 + b / (x * x),
    )


def test_baryon_collapse_pairwise():
    with pytest.raises(CollapseRegime):
        baryon_bounds(BaryonParams(n=10, d=3, a2=0.2, b=0.5))  # D < b sqrt(C)


def test_baryon_collapse_lower_margin():
    # N = 5, b = 0.6: upper margin 3 - 0.6 sqrt(10) > 0 but 2 - 0.6*4 < 0
    with pytest.raises(CollapseRegime):
        baryon_bounds(BaryonParams(n=5, d=3, a2=0.2, b=0.6))


def test_baryon_ratio_limit_large_n_and_d():
    # with a1 = b = 0 the squared bound ratio approaches sqrt(2) D / (D - 1)
    n, d = 10**6, 10**4
    e_up, e_lo = baryon_bounds(BaryonParams(n=n, d=d, a2=1.0))
    ratio2 = (e_up / e_lo) ** 2
    want = math.sqrt(2.0) * d / (d - 1.0)
    assert abs(ratio2 - want) < 1e-4


def test_baryon_params_validation():
    with pytest.raises(ValueError):
        BaryonParams(n=1, d=3, a2=0.1)
    with pytest.raises(ValueError):
        BaryonParams(n=3, d=1, a2=0.1)
    with pytest.raises(ValueError):
        BaryonParams(n=3, d=3)  # no confinement at all
    with pytest.raises(ValueError):
        BaryonParams(n=3, d=3, a2=0.1, b=-0.2)


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"a1": math.inf}, "a1 must be finite, got inf"),
        ({"a1": 1.0, "a2": math.nan}, "a2 must be finite, got nan"),
        ({"a1": 1.0, "b": math.nan}, "b must be finite, got nan"),
        ({"a2": 0.2, "b": -math.inf}, "b must be finite, got -inf"),
    ],
)
def test_baryon_params_reject_non_finite(fields, expected):
    with pytest.raises(ValueError, match=f"^{expected}$"):
        BaryonParams(n=3, d=3, **fields)


# --- self-gravitating boson stars ----------------------------------------------


def test_boson_star_mass_formula():
    p = BosonStarParams(n=5, mass=1.0, alpha=0.05)
    q = q_boson_ground(5, 3)
    want = 5.0 * math.sqrt(1.0 - 5 * 4**3 * 0.05**2 / (8.0 * float(q) ** 2))
    assert boson_star_mass(p, q) == pytest.approx(want, rel=1e-15)


def test_boson_star_collapse():
    # N (N-1)^3 alpha^2 > 8 Q^2 at alpha = 2, n = 5, Q = 6
    with pytest.raises(CollapseRegime):
        boson_star_mass(BosonStarParams(n=5, mass=1.0, alpha=2.0), 6.0)


def test_boson_star_matches_generic_solver():
    n, m, alpha = 4, 1.0, 0.02
    q = q_boson_ground(n, 3)
    spec = SystemSpec(
        n=n,
        d=3,
        kinetic=KineticLaw.semirelativistic(m),
        twobody=PotentialLaw.coulomb(alpha),
    )
    sol = solve_nbody(spec, q)
    assert sol.energy == pytest.approx(boson_star_mass(BosonStarParams(n, m, alpha), q), rel=1e-10)


def test_boson_star_max_mass_scan():
    d, m, alpha = 3, 1.0, 1e-3
    n_opt, m_max = boson_star_max_mass(d, m, alpha, n_max=10**4)
    # continuum argmax is near D / alpha
    assert abs(n_opt - d / alpha) <= 1.0
    assert abs(m_max * alpha / m - boson_star_limit(d)) < 5e-4


def test_boson_star_max_mass_golden_section_branch():
    d, m, alpha = 3, 1.0, 1e-4
    n_opt, m_max = boson_star_max_mass(d, m, alpha, n_max=10**7)
    assert abs(n_opt - d / alpha) <= 2.0
    assert abs(m_max * alpha / m - boson_star_limit(d)) < 5e-5


def _scanned_max_mass(d, mass, alpha, n_max):
    """The scan the closed form replaced (golden section past 2M points), kept as its reference."""
    coeff = alpha * alpha / (2.0 * d * d)

    def bound(n_arr):
        arg = 1.0 - n_arr * (n_arr - 1.0) * coeff
        return n_arr * mass * np.sqrt(np.clip(arg, 0.0, None))

    if n_max <= 2_000_000:
        ns = np.arange(2, n_max + 1, dtype=float)
    else:
        lo, hi = 2.0, float(n_max)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(200):
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            if bound(np.asarray(a)) < bound(np.asarray(b)):
                lo = a
            else:
                hi = b
        center = int(round((lo + hi) / 2.0))
        ns = np.arange(max(2, center - 5), min(n_max, center + 5) + 1, dtype=float)
    masses = bound(ns)
    idx = int(np.argmax(masses))
    return int(ns[idx]), float(masses[idx])


def test_boson_star_max_mass_closed_form_matches_the_scan():
    # 5 dimensions x 40 couplings x 5 ranges = 1000 cells, argmax and mass bit for bit
    for d in (2, 3, 4, 6, 10):
        for alpha in np.geomspace(1e-3, 1.5, 40).tolist():
            for n_max in (2, 3, 10, 10**3, 10**5):
                assert boson_star_max_mass(d, 0.7, alpha, n_max) == _scanned_max_mass(
                    d, 0.7, alpha, n_max
                ), (d, alpha, n_max)
    # past 2M points the scan was a golden-section search
    for d in (2, 3, 6):
        for alpha in (1e-6, 3e-6, 1e-5, 1e-4, 1e-3):
            for n_max in (3 * 10**6, 10**7):
                assert boson_star_max_mass(d, 1.0, alpha, n_max) == _scanned_max_mass(
                    d, 1.0, alpha, n_max
                ), (d, alpha, n_max)
    # a coupling whose square underflows leaves a bound that grows with N
    assert boson_star_max_mass(3, 1.0, 1e-200, 50) == _scanned_max_mass(3, 1.0, 1e-200, 50)


@pytest.mark.parametrize(
    "mass, alpha, message",
    [
        (math.nan, 1e-3, "mass must be positive, got nan"),
        (math.inf, 1e-3, "mass must be finite, got inf"),
        (1.0, math.nan, "alpha must be positive, got nan"),
        (1.0, math.inf, "alpha must be finite, got inf"),
        (0.0, 1e-3, "mass must be positive, got 0.0"),
    ],
)
def test_boson_star_max_mass_rejects_bad_input(mass, alpha, message):
    with pytest.raises(ValueError) as err:
        boson_star_max_mass(3, mass, alpha)
    assert str(err.value) == message


def test_boson_star_limit_values():
    assert boson_star_limit(3) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)
    assert boson_star_limit(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        boson_star_limit(1)


def test_boson_star_params_validation():
    with pytest.raises(ValueError):
        BosonStarParams(n=1, mass=1.0, alpha=0.1)
    with pytest.raises(ValueError):
        BosonStarParams(n=3, mass=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        BosonStarParams(n=3, mass=1.0, alpha=-0.1)
    with pytest.raises(ValueError):
        boson_star_mass(BosonStarParams(n=3, mass=1.0, alpha=0.1), 0.0)


@pytest.mark.parametrize("q", [math.inf, math.nan])
def test_boson_star_mass_rejects_non_finite_q(q):
    with pytest.raises(ValueError):
        boson_star_mass(BosonStarParams(n=3, mass=1.0, alpha=0.1), q)


@pytest.mark.parametrize(
    "mass, alpha", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)]
)
def test_boson_star_params_reject_non_finite(mass, alpha):
    with pytest.raises(ValueError):
        BosonStarParams(n=3, mass=mass, alpha=alpha)


# --- harmonic system with a quartic kinetic deformation -------------------------


def test_minimal_length_frozen_value():
    e = minimal_length_energy(2, 3, 1.0, 1.0, 0.01, 1.5)
    assert e == pytest.approx(3.045, rel=1e-14)


def test_minimal_length_reduces_to_harmonic():
    q = q_boson_ground(3, 3)
    e = minimal_length_energy(3, 3, 1.0, 1.0, 0.0, q)
    assert e == pytest.approx(math.sqrt(6.0) * float(q), rel=1e-15)


def test_minimal_length_matches_perturbation_machinery():
    n, d, m, k, beta = 2, 3, 1.3, 0.7, 1e-4
    for nq in range(3):
        for l in range(3):
            q = QValue(2 * nq + l + d / 2.0)
            spec = SystemSpec(
                n=n,
                d=d,
                kinetic=KineticLaw.nonrelativistic(m),
                twobody=PotentialLaw.power_law(k, 2.0),
            )
            sol = solve_nbody(spec, q)
            pert = PerturbationSpec(kinetic=(beta / m, PotentialLaw.power_law(1.0, 4.0)))
            via_solver = perturbed_energy(sol, spec, pert)
            closed = minimal_length_energy(n, d, m, k, beta, q)
            assert via_solver == pytest.approx(closed, rel=1e-12)


def test_minimal_length_correction_is_n_independent():
    q = 2.5
    shifts = [
        minimal_length_energy(n, 3, 1.0, 1.0, 1e-3, q)
        - minimal_length_energy(n, 3, 1.0, 1.0, 0.0, q)
        for n in (2, 3, 7)
    ]
    assert np.ptp(shifts) < 1e-12


def test_minimal_length_warns_when_correction_large():
    with pytest.warns(PerturbationSizeWarning):
        minimal_length_energy(2, 3, 1.0, 1.0, 0.5, 3.5)


def test_minimal_length_quiet_when_small():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimal_length_energy(2, 3, 1.0, 1.0, 1e-5, 1.5)


def test_minimal_length_validation():
    with pytest.raises(ValueError):
        minimal_length_energy(1, 3, 1.0, 1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        minimal_length_energy(2, 3, 1.0, -1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        minimal_length_energy(2, 3, 1.0, 1.0, -0.1, 1.5)


@pytest.mark.parametrize(
    "mass, spring, deformation, q",
    [
        (1.0, 1.0, 0.1, math.inf),
        (1.0, 1.0, 0.1, math.nan),
        (math.nan, 1.0, 0.1, 3.0),
        (math.inf, 1.0, 0.1, 3.0),
        (1.0, math.inf, 0.1, 3.0),
        (1.0, 1.0, math.inf, 3.0),
    ],
)
def test_minimal_length_rejects_non_finite(mass, spring, deformation, q):
    with pytest.raises(ValueError):
        minimal_length_energy(3, 3, mass, spring, deformation, q)
