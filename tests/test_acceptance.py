"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints ``CRITERION k: PASS/FAIL — detail (tolerances pinned)``
before asserting, so the log carries one line per criterion next to the
pytest verdict.

Criterion 3 checks the harmonic-tower envelope of H = p**2/4 + sqrt(r**2 + beta)
against the radial oracle.  A flat 5% tolerance at every beta cannot hold:
as beta -> 0 the Hamiltonian becomes p**2/4 + r, and in D = 3 the exact levels
(2 mu)**(-1/3) |a_{n+1}| (a_k the k-th Airy zero) and the envelope levels
(3/2) (Q**2/mu)**(1/3), Q = 2n + 3/2, differ by the mu-free ratio
3/2 (2 Q**2)**(1/3) / |a_{n+1}|, i.e. 5.92%, 6.57% and 6.67% for n = 0, 1, 2.
So the criterion holds every level to what the method does promise: the
UpperBound verdict and E_env >= E_oracle, at most 5% error at beta = 1, at
most the error of the same (D, n) level in the linear limit V = r, and an
error that falls strictly as beta grows.  Its report line prints every cell's
error next to its linear-limit reference, so the 6-8% gap stays in the log.
"""

import io
import math
import random
import time

import numpy as np
import pytest

import envtheory as et
from envtheory.cli import run as cli_run


def report(k: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_01_harmonic_exactness():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    worst = 0.0
    for n in range(2, 9):
        for d in range(2, 7):
            for _ in range(20):
                m = rng.uniform(0.2, 5.0)
                k = rng.uniform(0.2, 5.0)
                q = et.q_boson_ground(n, d)
                spec = et.SystemSpec(
                    n=n,
                    d=d,
                    kinetic=et.KineticLaw.nonrelativistic(m),
                    twobody=et.PotentialLaw.power_law(k, 2.0),
                )
                sol = et.solve_nbody(spec, q)
                closed = math.sqrt(2.0 * n * k / m) * float(q)
                exact = et.harmonic_exact(n, d, m, 0.0, k, et.StateSpec.ground(n))
                worst = max(
                    worst,
                    abs(sol.energy - closed) / closed,
                    abs(sol.energy - exact) / exact,
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 2.0
    line = report(
        1, ok, f"700 harmonic solves, worst rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (limit 2s)"
    )
    assert ok, line


def test_criterion_02_coulomb_two_body():
    t0 = time.perf_counter()
    worst_closed, worst_oracle = 0.0, 0.0
    for d in (3, 5):
        for nq in (0, 1):
            for l in (0, 1):
                q = et.q_two_body_auxiliary(-1.0, nq, l, d)
                assert float(q) == nq + l + (d - 1) / 2.0
                sol = et.solve_two_body(
                    et.KineticLaw.nonrelativistic(1.0),
                    et.PotentialLaw.coulomb(1.0),
                    -1.0,
                    q,
                )
                closed = -1.0 / (2.0 * float(q) ** 2)
                worst_closed = max(worst_closed, abs(sol.energy - closed) / abs(closed))
                prob = et.RadialProblem(
                    mu=1.0,
                    potential=et.PotentialLaw.coulomb(1.0),
                    d=d,
                    l=l,
                    r_max=60.0 * float(q) ** 2,
                )
                brute = et.radial_eigenvalue(prob, nq)
                worst_oracle = max(worst_oracle, abs(sol.energy - brute) / abs(brute))
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-12 and worst_oracle <= 1e-6
    line = report(
        2,
        ok,
        f"closed form rel {worst_closed:.2e} (tol 1e-12), oracle rel {worst_oracle:.2e} "
        f"(tol 1e-6), {elapsed:.2f}s",
    )
    assert ok, line


def _linear_limit_errors(d: int, qs: list) -> list:
    """Relative error of the envelope (3/2)(Q**2/mu)**(1/3) of p**2/4 + r (mu = 2) per level.

    In D = 3 the exact levels are Airy zeros; elsewhere the radial oracle gives them.
    """
    envelope = [1.5 * (q * q / 2.0) ** (1.0 / 3.0) for q in qs]
    if d == 3:
        exact = [-et.airy_zero(nq) / 4.0 ** (1.0 / 3.0) for nq in range(len(qs))]
    else:
        linear = et.PotentialLaw.power_law(1.0, 1.0)
        prob = et.RadialProblem(mu=2.0, potential=linear, d=d, l=0, r_max=40.0)
        exact = et.radial_eigenvalues(prob, len(qs))
    return [e / x - 1.0 for e, x in zip(envelope, exact)]


def test_criterion_03_square_root_upper_bound():
    t0 = time.perf_counter()
    kinetic = et.KineticLaw.nonrelativistic(2.0)  # p**2 / 4
    betas = (0.01, 0.1, 1.0)
    verdicts_ok = True
    worst_beta1 = 0.0
    margin, margin_at = math.inf, None
    falling = True
    rows = []
    for d in (3, 2, 4, 6):
        qs = [float(et.q_two_body_auxiliary(2.0, nq, 0, d)) for nq in range(3)]
        assert qs == [2 * nq + d / 2.0 for nq in range(3)]
        limit = _linear_limit_errors(d, qs)
        rel = {}
        for beta in betas:
            potential = et.PotentialLaw.square_root(beta, 1.0)
            prob = et.RadialProblem(mu=2.0, potential=potential, d=d, l=0, r_max=40.0)
            brute = et.radial_eigenvalues(prob, 3)
            for nq in range(3):
                sol = et.solve_two_body(kinetic, potential, 2.0, qs[nq])
                verdicts_ok = verdicts_ok and sol.bound.classification is et.BoundKind.UPPER
                assert sol.energy >= brute[nq] - 1e-9  # the bound side itself holds
                rel[beta, nq] = (sol.energy - brute[nq]) / brute[nq]
                if limit[nq] - rel[beta, nq] < margin:
                    margin, margin_at = limit[nq] - rel[beta, nq], (d, beta, nq)
        for nq in range(3):
            errs = [rel[beta, nq] for beta in betas]
            falling = falling and all(a > b for a, b in zip(errs, errs[1:]))
            worst_beta1 = max(worst_beta1, errs[-1])
            rows.append(
                f"D={d} n={nq}: " + "/".join(f"{e:.2%}" for e in errs) + f" (V=r {limit[nq]:.2%})"
            )
    elapsed = time.perf_counter() - t0
    ok = bool(
        verdicts_ok and worst_beta1 <= 0.05 and margin >= 0.0 and falling and elapsed < 30.0
    )
    line = report(
        3,
        ok,
        f"UpperBound verdict {'held' if verdicts_ok else 'VIOLATED'}; worst rel err at "
        f"beta=1 {worst_beta1:.2%} vs 5% tol; rel err <= V=r limit of the same (D,n), "
        f"smallest margin {margin * 100:.3f} pp at (D,beta,n)={margin_at}; strictly "
        f"falling in beta {'held' if falling else 'VIOLATED'}; rel err at "
        f"beta=0.01/0.1/1: {'; '.join(rows)}; {elapsed:.1f}s (limit 30s)",
    )
    assert ok, line


def test_criterion_04_exponential_kinetic_lower_bound():
    t0 = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    for k in (0.01, 0.1, 1.0):
        swapped = et.PotentialLaw.custom(
            et.CustomProfile(
                value=lambda r, k=k: np.exp(k * r * r),
                derivative=lambda r, k=k: 2.0 * k * r * np.exp(k * r * r),
            )
        )
        r_max = math.sqrt(math.log(1e6) / k)
        for d in (2, 3, 4):
            prob = et.RadialProblem(mu=0.5, potential=swapped, d=d, l=0, r_max=r_max)
            brute = et.radial_eigenvalues(prob, 3)
            for nq in range(3):
                q = et.q_two_body_auxiliary(2.0, nq, 0, d)
                sol = et.solve_two_body(
                    et.KineticLaw.exponential_quadratic(k),
                    et.PotentialLaw.power_law(1.0, 2.0),
                    2.0,
                    q,
                )
                assert sol.bound.classification is et.BoundKind.LOWER, (k, d, nq)
                assert sol.energy <= brute[nq] * (1.0 + 1e-9), (k, d, nq)
                worst_gap = max(worst_gap, (brute[nq] - sol.energy) / brute[nq])
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 27
    line = report(
        4,
        ok,
        f"{checked} levels: LowerBound verdict and E_env <= E_oracle everywhere "
        f"(largest gap {worst_gap:.1%}), {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_05_boson_star():
    t0 = time.perf_counter()
    n_opt, m_max = et.boson_star_max_mass(3, 1.0, 1e-3, n_max=10**5)
    peak = m_max * 1e-3  # M_u * G * m at m = 1, alpha = G m**2 = 1e-3
    peak_err = abs(peak - 2.1213)
    limits_ok = all(
        et.boson_star_limit(d) == pytest.approx(d / math.sqrt(2.0), rel=1e-15)
        for d in range(2, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = peak_err <= 1e-3 and limits_ok and elapsed < 5.0
    line = report(
        5,
        ok,
        f"N-scan to 1e5 peaks at N={n_opt}: M*G*m={peak:.6f} vs 2.1213 "
        f"(|diff| {peak_err:.1e}, tol 1e-3); D/sqrt(2) limit exact for D=2..10; "
        f"{elapsed:.2f}s (limit 5s)",
    )
    assert ok, line


def test_criterion_06_minimal_length_polynomial():
    m, k, beta = 1.0, 1.0, 1e-3
    worst = 0.0
    worst_corr = 0.0
    exact_poly = True
    for nq in range(0, 3):
        for l in range(0, 5 - 2 * nq):
            q = 2 * nq + l + 1.5
            poly_factor = 4 * nq * nq + l * l + 4 * nq * l + 6 * nq + 3 * l + 2.25
            poly = 2.0 * k * beta * poly_factor
            # quarter-integer arithmetic is exact in binary floats, so the
            # polynomial identity Q**2 = 4n^2+l^2+4nl+6n+3l+9/4 must hold
            # bit-exactly — the correction coefficients are then identical
            exact_poly = exact_poly and (float(q) * float(q) == poly_factor)
            closed = et.minimal_length_energy(2, 3, m, k, beta, q)
            base = et.minimal_length_energy(2, 3, m, k, 0.0, q)
            worst_corr = max(worst_corr, abs((closed - base) - poly) / poly)
            spec = et.SystemSpec(
                n=2,
                d=3,
                kinetic=et.KineticLaw.nonrelativistic(m),
                twobody=et.PotentialLaw.power_law(k, 2.0),
            )
            sol = et.solve_nbody(spec, q)
            pert = et.PerturbationSpec(
                kinetic=(beta / m, et.PotentialLaw.power_law(1.0, 4.0))
            )
            via_solver = et.perturbed_energy(sol, spec, pert)
            worst = max(worst, abs(via_solver - closed) / closed)
    ok = exact_poly and worst_corr <= 1e-12 and worst <= 1e-12
    line = report(
        6,
        ok,
        f"beta-correction coefficient identity Q^2 == 4n^2+l^2+4nl+6n+3l+9/4 "
        f"bit-exact for all 2n+l<=4 (recovered correction within {worst_corr:.1e}); "
        f"perturbed solve matches closed form to {worst:.1e} (tol 1e-12)",
    )
    assert ok, line


def test_criterion_07_critical_couplings():
    shape_y = et.PotentialLaw.yukawa(1.0, 1.0)
    shape_e = et.PotentialLaw.exponential(1.0, 1.0)
    y_yuk = et.critical_coupling("twobody", shape_y, 2, 1.5, 1.0).y0
    y_exp = et.critical_coupling("twobody", shape_e, 2, 1.5, 1.0).y0
    y0_ok = abs(y_yuk - 1.0) <= 1e-12 and abs(y_exp - 2.0) <= 1e-12
    pair_consts, one_consts, y0_spread = [], [], []
    for n in (2, 3, 5):
        for qv in (1.0, 2.5, 7.0):
            for m in (0.5, 1.0, 4.0):
                g = et.critical_coupling("twobody", shape_y, n, qv, m)
                kcc = et.critical_coupling("onebody", shape_y, n, qv, m)
                pair_consts.append(g.value * n * (n - 1) ** 2 * m / qv**2)
                one_consts.append(kcc.value * 2.0 * n * n * m / qv**2)
                y0_spread.append(g.y0)
                y0_spread.append(kcc.y0)
    homog = max(
        np.ptp(pair_consts) / np.mean(pair_consts),
        np.ptp(one_consts) / np.mean(one_consts),
    )
    invariance = np.ptp(y0_spread)
    ok = y0_ok and homog <= 1e-10 and invariance <= 1e-12
    line = report(
        7,
        ok,
        f"y0(yukawa)={y_yuk:.15f}, y0(exponential)={y_exp:.15f} (tol 1e-12); "
        f"homogeneity spread over 3^3 (N,Q,m) grid {homog:.1e} (tol 1e-10); "
        f"y0 invariance spread {invariance:.1e}",
    )
    assert ok, line


def test_criterion_08_baryon_bounds():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    tested = skipped = 0
    ordered = True
    for n in (2, 3, 4, 5, 6):
        for a1 in grid:
            for a2 in grid:
                if a1 + a2 == 0.0:
                    continue  # no confinement: outside the model's domain
                for b in grid:
                    try:
                        e_up, e_lo = et.baryon_bounds(
                            et.BaryonParams(n=n, d=3, a1=a1, a2=a2, b=b)
                        )
                    except et.CollapseRegime:
                        skipped += 1
                        continue
                    tested += 1
                    ordered = ordered and e_lo <= e_up
    e_up, e_lo = et.baryon_bounds(et.BaryonParams(n=10**6, d=10**4, a2=1.0))
    ratio_err = abs(e_up / e_lo - 2.0 ** 0.25)
    ok = ordered and ratio_err <= 1e-3 and tested > 300
    line = report(
        8,
        ok,
        f"E_l <= E_u on {tested} non-collapse grid points ({skipped} collapse points "
        f"skipped); ratio at N=1e6, D=1e4, b=a1=0 within {ratio_err:.1e} of 2^(1/4) "
        f"(tol 1e-3); 3-body 10-20% accuracy figure out of scope (no 3-body oracle)",
    )
    assert ok, line


def test_criterion_09_semiclassical_geometry():
    dev2 = et.mean_separation(2, 1.0)[1]
    dev3 = et.mean_separation(3, 1.0)[1]
    dev4 = et.mean_separation(4, 1.0)[1]
    devs_ok = dev2 < 1e-14 and dev3 < 1e-14 and abs(dev4 - 0.0144) <= 1e-4
    cap = max(et.mean_separation(n, 1.0)[1] for n in range(2, 10**4 + 1))
    cap_ok = cap <= 0.0997
    tol = et.solver._RTOL
    worst_residual = 0.0
    solved = 0
    for n in (2, 3, 4, 5):
        d = max(3, n - 1)
        for pot in (
            et.PotentialLaw.power_law(1.0, 2.0),
            et.PotentialLaw.power_law(0.7, 1.0),
            et.PotentialLaw.coulomb(2.0),
            et.PotentialLaw.square_root(0.1, 1.0),
        ):
            for kin in (
                et.KineticLaw.nonrelativistic(1.3),
                et.KineticLaw.semirelativistic(0.8),
            ):
                spec = et.SystemSpec(n=n, d=d, kinetic=kin, twobody=pot)
                try:
                    sol = et.solve_nbody(spec, et.q_boson_ground(n, d))
                except et.NoStationaryPoint:
                    continue  # collapse regime: nothing converged to check
                *_, residual = et.centripetal_balance(spec, sol, geometry="simplex")
                worst_residual = max(worst_residual, abs(residual))
                solved += 1
    ok = devs_ok and cap_ok and worst_residual <= tol
    line = report(
        9,
        ok,
        f"separation deviation 0 at N=2,3; {dev4:.6f} at N=4 (target 0.0144 +- 1e-4); "
        f"max over N<=1e4 is {cap:.4f} (cap 0.0997); simplex balance residual "
        f"<= {worst_residual:.1e} across {solved} solves (solver tolerance {tol:.0e})",
    )
    assert ok, line


def test_criterion_10_determinism_and_round_trip(tmp_path):
    config = """\
[system]
n = 3
d = 3

[kinetic]
family = nonrelativistic
mass = 1.0

[twobody]
family = powerlaw
amplitude = 0.5
exponent = 2.0

[state]
tower = boson-gs
"""
    cfg = tmp_path / "system.cfg"
    cfg.write_text(config)

    def emit(argv):
        buf = io.StringIO()
        code = cli_run(argv, stdout=buf)
        assert code == 0, argv
        return buf.getvalue()

    byte_identical = True
    outputs = {}
    for argv in (
        ["solve", "--config", str(cfg)],
        ["sweep", "--config", str(cfg), "--param", "n", "--from", "2", "--to", "6"],
        ["bounds", "--config", str(cfg)],
    ):
        first, second = emit(argv), emit(argv)
        byte_identical = byte_identical and first == second
        outputs[argv[0]] = first

    worst = 0.0
    rows = [outputs["solve"].splitlines()[1].split(",")]
    rows += [line.split(",")[2:] for line in outputs["sweep"].splitlines()[1:]]
    for row in rows:
        n, d, e = int(row[0]), int(row[1]), float(row[3])
        spec = et.SystemSpec(
            n=n,
            d=d,
            kinetic=et.KineticLaw.nonrelativistic(1.0),
            twobody=et.PotentialLaw.power_law(0.5, 2.0),
        )
        sol = et.solve_nbody(spec, et.q_boson_ground(n, d))
        worst = max(worst, abs(sol.energy - e) / abs(e))
    ok = byte_identical and worst <= 1e-12
    line = report(
        10,
        ok,
        f"solve/sweep/bounds outputs byte-identical across runs; {len(rows)} emitted "
        f"rows re-solve to their own E within {worst:.1e} (tol 1e-12)",
    )
    assert ok, line
