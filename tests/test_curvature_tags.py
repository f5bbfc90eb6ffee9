"""Closed-form curvature tags: every built-in family's verdict is algebra, not a sampled window.

Under the chart exponent lam the chart b with V(x) = b(sgn(lam) * x**lam) has

    b''(s) = x / (lam**2 s**2) * [x V''(x) - (lam - 1) V'(x)],

so a family's tag must carry the sign of x V'' - (lam - 1) V' on all of (0, inf),
and ``mixed`` where that sign flips.  The reference derivatives here come from
mpmath at 40 digits, independently of the formulas in ``FAMILIES``.
"""

import mpmath
import numpy as np
import pytest

from envtheory import (
    analysis,
    BoundKind,
    Convexity,
    KineticLaw,
    PotentialLaw,
    SystemSpec,
    classify_bound,
    classify_two_body,
    term_convexity,
)
from envtheory.model import FAMILIES
from envtheory.solver import solve_two_body

# each tag's boundaries (-1, 1, 2 and the square root's (1, 2)) with a point on either side
LAMS = [-1.9, -1.5, -1.05, -1.0, -0.5, 0.5, 0.95, 1.0, 1.05, 1.5, 1.95, 2.0, 2.5, 4.0]

# (law, its potential in mpmath, the top of the reference grid)
POTENTIALS = (
    [
        (PotentialLaw.power_law(a, q), lambda x, a=a, q=q: a * x**q, 1e3)
        for a in (1.0, -0.7)
        for q in (-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)
    ]
    + [(PotentialLaw.coulomb(g), lambda x, g=g: -g / x, 1e3) for g in (1.0, 0.3)]
    + [
        (PotentialLaw.square_root(c, k), lambda x, c=c, k=k: k * mpmath.sqrt(x * x + c), 1e3)
        for c in (0.0, 0.5)
        for k in (1.5, -1.5)
    ]
    + [(PotentialLaw.logarithmic(k), lambda x, k=k: k * mpmath.log(x), 1e3) for k in (2.0, -2.0)]
    # short-range wells stop at 30 screening lengths, where exp(-x / r) underflows in floats
    + [
        (PotentialLaw.yukawa(2.0, r), lambda x, r=r: -2.0 * mpmath.exp(-x / r) / x, 30.0 * r)
        for r in (0.5, 3.0)
    ]
    + [
        (PotentialLaw.exponential(2.0, r), lambda x, r=r: -2.0 * mpmath.exp(-x / r), 30.0 * r)
        for r in (0.5, 3.0)
    ]
    + [
        (PotentialLaw.gaussian(2.0, r), lambda x, r=r: -2.0 * mpmath.exp(-((x / r) ** 2)), 30.0 * r)
        for r in (0.5, 3.0)
    ]
)
BUILT_IN_KINETIC = [
    KineticLaw.nonrelativistic(1.0),
    KineticLaw.semirelativistic(1.0),
    KineticLaw.semirelativistic(0.0),
    KineticLaw.ultrarelativistic(),
    KineticLaw.minimal_length_quartic(1.0, 0.1),
    KineticLaw.minimal_length_quartic(1.0, 0.0),
    KineticLaw.exponential_quadratic(0.5),
]


def _law_id(law):
    params = ",".join(f"{getattr(law, p.name):g}" for p in FAMILIES[law.family].params)
    return f"{law.family.value}({params})"


def _derivatives(potential, top):
    """(x, V'(x), V''(x)) on a log grid from 1e-3 to ``top``, at 40 digits."""
    with mpmath.workdps(40):
        grid = [mpmath.mpf(float(x)) for x in np.logspace(-3.0, np.log10(top), 41)]
        return [(x, *list(mpmath.diffs(potential, x, 2))[1:]) for x in grid]


def _reference_class(derivatives, lam):
    """The sign class of x V'' - (lam - 1) V' over the sampled ``derivatives``."""
    signs = set()
    with mpmath.workdps(40):
        for x, d1, d2 in derivatives:
            g = x * d2 - (lam - 1) * d1
            if abs(g) > mpmath.mpf(10) ** -25 * (abs(x * d2) + abs((lam - 1) * d1)):
                signs.add(g > 0)
    if len(signs) == 2:
        return Convexity.MIXED
    if not signs:
        return Convexity.LINEAR
    return Convexity.CONVEX if signs == {True} else Convexity.CONCAVE


@pytest.mark.parametrize("law, potential, top", POTENTIALS, ids=[_law_id(p[0]) for p in POTENTIALS])
def test_every_potential_tag_is_the_sign_of_its_chart_curvature(law, potential, top):
    derivatives = _derivatives(potential, top)
    expected = {lam: _reference_class(derivatives, lam) for lam in LAMS}
    assert {lam: law.convexity_tag(lam) for lam in LAMS} == expected
    assert law.convexity_tag() is law.convexity_tag(2.0)


def test_every_built_in_family_has_a_tag_under_every_exponent():
    for law, _, _ in POTENTIALS:
        assert all(law.convexity_tag(lam) is not None for lam in LAMS)
    assert all(law.convexity_tag() is not None for law in BUILT_IN_KINETIC)


def test_classifying_a_built_in_law_never_samples(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("a built-in law's curvature was sampled")

    for name in ("_chart", "_richardson_second"):
        monkeypatch.setattr(analysis, name, sampled)
    domain = (0.1, 10.0)
    for kinetic in BUILT_IN_KINETIC:
        assert term_convexity(kinetic, domain) is kinetic.convexity_tag()
    for law, _, _ in POTENTIALS:
        spec = SystemSpec(n=3, d=3, kinetic=BUILT_IN_KINETIC[0], onebody=law, twobody=law)
        assert classify_bound(spec, domain).terms["twobody"] is law.convexity_tag()
        for lam in LAMS:
            verdict = classify_two_body(BUILT_IN_KINETIC[0], law, lam, domain)
            assert verdict.terms["potential"] is law.convexity_tag(lam)


WINDOWS = [(0.01, 0.1), (0.1, 10.0), (1.0, 20.0)]


def test_a_sampled_verdict_never_contradicts_the_tag(monkeypatch):
    # The custom-law sampler, forced onto every built-in law: a window of a
    # chart with one sign must show that sign or read flat, and a linear chart
    # must read linear.  A window sees only part of a mixed chart, so any class
    # may show there.
    cases = [(law, None, law.convexity_tag()) for law in BUILT_IN_KINETIC]
    cases += [(law, lam, law.convexity_tag(lam)) for law, _, _ in POTENTIALS for lam in LAMS]
    for cls in (KineticLaw, PotentialLaw):
        monkeypatch.setattr(cls, "convexity_tag", lambda law, aux_exponent=None: None)
    disagreements = []
    for law, lam, tag in cases:
        allowed = {tag, Convexity.LINEAR} if tag is not Convexity.MIXED else set(Convexity)
        for window in WINDOWS:
            sampled = term_convexity(law, window, lam)
            if sampled not in allowed:
                disagreements.append((_law_id(law), lam, window, tag, sampled))
    assert disagreements == []


def test_a_chart_flip_outside_the_sampled_window_reads_mixed():
    # The exponential well's chart flips at x = 2 under lam = -1, far outside the
    # window (r0/10, 10 r0) ~ (0.0047, 0.47) that a sampled verdict would see.
    sol = solve_two_body(KineticLaw.nonrelativistic(1.0), PotentialLaw.exponential(1e4, 1.0), -1.0, 1.0)
    assert 10.0 * sol.r0 < 2.0
    assert sol.bound.terms["potential"] is Convexity.MIXED
    assert sol.bound.classification is BoundKind.UNKNOWN
