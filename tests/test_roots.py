import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from envtheory import KineticLaw, PotentialLaw, QValue, SolverConfig, solver, two_body_residual
from envtheory.errors import NoStationaryPoint, ScanExhausted
from envtheory.roots import brentq, sign_change_brackets

EPS = 2.220446049250313e-16


def _both(f, a, b, **kwargs):
    """(result, evaluation points) of the port and of scipy on the same problem."""
    runs = []
    for solver in (lambda *args, **kw: brentq(*args, **kw)[0], scipy_brentq):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        runs.append((solver(g, a, b, **kwargs), xs))
    return runs


PROBLEMS = [
    (lambda x: x**3 - 2.0, 0.0, 3.0, {}),
    (lambda x: math.exp(x) - 5.0, -1.0, 4.0, {"xtol": 1e-300, "rtol": 4.0 * EPS}),
    (lambda x: math.cos(x) - x, 0.0, 1.5, {"rtol": 1e-10}),
    (lambda x: math.tanh(30.0 * (x - 0.3)), -2.0, 5.0, {"xtol": 1e-300, "maxiter": 200}),
    (lambda x: (x - 1.7) ** 5 + 1e-3 * (x - 1.7), 0.0, 2.0, {"xtol": 1e-300}),
]


@pytest.mark.parametrize("f, a, b, kwargs", PROBLEMS)
def test_same_float_and_steps_as_scipy(f, a, b, kwargs):
    (ours, our_xs), (ref, ref_xs) = _both(f, a, b, **kwargs)
    assert ours == ref
    assert our_xs == ref_xs


def test_underflowing_interpolation_bisects_as_scipy_does():
    # below ~1e-110 the inverse-quadratic denominator underflows to 0.0; scipy's
    # C routine divides to inf there, fails its step test and bisects
    (ours, our_xs), (ref, ref_xs) = _both(lambda x: 1e-120 * (x**3 - 2.0), 0.0, 3.0)
    assert ours == ref == 1.2599210498948694
    assert our_xs == ref_xs


def test_two_body_residual_root_matches_scipy():
    kinetic = KineticLaw.semirelativistic(1.0)
    potential = PotentialLaw.power_law(1.0, 1.0)
    q = QValue(2.5)

    def f(r0):
        return float(two_body_residual(kinetic, potential, q, r0))

    (ours, our_xs), (ref, ref_xs) = _both(f, 0.1, 30.0, xtol=1e-300, rtol=1e-12, maxiter=200)
    assert ours == ref
    assert our_xs == ref_xs
    assert abs(f(ours)) < 1e-9


def test_zero_at_an_endpoint():
    for a, b in ((1.0, 3.0), (-3.0, 1.0)):
        assert brentq(lambda x: x - 1.0, a, b)[0] == scipy_brentq(lambda x: x - 1.0, a, b) == 1.0


@pytest.mark.parametrize(
    "f, a, b, kwargs, error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),
        (lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0, {}, ValueError),
        (lambda x: math.tanh(30.0 * (x - 0.3)), -2.0, 5.0, {"xtol": 1e-300, "maxiter": 3}, RuntimeError),
    ],
    ids=["same-sign", "nan", "maxiter"],
)
def test_error_paths_match_scipy(f, a, b, kwargs, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, **kwargs)
    with pytest.raises(error):
        brentq(f, a, b, **kwargs)


def _recorded(f, a, b, **kwargs):
    """(result, evaluation points) of the port on one problem."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return brentq(g, a, b, **kwargs), xs


@pytest.mark.parametrize("f, a, b, kwargs", PROBLEMS)
def test_known_endpoint_values_skip_only_the_endpoint_calls(f, a, b, kwargs):
    (root, value), xs = _recorded(f, a, b, **kwargs)
    assert xs[:2] == [a, b]
    # the value handed back is the one f gave at the root, which was evaluated there
    assert value == f(root)
    assert root in xs[2:]
    assert _recorded(f, a, b, fa=f(a), fb=f(b), **kwargs) == ((root, value), xs[2:])
    # one known endpoint skips that endpoint's call alone
    assert _recorded(f, a, b, fa=f(a), **kwargs) == ((root, value), xs[1:])
    assert _recorded(f, a, b, fb=f(b), **kwargs) == ((root, value), xs[:1] + xs[2:])


def test_value_at_a_zero_endpoint():
    for a, b in ((1.0, 3.0), (-3.0, 1.0)):
        assert brentq(lambda x: x - 1.0, a, b) == (1.0, 0.0)
        assert _recorded(lambda x: x - 1.0, a, b, fa=a - 1.0, fb=b - 1.0) == ((1.0, 0.0), [])


@pytest.mark.parametrize(
    "fa, fb, message",
    [
        (math.nan, 1.0, "The function value at x=0.0 is NaN"),
        (-1.0, math.nan, "The function value at x=2.0 is NaN"),
        (1.0, 2.0, "must have different signs"),
        (-1.0, -2.0, "must have different signs"),
    ],
)
def test_known_endpoint_values_are_checked(fa, fb, message):
    with pytest.raises(ValueError, match=message):
        brentq(lambda x: x - 1.0, 0.0, 2.0, fa=fa, fb=fb)


# The solver's verdict on a scan without a bracket, by the overall sign of its samples.
_VERDICTS = {
    -1: (NoStationaryPoint, "attraction dominates at every scanned scale (collapse regime)"),
    1: (NoStationaryPoint, "kinetic pressure dominates at every scanned scale (no bound stationary point)"),
    0: (ScanExhausted, "residual changes sign but no adjacent finite bracket could be isolated"),
}
_NOTHING_EVALUATED = (ScanExhausted, "stationarity residual could not be evaluated anywhere on the scan grid")


def _scan_verdict(values):
    """The error the solver raises when every scan it makes samples ``values``, then NaN.

    NaN samples carry no sign and bracket nothing, so each scan sees the
    brackets and signs of ``values`` alone.
    """

    def residual(grid):
        samples = np.full(np.shape(grid), math.nan)
        samples[: len(values)] = values
        return samples

    with pytest.raises((NoStationaryPoint, ScanExhausted)) as err:
        solver._scan_and_polish(residual, 1.0, SolverConfig())
    return type(err.value), str(err.value)


def test_sign_change_brackets_in_grid_order():
    grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    values = [1.0, -1.0, 0.0, 2.0, math.nan, -3.0, math.inf, -1.0]
    # a zero sample is its own bracket; NaN and inf break the run
    assert sign_change_brackets(grid, values) == [(1.0, 2.0, 1.0, -1.0), (3.0, 3.0, 0.0, 0.0)]
    assert sign_change_brackets(grid[:2], [2.0, math.inf]) == []
    assert _scan_verdict([2.0, math.inf]) == _VERDICTS[1]
    assert sign_change_brackets(grid[:3], [-2.0, -math.inf, math.nan]) == []
    assert _scan_verdict([-2.0, -math.inf, math.nan]) == _VERDICTS[-1]
    assert sign_change_brackets(grid[:3], [2.0, math.inf, -1.0]) == []
    assert _scan_verdict([2.0, math.inf, -1.0]) == _VERDICTS[0]


def _reference_brackets(grid, values):
    """The per-sample loop the vectorized finder replaced, kept as its reference.

    Each bracket carries the samples at its ends, as the finder's do.
    """
    brackets = []
    prev_x = prev_v = None
    saw_pos = saw_neg = False
    for x, v in zip(grid, values):
        if not math.isfinite(v):
            if math.isinf(v):
                saw_pos, saw_neg = saw_pos or v > 0, saw_neg or v < 0
            prev_x = prev_v = None
            continue
        if v == 0.0:
            brackets.append((x, x, v, v))
            prev_x = prev_v = None
            continue
        saw_pos, saw_neg = saw_pos or v > 0, saw_neg or v < 0
        if prev_v is not None and (v < 0.0) != (prev_v < 0.0):
            brackets.append((prev_x, x, prev_v, v))
        prev_x, prev_v = x, v
    sign = 0 if saw_pos == saw_neg else (1 if saw_pos else -1)
    return brackets, sign


_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -1e-310)


def _pattern(rng: random.Random) -> tuple[list[float], list[float]]:
    size = rng.choice((0, 1, rng.randint(2, 40)))
    grid = sorted(rng.uniform(1e-3, 1e3) for _ in range(size))
    values = [
        rng.choice(_SPECIAL) if rng.random() < 0.3 else rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-5, 5)
        for _ in range(size)
    ]
    return grid, values


def _bits(brackets):
    """Brackets with every float as its hex form, so -0.0 and 0.0 differ."""
    return [tuple(x.hex() for x in bracket) for bracket in brackets]


def _finite_nonzero_pattern(rng: random.Random) -> tuple[list[float], list[float]]:
    """A pattern for the finder's fast path: every sample finite and nonzero."""
    size = rng.choice((1, 2, rng.randint(2, 40)))
    grid = sorted(rng.uniform(1e-3, 1e3) for _ in range(size))
    extremes = (5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308)
    values = [
        rng.choice(extremes) if rng.random() < 0.2 else rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-5, 5)
        for _ in range(size)
    ]
    return grid, [v if v != 0.0 else 1.0 for v in values]


def _expected_verdict(values, sign):
    """The solver's verdict on bracketless ``values`` whose overall sign the reference loop found."""
    if all(math.isnan(v) for v in values):
        return _NOTHING_EVALUATED
    return _VERDICTS[sign]


def _check_against_the_reference_loop(pattern, seed):
    rng = random.Random(seed)
    for _ in range(20_000):
        grid, values = pattern(rng)
        expected, expected_sign = _reference_brackets(grid, values)
        for args in ((grid, values), (np.array(grid), np.array(values))):
            brackets = sign_change_brackets(*args)
            assert _bits(brackets) == _bits(expected), (grid, values)
            assert all(type(x) is float for bracket in brackets for x in bracket)
        if not expected:
            assert _scan_verdict(values) == _expected_verdict(values, expected_sign), (grid, values)


def test_sign_change_brackets_match_the_reference_loop():
    _check_against_the_reference_loop(_pattern, 20240607)


def test_sign_change_brackets_fast_path_matches_the_reference_loop():
    _check_against_the_reference_loop(_finite_nonzero_pattern, 20240608)


def test_sign_change_brackets_rows_match_the_one_row_scan():
    rng = random.Random(7)
    for _ in range(300):
        rows, size = rng.randint(1, 6), rng.randint(0, 30)
        grid = np.sort([[rng.uniform(1e-3, 1e3) for _ in range(size)] for _ in range(rows)])
        values = np.array(
            [[rng.choice(_SPECIAL) if rng.random() < 0.3 else rng.gauss(0.0, 1.0) for _ in range(size)] for _ in range(rows)]
        ).reshape(rows, size)
        one_by_one = [sign_change_brackets(g, v) for g, v in zip(grid, values)]
        rows_found = sign_change_brackets(grid, values)
        assert [_bits(b) for b in rows_found] == [_bits(b) for b in one_by_one]


def test_sign_change_brackets_rows_on_the_fast_path():
    rng = random.Random(11)
    for _ in range(300):
        rows, size = rng.randint(1, 6), rng.randint(1, 30)
        grid = np.sort([[rng.uniform(1e-3, 1e3) for _ in range(size)] for _ in range(rows)])
        values = np.array(
            [[rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 1e3) for _ in range(size)] for _ in range(rows)]
        ).reshape(rows, size)
        rows_found = sign_change_brackets(grid, values)
        reference = [_reference_brackets(g.tolist(), v.tolist()) for g, v in zip(grid, values)]
        assert [_bits(b) for b in rows_found] == [_bits(b) for b, _ in reference]
        for row, (brackets, sign) in zip(values.tolist(), reference):
            if not brackets:
                assert _scan_verdict(row) == _VERDICTS[sign]
