import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from envtheory import KineticLaw, PotentialLaw, QValue, two_body_residual
from envtheory.roots import brentq, sign_change_brackets

EPS = 2.220446049250313e-16


def _both(f, a, b, **kwargs):
    """(result, evaluation points) of the port and of scipy on the same problem."""
    runs = []
    for solver in (brentq, scipy_brentq):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        runs.append((solver(g, a, b, **kwargs), xs))
    return runs


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [
        (lambda x: x**3 - 2.0, 0.0, 3.0, {}),
        (lambda x: math.exp(x) - 5.0, -1.0, 4.0, {"xtol": 1e-300, "rtol": 4.0 * EPS}),
        (lambda x: math.cos(x) - x, 0.0, 1.5, {"rtol": 1e-10}),
        (lambda x: math.tanh(30.0 * (x - 0.3)), -2.0, 5.0, {"xtol": 1e-300, "maxiter": 200}),
        (lambda x: (x - 1.7) ** 5 + 1e-3 * (x - 1.7), 0.0, 2.0, {"xtol": 1e-300}),
    ],
)
def test_same_float_and_steps_as_scipy(f, a, b, kwargs):
    (ours, our_xs), (ref, ref_xs) = _both(f, a, b, **kwargs)
    assert ours == ref
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
        assert brentq(lambda x: x - 1.0, a, b) == scipy_brentq(lambda x: x - 1.0, a, b) == 1.0


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


def test_sign_change_brackets_in_grid_order():
    grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    values = [1.0, -1.0, 0.0, 2.0, math.nan, -3.0, math.inf, -1.0]
    # a zero sample is its own bracket; NaN and inf break the run
    assert sign_change_brackets(grid, values) == ([(1.0, 2.0), (3.0, 3.0)], 0)
    assert sign_change_brackets(grid[:2], [2.0, math.inf]) == ([], 1)
    assert sign_change_brackets(grid[:3], [-2.0, -math.inf, math.nan]) == ([], -1)


def _reference_brackets(grid, values):
    """The per-sample loop the vectorized finder replaced, kept as its reference."""
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
            brackets.append((x, x))
            prev_x = prev_v = None
            continue
        saw_pos, saw_neg = saw_pos or v > 0, saw_neg or v < 0
        if prev_v is not None and (v < 0.0) != (prev_v < 0.0):
            brackets.append((prev_x, x))
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


def test_sign_change_brackets_match_the_reference_loop():
    rng = random.Random(20240607)
    for _ in range(20_000):
        grid, values = _pattern(rng)
        expected = _reference_brackets(grid, values)
        for args in ((grid, values), (np.array(grid), np.array(values))):
            brackets, sign = sign_change_brackets(*args)
            assert (brackets, sign) == expected, (grid, values)
            assert all(type(x) is float for pair in brackets for x in pair)


def test_sign_change_brackets_rows_match_the_one_row_scan():
    rng = random.Random(7)
    for _ in range(300):
        rows, size = rng.randint(1, 6), rng.randint(0, 30)
        grid = np.sort([[rng.uniform(1e-3, 1e3) for _ in range(size)] for _ in range(rows)])
        values = np.array(
            [[rng.choice(_SPECIAL) if rng.random() < 0.3 else rng.gauss(0.0, 1.0) for _ in range(size)] for _ in range(rows)]
        ).reshape(rows, size)
        one_by_one = [sign_change_brackets(g, v) for g, v in zip(grid, values)]
        assert sign_change_brackets(grid, values) == ([b for b, _ in one_by_one], [s for _, s in one_by_one])
