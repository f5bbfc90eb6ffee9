"""Block solve of sweeps: ``solve_nbody_many`` against one ``solve_nbody`` per point."""

import contextlib
import dataclasses
import gzip
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from envtheory import (
    CustomProfile,
    KineticLaw,
    PotentialLaw,
    QValue,
    SolverConfig,
    SystemSpec,
    q_boson_ground,
    solve_nbody,
    solve_nbody_many,
    solver,
    stationary_residual,
    two_body_residual,
)
from envtheory.cli import run
from envtheory.errors import NonPositiveArgument, NoStationaryPoint
from envtheory.model import FAMILIES, KineticFamily, PotentialFamily
from envtheory.roots import log_grid

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"


def _outcome(fn):
    """fn()'s value, or the type and text of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)


def _each(specs, qs, config=None):
    """The reference: one single-point solve per point, stopping at the first error."""
    return _outcome(lambda: [solve_nbody(spec, q, config) for spec, q in zip(specs, qs)])


def _blocked(specs, qs, config=None):
    return _outcome(lambda: solve_nbody_many(specs, qs, config))


def _count_full_scans(monkeypatch):
    """The points solved without brackets from a block scan."""
    calls = []
    single = solver.solve_nbody

    def counted(spec, q, config=None, *, _brackets=None):
        if not _brackets:
            calls.append(q)
        return single(spec, q, config, _brackets=_brackets)

    monkeypatch.setattr(solver, "solve_nbody", counted)
    return calls


# --- (a) the committed sweep corpus, byte for byte --------------------------------


def test_every_committed_sweep_prints_its_golden_csv():
    golden = json.loads(gzip.decompress((CORPUS / "sweep.json.gz").read_bytes()))
    assert len(golden) == 48
    for entry in golden:
        argv = ["sweep", "--config", str(CORPUS / "sweep" / f"{entry['id']}.ini"), *entry["extra"]]
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = run(argv, stdout=out)
        assert (code, out.getvalue()) == (entry["exit"], entry["stdout"]), entry["id"]


_SWEEP_PROBE = """
import contextlib, gzip, io, json, sys
from pathlib import Path
from envtheory.cli import run

corpus = Path(sys.argv[1])
outputs = []
for entry in json.loads(gzip.decompress((corpus / "sweep.json.gz").read_bytes())):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(["sweep", "--config", str(corpus / "sweep" / (entry["id"] + ".ini")), *entry["extra"]], stdout=out)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_committed_sweeps_do_not_depend_on_hash_order(seed):
    # a family hashes by identity and a str by PYTHONHASHSEED; neither may reach the output
    golden = json.loads(gzip.decompress((CORPUS / "sweep.json.gz").read_bytes()))
    env = dict(os.environ, PYTHONPATH=str(CORPUS.parents[1] / "src"), PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_PROBE, str(CORPUS)], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    assert json.loads(done.stdout) == [[entry["exit"], entry["stdout"]] for entry in golden]


# --- the residual bound once per system -------------------------------------------


def _reference_residual(spec, q, r0):
    """F(r0) written out from the law methods, with nothing bound or cached."""
    n, c = spec.n, float(spec.pair_count)
    p0 = q / r0
    res = n * p0 * spec.kinetic.derivative(p0)
    if spec.onebody is not None:
        res = res - r0 * spec.onebody.derivative(r0 / n)
    if spec.twobody is not None:
        root_c = np.sqrt(c)
        res = res - root_c * r0 * spec.twobody.derivative(r0 / root_c)
    return res


def _family_laws(law_cls, families, first, step):
    """One law of every non-custom family, its parameters first, first + step, ..."""
    return [
        law_cls.of(f, *(first + step * k for k in range(len(FAMILIES[f].params))))
        for f in families
        if f.value != "custom"
    ]


_KINETICS = _family_laws(KineticLaw, KineticFamily, 0.4, 0.3)
_KINETICS += [
    KineticLaw.custom(CustomProfile(lambda p: p**3, lambda p: 3.0 * p * p)),
    KineticLaw.custom(CustomProfile(lambda p: np.cosh(p))),  # derivative by differences
]
_POTENTIALS = _family_laws(PotentialLaw, PotentialFamily, 0.7, 0.6)
_POTENTIALS += [PotentialLaw.power_law(0.8, e) for e in (3.0, 1.5, 2.0, 0.0, 1.0, -0.0, -1.0)]
_POTENTIALS += [
    PotentialLaw.custom(CustomProfile(lambda x: x**1.3, lambda x: 1.3 * x**0.3)),
    PotentialLaw.custom(CustomProfile(lambda x: -np.exp(-x) / x), short_range=True),
]


# The same custom laws written with numpy ufuncs only, so a float gets the bits
# of the array sample at that point.  Python's ** on a float is libm's pow, not
# np.power's loop, and differs from it in the last bit for some inputs.
_ELEMENTWISE_KINETICS = _KINETICS[:-2] + [
    KineticLaw.custom(CustomProfile(lambda p: np.power(p, 3.0), lambda p: 3.0 * p * p)),
    _KINETICS[-1],
]
_ELEMENTWISE_POTENTIALS = _POTENTIALS[:-2] + [
    PotentialLaw.custom(CustomProfile(lambda x: np.power(x, 1.3), lambda x: 1.3 * np.power(x, 0.3))),
    _POTENTIALS[-1],
]


def _specs_with_every_law(kinetics=_KINETICS, potentials=_POTENTIALS):
    specs = [SystemSpec(3, 3, kinetic, twobody=PotentialLaw.power_law(1.0, 2.0)) for kinetic in kinetics]
    for k, potential in enumerate(potentials):
        other = potentials[(k + 5) % len(potentials)]
        kinetic = kinetics[k % len(kinetics)]
        specs += [
            SystemSpec(2 + k % 5, 3, kinetic, onebody=potential),
            SystemSpec(2 + k % 5, 3, kinetic, twobody=potential),
            SystemSpec(np.int64(4), 3, kinetic, onebody=potential, twobody=other),
        ]
    return specs


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_ARGUMENTS = [0.37, np.float64(2.5), 11.0, np.geomspace(1e-3, 1e3, 37), np.geomspace(0.1, 10.0, 12).reshape(3, 4)]


def _spec_id(spec):
    laws = (spec.kinetic, spec.onebody, spec.twobody)
    return "-".join([str(spec.n)] + ["none" if law is None else law.family.value for law in laws])


@pytest.mark.parametrize("spec", _specs_with_every_law(), ids=_spec_id)
def test_bound_residual_equals_the_law_formula(spec):
    with np.errstate(all="ignore"):
        for q in (2.5, QValue(4.0)):
            for r0 in _ARGUMENTS:
                _assert_same_bits(stationary_residual(spec, q, r0), _reference_residual(spec, float(q), r0))
    assert solver._bound[0] is spec


def _scalar_samples(spec, q, grid):
    """F at each grid point, one scalar ``stationary_residual`` call per point."""
    with np.errstate(all="ignore"):
        return np.array([float(stationary_residual(spec, q, r0)) for r0 in grid.tolist()])


def _neighbour(spec):
    """``spec`` with n and every law parameter moved, so a block of both has a column per parameter."""

    def moved(law):
        if law is None:
            return None
        return type(law).of(law.family, *(1.25 * getattr(law, param.name) for param in FAMILIES[law.family].params))

    return SystemSpec(spec.n + 1, spec.d, moved(spec.kinetic), onebody=moved(spec.onebody), twobody=moved(spec.twobody))


@pytest.mark.parametrize("spec", _specs_with_every_law(_ELEMENTWISE_KINETICS, _ELEMENTWISE_POTENTIALS), ids=_spec_id)
def test_scalar_residual_equals_the_scan_samples(spec):
    # the polish starts from the scan's samples, so F at one point must be the
    # sample the 1-D scan, and the block scan's row, hold there
    cfg = SolverConfig()
    grid = 2.5 * log_grid(cfg.decades, cfg.points_per_decade)
    with np.errstate(all="ignore"):
        assert _scalar_samples(spec, 2.5, grid).tobytes() == stationary_residual(spec, 2.5, grid).tobytes()
    if solver._block_key(spec, 2.5) is not None:
        # a block row's parameters are columns unless every row shares them
        _assert_block_scans_match([spec, _neighbour(spec), spec], [2.5, 4.0, 4.0])


@pytest.mark.parametrize("kinetic", _ELEMENTWISE_KINETICS, ids=lambda law: law.family.value)
def test_two_body_scalar_residual_equals_the_scan_samples(kinetic):
    grid = 2.5 * log_grid(SolverConfig().decades, SolverConfig().points_per_decade)
    with np.errstate(all="ignore"):
        for potential in _ELEMENTWISE_POTENTIALS:
            scalar = np.array([float(two_body_residual(kinetic, potential, 2.5, r0)) for r0 in grid.tolist()])
            assert scalar.tobytes() == two_body_residual(kinetic, potential, 2.5, grid).tobytes()


def test_the_binding_follows_the_spec_in_alternation():
    first = SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    second = SystemSpec(
        5, 2, KineticLaw.semirelativistic(0.5), onebody=PotentialLaw.coulomb(0.7), twobody=PotentialLaw.yukawa(2.0, 0.5)
    )
    equal = SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    for spec in (first, second, first, equal, second, second, first):
        for r0 in _ARGUMENTS:
            _assert_same_bits(stationary_residual(spec, 3.0, r0), _reference_residual(spec, 3.0, r0))
        assert solver._bound[0] is spec


@pytest.mark.parametrize(
    "r0, error",
    [(0.0, ZeroDivisionError), (-1.0, NonPositiveArgument), (np.array([1.0, -2.0]), NonPositiveArgument)],
    ids=["zero", "negative", "array"],
)
def test_the_bound_residual_keeps_its_checks(r0, error):
    spec = SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), onebody=PotentialLaw.power_law(1.0, 2.0))
    outcome = _outcome(lambda: stationary_residual(spec, 2.0, r0))
    assert outcome == _outcome(lambda: _reference_residual(spec, 2.0, r0))
    assert outcome[0] is error
    for q in (0.0, -1.0, float("nan"), float("inf")):
        assert _outcome(lambda: stationary_residual(spec, q, 1.0))[0] is ValueError


def test_laws_and_specs_carry_nothing_after_a_solve():
    specs = [
        SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0)),
        SystemSpec(
            4, 2, KineticLaw.semirelativistic(0.5), onebody=PotentialLaw.power_law(0.3, 1.0), twobody=PotentialLaw.yukawa(0.5, 2.0)
        ),
    ]
    before = [(pickle.dumps(spec), hash(spec)) for spec in specs]
    for spec in specs:
        solve_nbody(spec, 3.0)  # binds this spec's residual
    for spec, (pickled, hashed) in zip(specs, before):
        assert (pickle.dumps(spec), hash(spec)) == (pickled, hashed)
        copy = pickle.loads(pickled)
        assert copy == spec and hash(copy) == hashed
        for record in filter(None, (spec, spec.kinetic, spec.onebody, spec.twobody)):
            assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]


# --- the block scan sees each point's own floats -------------------------------------


_FAMILY_SWEEPS = [
    (lambda v: KineticLaw.nonrelativistic(v), lambda v: PotentialLaw.power_law(1.0, 2.0), None, 0.2, 5.0),
    (lambda v: KineticLaw.semirelativistic(v), lambda v: PotentialLaw.coulomb(0.3), None, 0.0, 3.0),
    (lambda v: KineticLaw.ultrarelativistic(), lambda v: PotentialLaw.square_root(v, 2.0), None, 0.0, 4.0),
    (lambda v: KineticLaw.minimal_length_quartic(1.3, v), lambda v: PotentialLaw.power_law(0.7, 2.0), None, 0.0, 0.5),
    (lambda v: KineticLaw.exponential_quadratic(v), None, lambda v: PotentialLaw.logarithmic(1.1), 0.02, 0.8),
    (lambda v: KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.power_law(0.9, v), None, 0.3, 3.0),
    (lambda v: KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.coulomb(v), None, 0.1, 3.0),
    (lambda v: KineticLaw.nonrelativistic(1.0), None, lambda v: PotentialLaw.logarithmic(v), 0.2, 3.0),
    (lambda v: KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.yukawa(v, 1.0), None, 20.0, 90.0),
    (lambda v: KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.exponential(v, 1.0), None, 10.0, 90.0),
    (lambda v: KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.gaussian(60.0, v), None, 0.8, 3.0),
]



def _assert_block_scans_match(specs, qs):
    """Each block's 2-D scan equals the single-point scans of its points, and their scalar F, bit for bit."""
    cfg = SolverConfig()
    points = list(zip(specs, qs))
    for _, block in itertools.groupby(points, key=lambda point: solver._block_key(*point)):
        block_specs, block_qs = zip(*block)
        grids = [q * log_grid(cfg.decades, cfg.points_per_decade) for q in block_qs]
        with np.errstate(all="ignore"):
            each = np.array([stationary_residual(s, q, g) for s, q, g in zip(block_specs, block_qs, grids)])
            stacked = solver._block_residual(list(block_specs), np.array(block_qs), np.array(grids))
        np.testing.assert_array_equal(stacked, each)
        assert np.array_equal(np.signbit(stacked), np.signbit(each))
        # the polish starts from a row's samples: each is the point's own scalar F
        for spec, q, grid, row in zip(block_specs, block_qs, grids, stacked):
            assert _scalar_samples(spec, q, grid).tobytes() == row.tobytes()


@pytest.mark.parametrize("kinetic, twobody, onebody, lo, hi", _FAMILY_SWEEPS)
def test_block_scan_matches_the_single_point_scan(kinetic, twobody, onebody, lo, hi):
    rng = np.random.default_rng(7)
    specs = [
        SystemSpec(
            2 + k % 4,
            3,
            kinetic(v),
            twobody=None if twobody is None else twobody(v),
            onebody=None if onebody is None else onebody(v),
        )
        for k, v in enumerate(np.linspace(lo, hi, 24).tolist())
    ]
    _assert_block_scans_match(specs, rng.uniform(1.0, 6.0, len(specs)).tolist())


def test_block_scan_keeps_the_scalar_power_paths():
    # exponent - 1 in {2, 0.5, -1, 1} takes np.power's scalar fast paths on a single point
    exponents = [3.0, 3.0, 1.5, 1.5, 0.0, 0.0, 2.0, -0.0, 2.5, 3.0]
    specs = [SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(0.9, e)) for e in exponents]
    specs += [
        SystemSpec(n, 3, KineticLaw.nonrelativistic(1.0), onebody=PotentialLaw.power_law(0.5, 3.0)) for n in range(2, 30)
    ]
    _assert_block_scans_match(specs, np.linspace(1.0, 6.0, len(specs)).tolist())


# --- (c) solve_nbody_many equals the per-point loop --------------------------------


def _harmonic(n, d, amplitude=1.0):
    return SystemSpec(n, d, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(amplitude, 2.0))


def _block_scan_rows(monkeypatch, specs, qs):
    """The r0 grid of the one block ``solve_nbody_many`` scans, each row checked against its point's own scan."""
    cfg = SolverConfig()
    assert len({solver._block_key(spec, q) for spec, q in zip(specs, qs)}) == 1
    scans = []
    block_residual = solver._block_residual

    def spy(block_specs, block_qs, r0):
        values = block_residual(block_specs, block_qs, r0)
        scans.append((r0, values))
        return values

    monkeypatch.setattr(solver, "_block_residual", spy)
    solve_nbody_many(specs, qs, cfg)
    ((grid, values),) = scans
    with np.errstate(all="ignore"):
        for spec, q, grid_row, row in zip(specs, qs, np.broadcast_to(grid, values.shape), values, strict=True):
            own = float(q) * log_grid(cfg.decades, cfg.points_per_decade)
            assert grid_row.tobytes() == own.tobytes()
            assert row.tobytes() == np.asarray(stationary_residual(spec, q, own), dtype=float).tobytes()
    return grid


_SHARED_Q_SWEEPS = {
    "onebody-and-twobody-potential": [
        SystemSpec(4, 3, KineticLaw.nonrelativistic(1.2), onebody=PotentialLaw.power_law(0.5, 2.0), twobody=PotentialLaw.yukawa(g, 0.7))
        for g in np.linspace(0.5, 30.0, 25).tolist()
    ],
    "kinetic-parameter": [
        SystemSpec(3, 2, KineticLaw.minimal_length_quartic(1.5, t), onebody=PotentialLaw.logarithmic(1.4), twobody=PotentialLaw.coulomb(0.3))
        for t in np.linspace(0.0, 0.5, 25).tolist()
    ],
    # exponent - 1 in {2, 0.5, 1, -1, 0} takes np.power's scalar fast paths: one call per row
    "power-law-exponent": [
        SystemSpec(4, 3, KineticLaw.semirelativistic(0.8), onebody=PotentialLaw.power_law(0.6, 2.0), twobody=PotentialLaw.power_law(0.8, e))
        for e in (3.0, 1.5, 2.0, 0.0, 1.0, 2.5, -0.0, 3.0, 0.7, -1.0)
    ],
    "repeated-point": [_harmonic(3, 3, 0.75)] * 5,
}


@pytest.mark.parametrize("specs", _SHARED_Q_SWEEPS.values(), ids=_SHARED_Q_SWEEPS)
def test_a_shared_q_block_scans_one_grid_row(monkeypatch, specs):
    grid = _block_scan_rows(monkeypatch, specs, [QValue(4.5)] * len(specs))
    assert grid.shape[0] == 1  # every point reads the one row


def test_a_per_point_q_block_scans_a_grid_per_point(monkeypatch):
    specs = [_harmonic(n, 3, 0.9) for n in range(2, 27)]
    grid = _block_scan_rows(monkeypatch, specs, [q_boson_ground(spec.n, spec.d) for spec in specs])
    assert grid.shape[0] == len(specs)


def test_particle_number_and_dimension_sweeps(monkeypatch):
    specs = [_harmonic(n, 3) for n in range(2, 60)] + [_harmonic(4, d) for d in range(2, 40)]
    qs = [q_boson_ground(s.n, s.d) for s in specs]
    want = _each(specs, qs)
    calls = _count_full_scans(monkeypatch)
    assert _blocked(specs, qs) == want
    assert calls == []  # every point went through the block path


@pytest.mark.parametrize(
    "kinetic, potential, lo, hi",
    [
        (KineticLaw.semirelativistic(0.7), PotentialLaw.coulomb, 0.01, 1.2),
        (KineticLaw.ultrarelativistic(), lambda v: PotentialLaw.square_root(v, 1.3), 0.0, 3.0),
        (KineticLaw.nonrelativistic(1.2), lambda v: PotentialLaw.power_law(0.8, v), 0.05, 3.0),
        (KineticLaw.nonrelativistic(1.0), lambda v: PotentialLaw.gaussian(40.0, v), 0.5, 3.0),
        (KineticLaw.nonrelativistic(0.9), lambda v: PotentialLaw.exponential(v, 1.0), 6.0, 90.0),
    ],
    ids=["coulomb-strength", "squareroot-offset", "powerlaw-exponent", "gaussian-screening", "exponential-coupling"],
)
def test_law_parameter_sweeps(monkeypatch, kinetic, potential, lo, hi):
    specs = [SystemSpec(4, 3, kinetic, twobody=potential(v)) for v in np.linspace(lo, hi, 70).tolist()]
    qs = [QValue(4.5)] * len(specs)
    want = _each(specs, qs)
    calls = _count_full_scans(monkeypatch)
    assert _blocked(specs, qs) == want
    assert calls == []  # every point solves, and in a block


def test_power_law_exponent_sweep_is_one_block(monkeypatch):
    # exponent - 1 in {2, 0.5, 1, -1, 0} takes np.power's scalar fast paths, so
    # the block evaluates the power per row; a harmonic one-body term keeps a
    # stationary point at every exponent, exponent 0 and -0.0 included
    exponents = [3.0, 1.5, 2.0, 0.0, 1.0, 2.5, -0.0, 3.0, 0.7, 1.5, -1.0, 2.0, 0.0, 1.0, 3.0]
    specs = [
        SystemSpec(
            4, 3, KineticLaw.nonrelativistic(1.1), onebody=PotentialLaw.power_law(0.6, 2.0), twobody=PotentialLaw.power_law(0.8, e)
        )
        for e in exponents
    ]
    qs = [4.5] * len(specs)
    assert len({solver._block_key(spec, q) for spec, q in zip(specs, qs)}) == 1
    _assert_block_scans_match(specs, qs)
    want = _each(specs, qs)
    calls = _count_full_scans(monkeypatch)
    assert _blocked(specs, qs) == want
    assert calls == []  # one block, and no point scanned alone


def test_kinetic_parameter_sweep_with_a_onebody_term():
    specs = [
        SystemSpec(3, 2, KineticLaw.exponential_quadratic(s), onebody=PotentialLaw.logarithmic(1.4))
        for s in np.linspace(0.02, 0.8, 40).tolist()
    ]
    specs += [
        SystemSpec(3, 3, KineticLaw.minimal_length_quartic(1.5, t), twobody=PotentialLaw.power_law(0.6, 2.0))
        for t in np.linspace(0.0, 0.5, 40).tolist()
    ]
    qs = [QValue(3.0)] * len(specs)
    assert _blocked(specs, qs) == _each(specs, qs)


def test_two_root_points():
    # an over-critical Yukawa well has a second, higher stationary point
    specs = [
        SystemSpec(2, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.yukawa(g, 1.0))
        for g in np.linspace(6.0, 12.0, 45).tolist()
    ]
    qs = [QValue(1.5)] * len(specs)
    blocked = _blocked(specs, qs)
    assert blocked == _each(specs, qs)
    assert {sol.n_roots for sol in blocked} == {2}


def test_fallback_points_match(monkeypatch):
    # a narrow first scan misses the stiff springs' roots, so they need the expansions
    config = SolverConfig(decades=1.0, points_per_decade=8)
    specs = [_harmonic(3, 3, a) for a in np.geomspace(1.0, 1e4, 40).tolist()]
    qs = [QValue(3.0)] * len(specs)
    # a custom law and a change of family are solved alone or start a new block
    custom = KineticLaw.custom(CustomProfile(lambda p: p * p / 2.0, lambda p: p))
    specs[7] = SystemSpec(3, 3, custom, twobody=PotentialLaw.power_law(1.0, 2.0))
    specs[20] = SystemSpec(3, 3, KineticLaw.semirelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    want = _each(specs, qs, config)
    calls = _count_full_scans(monkeypatch)
    assert _blocked(specs, qs, config) == want
    assert 1 < len(calls) < len(specs)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_scan_error_is_raised_by_its_own_point():
    # 700 decades around Q underflow the grid's low end to 0, which the laws reject;
    # the message holds the 1-D grid of the single-point scan (whose high end
    # overflows with a RuntimeWarning, as every single solve with this grid does)
    specs = [_harmonic(3, 3, a) for a in (1.0, 2.0)]
    qs = [QValue(3.0)] * 2
    config = SolverConfig(decades=700.0)
    outcome = _blocked(specs, qs, config)
    assert outcome == _each(specs, qs, config)
    assert outcome[0] is NonPositiveArgument and "shape=(44801,)" in outcome[1]


@pytest.mark.parametrize("slot", ["onebody", "twobody"])
@pytest.mark.parametrize("q", [5e-324, 1e-321, 3e-320])
def test_a_vanishing_separation_is_raised_alike_by_block_and_loop(slot, q):
    # the grid around a subnormal Q holds r0 whose separation rounds to 0; the
    # residual checks each separation it forms, in the block as in the loop
    specs = [SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), **{slot: PotentialLaw.power_law(a, 2.0)}) for a in (1.0, 2.0)]
    qs = [q] * len(specs)
    outcome = _blocked(specs, qs)
    assert outcome == _each(specs, qs)
    assert outcome[0] is NonPositiveArgument and outcome[1].startswith("separation must be strictly positive")


def test_empty_input():
    assert solve_nbody_many([], []) == []


# --- (d) the first failing point wins --------------------------------------------


def _collapse(n=3):
    # ultrarelativistic kinematics lose to a strong Coulomb attraction at every scale
    return SystemSpec(n, 3, KineticLaw.ultrarelativistic(), twobody=PotentialLaw.coulomb(10.0))


def test_first_error_wins_across_blocks():
    specs = [_harmonic(3, 3, a) for a in np.linspace(0.5, 2.0, 80).tolist()]
    qs = [QValue(3.0)] * len(specs)
    for k, m in ((5, 60), (40, 45), (45, 40), (33, 70)):
        broken_specs, broken_qs = list(specs), list(qs)
        broken_specs[k] = _collapse()
        broken_qs[m] = -1.0
        outcome = _blocked(broken_specs, broken_qs)
        assert outcome == _each(broken_specs, broken_qs)
        assert outcome[0] is (NoStationaryPoint if k < m else ValueError)


def _sweep(tmp_path, text, *extra):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["sweep", "--config", str(path), *extra], stdout=out)
    return code, out.getvalue(), err.getvalue()


POWER_SWEEP = (
    "[system]\nn = 3\nd = 3\n\n[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n\n"
    "[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n"
)


def test_no_stationary_point_before_a_config_error(tmp_path):
    # amplitude -1 leaves nothing stationary; amplitude 0 is a config error
    code, out, err = _sweep(tmp_path, POWER_SWEEP, "--param", "twobody.amplitude", "--from", "-1", "--to", "1", "--steps", "3")
    assert (code, out) == (2, "")
    assert err == "no stationary point: kinetic pressure dominates at every scanned scale (no bound stationary point)\n"


def test_config_error_before_a_no_stationary_point(tmp_path):
    # exponent -3 is a config error; exponent -1.5 leaves nothing stationary
    code, out, err = _sweep(tmp_path, POWER_SWEEP, "--param", "twobody.exponent", "--from", "-3", "--to", "-1.5", "--steps", "2")
    assert (code, out) == (1, "")
    assert err == "config error: line 10: [twobody] power-law potential needs exponent > -2, got -3.0\n"


def test_config_error_after_a_solved_point(tmp_path):
    # three quanta pairs fit n = 4 only; n = 5 is the first point that fails
    text = POWER_SWEEP + "\n[state]\nquanta = 0,0 0,0 0,0\n"
    code, out, err = _sweep(tmp_path, text, "--param", "n", "--from", "4", "--to", "40")
    assert (code, out) == (1, "")
    assert err == "config error: [state] quanta lists 3 pairs but n=5 needs 4\n"


# --- a law sweep rebuilds only its law, with every diagnostic kept ----------------

THREE_TERMS = (
    "[system]\nn = 3\nd = 3\n\n[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n\n"
    "[onebody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n\n"
    "[twobody]\nfamily = powerlaw\namplitude = 0.2\nexponent = 2.0\n"
)
NO_KINETIC = "[system]\nn = 3\nd = 3\n\n[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n"
SHORT_QUANTA = THREE_TERMS + "\n[state]\nquanta = 0,0\n"


@pytest.mark.parametrize(
    "text, extra, err",
    [
        (THREE_TERMS, "twobody.foo 1 2", "config error: line 0: unknown key 'foo' in [twobody]\n"),
        (
            THREE_TERMS,
            "onebody.family 1 2",
            "config error: line 0: [onebody] family must be one of ['coulomb', 'exponential', 'gaussian', "
            "'logarithmic', 'powerlaw', 'squareroot', 'yukawa'], got '1.0'\n",
        ),
        (NO_KINETIC, "twobody.amplitude 1 2", "config error: a [kinetic] section is required for this command\n"),
        (NO_KINETIC, "twobody.amplitude 0 2", "config error: line 6: [twobody] power-law potential needs a nonzero amplitude\n"),
        # -0.2 solves, 0 is invalid: the config error ends the sweep after the solved point
        (THREE_TERMS, "twobody.amplitude -0.2 0.2", "config error: line 15: [twobody] power-law potential needs a nonzero amplitude\n"),
        (SHORT_QUANTA, "kinetic.mass 1 2", "config error: [state] quanta lists 1 pairs but n=3 needs 2\n"),
        (SHORT_QUANTA, "kinetic.mass -1 2", "config error: line 6: [kinetic] nonrelativistic kinetic law needs mass > 0, got -1.0\n"),
    ],
    ids=["unknown-key", "family-value", "no-kinetic", "no-kinetic-bad-first", "invalid-middle", "bad-state", "bad-state-bad-first"],
)
def test_law_sweep_diagnostics(tmp_path, text, extra, err):
    param, start, stop = extra.split()
    assert _sweep(tmp_path, text, "--param", param, "--from", start, "--to", stop, "--steps", "3") == (1, "", err)


def test_a_law_sweep_reads_its_config_text_once(tmp_path, monkeypatch):
    # the parse reads each number once; a point is built from the parsed numbers
    from envtheory import cli

    reads = []
    read = cli._get_number

    def counted(*args, **kwargs):
        reads.append(args[:3])
        return read(*args, **kwargs)

    monkeypatch.setattr(cli, "_get_number", counted)
    counts = []
    for steps in ("2", "100"):
        reads.clear()
        code, out, _ = _sweep(tmp_path, THREE_TERMS, "--param", "onebody.amplitude", "--from", "0.5", "--to", "2", "--steps", steps)
        assert code == 0 and out.count("\n") == 1 + int(steps)
        counts.append(len(reads))
    assert counts[0] == counts[1]
