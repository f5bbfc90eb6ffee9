"""Block solve of sweeps: ``solve_nbody_many`` against one ``solve_nbody`` per point."""

import contextlib
import gzip
import io
import itertools
import json
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
)
from envtheory.cli import run
from envtheory.errors import NonPositiveArgument, NoStationaryPoint

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
    """Each block's 2-D scan equals the single-point scans of its points, bit for bit."""
    cfg = SolverConfig()
    points = list(zip(specs, qs))
    for _, block in itertools.groupby(points, key=lambda point: solver._block_key(*point)):
        block_specs, block_qs = zip(*block)
        grids = [solver._log_grid(q, cfg.decades, cfg.points_per_decade) for q in block_qs]
        with np.errstate(all="ignore"):
            each = np.array([stationary_residual(s, q, g) for s, q, g in zip(block_specs, block_qs, grids)])
            stacked = solver._block_residual(list(block_specs), np.array(block_qs), np.array(grids))
        np.testing.assert_array_equal(stacked, each)
        assert np.array_equal(np.signbit(stacked), np.signbit(each))


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
