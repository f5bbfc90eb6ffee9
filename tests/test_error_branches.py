"""Every raising branch pinned: a CLI diagnostic by its exit code and stderr line,
a library error by its exception type and message.

The branches here are the ones no other test reaches, plus two valid paths
that had no test: a solve on the asymptotic fermion tower and an oracle run
in an l > 0 sector.
"""

import argparse
import io
import math
import os
import re
import resource
import subprocess
import sys

import pytest

from envtheory.analysis import critical_coupling, term_convexity
from envtheory.cli import _fmt, _sweep_values, parse_sections, run
from envtheory.errors import EvaluationDomainError, NoStationaryPoint, TypeMismatch
from envtheory.model import (
    CustomProfile, KineticFamily, KineticLaw, PotentialFamily, PotentialLaw, SystemSpec, require_counts,
)
from envtheory.qnum import q_fermion_asymptotic
from envtheory.roots import brentq
from envtheory.solver import solve_nbody

SYSTEM = "[system]\nn = 3\nd = 3\n\n"
KINETIC = "[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n\n"
HARMONIC = "[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n"
YUKAWA = "[twobody]\nfamily = yukawa\ncoupling = 1.0\n"
PAIR = "[system]\nn = 2\nd = 3\n\n" + KINETIC + HARMONIC
# the first key after either base sits on line 15
STATE = SYSTEM + KINETIC + HARMONIC + "\n[state]\n"
PERTURBATION = SYSTEM + KINETIC + HARMONIC + "\n[perturbation]\n"
SWEEP = SYSTEM + KINETIC + HARMONIC
COULOMB_PAIR = PAIR.replace(HARMONIC, "[twobody]\nfamily = coulomb\nstrength = 1.0\n")


def run_cli(tmp_path, capsys, text, command, *flags):
    """(exit code, stderr, stdout) of one in-process CLI run on config ``text``."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = io.StringIO()
    code = run([command, "--config", str(path), *flags], stdout=out)
    return code, capsys.readouterr().err, out.getvalue()


# --- config text ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [("[system\nn = 3\n", "line 1: malformed section header '[system'"), ("[system]\n= 3\n", "line 2: empty key")],
    ids=["malformed-header", "empty-key"],
)
def test_a_malformed_config_line_is_a_type_mismatch(text, message):
    with pytest.raises(TypeMismatch) as err:
        parse_sections(text)
    assert str(err.value) == message


# --- CLI diagnostics ---------------------------------------------------------------

CLI_DIAGNOSTICS = [
    ("quanta-not-a-pair", STATE + "quanta = 0,0,0 0,0\n", "solve", [],
     "line 15: [state] quanta entries must be 'n,l' pairs, got '0,0,0'"),
    ("quanta-negative-n", STATE + "quanta = -1,0 0,0\n", "solve", [],
     "line 15: [state] quantum number n must be >= 0, got -1"),
    ("quanta-negative-l", STATE + "quanta = 0,0 0,-1\n", "solve", [],
     "line 15: [state] quantum number l must be >= 0, got -1"),
    ("quanta-empty-entry", STATE + "quanta = 0, 0,0\n", "solve", [],
     "line 15: [state] quanta entries must be integers, got '0,'"),
    ("quanta-empty", STATE + "quanta =\n", "solve", [], "line 15: [state] quanta must list at least one pair"),
    ("no-potential", SYSTEM + KINETIC, "solve", [], "an [onebody] or [twobody] section is required"),
    ("exponent-without-coefficient", PERTURBATION + "tau_exponent = 2.0\n", "solve", [],
     "line 15: [perturbation] tau_exponent needs tau"),
    ("no-coefficient", PERTURBATION, "solve", [], "[perturbation] needs at least one coefficient"),
    ("critical-no-kinetic", SYSTEM + YUKAWA, "critical", ["--mode", "twobody"],
     "'critical' needs [kinetic] family = nonrelativistic"),
    ("critical-semirelativistic", SYSTEM + "[kinetic]\nfamily = semirelativistic\nmass = 1.0\n\n" + YUKAWA,
     "critical", ["--mode", "twobody"], "'critical' needs [kinetic] family = nonrelativistic"),
    ("critical-no-mode-section", SYSTEM + KINETIC + YUKAWA, "critical", ["--mode", "onebody"],
     "an [onebody] section is required for --mode onebody"),
    ("minlength-twobody", SYSTEM + "[kinetic]\nfamily = minimal-length\nmass = 1.0\ndeformation = 0.01\n\n"
     "[twobody]\nfamily = coulomb\nstrength = 1.0\n", "minlength", [],
     "'minlength' needs [twobody] family = powerlaw with exponent 2 and positive amplitude"),
    ("sweep-to-below-from", SWEEP, "sweep", ["--param", "n", "--from", "5", "--to", "3"],
     "--to must not be smaller than --from"),
    ("sweep-non-integer-n", SWEEP, "sweep", ["--param", "n", "--from", "2", "--to", "3.5"],
     "--param n needs integer bounds"),
    ("sweep-non-integer-d", SWEEP, "sweep", ["--param", "d", "--from", "2.5", "--to", "3"],
     "--param d needs integer bounds"),
    ("sweep-steps-on-d", SWEEP, "sweep", ["--param", "d", "--from", "2", "--to", "3", "--steps", "2"],
     "--param d steps in increments of 1; omit --steps"),
    ("sweep-one-step", SWEEP, "sweep", ["--param", "twobody.exponent", "--from", "1", "--to", "2", "--steps", "1"],
     "--steps must be >= 2, got 1"),
    ("sweep-no-dot", SWEEP, "sweep", ["--param", "exponent", "--from", "1", "--to", "2", "--steps", "3"],
     "--param must be 'n', 'd', or 'section.key', got 'exponent'"),
    ("sweep-unsweepable", SWEEP, "sweep", ["--param", "system.n", "--from", "2", "--to", "3", "--steps", "2"],
     "sweepable sections are kinetic/onebody/twobody, got 'system'"),
    ("sweep-missing-section", SWEEP, "sweep",
     ["--param", "onebody.strength", "--from", "1", "--to", "2", "--steps", "2"],
     "a [onebody] section is required to sweep onebody.strength"),
    ("oracle-no-levels", PAIR, "oracle", ["--levels", "0"], "--levels must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "text, command, flags, expected", [case[1:] for case in CLI_DIAGNOSTICS], ids=[case[0] for case in CLI_DIAGNOSTICS]
)
def test_every_cli_diagnostic_is_one_config_error_line(tmp_path, capsys, text, command, flags, expected):
    assert run_cli(tmp_path, capsys, text, command, *flags) == (1, f"config error: {expected}\n", "")


def test_an_unwritable_out_path_is_one_config_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, err, out = run_cli(tmp_path, capsys, PAIR, "bounds", "--out", str(target))
    assert (code, out, err) == (1, "", f"config error: [Errno 2] No such file or directory: '{target}'\n")
    # its valid neighbour writes the file
    written = tmp_path / "x.csv"
    assert run_cli(tmp_path, capsys, PAIR, "bounds", "--out", str(written)) == (0, "", "")
    assert written.read_text().splitlines()[0] == "N,D,bound,kinetic,onebody,twobody"


# --- valid paths no other test takes -----------------------------------------------


def test_a_solve_on_the_asymptotic_fermion_tower(tmp_path, capsys):
    code, err, out = run_cli(tmp_path, capsys, STATE + "tower = fermion-asymptotic\n", "solve")
    assert (code, err) == (0, "")
    q = q_fermion_asymptotic(3, 3, 1)
    spec = SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    row = out.splitlines()[1].split(",")
    assert row[:4] == ["3", "3", _fmt(q), _fmt(solve_nbody(spec, q).energy)]


@pytest.mark.parametrize("degeneracy", [1, 2])
def test_the_system_degeneracy_moves_the_fermion_tower_q(tmp_path, capsys, degeneracy):
    text = STATE.replace("d = 3\n", f"d = 3\ndegeneracy = {degeneracy}\n") + "tower = fermion-asymptotic\n"
    code, err, out = run_cli(tmp_path, capsys, text, "solve")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[2] == _fmt(q_fermion_asymptotic(3, 3, degeneracy))
    assert q_fermion_asymptotic(3, 3, 2) < q_fermion_asymptotic(3, 3, 1)


def test_particle_statistics_is_no_system_key(tmp_path, capsys):
    # [state] tower chooses bosons or fermions; a statistics key would be read by nothing
    text = STATE.replace("d = 3\n", "d = 3\nstatistics = fermion\n") + "tower = boson-gs\n"
    code, err, out = run_cli(tmp_path, capsys, text, "solve")
    assert (code, err, out) == (1, "config error: line 4: unknown key 'statistics' in [system]\n", "")


def test_an_oracle_run_in_an_l_1_sector(tmp_path, capsys):
    # the relative oscillator has mu = 1/2 and V = r^2, so omega = 2 and E = 2 (2n + l + 3/2)
    code, err, out = run_cli(tmp_path, capsys, PAIR + "\n[state]\nquanta = 0,1\n", "oracle", "--levels", "2")
    assert (code, err) == (0, "")
    levels = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert levels == pytest.approx([5.0, 9.0], rel=1e-6)


# --- CSV cells and the float range --------------------------------------------------


def test_each_cell_prints_by_its_type(tmp_path, capsys):
    # an int as its digits, a float to 17 digits, an enum by its value
    text = SWEEP.replace("n = 3", "n = 100000000000000000000")
    assert run_cli(tmp_path, capsys, text, "solve") == (0, "", (
        "N,D,Q,E,r0,p0,bound,n_roots\n"
        "100000000000000000000,3,1.5e+20,2.1213203435596425e+30,1029883571953599.8,145647.53151219126,Exact,1\n"
    ))


def test_a_sweep_wider_than_the_float_range_is_one_config_error_line(tmp_path, capsys):
    flags = ["--param", "twobody.amplitude", "--from=-1e308", "--to=1e308", "--steps", "3"]
    assert run_cli(tmp_path, capsys, SWEEP, "sweep", *flags) == (
        1, "config error: --from -1e+308 to --to 1e+308 spans more than the float range\n", ""
    )
    # a finite width keeps its floats, however wide the span
    wide = argparse.Namespace(param="twobody.amplitude", start=-1e307, stop=1e307, steps=3)
    assert _sweep_values(wide) == [-1e307, 0.0, 1e307]


@pytest.mark.filterwarnings("error")
def test_a_scan_grid_past_the_float_range_warns_nothing(tmp_path, capsys):
    code, err, out = run_cli(tmp_path, capsys, STATE + "q = 1e300\n", "solve")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("no stationary point: ")
    spec = SystemSpec(3, 3, KineticLaw.nonrelativistic(1.0), twobody=PotentialLaw.power_law(1.0, 2.0))
    with pytest.raises(NoStationaryPoint):
        solve_nbody(spec, 1e300)


@pytest.mark.filterwarnings("error")
def test_a_critical_scale_scan_past_the_float_range_is_one_error_line(tmp_path, capsys):
    # the scan grid around the screening length 1e305 leaves the float range
    text = SYSTEM + KINETIC + YUKAWA.replace("coupling = 1.0", "coupling = 5.0\nscreening = 1e305")
    assert run_cli(tmp_path, capsys, text, "critical", "--mode", "twobody") == (
        1, "error: the critical coupling at Q = 3.0 and mass 1.0 is not finite, got nan\n", ""
    )


# --- integers past the float range --------------------------------------------------

PAIRS_PAST_RANGE = "n must keep the pair count n (n - 1) / 2 within the float range, got "
HUGE_INTEGERS = [
    # the scan settings are fixed: a [solver] section is refused at its header, before any value
    ("points-per-decade", SWEEP + f"\n[solver]\npoints_per_decade = {10**400}\n",
     "config error: line 14: unknown section [solver]"),
    ("max-iterations", SWEEP + f"\n[solver]\nmax_iterations = {10**400}\n",
     "config error: line 14: unknown section [solver]"),
    ("n-1e200-at-q-3", STATE.replace("n = 3", f"n = {10**200}") + "q = 3\n",
     f"config error: line 2: [system] {PAIRS_PAST_RANGE}{10**200}"),
    ("n-1e400-boson", SWEEP.replace("n = 3", f"n = {10**400}"),
     f"config error: line 2: [system] {PAIRS_PAST_RANGE}{10**400}"),
    ("d-1e400-boson", SWEEP.replace("d = 3", f"d = {10**400}"),
     f"config error: line 3: [system] d must lie within the float range, got {10**400}"),
    ("n-1e10-d-1e300-boson", SWEEP.replace("n = 3", f"n = {10**10}").replace("d = 3", f"d = {10**300}"),
     "error: the boson-ground-state Q is past the float range"),
    ("quanta-1e400", STATE + f"quanta = {10**400},0 0,0\n", "error: the oscillator-tower Q is past the float range"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, expected", [case[1:] for case in HUGE_INTEGERS], ids=[case[0] for case in HUGE_INTEGERS])
def test_an_integer_past_the_float_range_is_one_error_line(tmp_path, capsys, text, expected):
    assert run_cli(tmp_path, capsys, text, "solve") == (1, expected + "\n", "")


def test_the_pair_count_rule_sits_at_the_float_range():
    require_counts(n=10**154)  # 5e307 pairs
    with pytest.raises(ValueError, match="^" + re.escape(PAIRS_PAST_RANGE)):
        require_counts(n=2 * 10**154)  # 2e308 pairs


def test_the_dimension_rule_sits_at_the_float_range():
    require_counts(d=int(sys.float_info.max))
    with pytest.raises(ValueError, match=r"^d must lie within the float range, got \d+$"):
        require_counts(d=int(sys.float_info.max) + 1)


# --- closed forms and separations past the float range -----------------------------

BOSON_STAR = ("[system]\nn = 4\nd = 3\n\n[kinetic]\nfamily = semirelativistic\nmass = 0.617\n\n"
              "[twobody]\nfamily = coulomb\nstrength = 0.1299\n")
MINIMAL_LENGTH = SYSTEM + "[kinetic]\nfamily = minimal-length\nmass = 1.0\ndeformation = 0.01\n\n" + HARMONIC
FLOAT_RANGE_REPROS = [
    ("baryon-a-1e308", SYSTEM, "baryon", ["--a1", "1e308", "--a2", "1e308"], 1,
     "error: the baryon bounds are not finite, got (inf, inf)"),
    ("baryon-d-1e400", SYSTEM.replace("d = 3", f"d = {10**400}"), "baryon", ["--a1", "1"], 1,
     f"config error: line 3: [system] d must lie within the float range, got {10**400}"),
    ("bosonstar-mass-1e308", BOSON_STAR.replace("n = 4", "n = 2").replace("mass = 0.617", "mass = 1e308"), "bosonstar",
     [], 1, "error: the boson-star mass at Q = 1.5 and mass 1e+308 is not finite, got inf"),
    ("bosonstar-q-1e-308", BOSON_STAR + "\n[state]\nq = 1e-308\n", "bosonstar", [], 2,
     "no stationary point: alpha=0.1299 exceeds the collapse threshold at n=4, Q=1e-308"),
    ("minlength-amplitude-1e308", MINIMAL_LENGTH.replace("amplitude = 1.0", "amplitude = 1e308"), "minlength", [], 1,
     "error: the minimal-length level at Q = 3.0 is not finite, got inf"),
    ("perturb-exponent-1e308", STATE + "q = 1e30\n\n[perturbation]\nepsilon = -0.01\nepsilon_exponent = 1e308\n",
     "perturb", [], 1, "error: the first-order corrected level is not finite, got -inf"),
    ("solve-q-5e-324", STATE + "q = 5e-324\n", "solve", [], 1,
     "error: separation must be strictly positive, got 237 of 513 values not > 0, the smallest 0.0"),
    ("fermion-q-underflow", STATE.replace("d = 3\n", f"d = 3\ndegeneracy = {10**4000}\n") + "tower = fermion-asymptotic\n",
     "solve", [], 1, "error: the fermion-asymptotic Q underflows to 0"),
    # y0**2 w(y0) underflows to 0 at the screening length 1e-200; the quotient with no power of y0 overflows
    ("critical-screening-1e-200", "[system]\nn = 2\nd = 2\n\n" + KINETIC + "[twobody]\nfamily = exponential\ncoupling = 44\n"
     "screening = 1e-200\n", "critical", ["--mode", "twobody"], 1,
     "error: the critical coupling at Q = 1.0 and mass 1.0 is not finite, got inf"),
    # Q**2 underflows to 0 at a subnormal Q; the quotient with no power of Q underflows too
    ("critical-q-5e-324", SYSTEM + KINETIC + YUKAWA.replace("coupling = 1.0", "coupling = 5") + "\n[state]\nq = 5e-324\n",
     "critical", ["--mode", "twobody"], 1, "error: the critical coupling at Q = 5e-324 and mass 1.0 underflows to 0"),
    # the level's energy overflows at its root: the square-root pair's scale * sqrt(x**2 + offset)
    ("solve-energy-overflow", "[system]\nn = 3\nd = 4\n\n[kinetic]\nfamily = ultrarelativistic\n\n[twobody]\n"
     "family = squareroot\noffset = 1e308\nscale = 1e200\n", "solve", [], 1,
     "error: StationaryRoot.energy is not finite, got inf"),
    # ... and the exponential-quadratic kinetic term's power-law partner x**2 at Q = 1e308
    ("bounds-energy-overflow", SYSTEM + "[kinetic]\nfamily = exponential-quadratic\nstiffness = 0.4476\n\n[twobody]\n"
     "family = powerlaw\namplitude = 5e-324\nexponent = 2\n\n[state]\nq = 1e308\n", "bounds", [], 1,
     "error: StationaryRoot.energy is not finite, got inf"),
    # the polish evaluates the Coulomb pair's strength / x**2 where x**2 overflows, before the energy does
    ("perturb-polish-overflow", SYSTEM + "[kinetic]\nfamily = minimal-length\nmass = 2.7825\ndeformation = 0.0971\n\n"
     "[twobody]\nfamily = coulomb\nstrength = 0.0873\n\n[onebody]\nfamily = powerlaw\namplitude = 5e-324\n"
     "exponent = 2.0\n\n[perturbation]\nepsilon = -0.0025\nepsilon_exponent = 0.6787\n\n[state]\nq = 1e200\n",
     "perturb", [], 1, "error: StationaryRoot.energy is not finite, got inf"),
    # levels near -1e308 overflow the Richardson combination's 4 E_fine
    ("oracle-levels-overflow", PAIR.replace("mass = 1.0", "mass = 2.2605").replace("amplitude = 1.0", "amplitude = -1e308")
     .replace("exponent = 2.0", "exponent = -5e-324"), "oracle", ["--levels", "3"], 1,
     "error: 3 of 3 extrapolated radial levels are not finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, command, flags, code, expected",
    [case[1:] for case in FLOAT_RANGE_REPROS], ids=[case[0] for case in FLOAT_RANGE_REPROS],
)
def test_a_result_past_the_float_range_is_one_error_line(tmp_path, capsys, text, command, flags, code, expected):
    assert run_cli(tmp_path, capsys, text, command, *flags) == (code, expected + "\n", "")


# --- library errors ----------------------------------------------------------------


def failing(x):
    raise ValueError("outside the profile's domain")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: KineticLaw.of(KineticFamily.NONRELATIVISTIC), TypeError,
         "nonrelativistic kinetic law takes 1 parameters, got 0"),
        (lambda: PotentialLaw.of(PotentialFamily.COULOMB, 1.0, 2.0), TypeError,
         "coulomb potential takes 1 parameters, got 2"),
        (lambda: PotentialLaw.custom(CustomProfile(failing)).value(2.0), EvaluationDomainError,
         "custom potential profile failed at 2.0"),
        (lambda: KineticLaw(KineticFamily.CUSTOM), TypeError, "custom kinetic law needs a CustomProfile, got None"),
        (lambda: brentq(math.cos, 0.0, 3.0, maxiter=-1), ValueError, "maxiter must be >= 0, got -1"),
        (lambda: brentq(math.cos, 0.0, 3.0, xtol=0.0), ValueError, "xtol too small (0 <= 0)"),
        (lambda: brentq(math.cos, 0.0, 3.0, rtol=1e-17), ValueError, "rtol too small (1e-17 < 8.88178e-16)"),
        (lambda: term_convexity(PotentialLaw.custom(CustomProfile(math.exp)), (2.0, 1.0)), ValueError,
         "domain must satisfy 0 < lo < hi, got (2.0, 1.0)"),
        (lambda: critical_coupling("both", PotentialLaw.yukawa(1.0), 3, 3.0, 1.0), ValueError,
         "mode must be 'onebody' or 'twobody', got 'both'"),
    ],
    ids=["fields-too-few", "fields-too-many", "custom-profile-fails", "custom-without-profile", "brentq-maxiter",
         "brentq-xtol", "brentq-rtol", "term-convexity-domain", "critical-mode"],
)
def test_every_library_raise_is_typed_and_worded(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# --- inputs too large to hold: rejected before anything is allocated ------------------

CHILD_MEMORY = 1 << 30  # bytes of address space the child may map


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_child(tmp_path, text, command, *flags):
    """(exit code, stderr, stdout) of ``python -W error -m envtheory.cli`` in a memory-bounded child."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["envtheory"].__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "envtheory.cli", command, "--config", str(path), *flags],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_memory,
    )
    return done.returncode, done.stderr, done.stdout


@pytest.mark.parametrize(
    "text, command, flags, expected",
    [
        (SWEEP, "sweep", ["--param", "d", "--from", "2", "--to", "1e18"],
         "config error: a sweep takes at most 100000 points, got 999999999999999999"),
        (SWEEP, "sweep", ["--param", "twobody.exponent", "--from", "1", "--to", "2", "--steps", "1000000000"],
         "config error: a sweep takes at most 100000 points, got 1000000000"),
        (PAIR, "oracle", ["--points", "1000000000"], "config error: grid points must be <= 65536, got 1000000000"),
        (COULOMB_PAIR, "oracle", ["--rmax", "1e70"],
         "not converged: r_max = 1e+70 over 4000 points cannot resolve the state: the finest grid's cell "
         "3.9062500000000005e+64 is wider than the envelope scale r0 = 4.500000000000012"),
        # once a scan of 3.2e9 samples; the scan is fixed now, so the section is refused
        (SWEEP + "\n[solver]\npoints_per_decade = 100000000\n", "solve", [],
         "config error: line 14: unknown section [solver]"),
    ],
    ids=["sweep-d-to-1e18", "sweep-1e9-steps", "oracle-1e9-points", "oracle-coulomb-rmax-1e70", "solve-1e8-per-decade"],
)
def test_a_repro_is_one_line_in_a_bounded_child(tmp_path, text, command, flags, expected):
    code, err, out = run_child(tmp_path, text, command, *flags)
    assert (code, err, out) == (3 if expected.startswith("not converged") else 1, expected + "\n", "")


@pytest.mark.parametrize(
    "text, command, flags, rows",
    [
        (SWEEP, "sweep", ["--param", "d", "--from", "2", "--to", "4"], 3),
        (SWEEP, "sweep", ["--param", "twobody.exponent", "--from", "1", "--to", "2", "--steps", "5"], 5),
        (PAIR, "oracle", ["--points", "2000", "--levels", "1"], 1),
        (COULOMB_PAIR, "oracle", ["--rmax", "60"], 3),
    ],
    ids=["sweep-d-to-4", "sweep-5-steps", "oracle-2000-points", "oracle-coulomb-rmax-60"],
)
def test_the_neighbours_of_the_repros_run_in_a_bounded_child(tmp_path, text, command, flags, rows):
    code, err, out = run_child(tmp_path, text, command, *flags)
    assert (code, err, len(out.splitlines())) == (0, "", rows + 1)
