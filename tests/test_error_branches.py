"""Every raising branch pinned: a CLI diagnostic by its exit code and stderr line,
a library error by its exception type and message.

The branches here are the ones no other test reaches, plus two valid paths
that had no test: a solve on the asymptotic fermion tower and an oracle run
in an l > 0 sector.
"""

import io
import math
import os
import resource
import subprocess
import sys

import pytest

from envtheory.analysis import critical_coupling, term_convexity
from envtheory.cli import _fmt, parse_sections, run
from envtheory.errors import EvaluationDomainError, TypeMismatch
from envtheory.model import CustomProfile, KineticFamily, KineticLaw, PotentialFamily, PotentialLaw, SystemSpec
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
     "a [kinetic] section is required for 'critical'"),
    ("critical-semirelativistic", SYSTEM + "[kinetic]\nfamily = semirelativistic\nmass = 1.0\n\n" + YUKAWA,
     "critical", ["--mode", "twobody"], "critical couplings are defined for nonrelativistic kinematics only"),
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
    assert row[:4] == ["3", "3", _fmt(q.value), _fmt(solve_nbody(spec, q).energy)]


def test_an_oracle_run_in_an_l_1_sector(tmp_path, capsys):
    # the relative oscillator has mu = 1/2 and V = r^2, so omega = 2 and E = 2 (2n + l + 3/2)
    code, err, out = run_cli(tmp_path, capsys, PAIR + "\n[state]\nquanta = 0,1\n", "oracle", "--levels", "2")
    assert (code, err) == (0, "")
    levels = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert levels == pytest.approx([5.0, 9.0], rel=1e-6)


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
        (lambda: KineticLaw(KineticFamily.CUSTOM).value(2.0), EvaluationDomainError,
         "custom kinetic law carries no profile"),
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
    ],
    ids=["sweep-d-to-1e18", "sweep-1e9-steps", "oracle-1e9-points", "oracle-coulomb-rmax-1e70"],
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
