"""CLI diagnostics for every law family, pinned byte for byte, and non-finite inputs."""

import io

import pytest

from envtheory.cli import run

SYSTEM = "[system]\nn = 3\nd = 3\n\n"
HARMONIC = "[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n"
KINETIC = "[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n\n"


def law_config(section, family, params):
    """A solve config whose [section] holds ``family`` with ``params``; the other terms are fixed."""
    head = f"[{section}]\n" + (f"family = {family}\n" if family is not None else "")
    law = head + "".join(f"{key} = {value}\n" for key, value in params)
    if section == "kinetic":
        return SYSTEM + law + "\n" + HARMONIC
    return SYSTEM + KINETIC + law


def solve_stderr(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code = run(["solve", "--config", str(path)], stdout=io.StringIO())
    return code, capsys.readouterr().err


# --- CLI diagnostics per family --------------------------------------------------

# Each family's missing-key, unknown-key, type and out-of-range diagnostics, and
# the order in which they win, exactly as the CLI printed them before the
# family table existed.
DIAGNOSTICS = [
    ('nonrelativistic-unknown', 'kinetic', 'nonrelativistic', [('mass', '1.0'), ('color', 'blue')],
     "config error: line 8: unknown key 'color' in [kinetic]\n"),
    ('nonrelativistic-missing-mass', 'kinetic', 'nonrelativistic', [],
     "config error: [kinetic] requires key 'mass'\n"),
    ('nonrelativistic-range-mass', 'kinetic', 'nonrelativistic', [('mass', '0.0')],
     'config error: line 6: [kinetic] nonrelativistic kinetic law needs mass > 0, got 0.0\n'),
    ('nonrelativistic-type-mass', 'kinetic', 'nonrelativistic', [('mass', 'heavy')],
     "config error: line 7: [kinetic] mass: expected a number, got 'heavy'\n"),
    ('semirelativistic-unknown', 'kinetic', 'semirelativistic', [('mass', '1.0'), ('color', 'blue')],
     "config error: line 8: unknown key 'color' in [kinetic]\n"),
    ('semirelativistic-missing-mass', 'kinetic', 'semirelativistic', [],
     "config error: [kinetic] requires key 'mass'\n"),
    ('semirelativistic-range-mass', 'kinetic', 'semirelativistic', [('mass', '-1.0')],
     'config error: line 6: [kinetic] semirelativistic kinetic law needs mass >= 0, got -1.0\n'),
    ('semirelativistic-type-mass', 'kinetic', 'semirelativistic', [('mass', 'heavy')],
     "config error: line 7: [kinetic] mass: expected a number, got 'heavy'\n"),
    ('ultrarelativistic-unknown', 'kinetic', 'ultrarelativistic', [('color', 'blue')],
     "config error: line 7: unknown key 'color' in [kinetic]\n"),
    ('minimal-length-unknown', 'kinetic', 'minimal-length', [('mass', '1.0'), ('deformation', '0.1'), ('color', 'blue')],
     "config error: line 9: unknown key 'color' in [kinetic]\n"),
    ('minimal-length-missing-mass', 'kinetic', 'minimal-length', [('deformation', '0.1')],
     "config error: [kinetic] requires key 'mass'\n"),
    ('minimal-length-range-mass', 'kinetic', 'minimal-length', [('mass', '-2.5'), ('deformation', '0.1')],
     'config error: line 6: [kinetic] minimal-length kinetic law needs mass > 0, got -2.5\n'),
    ('minimal-length-type-mass', 'kinetic', 'minimal-length', [('mass', 'heavy'), ('deformation', '0.1')],
     "config error: line 7: [kinetic] mass: expected a number, got 'heavy'\n"),
    ('minimal-length-missing-deformation', 'kinetic', 'minimal-length', [('mass', '1.0')],
     "config error: [kinetic] requires key 'deformation'\n"),
    ('minimal-length-range-deformation', 'kinetic', 'minimal-length', [('mass', '1.0'), ('deformation', '-0.1')],
     'config error: line 6: [kinetic] minimal-length kinetic law needs deformation >= 0, got -0.1\n'),
    ('minimal-length-type-deformation', 'kinetic', 'minimal-length', [('mass', '1.0'), ('deformation', 'heavy')],
     "config error: line 8: [kinetic] deformation: expected a number, got 'heavy'\n"),
    ('minimal-length-missing-all', 'kinetic', 'minimal-length', [],
     "config error: [kinetic] requires key 'mass'\n"),
    ('minimal-length-unknown-before-missing', 'kinetic', 'minimal-length', [('color', 'blue'), ('deformation', '0.1')],
     "config error: line 7: unknown key 'color' in [kinetic]\n"),
    ('minimal-length-type-before-range', 'kinetic', 'minimal-length', [('mass', '-2.5'), ('deformation', 'heavy')],
     "config error: line 8: [kinetic] deformation: expected a number, got 'heavy'\n"),
    ('minimal-length-range-order', 'kinetic', 'minimal-length', [('mass', '-2.5'), ('deformation', '-0.1')],
     'config error: line 6: [kinetic] minimal-length kinetic law needs mass > 0, got -2.5\n'),
    ('exponential-quadratic-unknown', 'kinetic', 'exponential-quadratic', [('stiffness', '0.5'), ('color', 'blue')],
     "config error: line 8: unknown key 'color' in [kinetic]\n"),
    ('exponential-quadratic-missing-stiffness', 'kinetic', 'exponential-quadratic', [],
     "config error: [kinetic] requires key 'stiffness'\n"),
    ('exponential-quadratic-range-stiffness', 'kinetic', 'exponential-quadratic', [('stiffness', '0')],
     'config error: line 6: [kinetic] exponential-quadratic kinetic law needs stiffness > 0, got 0.0\n'),
    ('exponential-quadratic-type-stiffness', 'kinetic', 'exponential-quadratic', [('stiffness', 'heavy')],
     "config error: line 7: [kinetic] stiffness: expected a number, got 'heavy'\n"),
    ('powerlaw-unknown', 'twobody', 'powerlaw', [('amplitude', '1.0'), ('exponent', '1.0'), ('color', 'blue')],
     "config error: line 13: unknown key 'color' in [twobody]\n"),
    ('powerlaw-missing-amplitude', 'twobody', 'powerlaw', [('exponent', '1.0')],
     "config error: [twobody] requires key 'amplitude'\n"),
    ('powerlaw-range-amplitude', 'twobody', 'powerlaw', [('amplitude', '0'), ('exponent', '1.0')],
     'config error: line 10: [twobody] power-law potential needs a nonzero amplitude\n'),
    ('powerlaw-type-amplitude', 'twobody', 'powerlaw', [('amplitude', 'heavy'), ('exponent', '1.0')],
     "config error: line 11: [twobody] amplitude: expected a number, got 'heavy'\n"),
    ('powerlaw-missing-exponent', 'twobody', 'powerlaw', [('amplitude', '1.0')],
     "config error: [twobody] requires key 'exponent'\n"),
    ('powerlaw-range-exponent', 'twobody', 'powerlaw', [('amplitude', '1.0'), ('exponent', '-2.0')],
     'config error: line 10: [twobody] power-law potential needs exponent > -2, got -2.0\n'),
    ('powerlaw-type-exponent', 'twobody', 'powerlaw', [('amplitude', '1.0'), ('exponent', 'heavy')],
     "config error: line 12: [twobody] exponent: expected a number, got 'heavy'\n"),
    ('powerlaw-missing-all', 'twobody', 'powerlaw', [],
     "config error: [twobody] requires key 'amplitude'\n"),
    ('powerlaw-unknown-before-missing', 'twobody', 'powerlaw', [('color', 'blue'), ('exponent', '1.0')],
     "config error: line 11: unknown key 'color' in [twobody]\n"),
    ('powerlaw-type-before-range', 'twobody', 'powerlaw', [('amplitude', '0'), ('exponent', 'heavy')],
     "config error: line 12: [twobody] exponent: expected a number, got 'heavy'\n"),
    ('powerlaw-range-order', 'twobody', 'powerlaw', [('amplitude', '0'), ('exponent', '-2.0')],
     'config error: line 10: [twobody] power-law potential needs a nonzero amplitude\n'),
    ('coulomb-unknown', 'twobody', 'coulomb', [('strength', '1.0'), ('color', 'blue')],
     "config error: line 12: unknown key 'color' in [twobody]\n"),
    ('coulomb-missing-strength', 'twobody', 'coulomb', [],
     "config error: [twobody] requires key 'strength'\n"),
    ('coulomb-range-strength', 'twobody', 'coulomb', [('strength', '-0.5')],
     'config error: line 10: [twobody] coulomb potential needs strength > 0, got -0.5\n'),
    ('coulomb-type-strength', 'twobody', 'coulomb', [('strength', 'heavy')],
     "config error: line 11: [twobody] strength: expected a number, got 'heavy'\n"),
    ('squareroot-unknown', 'twobody', 'squareroot', [('offset', '0.5'), ('scale', '1.0'), ('color', 'blue')],
     "config error: line 13: unknown key 'color' in [twobody]\n"),
    ('squareroot-range-offset', 'twobody', 'squareroot', [('offset', '-1.0'), ('scale', '1.0')],
     'config error: line 10: [twobody] square-root potential needs offset >= 0, got -1.0\n'),
    ('squareroot-type-offset', 'twobody', 'squareroot', [('offset', 'heavy'), ('scale', '1.0')],
     "config error: line 11: [twobody] offset: expected a number, got 'heavy'\n"),
    ('squareroot-range-scale', 'twobody', 'squareroot', [('offset', '0.5'), ('scale', '0.0')],
     'config error: line 10: [twobody] square-root potential needs a nonzero scale\n'),
    ('squareroot-type-scale', 'twobody', 'squareroot', [('offset', '0.5'), ('scale', 'heavy')],
     "config error: line 12: [twobody] scale: expected a number, got 'heavy'\n"),
    ('squareroot-unknown-before-missing', 'twobody', 'squareroot', [('color', 'blue')],
     "config error: line 11: unknown key 'color' in [twobody]\n"),
    ('squareroot-type-before-range', 'twobody', 'squareroot', [('offset', '-1.0'), ('scale', 'heavy')],
     "config error: line 12: [twobody] scale: expected a number, got 'heavy'\n"),
    ('squareroot-range-order', 'twobody', 'squareroot', [('offset', '-1.0'), ('scale', '0.0')],
     'config error: line 10: [twobody] square-root potential needs offset >= 0, got -1.0\n'),
    ('logarithmic-unknown', 'twobody', 'logarithmic', [('scale', '1.0'), ('color', 'blue')],
     "config error: line 12: unknown key 'color' in [twobody]\n"),
    ('logarithmic-range-scale', 'twobody', 'logarithmic', [('scale', '0')],
     'config error: line 10: [twobody] logarithmic potential needs a nonzero scale\n'),
    ('logarithmic-type-scale', 'twobody', 'logarithmic', [('scale', 'heavy')],
     "config error: line 11: [twobody] scale: expected a number, got 'heavy'\n"),
    ('yukawa-unknown', 'twobody', 'yukawa', [('coupling', '2.0'), ('screening', '1.0'), ('color', 'blue')],
     "config error: line 13: unknown key 'color' in [twobody]\n"),
    ('yukawa-missing-coupling', 'twobody', 'yukawa', [('screening', '1.0')],
     "config error: [twobody] requires key 'coupling'\n"),
    ('yukawa-range-coupling', 'twobody', 'yukawa', [('coupling', '0.0'), ('screening', '1.0')],
     'config error: line 10: [twobody] yukawa potential needs coupling > 0, got 0.0\n'),
    ('yukawa-type-coupling', 'twobody', 'yukawa', [('coupling', 'heavy'), ('screening', '1.0')],
     "config error: line 11: [twobody] coupling: expected a number, got 'heavy'\n"),
    ('yukawa-range-screening', 'twobody', 'yukawa', [('coupling', '2.0'), ('screening', '-1.0')],
     'config error: line 10: [twobody] yukawa potential needs screening > 0, got -1.0\n'),
    ('yukawa-type-screening', 'twobody', 'yukawa', [('coupling', '2.0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('yukawa-unknown-before-missing', 'twobody', 'yukawa', [('color', 'blue'), ('screening', '1.0')],
     "config error: line 11: unknown key 'color' in [twobody]\n"),
    ('yukawa-type-before-range', 'twobody', 'yukawa', [('coupling', '0.0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('yukawa-range-order', 'twobody', 'yukawa', [('coupling', '0.0'), ('screening', '-1.0')],
     'config error: line 10: [twobody] yukawa potential needs coupling > 0, got 0.0\n'),
    ('exponential-unknown', 'twobody', 'exponential', [('coupling', '2.0'), ('screening', '1.0'), ('color', 'blue')],
     "config error: line 13: unknown key 'color' in [twobody]\n"),
    ('exponential-missing-coupling', 'twobody', 'exponential', [('screening', '1.0')],
     "config error: [twobody] requires key 'coupling'\n"),
    ('exponential-range-coupling', 'twobody', 'exponential', [('coupling', '-3.0'), ('screening', '1.0')],
     'config error: line 10: [twobody] exponential potential needs coupling > 0, got -3.0\n'),
    ('exponential-type-coupling', 'twobody', 'exponential', [('coupling', 'heavy'), ('screening', '1.0')],
     "config error: line 11: [twobody] coupling: expected a number, got 'heavy'\n"),
    ('exponential-range-screening', 'twobody', 'exponential', [('coupling', '2.0'), ('screening', '0.0')],
     'config error: line 10: [twobody] exponential potential needs screening > 0, got 0.0\n'),
    ('exponential-type-screening', 'twobody', 'exponential', [('coupling', '2.0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('exponential-unknown-before-missing', 'twobody', 'exponential', [('color', 'blue'), ('screening', '1.0')],
     "config error: line 11: unknown key 'color' in [twobody]\n"),
    ('exponential-type-before-range', 'twobody', 'exponential', [('coupling', '-3.0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('exponential-range-order', 'twobody', 'exponential', [('coupling', '-3.0'), ('screening', '0.0')],
     'config error: line 10: [twobody] exponential potential needs coupling > 0, got -3.0\n'),
    ('gaussian-unknown', 'twobody', 'gaussian', [('coupling', '2.0'), ('screening', '1.0'), ('color', 'blue')],
     "config error: line 13: unknown key 'color' in [twobody]\n"),
    ('gaussian-missing-coupling', 'twobody', 'gaussian', [('screening', '1.0')],
     "config error: [twobody] requires key 'coupling'\n"),
    ('gaussian-range-coupling', 'twobody', 'gaussian', [('coupling', '0'), ('screening', '1.0')],
     'config error: line 10: [twobody] gaussian potential needs coupling > 0, got 0.0\n'),
    ('gaussian-type-coupling', 'twobody', 'gaussian', [('coupling', 'heavy'), ('screening', '1.0')],
     "config error: line 11: [twobody] coupling: expected a number, got 'heavy'\n"),
    ('gaussian-range-screening', 'twobody', 'gaussian', [('coupling', '2.0'), ('screening', '-0.25')],
     'config error: line 10: [twobody] gaussian potential needs screening > 0, got -0.25\n'),
    ('gaussian-type-screening', 'twobody', 'gaussian', [('coupling', '2.0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('gaussian-unknown-before-missing', 'twobody', 'gaussian', [('color', 'blue'), ('screening', '1.0')],
     "config error: line 11: unknown key 'color' in [twobody]\n"),
    ('gaussian-type-before-range', 'twobody', 'gaussian', [('coupling', '0'), ('screening', 'heavy')],
     "config error: line 12: [twobody] screening: expected a number, got 'heavy'\n"),
    ('gaussian-range-order', 'twobody', 'gaussian', [('coupling', '0'), ('screening', '-0.25')],
     'config error: line 10: [twobody] gaussian potential needs coupling > 0, got 0.0\n'),
    ('kinetic-unknown-family', 'kinetic', 'relativistic', [('mass', '1.0')],
     "config error: line 6: [kinetic] family must be one of ['exponential-quadratic', 'minimal-length', 'nonrelativistic', 'semirelativistic', 'ultrarelativistic'], got 'relativistic'\n"),
    ('twobody-unknown-family', 'twobody', 'harmonic', [('amplitude', '1.0')],
     "config error: line 10: [twobody] family must be one of ['coulomb', 'exponential', 'gaussian', 'logarithmic', 'powerlaw', 'squareroot', 'yukawa'], got 'harmonic'\n"),
    ('onebody-range-coulomb', 'onebody', 'coulomb', [('strength', '0')],
     'config error: line 10: [onebody] coulomb potential needs strength > 0, got 0.0\n'),
    ('onebody-missing-family', 'onebody', None, [('strength', '1.0')],
     "config error: [onebody] requires key 'family'\n"),
]


@pytest.mark.parametrize(
    "section, family, params, expected", [c[1:] for c in DIAGNOSTICS], ids=[c[0] for c in DIAGNOSTICS]
)
def test_family_diagnostics_are_pinned(tmp_path, capsys, section, family, params, expected):
    assert solve_stderr(tmp_path, capsys, law_config(section, family, params)) == (1, expected)


# --- non-finite inputs -----------------------------------------------------------


@pytest.mark.parametrize(
    "section, family, params, expected",
    [
        ("kinetic", "nonrelativistic", [("mass", "nan")],
         "line 6: [kinetic] nonrelativistic kinetic law mass must be finite, got nan"),
        ("kinetic", "minimal-length", [("mass", "1.0"), ("deformation", "inf")],
         "line 6: [kinetic] minimal-length kinetic law deformation must be finite, got inf"),
        ("twobody", "powerlaw", [("amplitude", "1.0"), ("exponent", "inf")],
         "line 10: [twobody] power-law potential exponent must be finite, got inf"),
        ("onebody", "yukawa", [("coupling", "-inf")],
         "line 10: [onebody] yukawa potential coupling must be finite, got -inf"),
    ],
)
def test_non_finite_parameter_is_a_config_error(tmp_path, capsys, section, family, params, expected):
    text = law_config(section, family, params)
    assert solve_stderr(tmp_path, capsys, text) == (1, f"config error: {expected}\n")


STATE_BASE = SYSTEM + KINETIC + HARMONIC + "\n[state]\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("inf", "config error: line 15: [state] q must be finite, got inf\n"),
        ("1e400", "config error: line 15: [state] q must be finite, got inf\n"),
        ("nan", "config error: line 15: [state] q must be positive, got nan\n"),
        ("0", "config error: line 15: [state] q must be positive, got 0.0\n"),
        ("-inf", "config error: line 15: [state] q must be positive, got -inf\n"),
    ],
)
def test_state_q_must_be_finite(tmp_path, capsys, text, expected):
    assert solve_stderr(tmp_path, capsys, STATE_BASE + f"q = {text}\n") == (1, expected)


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("decades", "inf", "config error: [solver] decades must be finite, got inf\n"),
        ("decades", "nan", "config error: [solver] decades must be finite, got nan\n"),
        ("bracket_expansion", "nan", "config error: [solver] bracket_expansion must be finite, got nan\n"),
        ("tolerance", "inf", "config error: [solver] tolerance must be finite, got inf\n"),
        ("decades", "-1", "config error: [solver] decades must be positive, got -1.0\n"),
    ],
)
def test_solver_values_must_be_finite(tmp_path, capsys, key, value, expected):
    text = SYSTEM + KINETIC + HARMONIC + f"\n[solver]\n{key} = {value}\n"
    assert solve_stderr(tmp_path, capsys, text) == (1, expected)


PERTURB_BASE = SYSTEM + KINETIC + HARMONIC + "\n[perturbation]\n"


@pytest.mark.parametrize(
    "body, expected",
    [
        ("tau = nan\ntau_exponent = 2.0\n", "line 15: [perturbation] tau must be finite, got nan"),
        ("eta_exponent = 1.0\neta = inf\n", "line 16: [perturbation] eta must be finite, got inf"),
        ("epsilon = -inf\nepsilon_exponent = 2.0\n", "line 15: [perturbation] epsilon must be finite, got -inf"),
        ("tau = nan\n", "[perturbation] requires key 'tau_exponent'"),
    ],
)
def test_perturbation_coefficients_must_be_finite(tmp_path, capsys, body, expected):
    path = tmp_path / "run.cfg"
    path.write_text(PERTURB_BASE + body)
    out = io.StringIO()
    code = run(["perturb", "--config", str(path)], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"config error: {expected}\n", "")


BARYON = "[system]\nn = 3\nd = 3\n\n[kinetic]\nfamily = ultrarelativistic\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--a1", "inf"], "a1 must be finite, got inf"),
        (["--a1", "1", "--b", "nan"], "b must be finite, got nan"),
        (["--a2", "nan"], "a2 must be finite, got nan"),
        ([], "at least one confinement strength must be positive"),
        (["--a1", "-1", "--a2", "1"], "confinement strengths a1, a2 must be non-negative"),
    ],
    ids=["a1-inf", "b-nan", "a2-nan", "no-confinement", "negative-strength"],
)
def test_baryon_bad_flags_are_config_errors(tmp_path, capsys, flags, expected):
    path = tmp_path / "run.cfg"
    path.write_text(BARYON)
    out = io.StringIO()
    code = run(["baryon", "--config", str(path), *flags], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"config error: {expected}\n", "")


SWEEP = SYSTEM + KINETIC + HARMONIC


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--param", "n", "--from", "2", "--to", "inf"], "--to must be finite, got inf"),
        (["--param", "n", "--from", "2", "--to", "nan"], "--to must be finite, got nan"),
        (["--param", "twobody.exponent", "--from", "1", "--to", "inf", "--steps", "3"], "--to must be finite, got inf"),
        (["--param", "twobody.exponent", "--from=-inf", "--to", "1", "--steps", "3"], "--from must be finite, got -inf"),
    ],
    ids=["n-to-inf", "n-to-nan", "exponent-to-inf", "exponent-from-minus-inf"],
)
def test_sweep_bounds_must_be_finite(tmp_path, capsys, flags, expected):
    path = tmp_path / "run.cfg"
    path.write_text(SWEEP)
    out = io.StringIO()
    code = run(["sweep", "--config", str(path), *flags], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"config error: {expected}\n", "")


def test_usage_errors_keep_their_text_on_a_reused_parser(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SWEEP)
    unknown = (
        "usage error: argument command: invalid choice: 'transmogrify' (choose from 'solve', "
        "'bounds', 'critical', 'perturb', 'baryon', 'bosonstar', 'minlength', 'sweep', 'oracle')\n"
    )
    for _ in range(2):
        assert run(["transmogrify", "--config", str(path)], stdout=io.StringIO()) == 1
        assert capsys.readouterr().err == unknown
        assert run(["critical", "--config", str(path)], stdout=io.StringIO()) == 1
        assert capsys.readouterr().err == "usage error: the following arguments are required: --mode\n"
        out = io.StringIO()
        assert run(["solve", "--config", str(path)], stdout=out) == 0
        assert out.getvalue().startswith("N,D,Q,E,r0,p0,bound,n_roots\n3,3,")


# --- [system] counts, [solver] keys and n/d sweep points ---------------------------


@pytest.mark.parametrize(
    "body, expected",
    [
        ("n = 1\nd = 3\n", "line 2: [system] n must be >= 2, got 1"),
        ("n = 3\nd = 1\n", "line 3: [system] d must be >= 2, got 1"),
        ("n = 1\nd = 1\n", "line 2: [system] n must be >= 2, got 1"),
        ("n = 3\nd = 3\ndegeneracy = 0\n", "line 4: [system] degeneracy must be >= 1, got 0"),
        ("n = 3\nd = 3\ndegeneracy = two\n", "line 4: [system] degeneracy: expected an integer, got 'two'"),
        ("n = 1\nd = three\n", "line 3: [system] d: expected an integer, got 'three'"),
        ("n = 1.5\nd = 1\n", "line 2: [system] n: expected an integer, got '1.5'"),
        (
            "n = 3\nd = 3\nstatistics = anyon\ndegeneracy = 0\n",
            "line 4: [system] statistics must be one of ['boson', 'fermion', 'unspecified'], got 'anyon'",
        ),
        (
            "n = 1\nd = 3\nstatistics = anyon\n",
            "line 2: [system] n must be >= 2, got 1",
        ),
        ("n = 3\nd = 3\ncolor = blue\n", "line 4: unknown key 'color' in [system]"),
        ("d = 3\n", "[system] requires key 'n'"),
    ],
    ids=[
        "n-range", "d-range", "n-before-d", "degeneracy-range", "degeneracy-type",
        "d-type-before-n-range", "n-type-before-d-range", "statistics-before-degeneracy",
        "n-range-before-statistics", "unknown-key", "missing-n",
    ],
)
def test_system_diagnostics_and_their_order_are_pinned(tmp_path, capsys, body, expected):
    text = "[system]\n" + body + "\n" + KINETIC + HARMONIC
    assert solve_stderr(tmp_path, capsys, text) == (1, f"config error: {expected}\n")


@pytest.mark.parametrize("param", ["n", "d"])
def test_count_sweep_below_two_is_a_line_0_config_error(tmp_path, capsys, param):
    path = tmp_path / "run.cfg"
    path.write_text(SWEEP)
    out = io.StringIO()
    code = run(["sweep", "--config", str(path), "--param", param, "--from", "1", "--to", "3"], stdout=out)
    expected = f"config error: line 0: [system] {param} must be >= 2, got 1\n"
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, expected, "")


def test_empty_solver_section_is_the_default_config():
    from envtheory.cli import parse_config
    from envtheory.solver import SolverConfig

    assert parse_config(SWEEP + "\n[solver]\n").solver == SolverConfig()
    assert parse_config(SWEEP).solver == SolverConfig()


@pytest.mark.parametrize(
    "body, expected",
    [
        ("decades = 4\ncolour = blue\n", "line 16: unknown key 'colour' in [solver]"),
        ("max_iterations = 2.5\n", "line 15: [solver] max_iterations: expected an integer, got '2.5'"),
        ("tolerance = tight\n", "line 15: [solver] tolerance: expected a number, got 'tight'"),
        ("max_iterations = 5\n", "[solver] max_iterations must be >= 10, got 5"),
        ("points_per_decade = 4\n", "[solver] points_per_decade must be >= 8, got 4"),
        ("decades = x\npoints_per_decade = y\n", "line 16: [solver] points_per_decade: expected an integer, got 'y'"),
    ],
    ids=["unknown-key", "int-type", "float-type", "iterations-range", "density-range", "field-order"],
)
def test_solver_diagnostics_are_pinned(tmp_path, capsys, body, expected):
    text = SYSTEM + KINETIC + HARMONIC + "\n[solver]\n" + body
    assert solve_stderr(tmp_path, capsys, text) == (1, f"config error: {expected}\n")


ORACLE = "[system]\nn = 2\nd = 3\n\n" + KINETIC + HARMONIC


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--points", "100"], "grid points must be >= 200, got 100"),
        (["--rmax", "-1"], "r_max must be positive, got -1.0"),
        (["--rmax", "nan"], "r_max must be positive, got nan"),
    ],
    ids=["points-100", "rmax-negative", "rmax-nan"],
)
def test_oracle_bad_grid_flags_are_config_errors(tmp_path, capsys, flags, expected):
    path = tmp_path / "run.cfg"
    path.write_text(ORACLE)
    out = io.StringIO()
    code = run(["oracle", "--config", str(path), *flags], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"config error: {expected}\n", "")


# --- every command: a value the library rejects is a config error -------------
# [state] q = 0 and oracle --points 100 are pinned above with the same checks.

BOSONSTAR = SYSTEM + "[kinetic]\nfamily = semirelativistic\nmass = 0.0\n\n[twobody]\nfamily = coulomb\nstrength = 0.01\n"


@pytest.mark.parametrize(
    "command, text, flags, expected",
    [
        ("perturb", PERTURB_BASE + "tau = inf\ntau_exponent = 2.0\n", [],
         "line 15: [perturbation] tau must be finite, got inf"),
        ("perturb", PERTURB_BASE + "tau = 1.0\ntau_exponent = -3\n", [],
         "line 16: [perturbation] power-law potential needs exponent > -2, got -3.0"),
        ("baryon", BARYON, ["--a1", "-1"], "confinement strengths a1, a2 must be non-negative"),
        # the semirelativistic law takes mass 0, the boson-star bound does not
        ("bosonstar", BOSONSTAR, [], "mass must be positive, got 0.0"),
    ],
    ids=["tau-inf", "tau-exponent-below-minus-2", "baryon-negative-a1", "bosonstar-massless"],
)
def test_a_value_the_library_rejects_is_a_config_error_without_traceback(
    tmp_path, capsys, command, text, flags, expected
):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = io.StringIO()
    # an uncaught library error would escape run() here, as a traceback does from the command
    code = run([command, "--config", str(path), *flags], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"config error: {expected}\n", "")


# --- oracle grids and critical couplings out of the float range ----------------

YUKAWA_Q = SYSTEM + KINETIC + "[twobody]\nfamily = yukawa\ncoupling = 1.0\n\n[state]\nq = 1e300\n"
YUKAWA_TINY = SYSTEM + KINETIC + "[twobody]\nfamily = yukawa\ncoupling = 1.0\nscreening = 1e-200\n"
PAIR = "[system]\nn = 2\nd = 3\n\n" + KINETIC + "[twobody]\nfamily = coulomb\nstrength = 1.0\n"
PAIR_2D = PAIR.replace("d = 3", "d = 2")
TOO_WIDE = (" over 4000 points is too wide a grid: at the outer end, "
            "r**(D-1), 2 mu r^2 or the kinetic scale 1/(2 mu h^2) is not a finite nonzero float")


@pytest.mark.parametrize(
    "command, text, flags, expected",
    [
        ("oracle", ORACLE, ["--levels", "500", "--points", "200"],
         "config error: 200 grid points hold at most 200 levels, got 500"),
        ("oracle", ORACLE, ["--rmax", "1e-300"],
         "config error: r_max = 1e-300 over 4000 points is too fine a grid: "
         "the kinetic scale 1/(2 mu h^2) of its finest doubling is not finite"),
        # finite on the first grid, infinite after the doublings
        ("oracle", ORACLE, ["--rmax", "1e-150"],
         "config error: r_max = 1e-150 over 4000 points is too fine a grid: "
         "the kinetic scale 1/(2 mu h^2) of its finest doubling is not finite"),
        ("critical", YUKAWA_Q, ["--mode", "twobody"],
         "error: the critical coupling at Q = 1e+300 and mass 1.0 is not finite, got inf"),
        # a finite kinetic scale, but r**(D-1) underflows in the innermost cells
        ("oracle", ORACLE, ["--rmax", "1e-140"],
         "config error: r_max = 1e-140 over 4000 points is too fine a grid: "
         "the cell weights r**(D-1) of its finest doubling underflow to zero"),
        ("oracle", ORACLE, ["--rmax", "1e-120"],
         "config error: r_max = 1e-120 over 4000 points is too fine a grid: "
         "the cell weights r**(D-1) of its finest doubling underflow to zero"),
        ("oracle", ORACLE.replace("d = 3", "d = 6"), ["--rmax", "1e-40"],
         "config error: r_max = 1e-40 over 4000 points is too fine a grid: "
         "the cell weights r**(D-1) of its finest doubling underflow to zero"),
        # 1/(x x) overflows on every scan sample: no finite sample, not "no stationary scale"
        ("critical", YUKAWA_TINY, ["--mode", "twobody"],
         "error: the well profile is not finite anywhere on the stationary-scale scan "
         "around the screening length 1e-200"),
        # r**(D-1), their product or 2 mu r^2 overflows in the outermost cells
        ("oracle", PAIR, ["--rmax", "1e200"], "config error: r_max = 1e+200" + TOO_WIDE),
        ("oracle", PAIR, ["--rmax", "1e160"], "config error: r_max = 1e+160" + TOO_WIDE),
        ("oracle", PAIR_2D, ["--rmax", "1e200"], "config error: r_max = 1e+200" + TOO_WIDE),
        ("oracle", PAIR_2D, ["--rmax", "1e155"], "config error: r_max = 1e+155" + TOO_WIDE),
    ],
    ids=["oracle-levels-beyond-grid", "oracle-rmax-1e-300", "oracle-rmax-1e-150", "critical-q-1e300",
         "oracle-rmax-1e-140", "oracle-rmax-1e-120", "oracle-d6-rmax-1e-40", "critical-screening-1e-200",
         "oracle-rmax-1e200", "oracle-rmax-1e160", "oracle-d2-rmax-1e200", "oracle-d2-rmax-1e155"],
)
@pytest.mark.filterwarnings("error")
def test_a_result_beyond_the_grid_or_the_float_range_is_a_one_line_error(
    tmp_path, capsys, command, text, flags, expected
):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = io.StringIO()
    code = run([command, "--config", str(path), *flags], stdout=out)
    assert (code, capsys.readouterr().err, out.getvalue()) == (1, f"{expected}\n", "")


# Each grid passes every float-range rule, and the Coulomb pair's level is
# -0.25 at the envelope scale r0 = 4.5.  A grid that ends inside the state
# gives the levels of its box (E0 = 9.87e144 at 1e-72, -0.0625 at 4), and at
# 1e-74 (D = 3) or 2.3e-149 (D = 2) LAPACK fails on it; both rules are checked
# after the grid is built.  At 1e77 (D = 3) and 1e154 (D = 2) the state lies
# inside one cell of every doubling, so the doublings would agree on a level
# that is not the state's (-1.9e-73 at 1e77).  Each is one not-converged line.
INSIDE = " ends inside the state: it must exceed the envelope scale r0 = "
UNRESOLVED = " over 4000 points cannot resolve the state: "


@pytest.mark.parametrize(
    "text, rmax, expected",
    [
        (PAIR, "1e-74", "1e-74" + INSIDE),
        (PAIR_2D, "2.3e-149", "2.3e-149" + INSIDE),
        (PAIR, "1e-72", "1e-72" + INSIDE),
        (PAIR_2D, "1e-72", "1e-72" + INSIDE),
        (PAIR, "4", "4.0" + INSIDE),
        (PAIR, "1e77", "1e+77" + UNRESOLVED),
        (PAIR_2D, "1e154", "1e+154" + UNRESOLVED),
    ],
    ids=["d3-1e-74", "d2-2.3e-149", "d3-1e-72", "d2-1e-72", "d3-4", "d3-1e77", "d2-1e154"],
)
@pytest.mark.filterwarnings("error")
def test_an_oracle_grid_that_misses_the_state_is_not_converged(tmp_path, capsys, text, rmax, expected):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = io.StringIO()
    code = run(["oracle", "--config", str(path), "--rmax", rmax], stdout=out)
    err = capsys.readouterr().err
    assert (code, out.getvalue(), err.count("\n")) == (3, "", 1)
    assert err.startswith(f"not converged: r_max = {expected}")
