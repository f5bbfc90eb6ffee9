import io
import math

import pytest

from envtheory.cli import parse_config, parse_sections, run
from envtheory.errors import (
    ConstraintViolation,
    MissingSection,
    TypeMismatch,
    UnknownKey,
)
from envtheory.oracle import RadialProblem

BASE = """\
[system]
n = 3
d = 3

[kinetic]
family = nonrelativistic
mass = 1.0

[twobody]
family = powerlaw
amplitude = 1.0
exponent = 2.0

[state]
tower = boson-gs
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def capture(command, cfg=None, *extra):
    argv = [command]
    if cfg is not None:
        argv += ["--config", cfg]
    argv += list(extra)
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


# --- config text parsing --------------------------------------------------------


def test_parse_sections_happy_path():
    sections = parse_sections(BASE)
    assert set(sections) == {"system", "kinetic", "twobody", "state"}
    lineno, raw = sections["system"]["n"]
    assert (lineno, raw) == (2, "3")


def test_parse_sections_strips_comments_and_blanks():
    text = "# top comment\n[system]\nn = 3   # trailing\nd = 2\n"
    sections = parse_sections(text)
    assert sections["system"]["n"][1] == "3"


def test_parse_sections_unknown_section_names_line():
    with pytest.raises(MissingSection) as err:
        parse_sections(BASE + "\n[fluxcapacitor]\nx = 1\n")
    assert "line 17" in str(err.value)
    assert "fluxcapacitor" in str(err.value)


def test_parse_sections_duplicate_section():
    with pytest.raises(MissingSection) as err:
        parse_sections(BASE + "\n[system]\nn = 4\n")
    assert "duplicate" in str(err.value)


def test_parse_sections_duplicate_key():
    with pytest.raises(UnknownKey) as err:
        parse_sections(BASE.replace("d = 3", "d = 3\nd = 4"))
    assert "duplicate" in str(err.value)
    assert "line 4" in str(err.value)


def test_parse_sections_malformed_line():
    with pytest.raises(TypeMismatch) as err:
        parse_sections("[system]\nthis is not a pair\n")
    assert "line 2" in str(err.value)


def test_parse_sections_key_outside_section():
    with pytest.raises(MissingSection):
        parse_sections("n = 3\n[system]\nd = 3\n")


def test_parse_config_happy_path():
    cfg = parse_config(BASE)
    assert (cfg.n, cfg.d) == (3, 3)
    assert cfg.state_kind == "boson-gs"
    assert float(cfg.resolve_q()) == pytest.approx(3.0)


def test_parse_config_dimension_bound_named():
    with pytest.raises(ConstraintViolation) as err:
        parse_config(BASE.replace("d = 3", "d = 1"))
    msg = str(err.value)
    assert ">= 2" in msg and "line 3" in msg


def test_parse_config_unknown_key_diagnostic():
    with pytest.raises(UnknownKey) as err:
        parse_config(BASE.replace("mass = 1.0", "mass = 1.0\ncolor = blue"))
    assert "color" in str(err.value)
    assert "line 8" in str(err.value)


def test_parse_config_bad_float():
    with pytest.raises(TypeMismatch) as err:
        parse_config(BASE.replace("mass = 1.0", "mass = heavy"))
    assert "heavy" in str(err.value)


def test_parse_config_state_exclusivity():
    doubled = BASE.replace("tower = boson-gs", "tower = boson-gs\nq = 2.5")
    with pytest.raises(ConstraintViolation):
        parse_config(doubled)
    none = BASE.replace("tower = boson-gs", "")
    with pytest.raises(ConstraintViolation):
        parse_config(none)


def test_parse_config_requires_system_section():
    with pytest.raises(MissingSection):
        parse_config(BASE.replace("[system]\nn = 3\nd = 3\n", ""))


def test_parse_config_quanta_state():
    cfg = parse_config(BASE.replace("tower = boson-gs", "quanta = 1,0 0,1"))
    assert cfg.state_quanta == ((1, 0), (0, 1))
    # Q = 2 + 1 + 2 * 3/2 = 6
    assert float(cfg.resolve_q()) == pytest.approx(6.0)


def test_parse_config_rejects_bad_quanta():
    with pytest.raises(TypeMismatch):
        parse_config(BASE.replace("tower = boson-gs", "quanta = 1 2 3"))


# --- command-line entry ----------------------------------------------------------


def test_solve_command_exact_harmonic(tmp_path):
    cfg = write(tmp_path, BASE)
    code, out = capture("solve", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,D,Q,E,r0,p0,bound,n_roots"
    fields = lines[1].split(",")
    assert fields[0] == "3" and fields[1] == "3"
    assert float(fields[3]) == pytest.approx(3.0 * math.sqrt(6.0), rel=1e-15)
    assert fields[6] == "Exact"


def test_solve_seventeen_digit_round_trip(tmp_path):
    from envtheory import KineticLaw, PotentialLaw, SystemSpec, q_boson_ground, solve_nbody

    cfg = write(tmp_path, BASE)
    _, out = capture("solve", cfg)
    row = out.splitlines()[1].split(",")
    spec = SystemSpec(
        n=3,
        d=3,
        kinetic=KineticLaw.nonrelativistic(1.0),
        twobody=PotentialLaw.power_law(1.0, 2.0),
    )
    sol = solve_nbody(spec, q_boson_ground(3, 3))
    # the 17-significant-digit format restores the solver's floats bit-exactly
    assert float(row[3]) == sol.energy
    assert float(row[4]) == sol.r0
    assert float(row[5]) == sol.p0


def test_solve_output_deterministic(tmp_path):
    cfg = write(tmp_path, BASE)
    _, first = capture("solve", cfg)
    _, second = capture("solve", cfg)
    assert first == second


def test_solve_writes_file(tmp_path):
    cfg = write(tmp_path, BASE)
    out_path = tmp_path / "result.csv"
    code, printed = capture("solve", cfg, "--out", str(out_path))
    assert code == 0
    assert printed == ""
    assert out_path.read_text().startswith("N,D,Q,E,r0,p0,bound,n_roots")


def test_bounds_command(tmp_path):
    text = BASE.replace("family = nonrelativistic\nmass = 1.0", "family = semirelativistic\nmass = 1.0")
    text = text.replace("family = powerlaw\namplitude = 1.0\nexponent = 2.0", "family = coulomb\nstrength = 0.5")
    cfg = write(tmp_path, text)
    code, out = capture("bounds", cfg)
    assert code == 0
    header, row = out.splitlines()
    assert header == "N,D,bound,kinetic,onebody,twobody"
    fields = row.split(",")
    assert fields[2] == "UpperBound"
    assert fields[4] == "-"  # no one-body term
    assert fields[5] == "concave"


def test_critical_command_invariant(tmp_path):
    text = BASE.replace(
        "family = powerlaw\namplitude = 1.0\nexponent = 2.0",
        "family = yukawa\ncoupling = 1.0\nscreening = 1.0",
    ).replace("n = 3", "n = 2").replace("tower = boson-gs", "q = 1.5")
    cfg = write(tmp_path, text)
    code, out = capture("critical", cfg, "--mode", "twobody")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "twobody"
    assert float(row[5]) == pytest.approx(1.0, abs=1e-12)  # y0
    assert float(row[6]) == pytest.approx(2.25 * math.e, rel=1e-12)


def test_critical_requires_mode(tmp_path):
    cfg = write(tmp_path, BASE)
    code, _ = capture("critical", cfg)
    assert code == 1


def test_perturb_command(tmp_path):
    text = BASE + "\n[perturbation]\ntau = 1e-4\ntau_exponent = 4.0\n"
    cfg = write(tmp_path, text)
    code, out = capture("perturb", cfg)
    assert code == 0
    row = out.splitlines()[1].split(",")
    e, e_pert = float(row[3]), float(row[4])
    assert e_pert > e
    assert e_pert - e < 1e-2


def test_perturb_without_section_fails(tmp_path):
    cfg = write(tmp_path, BASE)
    code, _ = capture("perturb", cfg)
    assert code == 1


def test_baryon_command(tmp_path):
    text = BASE.replace("family = nonrelativistic\nmass = 1.0", "family = ultrarelativistic")
    cfg = write(tmp_path, text)
    code, out = capture("baryon", cfg, "--a1", "0", "--a2", "0.2", "--b", "0.4")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(3.0968961581712615, rel=1e-14)
    assert float(row[6]) == pytest.approx(2.078460969082653, rel=1e-14)


def test_baryon_collapse_exit_code(tmp_path):
    text = BASE.replace("family = nonrelativistic\nmass = 1.0", "family = ultrarelativistic")
    text = text.replace("n = 3", "n = 12")
    cfg = write(tmp_path, text)
    code, _ = capture("baryon", cfg, "--a1", "0", "--a2", "0.2", "--b", "0.7")
    assert code == 2


def test_bosonstar_command(tmp_path):
    text = BASE.replace("family = nonrelativistic", "family = semirelativistic")
    text = text.replace(
        "family = powerlaw\namplitude = 1.0\nexponent = 2.0",
        "family = coulomb\nstrength = 0.02",
    )
    cfg = write(tmp_path, text)
    code, out = capture("bosonstar", cfg)
    assert code == 0
    row = out.splitlines()[1].split(",")
    want = 3.0 * math.sqrt(1.0 - 3 * 8 * 0.02**2 / (8.0 * 9.0))
    assert float(row[5]) == pytest.approx(want, rel=1e-14)


def test_bosonstar_needs_matching_laws(tmp_path):
    cfg = write(tmp_path, BASE)  # nonrelativistic + powerlaw
    code, _ = capture("bosonstar", cfg)
    assert code == 1


def test_minlength_command(tmp_path):
    text = BASE.replace(
        "family = nonrelativistic\nmass = 1.0",
        "family = minimal-length\nmass = 1.0\ndeformation = 0.01",
    ).replace("tower = boson-gs", "q = 1.5").replace("n = 3", "n = 2")
    cfg = write(tmp_path, text)
    code, out = capture("minlength", cfg)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[6]) == pytest.approx(3.045, rel=1e-14)


def test_oracle_command_brackets_envelope(tmp_path):
    text = BASE.replace("n = 3", "n = 2").replace(
        "family = powerlaw\namplitude = 1.0\nexponent = 2.0",
        "family = coulomb\nstrength = 1.0",
    )
    cfg = write(tmp_path, text)
    code, out = capture("oracle", cfg, "--levels", "2", "--rmax", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,E"
    # two-particle Coulomb pair: mu = 1/2, levels -mu/2 (n+1)^-2
    assert float(lines[1].split(",")[1]) == pytest.approx(-0.25, rel=1e-6)
    assert float(lines[2].split(",")[1]) == pytest.approx(-0.0625, rel=1e-6)


def test_oracle_points_default_is_the_radial_problem_default(tmp_path):
    text = BASE.replace("n = 3", "n = 2").replace(
        "family = powerlaw\namplitude = 1.0\nexponent = 2.0",
        "family = coulomb\nstrength = 1.0",
    )
    cfg = write(tmp_path, text)
    explicit = capture("oracle", cfg, "--levels", "1", "--rmax", "60", "--points", str(RadialProblem.points))
    assert capture("oracle", cfg, "--levels", "1", "--rmax", "60") == explicit


def test_oracle_rejects_many_body(tmp_path):
    cfg = write(tmp_path, BASE)  # n = 3
    code, _ = capture("oracle", cfg)
    assert code == 1


def test_sweep_over_particle_number(tmp_path):
    cfg = write(tmp_path, BASE)
    code, out = capture("sweep", cfg, "--param", "n", "--from", "2", "--to", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("param,value,")
    assert len(lines) == 5
    energies = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_sweep_over_law_parameter(tmp_path):
    cfg = write(tmp_path, BASE)
    code, out = capture(
        "sweep", cfg, "--param", "twobody.amplitude", "--from", "0.5", "--to", "2.0", "--steps", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_sweep_law_parameter_requires_steps(tmp_path):
    cfg = write(tmp_path, BASE)
    code, _ = capture("sweep", cfg, "--param", "twobody.amplitude", "--from", "0.5", "--to", "2.0")
    assert code == 1


def test_exit_code_missing_file():
    code, _ = capture("solve", "/nonexistent/path.cfg")
    assert code == 1


def test_exit_code_no_stationary_point(tmp_path):
    text = BASE.replace("family = nonrelativistic\nmass = 1.0", "family = ultrarelativistic")
    text = text.replace(
        "family = powerlaw\namplitude = 1.0\nexponent = 2.0",
        "family = coulomb\nstrength = 10.0",
    )
    cfg = write(tmp_path, text)
    code, _ = capture("solve", cfg)
    assert code == 2


def test_exit_code_oracle_not_converged(tmp_path):
    text = BASE.replace("n = 3", "n = 2")
    cfg = write(tmp_path, text)
    code, _ = capture("oracle", cfg, "--rmax", "1e6", "--points", "200")
    assert code == 3


def test_usage_error_unknown_command():
    code, _ = capture("transmogrify", "x.cfg")
    assert code == 1


def test_readme_solve_example_matches_the_cli(tmp_path):
    """The README's harmonic.cfg and its `envtheory solve` output, run through `run`."""
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = re.search(r"```ini\n(# harmonic\.cfg\n.*?)```", readme, re.S).group(1)
    shown = re.search(r"\$ envtheory solve --config harmonic\.cfg\n(.+\n.+\n)", readme).group(1)
    out = io.StringIO()
    assert run(["solve", "--config", write(tmp_path, config, "harmonic.cfg")], stdout=out) == 0
    assert out.getvalue() == shown
