"""Batch front end: sectioned key=value configs in, deterministic CSV out.

Exit codes: 0 success, 1 usage or configuration problem, 2 no stationary
point (collapse or unbound), 3 oracle not converged.  Floats are printed
with 17 significant digits so every row re-parses to the exact value.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace

from . import analysis, apps, oracle, solver
from .errors import (
    CollapseRegime,
    ConfigError,
    ConstraintViolation,
    EnvelopeError,
    MissingSection,
    NoStationaryPoint,
    NotConverged,
    TypeMismatch,
    UnknownKey,
)
from .model import (
    FAMILIES,
    KineticFamily,
    KineticLaw,
    PotentialFamily,
    PotentialLaw,
    StateSpec,
    SystemSpec,
    checked,
    require_counts,
)
from .qnum import (
    QProvenance,
    QValue,
    q_boson_ground,
    q_fermion_asymptotic,
    q_from_quanta,
)

_SECTION_NAMES = (
    "system",
    "kinetic",
    "onebody",
    "twobody",
    "state",
    "solver",
    "perturbation",
)


# The law class and the config spelling of each family a law section takes;
# custom profiles are Python callables, so no config names one.
_LAW_SECTIONS = {
    name: (law_cls, {f.value: f for f in enum if f is not enum.CUSTOM})
    for name, law_cls, enum in (
        ("kinetic", KineticLaw, KineticFamily),
        ("onebody", PotentialLaw, PotentialFamily),
        ("twobody", PotentialLaw, PotentialFamily),
    )
}

Sections = dict[str, dict[str, tuple[int, str]]]

# A sweep holds every point's system, level and row, about 1.7 kB a point, so
# the largest sweep peaks near 170 MB; the values are checked before they exist.
_MAX_SWEEP_POINTS = 10**5


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    """One CSV cell: a float by ``_fmt``, an int or a str as itself, an enum by its value."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (int, str)):
        return str(value)
    return value.value


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def parse_sections(text: str) -> Sections:
    """Split config text into sections of key = value pairs with line numbers."""
    sections: Sections = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise TypeMismatch(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip().lower()
            if name not in _SECTION_NAMES:
                raise MissingSection(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise MissingSection(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise MissingSection(f"line {lineno}: key outside any section: {raw.strip()!r}")
        if "=" not in line:
            raise TypeMismatch(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise TypeMismatch(f"line {lineno}: empty key")
        if key in sections[current]:
            raise UnknownKey(f"line {lineno}: duplicate key '{key}' in [{current}]")
        sections[current][key] = (lineno, value)
    return sections


def _reject_unknown(name: str, data: dict, allowed: set[str]) -> None:
    for key, (lineno, _) in data.items():
        if key not in allowed:
            raise UnknownKey(f"line {lineno}: unknown key '{key}' in [{name}]")


def _get_number(name: str, data: dict, key: str, kind=float, default=None):
    """[name] ``key`` read as ``kind`` (float or int), or ``default`` when absent."""
    if key not in data:
        return default
    lineno, text = data[key]
    try:
        return kind(text)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise TypeMismatch(f"line {lineno}: [{name}] {key}: expected {expected}, got {text!r}") from None


def _get_choice(name: str, data: dict, key: str, choices, default: str | None = None) -> str | None:
    if key not in data:
        return default
    lineno, text = data[key]
    value = text.lower()
    if value not in choices:
        raise ConstraintViolation(
            f"line {lineno}: [{name}] {key} must be one of {sorted(choices)}, got {text!r}"
        )
    return value


def _require(name: str, data: dict, key: str):
    if key not in data:
        raise ConstraintViolation(f"[{name}] requires key '{key}'")


def _line_of(data: dict, key: str) -> int:
    return data[key][0] if key in data else 0


def _reported(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError from the library becomes a config error at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConstraintViolation(f"{where}{exc}") from None


def _check_count(key: str, value: int, lineno: int) -> int:
    """``value`` of [system] ``key`` under ``model.require_counts``; ``lineno`` 0 for a sweep point."""
    _reported(f"line {lineno}: [system] ", require_counts, **{key: value})
    return value


def _build_law(sections: Sections, name: str):
    """The law of section [name], or None; its keys, defaults and ranges come from ``FAMILIES``."""
    if name not in sections:
        return None
    data = sections[name]
    law_cls, families = _LAW_SECTIONS[name]
    _require(name, data, "family")
    family = families[_get_choice(name, data, "family", families)]
    params = FAMILIES[family].params
    _reject_unknown(name, data, {p.name for p in params} | {"family"})
    for param in params:
        if param.default is None:
            _require(name, data, param.name)
    values = [_get_number(name, data, p.name, default=p.default) for p in params]
    return _reported(f"line {_line_of(data, 'family')}: [{name}] ", law_cls.of, family, *values)


def _parse_quanta(lineno: int, text: str) -> StateSpec:
    pairs = []
    for chunk in text.split():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise TypeMismatch(
                f"line {lineno}: [state] quanta entries must be 'n,l' pairs, got {chunk!r}"
            )
        try:
            n_i, l_i = int(parts[0]), int(parts[1])
        except ValueError:
            raise TypeMismatch(
                f"line {lineno}: [state] quanta entries must be integers, got {chunk!r}"
            ) from None
        pairs.append((n_i, l_i))
    if not pairs:
        raise ConstraintViolation(f"line {lineno}: [state] quanta must list at least one pair")
    return _reported(f"line {lineno}: [state] ", StateSpec, tuple(pairs))


@dataclass
class RunConfig:
    """Everything a command needs, parsed and validated once."""

    sections: Sections
    n: int
    d: int
    degeneracy: int  # read only by the fermion tower
    kinetic: KineticLaw | None
    onebody: PotentialLaw | None
    twobody: PotentialLaw | None
    state: str | StateSpec | QValue  # a tower name, the [state] quanta, or the [state] q
    solver: solver.SolverConfig
    perturbation: analysis.PerturbationSpec | None

    def system(self, **laws) -> SystemSpec:
        """The configured system, with each law given in ``laws`` (by section) in place of its own."""
        laws = {"kinetic": self.kinetic, "onebody": self.onebody, "twobody": self.twobody} | laws
        if laws["kinetic"] is None:
            raise MissingSection("a [kinetic] section is required for this command")
        if laws["onebody"] is None and laws["twobody"] is None:
            raise MissingSection("an [onebody] or [twobody] section is required")
        return SystemSpec(n=self.n, d=self.d, **laws)

    def resolve_q(self) -> QValue:
        state = self.state
        if isinstance(state, QValue):
            return state
        if isinstance(state, StateSpec):
            if len(state.quanta) != self.n - 1:
                raise ConstraintViolation(
                    f"[state] quanta lists {len(state.quanta)} pairs but n={self.n} needs {self.n - 1}"
                )
            return q_from_quanta(state, self.d)
        if state == "boson-gs":
            return q_boson_ground(self.n, self.d)
        return q_fermion_asymptotic(self.n, self.d, self.degeneracy)

    def state_l(self) -> int:
        return self.state.quanta[0][1] if isinstance(self.state, StateSpec) else 0


def config_from_sections(sections: Sections) -> RunConfig:
    for name in sections:
        if name not in _SECTION_NAMES:
            raise MissingSection(f"unknown section [{name}]")
    if "system" not in sections:
        raise MissingSection("a [system] section is required")

    system = sections["system"]
    _reject_unknown("system", system, {"n", "d", "degeneracy"})
    _require("system", system, "n")
    _require("system", system, "d")
    n = _get_number("system", system, "n", int)
    d = _get_number("system", system, "d", int)
    for key, value in (("n", n), ("d", d)):
        _check_count(key, value, _line_of(system, key))
    degeneracy = _get_number("system", system, "degeneracy", int, 1)
    _check_count("degeneracy", degeneracy, _line_of(system, "degeneracy"))

    kinetic = _build_law(sections, "kinetic")
    onebody = _build_law(sections, "onebody")
    twobody = _build_law(sections, "twobody")

    state = "boson-gs"
    if "state" in sections:
        data = sections["state"]
        _reject_unknown("state", data, {"tower", "quanta", "q"})
        present = [k for k in ("tower", "quanta", "q") if k in data]
        if len(present) != 1:
            raise ConstraintViolation(
                "[state] needs exactly one of 'tower', 'quanta', or 'q', "
                f"got {present or 'none'}"
            )
        if present[0] == "tower":
            state = _get_choice("state", data, "tower", {"boson-gs", "fermion-asymptotic"})
        elif present[0] == "quanta":
            state = _parse_quanta(*data["quanta"])
        else:
            q = _get_number("state", data, "q")
            _reported(f"line {_line_of(data, 'q')}: [state] ", checked, q, "q", positive=True)
            state = QValue(q, QProvenance.USER_DEFINED)

    # [solver] keys are SolverConfig's fields, each parsed as its default's type
    data = sections.get("solver", {})
    kinds = {f.name: type(f.default) for f in fields(solver.SolverConfig)}
    _reject_unknown("solver", data, set(kinds))
    values = {key: _get_number("solver", data, key, kind) for key, kind in kinds.items() if key in data}
    solver_cfg = _reported("[solver] ", solver.SolverConfig, **values)

    perturbation = None
    if "perturbation" in sections:
        data = sections["perturbation"]
        slots = {"tau": "kinetic", "eta": "onebody", "epsilon": "twobody"}
        _reject_unknown("perturbation", data, {*slots, *(f"{key}_exponent" for key in slots)})
        pairs: dict[str, tuple[float, PotentialLaw]] = {}
        for coeff_key, slot in slots.items():
            exp_key = f"{coeff_key}_exponent"
            coeff = _get_number("perturbation", data, coeff_key)
            if coeff is None:
                if exp_key in data:
                    raise ConstraintViolation(
                        f"line {_line_of(data, exp_key)}: [perturbation] {exp_key} needs {coeff_key}"
                    )
                continue
            _require("perturbation", data, exp_key)
            exponent = _get_number("perturbation", data, exp_key)
            shape = _reported(
                f"line {_line_of(data, exp_key)}: [perturbation] ", PotentialLaw.power_law, 1.0, exponent
            )
            _reported(f"line {_line_of(data, coeff_key)}: [perturbation] ", checked, coeff, coeff_key)
            pairs[slot] = (coeff, shape)
        if not pairs:
            raise ConstraintViolation("[perturbation] needs at least one coefficient")
        perturbation = analysis.PerturbationSpec(**pairs)

    return RunConfig(
        sections=sections,
        n=n,
        d=d,
        degeneracy=degeneracy,
        kinetic=kinetic,
        onebody=onebody,
        twobody=twobody,
        state=state,
        solver=solver_cfg,
        perturbation=perturbation,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; diagnostics name the offending line and key."""
    return config_from_sections(parse_sections(text))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _level(cfg: RunConfig):
    """The configured system, its Q and its solved level."""
    system = cfg.system()
    q = cfg.resolve_q()
    return system, q, solver.solve_nbody(system, q, cfg.solver)


def _need(law, slot: str, family, command: str) -> None:
    """Reject a missing [slot] law or one of another family than ``command`` takes."""
    if law is None or law.family is not family:
        raise ConstraintViolation(f"'{command}' needs [{slot}] family = {family.value}")


def _level_row(system: SystemSpec, q: QValue, sol) -> dict:
    """One level's columns, in order, as raw values; ``run`` prints each through ``_cell``."""
    return dict(N=system.n, D=system.d, Q=q.value, E=sol.energy, r0=sol.r0, p0=sol.p0,
                bound=sol.bound.classification, n_roots=sol.n_roots)


def _cmd_solve(cfg: RunConfig, args) -> list[dict]:
    return [_level_row(*_level(cfg))]


def _cmd_bounds(cfg: RunConfig, args) -> list[dict]:
    _, _, sol = _level(cfg)
    terms = sol.bound.terms
    row = dict(N=cfg.n, D=cfg.d, bound=sol.bound.classification)
    return [row | {slot: terms.get(slot, "-") for slot in ("kinetic", "onebody", "twobody")}]


def _cmd_critical(cfg: RunConfig, args) -> list[dict]:
    _need(cfg.kinetic, "kinetic", KineticFamily.NONRELATIVISTIC, "critical")
    shape = cfg.onebody if args.mode == "onebody" else cfg.twobody
    if shape is None:
        raise MissingSection(f"an [{args.mode}] section is required for --mode {args.mode}")
    q = cfg.resolve_q()
    result = analysis.critical_coupling(args.mode, shape, cfg.n, q, cfg.kinetic.mass)
    return [
        dict(mode=args.mode, N=cfg.n, D=cfg.d, Q=q.value, m=cfg.kinetic.mass, y0=result.y0,
             critical_value=result.value, bound=result.bound)
    ]


def _cmd_perturb(cfg: RunConfig, args) -> list[dict]:
    if cfg.perturbation is None:
        raise MissingSection("a [perturbation] section is required for 'perturb'")
    system, q, sol = _level(cfg)
    corrected = analysis.perturbed_energy(sol, system, cfg.perturbation)
    return [dict(N=cfg.n, D=cfg.d, Q=q.value, E=sol.energy, E_perturbed=corrected)]


def _cmd_baryon(cfg: RunConfig, args) -> list[dict]:
    params = _reported("", apps.BaryonParams, n=cfg.n, d=cfg.d, a1=args.a1, a2=args.a2, b=args.b)
    e_upper, e_lower = apps.baryon_bounds(params)
    return [dict(N=cfg.n, D=cfg.d, a1=args.a1, a2=args.a2, b=args.b, E_upper=e_upper, E_lower=e_lower)]


def _cmd_bosonstar(cfg: RunConfig, args) -> list[dict]:
    _need(cfg.kinetic, "kinetic", KineticFamily.SEMIRELATIVISTIC, "bosonstar")
    _need(cfg.twobody, "twobody", PotentialFamily.COULOMB, "bosonstar")
    q = cfg.resolve_q()
    params = _reported("", apps.BosonStarParams, n=cfg.n, mass=cfg.kinetic.mass, alpha=cfg.twobody.strength)
    mass_bound = apps.boson_star_mass(params, q)
    return [dict(N=cfg.n, D=cfg.d, m=cfg.kinetic.mass, alpha=cfg.twobody.strength, Q=q.value, M_upper=mass_bound)]


def _cmd_minlength(cfg: RunConfig, args) -> list[dict]:
    _need(cfg.kinetic, "kinetic", KineticFamily.MINIMAL_LENGTH_QUARTIC, "minlength")
    if (
        cfg.twobody is None
        or cfg.twobody.family is not PotentialFamily.POWER_LAW
        or cfg.twobody.exponent != 2.0
        or cfg.twobody.amplitude <= 0.0
    ):
        raise ConstraintViolation(
            "'minlength' needs [twobody] family = powerlaw with exponent 2 and "
            "positive amplitude"
        )
    q = cfg.resolve_q()
    kinetic, spring = cfg.kinetic, cfg.twobody.amplitude
    energy = apps.minimal_length_energy(cfg.n, cfg.d, kinetic.mass, spring, kinetic.deformation, q)
    return [
        dict(N=cfg.n, D=cfg.d, m=kinetic.mass, spring=spring, deformation=kinetic.deformation, Q=q.value, E=energy)
    ]


def _sweep_values(args) -> list[float]:
    param = args.param.lower()
    for flag, bound in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(bound):
            raise ConstraintViolation(f"{flag} must be finite, got {bound}")
    if args.stop < args.start:
        raise ConstraintViolation("--to must not be smaller than --from")
    if param in ("n", "d"):
        start, stop = int(args.start), int(args.stop)
        if start != args.start or stop != args.stop:
            raise ConstraintViolation(f"--param {param} needs integer bounds")
        if args.steps is not None:
            raise ConstraintViolation(f"--param {param} steps in increments of 1; omit --steps")
        points, width = stop - start + 1, 1.0
    else:
        if args.steps is None:
            raise ConstraintViolation("--steps is required for law-parameter sweeps")
        if args.steps < 2:
            raise ConstraintViolation(f"--steps must be >= 2, got {args.steps}")
        points, width = args.steps, (args.stop - args.start) / (args.steps - 1)
        if not math.isfinite(width):
            raise ConstraintViolation(f"--from {args.start} to --to {args.stop} spans more than the float range")
    if points > _MAX_SWEEP_POINTS:
        raise ConstraintViolation(f"a sweep takes at most {_MAX_SWEEP_POINTS} points, got {points}")
    return [args.start + i * width for i in range(points)]


def _swept_law(cfg: RunConfig, section: str, key: str, first: float):
    """The law of [section] at each swept value of ``key``, from its parsed parameters.

    Every point's law is the parsed law with ``key`` replaced, which checks
    it; an unknown key or a swept ``family`` is the error a config naming
    ``first`` there gives.
    """
    law = getattr(cfg, section)
    swept = {key: (0, repr(first))}
    _get_choice(section, swept, "family", _LAW_SECTIONS[section][1])
    _reject_unknown(section, swept, {param.name for param in FAMILIES[law.family].params})
    where = f"line {_line_of(cfg.sections[section], 'family')}: [{section}] "
    return lambda value: _reported(where, replace, law, **{key: value})


def _cmd_sweep(cfg: RunConfig, args) -> list[dict]:
    param = args.param.lower()
    if param not in ("n", "d"):
        if "." not in param:
            raise ConstraintViolation(
                f"--param must be 'n', 'd', or 'section.key', got {args.param!r}"
            )
        section, _, key = param.partition(".")
        if section not in ("kinetic", "onebody", "twobody"):
            raise ConstraintViolation(
                f"sweepable sections are kinetic/onebody/twobody, got {section!r}"
            )
        if section not in cfg.sections:
            raise MissingSection(f"a [{section}] section is required to sweep {param}")
    values, systems, qs = _sweep_values(args), [], []
    if param not in ("n", "d"):
        law_at = _swept_law(cfg, section, key, values[0])
    try:
        for value in values:
            if param in ("n", "d"):
                point = replace(cfg, **{param: _check_count(param, int(value), 0)})
                system, q = point.system(), point.resolve_q()  # Q follows n and d
            else:
                system = cfg.system(**{section: law_at(value)})
                q = qs[0] if qs else cfg.resolve_q()
            systems.append(system)
            qs.append(q)
    except Exception:
        # the points before the bad one are solved first: an error there wins
        solver.solve_nbody_many(systems, qs, cfg.solver)
        raise
    solutions = solver.solve_nbody_many(systems, qs, cfg.solver)
    return [
        dict(param=param, value=value, **_level_row(system, q, sol))
        for value, system, q, sol in zip(values, systems, qs, solutions)
    ]


def _cmd_oracle(cfg: RunConfig, args) -> list[dict]:
    _need(cfg.kinetic, "kinetic", KineticFamily.NONRELATIVISTIC, "oracle")
    if cfg.n != 2 or cfg.twobody is None:
        raise ConstraintViolation(
            "'oracle' solves the two-body relative problem: n = 2 with a [twobody] section"
        )
    if args.levels < 1:
        raise ConstraintViolation(f"--levels must be >= 1, got {args.levels}")
    _, _, sol = _level(cfg)
    r_max = args.rmax if args.rmax is not None else 25.0 * sol.r0
    problem = _reported(
        "",
        oracle.RadialProblem,
        mu=cfg.kinetic.mass / 2.0,
        potential=cfg.twobody,
        d=cfg.d,
        l=cfg.state_l(),
        r_max=r_max,
        points=args.points,
    )
    # a grid that ends inside the state gives the levels of its box, and a
    # state inside one cell of every grid scales with the grid, so the
    # doublings agree on a level that is not the state's
    if r_max <= sol.r0:
        raise NotConverged(f"r_max = {r_max} ends inside the state: it must exceed the envelope scale r0 = {sol.r0}")
    cell = r_max / (args.points * 2**oracle._MAX_DOUBLINGS)
    if cell > sol.r0:
        raise NotConverged(
            f"r_max = {r_max} over {args.points} points cannot resolve the state: "
            f"the finest grid's cell {cell} is wider than the envelope scale r0 = {sol.r0}"
        )
    levels = _reported("", oracle.radial_eigenvalues, problem, args.levels)
    return [dict(level=i, E=e) for i, e in enumerate(levels)]


_COMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "critical": _cmd_critical,
    "perturb": _cmd_perturb,
    "baryon": _cmd_baryon,
    "bosonstar": _cmd_bosonstar,
    "minlength": _cmd_minlength,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later ``run``."""
    parser = _Parser(prog="envtheory", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a sectioned key=value config")
        p.add_argument("--out", help="CSV output path (default: stdout)")

    common(sub.add_parser("solve", help="envelope level of the configured system"))
    common(sub.add_parser("bounds", help="bound classification of the configured system"))

    p = sub.add_parser("critical", help="critical coupling of a short-range well")
    common(p)
    p.add_argument("--mode", required=True, choices=("onebody", "twobody"))

    common(sub.add_parser("perturb", help="first-order corrected level"))

    p = sub.add_parser("baryon", help="light-baryon style closed-form bounds")
    common(p)
    p.add_argument("--a1", type=float, default=0.0, help="one-body linear confinement")
    p.add_argument("--a2", type=float, default=0.0, help="pairwise linear confinement")
    p.add_argument("--b", type=float, default=0.0, help="pairwise Coulomb-like attraction")

    common(sub.add_parser("bosonstar", help="self-gravitating boson mass bound"))
    common(sub.add_parser("minlength", help="harmonic system with quartic kinetic deformation"))

    p = sub.add_parser("sweep", help="solve across a parameter range")
    common(p)
    p.add_argument("--param", required=True, help="'n', 'd', or section.key")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("oracle", help="brute-force radial levels of the two-body problem")
    common(p)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--points", type=int, default=oracle.RadialProblem.points)

    return parser


def run(argv: list[str] | None = None, stdout=None) -> int:
    """Parse arguments, execute one command, write CSV; returns the exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        rows = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NoStationaryPoint, CollapseRegime) as exc:
        print(f"no stationary point: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 3
    except EnvelopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]
    payload = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    else:
        out_stream.write(payload)
    return 0


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
