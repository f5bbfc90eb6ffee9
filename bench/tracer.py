"""Spans and counts around the calls into each layer of the program.

The tracer rebinds the module attributes the program looks up at call time
(``envtheory.solver.brentq``, ``envtheory.analysis.term_convexity``, ...) to
thin pass-throughs that record one span per call: its name, start, end, the
span it was called from, the op it belongs to and a small payload (grid
points, roots found, the error raised).  Spans stay in memory; the caller
writes them out when the run ends.  Nothing inside ``src/`` is changed.

A span's self time is its duration minus the durations of its direct
children, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# (span name, attribute, modules to rebind it in).  ``None`` rebinds every
# envtheory module that holds the same function object, so calls through the
# package namespace and through ``from .x import f`` bindings are all seen.
TARGETS = (
    ("solver.solve", "solve_nbody", None),
    ("solver.solve", "solve_two_body", None),
    ("solver.residual", "stationary_residual", None),
    ("solver.residual", "two_body_residual", None),
    ("solver.polish", "brentq", ("solver",)),
    ("analysis.classify", "classify_bound", None),
    ("analysis.classify", "classify_two_body", None),
    ("analysis.term", "term_convexity", None),
    ("analysis.critical", "critical_coupling", None),
    ("analysis.perturb", "perturbed_energy", None),
    ("oracle.radial", "radial_eigenvalues", None),
    ("oracle.eigh", "eigh_tridiagonal", ("oracle",)),
    ("cli.parse", "parse_config", ("cli",)),
    ("cli.parse", "config_from_sections", ("cli",)),
    ("qnum.airy", "airy_zero", None),
    ("qnum.q", "q_from_quanta", None),
    ("qnum.q", "q_boson_ground", None),
    ("qnum.q", "q_fermion_asymptotic", None),
    ("qnum.q", "q_two_body_auxiliary", None),
    ("apps.max_mass", "boson_star_max_mass", None),
    ("apps.closed_form", "baryon_bounds", None),
    ("apps.closed_form", "boson_star_mass", None),
    ("apps.closed_form", "boson_star_limit", None),
    ("apps.closed_form", "minimal_length_energy", None),
)

HOME_MODULE = {
    "solver": "envtheory.solver",
    "analysis": "envtheory.analysis",
    "oracle": "envtheory.oracle",
    "cli": "envtheory.cli",
    "qnum": "envtheory.qnum",
    "apps": "envtheory.apps",
}

MODULES = (
    "envtheory",
    "envtheory.model",
    "envtheory.qnum",
    "envtheory.solver",
    "envtheory.analysis",
    "envtheory.apps",
    "envtheory.oracle",
    "envtheory.cli",
)

# Span record fields.
NAME, START, END, PARENT, OP, INFO = range(6)


def _points_last_arg(args, kwargs):
    return int(np.size(args[-1]))


def _points_first_arg(args, kwargs):
    return int(np.size(args[0]))


def _sampled(args, kwargs):
    """True when term_convexity has no analytic tag and must sample curvature."""
    law = args[0]
    if type(law).__name__ == "KineticLaw":
        return law.convexity_tag() is None
    aux = args[2] if len(args) > 2 else kwargs.get("aux_exponent")
    return law.convexity_tag(aux) is None


BEFORE = {
    "solver.residual": _points_last_arg,
    "oracle.eigh": _points_first_arg,
    "analysis.term": _sampled,
}
AFTER = {"solver.solve": lambda out: out.n_roots}


class Tracer:
    """In-memory span recorder with install/uninstall of the pass-throughs."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            if before is not None:
                rec[INFO] = before(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[END] = clock()
                stack.pop()
                rec[INFO] = ("raised", type(exc).__name__)
                raise
            rec[END] = clock()
            stack.pop()
            if after is not None:
                rec[INFO] = after(out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (for example around cli.run)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # -- rebinding --------------------------------------------------------------

    def _bindings(self) -> list[tuple]:
        """(module, attribute, original, pass-through) for every rebinding point."""
        if not self._patches:
            mods = {name: importlib.import_module(name) for name in MODULES}
            for span_name, attr, homes in TARGETS:
                home = mods[HOME_MODULE[span_name.split(".")[0]]]
                original = getattr(home, attr)
                wrapper = self._wrap(span_name, original)
                owners = [mods[HOME_MODULE[h]] for h in homes] if homes else mods.values()
                for mod in owners:
                    if getattr(mod, attr, None) is original:
                        self._patches.append((mod, attr, original, wrapper))
        return self._patches

    def install(self) -> None:
        for mod, attr, _original, wrapper in self._bindings():
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self, op: int):
        """Pass-throughs in place for one op, originals restored afterwards."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- merging spans recorded in a child process ------------------------------

    def extend(self, child_spans: list[list], op: int) -> None:
        offset = len(self.spans)
        for rec in child_spans:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + offset if rec[PARENT] >= 0 else -1
            rec[OP] = op
            if isinstance(rec[INFO], list):
                rec[INFO] = tuple(rec[INFO])
            self.spans.append(rec)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _raised(rec, error: str | None = None) -> bool:
    info = rec[INFO]
    return isinstance(info, tuple) and info[0] == "raised" and (error is None or info[1] == error)


class Ratio:
    """A ratio printed with its base: numerator, denominator and their names."""

    def __init__(self, num: float, den: float, what: str):
        self.num, self.den, self.what = num, den, what

    @property
    def value(self) -> float:
        return self.num / self.den if self.den else 0.0

    def __str__(self) -> str:
        return f"{self.num:g} / {self.den:g} {self.what}"


def layer_metrics(spans: list[list], window_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans.

    Times use every traced op; counts and shares use only the ops with index
    below ``window_ops``, a fixed prefix of the seeded op sequence, so they
    repeat exactly from run to run.  Returns name -> (value, how it was formed).
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def named(name, window=False):
        idx = by_name.get(name, [])
        return [i for i in idx if spans[i][OP] < window_ops] if window else idx

    out: dict[str, tuple[float, str]] = {}

    def timed(metric, name, scale=1e6, outermost=False):
        """Mean span duration (microseconds unless ``scale`` says otherwise)."""
        idx = named(name)
        if outermost:
            idx = [i for i in idx if not _inside(spans, i, name)]
        out[metric] = (_mean([dur(i) for i in idx]) * scale, f"mean of {len(idx)} {name} spans")

    def ratio(metric, r: Ratio):
        out[metric] = (r.value, str(r))

    # cli
    timed("cli.parse_us", "cli.parse", outermost=True)
    parses = [i for i in named("cli.parse", True) if not _inside(spans, i, "cli.parse")]
    solves_w = named("solver.solve", True)
    ratio("cli.parses_per_level", Ratio(len(parses), len(solves_w), "parses per solver call"))
    runs = named("cli.run")
    out["cli.self_ms_per_op"] = (
        _mean([dur(i) - child_time[i] for i in runs]) * 1e3,
        f"mean self time of {len(runs)} cli.run spans",
    )
    # qnum
    timed("qnum.q_us", "qnum.q")
    # model: grid calls of the residual (more than one point)
    grid = [i for i in named("solver.residual") if spans[i][INFO] and spans[i][INFO] > 1]
    points = sum(spans[i][INFO] for i in grid)
    out["model.residual_ns_per_point"] = (
        sum(dur(i) for i in grid) / points * 1e9 if points else 0.0,
        f"{len(grid)} grid calls, {points} points",
    )
    # solver
    timed("solver.solve_us", "solver.solve")
    solves = named("solver.solve")
    out["solver.scan_self_us"] = (
        _mean([dur(i) - child_time[i] for i in solves]) * 1e6,
        f"mean self time of {len(solves)} solve spans",
    )
    timed("solver.polish_us", "solver.polish")
    res_w = named("solver.residual", True)
    passes = [i for i in res_w if spans[i][INFO] > 1 and _parent_is(spans, i, "solver.solve")]
    ratio("solver.scan_passes_per_level", Ratio(len(passes), len(solves_w), "grid passes per solver call"))
    ratio(
        "solver.residual_points_per_level",
        Ratio(sum(spans[i][INFO] for i in res_w), len(solves_w), "residual points per solver call"),
    )
    polish_w = named("solver.polish", True)
    fevals = [i for i in res_w if _parent_is(spans, i, "solver.polish")]
    ratio("solver.polish_fevals_per_root", Ratio(len(fevals), len(polish_w), "residual calls per brentq call"))
    solved = [i for i in solves_w if not _raised(spans[i])]
    ratio(
        "solver.roots_per_level",
        Ratio(sum(spans[i][INFO] for i in solved), len(solved), "roots per solved level"),
    )
    ratio(
        "solver.no_stationary_share",
        Ratio(sum(_raised(spans[i], "NoStationaryPoint") for i in solves_w), len(solves_w), "solver calls"),
    )
    # analysis
    timed("analysis.classify_us", "analysis.classify")
    terms = named("analysis.term", True)
    ratio("analysis.sampled_term_share", Ratio(sum(spans[i][INFO] is True for i in terms), len(terms), "term_convexity calls"))
    timed("analysis.critical_us", "analysis.critical")
    timed("analysis.perturb_us", "analysis.perturb")
    # apps
    timed("apps.max_mass_us", "apps.max_mass")
    timed("apps.closed_form_us", "apps.closed_form")
    # oracle
    timed("oracle.radial_ms", "oracle.radial", scale=1e3)
    radial_w = named("oracle.radial", True)
    eigh_w = named("oracle.eigh", True)
    ratio("oracle.grids_per_call", Ratio(len(eigh_w), len(radial_w), "eigh_tridiagonal calls per radial call"))
    ratio(
        "oracle.points_per_call",
        Ratio(sum(spans[i][INFO] for i in eigh_w), len(radial_w), "grid points per radial call"),
    )
    radial_all = named("oracle.radial")
    ratio(
        "oracle.eigh_share",
        Ratio(
            round(sum(dur(i) for i in named("oracle.eigh")), 6),
            round(sum(dur(i) for i in radial_all), 6),
            "s in eigh_tridiagonal / s in radial_eigenvalues",
        ),
    )
    ratio(
        "oracle.not_converged_share",
        Ratio(sum(_raised(spans[i], "NotConverged") for i in radial_w), len(radial_w), "radial calls"),
    )
    return out


def _inside(spans, i: int, name: str) -> bool:
    """True when span ``i`` has an ancestor of the same name (a nested call)."""
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _parent_is(spans, i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    return parent >= 0 and spans[parent][NAME] == name
