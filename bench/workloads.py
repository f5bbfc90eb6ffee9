"""Workload inputs: the committed corpus, the seeded run order and the ops.

Every workload is a pool of inputs arranged in *rounds*.  A round holds one
input per *stratum* (a family cell such as "semirelativistic kinetic with a
Yukawa pair potential"), so any whole number of rounds has the same mix of
families, commands and error cases.  The pools are drawn once from
``POOL_SEED`` by the functions below and committed under ``corpus/`` together
with the program's outputs at the commit that drew them (the golden outputs).

A run's ``--seed`` only decides the order: which round comes first and the
order of the inputs inside each round.  The same seed always gives the same
op sequence; the timed loop always runs whole rounds.

Every draw uses its own ``random.Random`` seeded with a string naming the
pool, stratum and round, so adding a stratum does not move the others.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS = BENCH_DIR / "corpus"

POOL_SEED = 20131907  # the seed the committed corpus was drawn from
RESERVED_SEED = 7207  # never run while the benchmark was written; keep for claims

WORKLOADS = ("cold-cli", "sweep", "mixed-levels", "oracle-check")

KINETIC_FAMILIES = (
    "nonrelativistic",
    "semirelativistic",
    "ultrarelativistic",
    "minimal-length",
    "exponential-quadratic",
)
POTENTIAL_FAMILIES = (
    "powerlaw",
    "coulomb",
    "squareroot",
    "logarithmic",
    "yukawa",
    "exponential",
    "gaussian",
)
SHORT_RANGE = ("yukawa", "exponential", "gaussian")

MIXED_ROUNDS = 240
ORACLE_ROUNDS = 7
SWEEP_ROUNDS = 6
COLD_ROUNDS = 6
SWEEP_POINTS = 100
COLD_SWEEP_POINTS = 8  # fixed, so every cold-cli round has the same number of levels


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _u(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 4 decimals, so configs and keys stay short."""
    return round(rng.uniform(lo, hi), 4)


def fingerprint(desc) -> str:
    """Short checksum of an input description (catches corpus/generator drift)."""
    text = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(text.encode()), "08x")


@dataclass
class Item:
    """One op's input: a JSON-able description plus the objects built from it."""

    key: str
    stratum: str
    round: int
    desc: dict
    levels: int = 1
    args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded run order
# ---------------------------------------------------------------------------


def run_order(n_rounds: int, seed: int) -> list[int]:
    """Round indices in the order the run with ``seed`` takes them."""
    order = list(range(n_rounds))
    _rng("order", seed).shuffle(order)
    return order


def shuffled(items: list, seed: int, tag) -> list:
    """``items`` in the order the run with ``seed`` executes them."""
    items = list(items)
    _rng("order", seed, tag).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Law descriptions (shared by the library workloads and the config writers)
# ---------------------------------------------------------------------------


def draw_kinetic(rng: random.Random, family: str) -> dict:
    if family == "nonrelativistic":
        return {"family": family, "mass": _u(rng, 0.5, 3.0)}
    if family == "semirelativistic":
        return {"family": family, "mass": _u(rng, 0.2, 2.0)}
    if family == "ultrarelativistic":
        return {"family": family}
    if family == "minimal-length":
        return {"family": family, "mass": _u(rng, 0.5, 3.0), "deformation": _u(rng, 0.0, 0.2)}
    return {"family": family, "stiffness": _u(rng, 0.05, 0.5)}


def draw_potential(rng: random.Random, family: str, confining: bool = False) -> dict:
    """A potential of ``family``; short-range wells are drawn deep enough to bind."""
    if family == "powerlaw":
        if confining or rng.random() < 0.7:
            exponent = rng.choice([1.0, 2.0, _u(rng, 0.5, 3.0)])
            return {"family": family, "amplitude": _u(rng, 0.2, 3.0), "exponent": exponent}
        return {"family": family, "amplitude": _u(rng, -2.0, -0.2), "exponent": _u(rng, -1.5, -0.3)}
    if family == "coulomb":
        return {"family": family, "strength": _u(rng, 0.1, 1.5)}
    if family == "squareroot":
        return {"family": family, "offset": _u(rng, 0.0, 2.0), "scale": _u(rng, 0.3, 3.0)}
    if family == "logarithmic":
        return {"family": family, "scale": _u(rng, 0.3, 3.0)}
    return {"family": family, "coupling": _u(rng, 20.0, 60.0), "screening": _u(rng, 0.5, 2.0)}


def build_kinetic(et, desc: dict):
    f = desc["family"]
    K = et.KineticLaw
    if f == "nonrelativistic":
        return K.nonrelativistic(desc["mass"])
    if f == "semirelativistic":
        return K.semirelativistic(desc["mass"])
    if f == "ultrarelativistic":
        return K.ultrarelativistic()
    if f == "minimal-length":
        return K.minimal_length_quartic(desc["mass"], desc["deformation"])
    if f == "exponential-quadratic":
        return K.exponential_quadratic(desc["stiffness"])
    if f == "custom-soft":
        return K.custom(et.CustomProfile(value=SoftKinetic(desc["mass"], desc["quartic"])))
    raise ValueError(f"unknown kinetic family {f!r}")


def build_potential(et, desc: dict):
    f = desc["family"]
    P = et.PotentialLaw
    if f == "powerlaw":
        return P.power_law(desc["amplitude"], desc["exponent"])
    if f == "coulomb":
        return P.coulomb(desc["strength"])
    if f == "squareroot":
        return P.square_root(desc["offset"], desc["scale"])
    if f == "logarithmic":
        return P.logarithmic(desc["scale"])
    if f in SHORT_RANGE:
        return getattr(P, f)(desc["coupling"], desc["screening"])
    if f == "custom-powerwell":
        profile = PowerWell(desc["amplitude"], desc["exponent"], desc["depth"], desc["range"])
        return P.custom(et.CustomProfile(value=profile))
    raise ValueError(f"unknown potential family {f!r}")


class SoftKinetic:
    """Custom kinetic profile sqrt(p^2 + m^2) + c p^2: no analytic curvature tag."""

    def __init__(self, mass: float, quartic: float):
        self.mass, self.quartic = mass, quartic

    def __call__(self, p):
        return np.sqrt(p * p + self.mass * self.mass) + self.quartic * p * p


class PowerWell:
    """Custom potential a x^e - g exp(-x / s): confining with a short-range dip."""

    def __init__(self, amplitude: float, exponent: float, depth: float, range_: float):
        self.amplitude, self.exponent = amplitude, exponent
        self.depth, self.range = depth, range_

    def __call__(self, x):
        return self.amplitude * np.power(x, self.exponent) - self.depth * np.exp(-x / self.range)


def draw_custom_kinetic(rng) -> dict:
    return {"family": "custom-soft", "mass": _u(rng, 0.3, 2.0), "quartic": _u(rng, 0.05, 0.5)}


def draw_custom_potential(rng) -> dict:
    return {
        "family": "custom-powerwell",
        "amplitude": _u(rng, 0.3, 2.0),
        "exponent": _u(rng, 0.8, 2.5),
        "depth": _u(rng, 0.2, 2.0),
        "range": _u(rng, 0.3, 1.5),
    }


# ---------------------------------------------------------------------------
# mixed-levels: independent library calls
# ---------------------------------------------------------------------------


def _draw_state(rng, n: int, d: int) -> dict:
    pick = rng.random()
    if pick < 0.5:
        return {"tower": "boson-gs"}
    if pick < 0.85:
        quanta = [[0, 0] for _ in range(n - 1)]
        for _ in range(rng.randint(1, 3)):
            pair = quanta[rng.randrange(n - 1)]
            pair[rng.randrange(2)] += 1
        return {"tower": "quanta", "quanta": quanta}
    return {"tower": "fermion-asymptotic", "degeneracy": rng.randint(1, 2)}


CONFINING = ("squareroot", "logarithmic")


def _confines(potential: dict) -> bool:
    return potential["family"] in CONFINING or (
        potential["family"] in ("powerlaw", "custom-powerwell") and potential["amplitude"] > 0
    )


def _draw_nbody(rng, kinetic: dict, potential: dict) -> dict:
    n, d = rng.randint(2, 12), rng.randint(2, 6)
    placement = rng.choice(["twobody", "twobody", "onebody", "both"])
    if kinetic["family"] != "nonrelativistic" and not _confines(potential):
        # Only nonrelativistic kinematics bind reliably in an attractive
        # or short-range well; the others get a confining one-body term, so
        # that NoStationaryPoint comes from the dedicated nostat strata.
        placement = "both"
    desc = {"op": "nbody", "n": n, "d": d, "kinetic": kinetic, "state": _draw_state(rng, n, d)}
    if placement == "onebody":
        desc["onebody"] = potential
    else:
        desc["twobody"] = potential
    if placement == "both":
        desc["onebody"] = {
            "family": "powerlaw",
            "amplitude": _u(rng, 0.2, 2.0),
            "exponent": rng.choice([1.0, 2.0]),
        }
    if kinetic["family"] in ("semirelativistic", "ultrarelativistic") and placement == "both":
        _below_collapse(rng, desc)
    return desc


def _below_collapse(rng, desc: dict) -> None:
    """Keep a relativistic system's pair attraction under its collapse threshold.

    At small scales the kinetic term falls as N Q / r0; a 1/r pair attraction
    of strength g pulls with C^(3/2) g / r0, and anything more singular than
    1/r always wins.  The strength is drawn below the ground-state threshold.
    """
    law, n = desc["twobody"], desc["n"]
    pairs = n * (n - 1) / 2.0
    threshold = n * (n - 1) * desc["d"] / 2.0 / pairs**1.5
    if law["family"] == "coulomb":
        law["strength"] = round(_u(rng, 0.2, 0.8) * threshold, 6)
    elif law["family"] == "yukawa":
        law["coupling"] = round(_u(rng, 0.2, 0.8) * threshold, 6)
    elif law["family"] == "powerlaw" and law["exponent"] <= -1.0:
        law["exponent"] = _u(rng, -0.9, -0.3)


def _draw_two_body(rng, aux: float, kinetic: dict, potential: dict) -> dict:
    if rng.random() < 0.3:
        # The auxiliary law itself, where the envelope level has a closed form.
        if aux == -1.0 and rng.random() < 0.5:
            potential = {"family": "coulomb", "strength": _u(rng, 0.2, 2.0)}
        else:
            sign = 1.0 if aux > 0 else -1.0
            amplitude = round(sign * _u(rng, 0.2, 2.0), 4)
            potential = {"family": "powerlaw", "amplitude": amplitude, "exponent": aux}
        kinetic = {"family": "nonrelativistic", "mass": _u(rng, 0.5, 3.0)}
    desc = {"op": "two", "aux": aux, "kinetic": kinetic, "potential": potential}
    if aux == 1.0:
        # The linear tower needs Airy zeros; keep that cost in oracle-check only.
        desc["q"] = _u(rng, 1.0, 6.0)
    else:
        desc.update(nq=rng.randint(0, 2), l=rng.randint(0, 2), d=rng.randint(2, 6))
    return desc


def _draw_nostat(rng, kind: str) -> dict:
    """Ultrarelativistic Coulomb systems: both terms scale as 1/r, so F never changes sign."""
    n, d = rng.randint(2, 12), rng.randint(2, 6)
    q = (n - 1) * d / 2.0
    pairs = n * (n - 1) / 2.0
    factor = _u(rng, 1.5, 4.0) if kind == "collapse" else _u(rng, 0.2, 0.7)
    strength = round(factor * n * q / pairs**1.5, 6)
    return {
        "op": "nbody",
        "n": n,
        "d": d,
        "kinetic": {"family": "ultrarelativistic"},
        "twobody": {"family": "coulomb", "strength": strength},
        "state": {"tower": "boson-gs"},
        "expect_error": "NoStationaryPoint",
    }


def _draw_perturb(rng) -> dict:
    kin = rng.choice(["nonrelativistic", "semirelativistic", "minimal-length"])
    desc = _draw_nbody(rng, draw_kinetic(rng, kin), draw_potential(rng, "powerlaw", confining=True))
    desc["op"] = "perturb"
    pert = {}
    for slot in rng.sample(["kinetic", "onebody", "twobody"], rng.randint(1, 3)):
        pert[slot] = [_u(rng, -0.01, 0.01), _u(rng, 0.5, 3.0)]
    desc["perturbation"] = pert
    return desc


def _draw_critical(rng) -> dict:
    n = rng.randint(2, 12)
    return {
        "op": "critical",
        "mode": rng.choice(["onebody", "twobody"]),
        "shape": {
            "family": rng.choice(SHORT_RANGE),
            "coupling": _u(rng, 1.0, 5.0),
            "screening": _u(rng, 0.5, 2.0),
        },
        "n": n,
        "d": rng.randint(2, 6),
        "mass": _u(rng, 0.5, 3.0),
    }


def _draw_apps(rng) -> dict:
    kind = rng.choice(["baryon", "bosonstar", "minlength", "limit"])
    n, d = rng.randint(2, 12), rng.randint(2, 6)
    if kind == "baryon":
        return {
            "op": "baryon",
            "n": n,
            "d": d,
            "a1": _u(rng, 0.0, 1.0),
            "a2": _u(rng, 0.1, 1.0),
            "b": _u(rng, 0.0, 0.3),
        }
    if kind == "bosonstar":
        return {"op": "bosonstar", "n": n, "d": d, "mass": _u(rng, 0.5, 2.0), "alpha": _u(rng, 0.01, 0.5)}
    if kind == "minlength":
        return {
            "op": "minlength",
            "n": n,
            "d": d,
            "mass": _u(rng, 0.5, 2.0),
            "spring": _u(rng, 0.2, 2.0),
            "deformation": _u(rng, 0.0, 0.01),
        }
    return {"op": "limit", "d": d}


def _draw_max_mass(rng) -> dict:
    return {
        "op": "maxmass",
        "d": rng.randint(2, 6),
        "mass": _u(rng, 0.5, 2.0),
        "alpha": _u(rng, 0.005, 0.1),
        "n_max": rng.choice([1000, 10000, 100000]),
    }


def _mixed_strata() -> list[tuple[str, object]]:
    strata = []
    for kin in KINETIC_FAMILIES:
        for pot in POTENTIAL_FAMILIES:
            strata.append(
                (f"nbody/{kin}/{pot}", lambda r, k=kin, p=pot: _draw_nbody(r, draw_kinetic(r, k), draw_potential(r, p)))
            )
    for aux in (-1.0, 1.0, 2.0):
        for slot in range(2):
            strata.append(
                (
                    f"two/aux{aux:+g}/{slot}",
                    lambda r, a=aux: _draw_two_body(
                        r, a, draw_kinetic(r, r.choice(KINETIC_FAMILIES)), draw_potential(r, r.choice(POTENTIAL_FAMILIES))
                    ),
                )
            )
    confining = ("powerlaw", "squareroot", "logarithmic")
    strata += [
        ("custom/kinetic", lambda r: _draw_nbody(r, draw_custom_kinetic(r), draw_potential(r, r.choice(confining), True))),
        ("custom/potential", lambda r: _draw_nbody(r, draw_kinetic(r, r.choice(KINETIC_FAMILIES)), draw_custom_potential(r))),
        ("custom/both", lambda r: _draw_nbody(r, draw_custom_kinetic(r), draw_custom_potential(r))),
        ("custom/two", lambda r: _draw_two_body(r, r.choice([-1.0, 1.0, 2.0]), draw_kinetic(r, "nonrelativistic"), draw_custom_potential(r))),
        ("custom/two-kinetic", lambda r: _draw_two_body(r, r.choice([-1.0, 1.0, 2.0]), draw_custom_kinetic(r), draw_potential(r, r.choice(confining), True))),
        ("nostat/collapse", lambda r: _draw_nostat(r, "collapse")),
        ("nostat/unbound", lambda r: _draw_nostat(r, "unbound")),
        ("perturb", _draw_perturb),
        ("critical", _draw_critical),
        ("apps", _draw_apps),
        ("maxmass", _draw_max_mass),
    ]
    return strata


def pool_rounds(workload: str) -> int:
    return {"mixed-levels": MIXED_ROUNDS, "oracle-check": ORACLE_ROUNDS}[workload]


def draw_pool(workload: str, rounds=None, seed: int = POOL_SEED) -> list[Item]:
    """Input descriptions of a library workload (no program objects yet).

    ``rounds`` lists the round indices to draw (default: the whole pool);
    each round's draws depend only on its index, so any subset matches the
    full pool item for item.
    """
    strata = _mixed_strata() if workload == "mixed-levels" else _oracle_strata()
    items = []
    for r in range(pool_rounds(workload)) if rounds is None else rounds:
        for name, draw in strata:
            desc = draw(_rng(seed, workload, name, r))
            items.append(Item(key=f"{name}#{r}", stratum=name, round=r, desc=desc))
    return items


# ---------------------------------------------------------------------------
# oracle-check: one envelope level against the radial eigensolver
# ---------------------------------------------------------------------------


def _oracle_draw(rng, family: str, aux: float) -> dict:
    if aux == 1.0:
        d, l = 3, 0  # the linear (Airy) tower exists only here
    else:
        d, l = rng.randint(2, 6), rng.randint(0, 2)
    level = rng.randint(0, 2)
    mu = _u(rng, 0.5, 2.0)
    q = _oracle_q(aux, level, l, d)
    if family == "powerlaw-linear":
        potential = {"family": "powerlaw", "amplitude": _u(rng, 0.2, 2.0), "exponent": 1.0}
    elif family == "powerlaw-confining":
        potential = {"family": "powerlaw", "amplitude": _u(rng, 0.2, 2.0), "exponent": _u(rng, 0.5, 3.0)}
    elif family == "powerlaw-attractive":
        potential = {"family": "powerlaw", "amplitude": _u(rng, -2.0, -0.3), "exponent": _u(rng, -1.5, -0.3)}
    elif family in SHORT_RANGE:
        # Deep wells, scaled with Q^2 so that excited levels stay well bound.
        screening = _u(rng, 0.5, 2.0)
        depth = _u(rng, 3.0, 6.0) * q * q / mu
        coupling = round(depth / screening if family == "yukawa" else depth / screening**2, 4)
        potential = {"family": family, "coupling": coupling, "screening": screening}
    else:
        potential = draw_potential(rng, family)
    return {"op": "oracle", "aux": aux, "d": d, "l": l, "level": level, "mu": mu, "potential": potential}


def _oracle_q(aux: float, level: int, l: int, d: int) -> float:
    """Q of the auxiliary tower, for sizing wells (Airy zeros by their asymptotic form)."""
    if aux == -1.0:
        return level + l + (d - 1) / 2.0
    if aux == 2.0:
        return 2 * level + l + d / 2.0
    return 2.0 * (3.0 * math.pi * (4 * level + 3) / 8.0) / 3.0**1.5


ORACLE_CELLS = (
    ("coulomb", -1.0),
    ("powerlaw-attractive", -1.0),
    ("yukawa", -1.0),
    ("logarithmic", -1.0),
    ("powerlaw-linear", 1.0),
    ("squareroot", 1.0),
    ("powerlaw-confining", 2.0),
    ("squareroot", 2.0),
    ("logarithmic", 2.0),
    ("exponential", 2.0),
    ("gaussian", 2.0),
    ("yukawa", 2.0),
)


def _oracle_strata():
    return [
        (f"{family}/aux{aux:+g}", lambda r, f=family, a=aux: _oracle_draw(r, f, a))
        for family, aux in ORACLE_CELLS
    ]


# ---------------------------------------------------------------------------
# Building program objects and running one op
# ---------------------------------------------------------------------------


def build(et, item: Item) -> None:
    """Construct the program objects an op needs (part of set-up, not of the op)."""
    d = item.desc
    a = item.args
    op = d["op"]
    if op in ("nbody", "perturb"):
        a["spec"] = et.SystemSpec(
            n=d["n"],
            d=d["d"],
            kinetic=build_kinetic(et, d["kinetic"]),
            onebody=build_potential(et, d["onebody"]) if "onebody" in d else None,
            twobody=build_potential(et, d["twobody"]) if "twobody" in d else None,
        )
        if d["state"]["tower"] == "quanta":
            a["state"] = et.StateSpec(tuple(tuple(p) for p in d["state"]["quanta"]))
        if op == "perturb":
            shapes = {
                slot: (coeff, et.PotentialLaw.power_law(1.0, exponent))
                for slot, (coeff, exponent) in d["perturbation"].items()
            }
            a["perturbation"] = et.PerturbationSpec(**shapes)
    elif op == "two":
        a["kinetic"] = build_kinetic(et, d["kinetic"])
        a["potential"] = build_potential(et, d["potential"])
    elif op == "critical":
        a["shape"] = build_potential(et, d["shape"])
    elif op == "baryon":
        a["params"] = et.BaryonParams(n=d["n"], d=d["d"], a1=d["a1"], a2=d["a2"], b=d["b"])
    elif op == "bosonstar":
        a["params"] = et.BosonStarParams(n=d["n"], mass=d["mass"], alpha=d["alpha"])
    elif op == "oracle":
        a["kinetic"] = et.KineticLaw.nonrelativistic(d["mu"])
        a["potential"] = build_potential(et, d["potential"])
    item.levels = 0 if "expect_error" in d else 1


def _nbody_q(et, item: Item):
    d = item.desc
    tower = d["state"]["tower"]
    if tower == "boson-gs":
        return et.q_boson_ground(d["n"], d["d"])
    if tower == "quanta":
        return et.q_from_quanta(item.args["state"], d["d"])
    return et.q_fermion_asymptotic(d["n"], d["d"], d["state"]["degeneracy"])


def _level(sol) -> dict:
    terms = ",".join(f"{k}:{v.value}" for k, v in sorted(sol.bound.terms.items()))
    return {
        "E": float(sol.energy),
        "r0": float(sol.r0),
        "p0": float(sol.p0),
        "q": float(sol.q),
        "bound": sol.bound.classification.value,
        "terms": terms,
        "n_roots": sol.n_roots,
    }


def run_library_op(et, item: Item) -> dict:
    """Execute one mixed-levels or oracle-check op; returns its outcome record.

    Library errors become ``{"error": <class name>}`` so the checker can tell
    an expected NoStationaryPoint from an unexpected failure.
    """
    try:
        return _run_library_op(et, item)
    except et.EnvelopeError as exc:
        return {"error": type(exc).__name__}


def _run_library_op(et, item: Item) -> dict:
    d, a = item.desc, item.args
    op = d["op"]
    if op == "nbody":
        return _level(et.solve_nbody(a["spec"], _nbody_q(et, item)))
    if op == "two":
        q = d["q"] if "q" in d else et.q_two_body_auxiliary(d["aux"], d["nq"], d["l"], d["d"])
        return _level(et.solve_two_body(a["kinetic"], a["potential"], d["aux"], q))
    if op == "perturb":
        base = et.solve_nbody(a["spec"], _nbody_q(et, item))
        with _recorded_warnings() as caught:
            corrected = et.perturbed_energy(base, a["spec"], a["perturbation"])
        out = _level(base)
        out.update(E_perturbed=float(corrected), warned=len(caught) > 0)
        return out
    if op == "critical":
        q = et.q_boson_ground(d["n"], d["d"])
        res = et.critical_coupling(d["mode"], a["shape"], d["n"], q, d["mass"])
        return {"y0": float(res.y0), "value": float(res.value), "bound": res.bound.value}
    if op == "baryon":
        upper, lower = et.baryon_bounds(a["params"])
        return {"E_upper": float(upper), "E_lower": float(lower)}
    if op == "bosonstar":
        q = et.q_boson_ground(d["n"], d["d"])
        return {"M": float(et.boson_star_mass(a["params"], q))}
    if op == "minlength":
        q = et.q_boson_ground(d["n"], d["d"])
        with _recorded_warnings() as caught:
            e = et.minimal_length_energy(d["n"], d["d"], d["mass"], d["spring"], d["deformation"], q)
        return {"E": float(e), "warned": len(caught) > 0}
    if op == "limit":
        return {"M": float(et.boson_star_limit(d["d"]))}
    if op == "maxmass":
        n, m = et.boson_star_max_mass(d["d"], d["mass"], d["alpha"], d["n_max"])
        return {"N": int(n), "M": float(m)}
    if op == "oracle":
        q = et.q_two_body_auxiliary(d["aux"], d["level"], d["l"], d["d"])
        out = _level(et.solve_two_body(a["kinetic"], a["potential"], d["aux"], q))
        problem = et.RadialProblem(
            mu=d["mu"], potential=a["potential"], d=d["d"], l=d["l"], r_max=25.0 * out["r0"]
        )
        try:
            out["E_oracle"] = float(et.radial_eigenvalues(problem, d["level"] + 1)[d["level"]])
        except et.EnvelopeError as exc:
            out["oracle_error"] = type(exc).__name__
        return out
    raise ValueError(f"unknown op {op!r}")


@contextlib.contextmanager
def _recorded_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


# ---------------------------------------------------------------------------
# CLI workloads: config text and the corpus manifests
# ---------------------------------------------------------------------------


def config_text(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _system(n: int, d: int) -> dict:
    return {"n": n, "d": d}


# Kinetic/potential pairs that bind for the parameter ranges drawn here;
# together they name every kinetic and every potential family.
BINDING_PAIRS = (
    ("nonrelativistic", "powerlaw"),
    ("semirelativistic", "coulomb"),
    ("ultrarelativistic", "squareroot"),
    ("minimal-length", "logarithmic"),
    ("exponential-quadratic", "powerlaw"),
    ("nonrelativistic", "yukawa"),
    ("nonrelativistic", "exponential"),
    ("semirelativistic", "gaussian"),
    ("minimal-length", "coulomb"),
    ("ultrarelativistic", "logarithmic"),
)


def _binding_sections(rng, pair_index: int) -> dict:
    kin, pot = BINDING_PAIRS[pair_index % len(BINDING_PAIRS)]
    n, d = rng.randint(2, 5), rng.randint(2, 5)
    potential = draw_potential(rng, pot, confining=True)
    if pot == "coulomb":
        potential["strength"] = _u(rng, 0.05, 0.3)
    sections = {"system": _system(n, d), "kinetic": draw_kinetic(rng, kin), "twobody": potential}
    if rng.random() < 0.3:
        sections["onebody"] = {"family": "powerlaw", "amplitude": _u(rng, 0.2, 1.0), "exponent": 2.0}
    return sections


CONFIG_ERRORS = (
    ("unknown-key", "[system]\nn = 3\nd = 3\nspin = 1\n[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 1.0\n"),
    ("bad-number", "[system]\nn = 3\nd = 3\n[kinetic]\nfamily = nonrelativistic\nmass = heavy\n[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 1.0\n"),
    ("missing-system", "[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n[twobody]\nfamily = coulomb\nstrength = 1.0\n"),
    ("one-particle", "[system]\nn = 1\nd = 3\n[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n[twobody]\nfamily = coulomb\nstrength = 1.0\n"),
    ("unknown-family", "[system]\nn = 3\nd = 3\n[kinetic]\nfamily = tachyonic\n[twobody]\nfamily = coulomb\nstrength = 1.0\n"),
    ("negative-mass", "[system]\nn = 4\nd = 2\n[kinetic]\nfamily = semirelativistic\nmass = -1.0\n[onebody]\nfamily = logarithmic\nscale = 1.0\n"),
)


def cold_cli_entries(seed: int = POOL_SEED, rounds: int = COLD_ROUNDS) -> list[dict]:
    """The cold-cli corpus: one entry per CLI command kind per round.

    Each entry has an ``id``, its ``round``, the config ``text`` and the CLI
    arguments after the config path (``extra``).  The expected outputs are
    added by make_corpus.py.
    """
    entries = []
    for r in range(rounds):
        def rng(kind):
            return _rng(seed, "cold-cli", kind, r)

        def add(kind, text, extra=(), levels=1, command=None):
            entries.append({"id": f"r{r}-{kind}", "round": r, "command": command or kind,
                            "text": text, "extra": list(extra), "levels": levels})

        for offset, kind in enumerate(("solve", "bounds", "perturb")):
            g = rng(kind)
            sections = _binding_sections(g, 3 * r + offset)
            if kind == "perturb":
                sections["perturbation"] = {"epsilon": _u(g, -0.01, 0.01), "epsilon_exponent": _u(g, 0.5, 2.5)}
            add(kind, config_text(sections))

        g = rng("critical")
        mode = g.choice(["onebody", "twobody"])
        add("critical", config_text({
            "system": _system(g.randint(2, 8), g.randint(2, 5)),
            "kinetic": {"family": "nonrelativistic", "mass": _u(g, 0.5, 2.0)},
            mode: {"family": g.choice(SHORT_RANGE), "coupling": _u(g, 1.0, 5.0), "screening": _u(g, 0.5, 2.0)},
        }), ["--mode", mode])

        g = rng("baryon")
        add("baryon", config_text({"system": _system(3, 3)}),
            ["--a1", repr(_u(g, 0.0, 1.0)), "--a2", repr(_u(g, 0.1, 1.0)), "--b", repr(_u(g, 0.0, 0.3))])

        g = rng("bosonstar")
        add("bosonstar", config_text({
            "system": _system(g.randint(2, 6), 3),
            "kinetic": {"family": "semirelativistic", "mass": _u(g, 0.5, 2.0)},
            "twobody": {"family": "coulomb", "strength": _u(g, 0.01, 0.2)},
        }))

        g = rng("minlength")
        add("minlength", config_text({
            "system": _system(g.randint(2, 6), g.randint(2, 5)),
            "kinetic": {"family": "minimal-length", "mass": _u(g, 0.5, 2.0), "deformation": _u(g, 0.0, 0.01)},
            "twobody": {"family": "powerlaw", "amplitude": _u(g, 0.2, 2.0), "exponent": 2.0},
        }))

        g = rng("sweep")
        sections = _binding_sections(g, 3 * r + 1)
        steps = COLD_SWEEP_POINTS
        if g.random() < 0.5:
            n0 = sections["system"]["n"]
            extra = ["--param", "n", "--from", str(n0), "--to", str(n0 + steps - 1)]
            sections["twobody"] = {"family": "powerlaw", "amplitude": _u(g, 0.2, 2.0), "exponent": 1.0}
        else:
            lo = _u(g, 0.3, 1.0)
            sections["twobody"] = {"family": "powerlaw", "amplitude": lo, "exponent": _u(g, 0.5, 2.5)}
            extra = ["--param", "twobody.amplitude", "--from", repr(lo), "--to", repr(round(3 * lo, 4)), "--steps", str(steps)]
        add("sweep", config_text(sections), extra, levels=steps)

        g = rng("oracle")
        pot = g.choice([
            {"family": "powerlaw", "amplitude": _u(g, 0.3, 2.0), "exponent": g.choice([1.0, 2.0])},
            {"family": "squareroot", "offset": _u(g, 0.1, 1.0), "scale": _u(g, 0.5, 2.0)},
            {"family": "logarithmic", "scale": _u(g, 0.5, 2.0)},
        ])
        add("oracle", config_text({
            "system": _system(2, g.randint(2, 4)),
            "kinetic": {"family": "nonrelativistic", "mass": _u(g, 1.0, 3.0)},
            "twobody": pot,
        }), ["--levels", str(g.randint(1, 3))])

        name, text = CONFIG_ERRORS[r % len(CONFIG_ERRORS)]
        add(f"error-{name}", text, levels=0, command="solve")

        g = rng("collapse")
        kind = ("nostat", "bosonstar", "baryon")[r % 3]
        if kind == "nostat":
            n = g.randint(3, 6)
            strength = round(_u(g, 1.5, 3.0) * n * (n - 1) * 3 / 2 / (n * (n - 1) / 2) ** 1.5, 4)
            add("solve-collapse", config_text({
                "system": _system(n, 3),
                "kinetic": {"family": "ultrarelativistic"},
                "twobody": {"family": "coulomb", "strength": strength},
            }), levels=0, command="solve")
        elif kind == "bosonstar":
            add("bosonstar-collapse", config_text({
                "system": _system(g.randint(6, 10), 3),
                "kinetic": {"family": "semirelativistic", "mass": 1.0},
                "twobody": {"family": "coulomb", "strength": _u(g, 1.0, 2.0)},
            }), levels=0, command="bosonstar")
        else:
            add("baryon-collapse", config_text({"system": _system(g.randint(4, 8), 3)}),
                ["--a1", "1.0", "--a2", "1.0", "--b", repr(_u(g, 1.0, 2.0))], levels=0, command="baryon")
    return entries


SWEEP_STRATA = (
    "nonrel-powerlaw/exponent",
    "semirel-coulomb/strength",
    "ultrarel-squareroot/offset",
    "minimal-length-harmonic/deformation",
    "expquad-logarithmic/stiffness",
    "nonrel-yukawa/coupling",
    "nonrel-gaussian/screening",
    "nonrel-linear/n",
)


def sweep_entries(seed: int = POOL_SEED, rounds: int = SWEEP_ROUNDS) -> list[dict]:
    """The sweep corpus: one SWEEP_POINTS-point sweep per stratum per round."""
    entries = []
    for r in range(rounds):
        for stratum in SWEEP_STRATA:
            g = _rng(seed, "sweep", stratum, r)
            entries.append(_sweep_entry(g, stratum, r))
    return entries


def _sweep_entry(g, stratum: str, r: int) -> dict:
    n, d = g.randint(2, 6), g.randint(2, 5)
    steps = SWEEP_POINTS
    if stratum.startswith("nonrel-powerlaw"):
        sections = {"kinetic": draw_kinetic(g, "nonrelativistic"),
                    "twobody": {"family": "powerlaw", "amplitude": _u(g, 0.2, 2.0), "exponent": 1.0}}
        param, lo, hi = "twobody.exponent", _u(g, 0.3, 1.0), _u(g, 2.0, 3.0)
    elif stratum.startswith("semirel-coulomb"):
        sections = {"kinetic": draw_kinetic(g, "semirelativistic"),
                    "twobody": {"family": "coulomb", "strength": 0.1}}
        param, lo, hi = "twobody.strength", _u(g, 0.01, 0.05), _u(g, 0.2, 0.4)
    elif stratum.startswith("ultrarel-squareroot"):
        sections = {"kinetic": {"family": "ultrarelativistic"},
                    "twobody": {"family": "squareroot", "offset": 0.0, "scale": _u(g, 0.3, 3.0)}}
        param, lo, hi = "twobody.offset", 0.0, _u(g, 1.0, 4.0)
    elif stratum.startswith("minimal-length"):
        sections = {"kinetic": {"family": "minimal-length", "mass": _u(g, 0.5, 3.0), "deformation": 0.0},
                    "twobody": {"family": "powerlaw", "amplitude": _u(g, 0.2, 2.0), "exponent": 2.0}}
        param, lo, hi = "kinetic.deformation", 0.0, _u(g, 0.1, 0.5)
    elif stratum.startswith("expquad"):
        sections = {"kinetic": {"family": "exponential-quadratic", "stiffness": 0.1},
                    "onebody": {"family": "logarithmic", "scale": _u(g, 0.3, 3.0)}}
        param, lo, hi = "kinetic.stiffness", _u(g, 0.02, 0.08), _u(g, 0.3, 0.8)
    elif stratum.startswith("nonrel-yukawa"):
        sections = {"kinetic": draw_kinetic(g, "nonrelativistic"),
                    "twobody": {"family": "yukawa", "coupling": 40.0, "screening": _u(g, 0.5, 2.0)}}
        param, lo, hi = "twobody.coupling", _u(g, 20.0, 30.0), _u(g, 60.0, 90.0)
    elif stratum.startswith("nonrel-gaussian"):
        sections = {"kinetic": draw_kinetic(g, "nonrelativistic"),
                    "twobody": {"family": "gaussian", "coupling": _u(g, 40.0, 80.0), "screening": 1.0}}
        param, lo, hi = "twobody.screening", _u(g, 0.8, 1.2), _u(g, 2.0, 3.0)
    else:
        sections = {"kinetic": draw_kinetic(g, "nonrelativistic"),
                    "twobody": {"family": "powerlaw", "amplitude": _u(g, 0.2, 2.0), "exponent": 1.0}}
        n = 2
        param, lo, hi = "n", 2, 2 + steps - 1
    sections = {"system": _system(n, d), **sections}
    extra = ["--param", param, "--from", repr(lo), "--to", repr(hi)]
    if param != "n":
        extra += ["--steps", str(steps)]
    return {"id": f"r{r}-{stratum.split('/')[0]}", "round": r, "stratum": stratum,
            "text": config_text(sections), "extra": extra, "levels": steps}


def corpus_argv(workload: str, entry: dict) -> list[str]:
    """CLI arguments of a corpus entry."""
    path = str(CORPUS / workload / f"{entry['id']}.ini")
    return [entry["command"] if workload == "cold-cli" else "sweep", "--config", path, *entry["extra"]]
