"""Correctness checks for every op the benchmark runs.

Two kinds of check apply to each op:

* against the golden outputs committed in ``corpus/``: non-float fields must
  match exactly and floats to a relative ``REL_TOL``.  Whether every float is
  also bit-identical is tracked separately (``Check.identical``), so a last-digit
  change is visible without counting as a failed op;
* against references that do not depend on the golden file: the exact
  oscillator spectrum, the closed-form auxiliary levels, the Coulomb level
  -mu g^2 / (2 Q^2), and the radial eigensolver for every UpperBound or
  LowerBound verdict in oracle-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

REL_TOL = 1e-10
ORACLE_TOL = 1e-6  # the radial eigensolver's own relative agreement target


@dataclass
class Check:
    """Outcome of one op's checks.

    ``problems`` are failures the golden corpus does not show; ``known`` are
    failures the program already had when the corpus was made (the radial
    oracle's NotConverged).  Both make the op a failed op.
    """

    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    identical: bool = True

    @property
    def ok(self) -> bool:
        return not self.problems and not self.known


def _is_float(value) -> bool:
    return isinstance(value, float)


def compare_record(got: dict, want: dict, check: Check | None = None) -> Check:
    """Field-by-field comparison of an op's outcome with its golden outcome."""
    check = check or Check()
    if set(got) != set(want):
        check.problems.append(f"fields {sorted(got)} != golden {sorted(want)}")
        check.identical = False
        return check
    for key, expected in want.items():
        value = got[key]
        if _is_float(expected):
            if not _is_float(value) or not math.isfinite(value):
                check.problems.append(f"{key}={value!r} is not a finite float")
                check.identical = False
            elif value != expected:
                check.identical = False
                if abs(value - expected) > REL_TOL * abs(expected):
                    check.problems.append(f"{key}={value!r} != golden {expected!r}")
        elif value != expected:
            check.problems.append(f"{key}={value!r} != golden {expected!r}")
            check.identical = False
    return check


def compare_csv(got: str, want: str, check: Check | None = None) -> Check:
    """CSV text: integer and text cells exactly, float cells to REL_TOL."""
    check = check or Check()
    if got == want:
        return check
    check.identical = False
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        check.problems.append("CSV shape differs from golden")
        return check
    for got_row, want_row in zip(got_rows, want_rows):
        for g, w in zip(got_row, want_row):
            if g == w:
                continue
            try:
                gf, wf = float(g), float(w)
            except ValueError:
                check.problems.append(f"cell {g!r} != golden {w!r}")
                continue
            if _looks_integer(w) or not math.isfinite(gf) or abs(gf - wf) > REL_TOL * abs(wf):
                check.problems.append(f"cell {g!r} != golden {w!r}")
    return check


def _looks_integer(text: str) -> bool:
    return text.lstrip("-").isdigit()


def check_cli(result: tuple[int, str, str], golden: dict) -> Check:
    """A CLI op: exit code, stdout CSV and the kind of diagnostic on stderr."""
    code, out, err = result
    check = Check()
    if code != golden["exit"]:
        check.problems.append(f"exit code {code} != golden {golden['exit']}")
        check.identical = False
    compare_csv(out, golden["stdout"], check)
    if golden["exit"] != 0 and stderr_kind(err) != golden["stderr_kind"]:
        check.problems.append(f"stderr {err[:80]!r} is not a {golden['stderr_kind']!r} diagnostic")
    return check


def stderr_kind(err: str) -> str:
    """The diagnostic class a failing CLI call prints before the first colon."""
    return err.split(":", 1)[0]


# ---------------------------------------------------------------------------
# Library ops
# ---------------------------------------------------------------------------


def check_library(et, item, got: dict, golden: dict) -> Check:
    check = compare_record(got, golden)
    if "error" in got:
        return check
    reference = exact_level(et, item, got["q"]) if "q" in got else None
    if reference is not None:
        _side(check, got["bound"], got["E"], reference, REL_TOL, "closed form")
    if "E_oracle" in got:
        _side(check, got["bound"], got["E"], got["E_oracle"], ORACLE_TOL, "radial oracle")
    if "oracle_error" in got:
        failure = f"radial oracle raised {got['oracle_error']}"
        recorded = golden.get("oracle_error") == got["oracle_error"]
        (check.known if recorded else check.problems).append(failure)
    return check


def _side(check: Check, bound: str, energy: float, reference: float, tol: float, what: str) -> None:
    """The level must lie on the side its verdict claims (both sides for Exact)."""
    slack = tol * abs(reference)
    if bound in ("UpperBound", "Exact") and energy < reference - slack:
        check.problems.append(f"{bound} E={energy!r} lies below the {what} {reference!r}")
    if bound in ("LowerBound", "Exact") and energy > reference + slack:
        check.problems.append(f"{bound} E={energy!r} lies above the {what} {reference!r}")


def exact_level(et, item, q: float) -> float | None:
    """The true level at quantum number ``q`` where it is known in closed form."""
    d = item.desc
    if d["op"] == "nbody":
        return _harmonic_level(et, item)
    if d["op"] in ("two", "oracle"):
        return _two_body_level(et, d, q)
    return None


def _harmonic_level(et, item) -> float | None:
    d = item.desc
    if d["kinetic"]["family"] != "nonrelativistic" or d["state"]["tower"] == "fermion-asymptotic":
        return None
    couplings = []
    for slot in ("onebody", "twobody"):
        law = d.get(slot)
        if law is None:
            couplings.append(0.0)
        elif law["family"] == "powerlaw" and law["exponent"] == 2.0 and law["amplitude"] > 0:
            couplings.append(law["amplitude"])
        else:
            return None
    state = item.args.get("state") or et.StateSpec.ground(d["n"])
    return et.harmonic_exact(d["n"], d["d"], d["kinetic"]["mass"], couplings[0], couplings[1], state)


def _two_body_level(et, d: dict, q: float) -> float | None:
    potential, aux = d["potential"], d["aux"]
    if d["op"] == "oracle":
        mu = d["mu"]
    elif d["kinetic"]["family"] == "nonrelativistic":
        mu = d["kinetic"]["mass"]
    else:
        return None
    if potential["family"] == "coulomb" and aux == -1.0:
        return -mu * potential["strength"] ** 2 / (2.0 * q * q)
    if (
        potential["family"] == "powerlaw"
        and potential["exponent"] == aux
        and potential["amplitude"] * aux > 0
    ):
        return et.auxiliary_energy(mu, abs(potential["amplitude"]), aux, q)
    return None


def envelope_gap(got: dict) -> float | None:
    """Relative distance between the envelope level and the radial oracle."""
    if "E_oracle" not in got or "E" not in got:
        return None
    return abs(got["E"] - got["E_oracle"]) / abs(got["E_oracle"])
