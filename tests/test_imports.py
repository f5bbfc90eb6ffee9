"""The runtime needs no mpmath, and the solve path imports numpy only; scipy loads on the oracle's first use."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """\
[system]
n = 3
d = 3

[kinetic]
family = nonrelativistic
mass = 1.0

[twobody]
family = powerlaw
amplitude = 0.5
exponent = 2.0

[state]
tower = boson-gs
"""

PROBE = textwrap.dedent(
    """
    import io, json, sys

    sys.modules["mpmath"] = None  # every import of mpmath now fails

    def heavy():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    from envtheory import cli
    after_import = heavy()
    code = cli.run(["solve", "--config", sys.argv[1]], stdout=io.StringIO())
    after_solve = heavy()

    from envtheory import PotentialLaw, RadialProblem, q_two_body_auxiliary, radial_eigenvalues
    problem = RadialProblem(mu=1.0, potential=PotentialLaw.power_law(1.0, 2.0), d=3, l=0, r_max=12.0)
    radial_eigenvalues(problem, 1)
    print(json.dumps({
        "code": code,
        "after_import": after_import,
        "after_solve": after_solve,
        "linalg_after_oracle": "scipy.linalg" in sys.modules,
        "airy_q50": q_two_body_auxiliary(1.0, 50, 0, 3),
    }))
    """
)


def test_cli_solve_needs_neither_scipy_nor_mpmath(tmp_path):
    cfg = tmp_path / "harmonic.cfg"
    cfg.write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0
    assert seen["after_import"] == []
    assert seen["after_solve"] == []
    assert seen["linalg_after_oracle"] is True
    # the linear auxiliary tower past the Airy table, against mpmath in this process
    assert seen["airy_q50"] == pytest.approx(2.0 * (-float(mpmath.airyaizero(51)) / 3.0) ** 1.5, rel=1e-14)
