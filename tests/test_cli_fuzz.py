"""A seeded fuzz of the CLI: extreme numbers in the committed cold-cli configs.

Each draw takes one committed config with its command, sets one or two of
its numeric values to an extreme of the float range (or past it), and
sometimes adds a ``[state] q``.  Whatever the input, a command exits 0-3
without raising, a failing command writes exactly one stderr line, a
passing one prints only finite floats, and no numpy ``RuntimeWarning``
escapes: each is raised as an error here.
"""

import contextlib
import gzip
import io
import json
import math
import random
import re
import warnings
from pathlib import Path

import pytest

from envtheory.cli import run
from envtheory.errors import PerturbationSizeWarning

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
ENTRIES = json.loads(gzip.decompress((CORPUS / "cold-cli.json.gz").read_bytes()))
CONFIGS = {entry["id"]: (CORPUS / "cold-cli" / f"{entry['id']}.ini").read_text() for entry in ENTRIES}
EXTREMES = [
    "0", "-0.0", "1e308", "-1e308", "1e-308", "-1e-308", "5e-324", "-5e-324", "nan", "inf", "-inf",
    "1" + "0" * 400, "-1" + "0" * 400, "1e200", "-1e200", "1e-200", "1.7976931348623157e308", "2.2250738585072014e-308",
]
NUMBER = re.compile(r"(?m)^(\s*\w+\s*=\s*)([-+0-9.][-+0-9.eE]*)\s*$")
DRAWS_PER_SEED = 1200


def _draw(rng: random.Random) -> tuple[str, list[str]]:
    """(config text, argv after the config path) for one fuzzed command."""
    entry = rng.choice(ENTRIES)
    text = CONFIGS[entry["id"]]
    numbers = list(NUMBER.finditer(text))
    for match in sorted(rng.sample(numbers, min(len(numbers), rng.choice((1, 2)))), key=lambda m: -m.start()):
        text = text[: match.start(2)] + rng.choice(EXTREMES) + text[match.end(2) :]
    if rng.random() < 0.25 and "[state]" not in text:
        text += f"\n[state]\nq = {rng.choice(EXTREMES)}\n"
    return text, [entry["command"], *entry["extra"]]


def _run(path: Path, text: str, argv: list[str]) -> tuple[int, str, str, list]:
    """(exit code, stderr, stdout, warnings) of one in-process run, with RuntimeWarning raised as an error."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code = run([argv[0], "--config", str(path), *argv[1:]], stdout=out)
    return code, err.getvalue(), out.getvalue(), caught


def _cells(stdout: str) -> list[str]:
    return [cell for line in stdout.splitlines()[1:] for cell in line.split(",")]


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_extreme_number_is_a_level_or_one_error_line(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "fuzz.cfg"
    for _ in range(DRAWS_PER_SEED):
        text, argv = _draw(rng)
        case = f"{' '.join(argv)} on\n{text}"
        code, err, out, caught = _run(path, text, argv)
        assert code in (0, 1, 2, 3), case
        # a first-order correction past a tenth of the level is the one warning a
        # command gives, and it goes with a printed level: the user is told the
        # corrected level is past first-order accuracy
        assert all(issubclass(w.category, PerturbationSizeWarning) for w in caught), (case, caught)
        if code:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (case, err)
        else:
            assert err == "", (case, err)
            floats = [float(cell) for cell in _cells(out) if _is_float(cell)]
            assert floats and all(math.isfinite(x) for x in floats), (case, out)
