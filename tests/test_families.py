"""The law-family table: one record per family, constructors that match it, finite parameters."""

import inspect
import math

import pytest

from envtheory import KineticFamily, KineticLaw, PotentialFamily, PotentialLaw
from envtheory.cli import parse_config
from envtheory.errors import ConstraintViolation
from envtheory.model import FAMILIES

# Valid parameters for the public constructor of every non-custom family.
CONSTRUCTORS = {
    KineticFamily.NONRELATIVISTIC: (KineticLaw.nonrelativistic, (1.0,)),
    KineticFamily.SEMIRELATIVISTIC: (KineticLaw.semirelativistic, (1.0,)),
    KineticFamily.ULTRARELATIVISTIC: (KineticLaw.ultrarelativistic, ()),
    KineticFamily.MINIMAL_LENGTH_QUARTIC: (KineticLaw.minimal_length_quartic, (1.0, 0.1)),
    KineticFamily.EXPONENTIAL_QUADRATIC: (KineticLaw.exponential_quadratic, (0.5,)),
    PotentialFamily.POWER_LAW: (PotentialLaw.power_law, (1.0, 1.0)),
    PotentialFamily.COULOMB: (PotentialLaw.coulomb, (1.0,)),
    PotentialFamily.SQUARE_ROOT: (PotentialLaw.square_root, (0.5, 1.0)),
    PotentialFamily.LOGARITHMIC: (PotentialLaw.logarithmic, (1.0,)),
    PotentialFamily.YUKAWA: (PotentialLaw.yukawa, (2.0, 1.0)),
    PotentialFamily.EXPONENTIAL: (PotentialLaw.exponential, (2.0, 1.0)),
    PotentialFamily.GAUSSIAN: (PotentialLaw.gaussian, (2.0, 1.0)),
}
NON_CUSTOM = [f for enum in (KineticFamily, PotentialFamily) for f in enum if f is not enum.CUSTOM]


def law_config(section, family, params):
    """A config whose [section] holds ``family`` with ``params``; the other term is fixed."""
    other = "[kinetic]\nfamily = nonrelativistic\nmass = 1.0\n"
    if section == "kinetic":
        other = "[twobody]\nfamily = powerlaw\namplitude = 1.0\nexponent = 2.0\n"
    body = "".join(f"{key} = {value}\n" for key, value in params)
    return f"[system]\nn = 3\nd = 3\n\n{other}\n[{section}]\nfamily = {family}\n{body}"


# --- one record per family ------------------------------------------------------


def test_every_family_has_a_record():
    assert set(FAMILIES) == set(KineticFamily) | set(PotentialFamily)
    assert set(CONSTRUCTORS) == set(NON_CUSTOM)


@pytest.mark.parametrize("family", NON_CUSTOM, ids=lambda f: f.value)
def test_constructor_matches_its_record(family):
    make, args = CONSTRUCTORS[family]
    record = FAMILIES[family]
    signature = inspect.signature(make).parameters
    assert [p.name for p in record.params] == list(signature)
    for param in record.params:
        default = signature[param.name].default
        assert param.default == (None if default is inspect.Parameter.empty else default)
    law = make(*args)
    assert law.family is family
    assert [getattr(law, p.name) for p in record.params] == list(args)


@pytest.mark.parametrize(
    "section, enum",
    [("kinetic", KineticFamily), ("onebody", PotentialFamily), ("twobody", PotentialFamily)],
)
def test_cli_accepts_exactly_the_tabled_families(section, enum):
    names = sorted(f.value for f in enum if f is not enum.CUSTOM)
    with pytest.raises(ConstraintViolation) as err:
        parse_config(law_config(section, "custom", []))
    assert str(err.value).endswith(f"[{section}] family must be one of {names}, got 'custom'")
    for family in enum:
        if family is enum.CUSTOM:
            continue
        args = CONSTRUCTORS[family][1]
        params = [(p.name, repr(v)) for p, v in zip(FAMILIES[family].params, args)]
        cfg = parse_config(law_config(section, family.value, params))
        assert getattr(cfg, section) == CONSTRUCTORS[family][0](*args)


# --- non-finite parameters ---------------------------------------------------------

PARAM_CASES = [
    (family, index, bad)
    for family in NON_CUSTOM
    for index in range(len(CONSTRUCTORS[family][1]))
    for bad in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize(
    "family, index, bad", PARAM_CASES, ids=[f"{f.value}-{i}-{b}" for f, i, b in PARAM_CASES]
)
def test_non_finite_parameter_fails_at_construction(family, index, bad):
    make, args = CONSTRUCTORS[family]
    args = list(args)
    args[index] = bad
    with pytest.raises(ValueError, match="must be finite"):
        make(*args)
