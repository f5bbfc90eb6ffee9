"""The law-family table: one record per family, constructors that match it, finite parameters."""

import dataclasses
import inspect
import math

import pytest

from envtheory import CustomProfile, KineticFamily, KineticLaw, PotentialFamily, PotentialLaw, critical_coupling
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


# --- one checked path: ``of``, direct construction and ``dataclasses.replace`` ---------


def _paths(family, args):
    """The law of ``family`` with parameters ``args``, built each of the three ways."""
    law_cls = KineticLaw if isinstance(family, KineticFamily) else PotentialLaw
    named = dict(zip((p.name for p in FAMILIES[family].params), args))
    valid = CONSTRUCTORS[family][0](*CONSTRUCTORS[family][1])
    return {
        "of": lambda: law_cls.of(family, *args),
        "direct": lambda: law_cls(family, **named),
        "replace": lambda: dataclasses.replace(valid, **named),
    }


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("family", NON_CUSTOM, ids=lambda f: f.value)
def test_every_construction_path_gives_the_same_law(family):
    args = [int(value) if value == int(value) else value for value in CONSTRUCTORS[family][1]]
    laws = [make() for make in _paths(family, args).values()]
    assert laws[0] == laws[1] == laws[2] == CONSTRUCTORS[family][0](*CONSTRUCTORS[family][1])
    for law in laws:
        assert [type(getattr(law, p.name)) for p in FAMILIES[family].params] == [float] * len(args)
        if isinstance(law, PotentialLaw):
            assert law.short_range is FAMILIES[family].short_range


def _out_of_range(param):
    return param.bound - 1.0 if param.rule == ">=" else param.bound


BAD_CASES = [
    (family, index, bad)
    for family in NON_CUSTOM
    for index, param in enumerate(FAMILIES[family].params)
    for bad in (math.nan, math.inf, -math.inf, _out_of_range(param))
]


@pytest.mark.parametrize("family, index, bad", BAD_CASES, ids=[f"{f.value}-{i}-{b}" for f, i, b in BAD_CASES])
def test_every_construction_path_rejects_a_bad_parameter_alike(family, index, bad):
    args = list(CONSTRUCTORS[family][1])
    args[index] = bad
    messages = {path: _outcome(make) for path, make in _paths(family, args).items()}
    assert len(set(messages.values())) == 1, messages
    assert messages["of"].startswith(FAMILIES[family].label + " ")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: dataclasses.replace(KineticLaw.nonrelativistic(1.0), mass=math.nan),
         "nonrelativistic kinetic law mass must be finite, got nan"),
        (lambda: KineticLaw(KineticFamily.NONRELATIVISTIC), "nonrelativistic kinetic law needs mass > 0, got 0.0"),
        (lambda: dataclasses.replace(PotentialLaw.coulomb(1.0), strength=-1.0),
         "coulomb potential needs strength > 0, got -1.0"),
    ],
    ids=["replaced-nan-mass", "default-mass", "replaced-negative-strength"],
)
def test_a_law_that_skipped_of_fails_at_construction(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_a_law_family_must_be_of_its_own_kind():
    with pytest.raises(TypeError, match="^family must be a KineticFamily"):
        KineticLaw(PotentialFamily.COULOMB)
    with pytest.raises(TypeError, match="^family must be a PotentialFamily"):
        PotentialLaw("yukawa", coupling=5.0)


def test_short_range_comes_from_the_table_except_for_a_custom_law():
    direct = PotentialLaw(PotentialFamily.YUKAWA, coupling=5.0)
    assert direct.short_range and direct == PotentialLaw.yukawa(5.0)
    assert critical_coupling("twobody", direct, 3, 3.0, 1.0) == critical_coupling(
        "twobody", PotentialLaw.yukawa(5.0), 3, 3.0, 1.0
    )
    assert not PotentialLaw(PotentialFamily.COULOMB, strength=1.0, short_range=True).short_range
    assert not dataclasses.replace(PotentialLaw.yukawa(5.0), family=PotentialFamily.COULOMB, strength=1.0).short_range
    custom = PotentialLaw.custom(CustomProfile(lambda x: -1.0 / (1.0 + x * x)), short_range=True)
    assert custom.short_range and not dataclasses.replace(custom, short_range=False).short_range
