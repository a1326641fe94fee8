"""One engine-built instance of every record class, and field-tuple helpers."""

from __future__ import annotations

import pathlib

from brauerval import cli, division, errors, lattices, report, scenario, symbols, towers, verify

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
MODULES = (cli, division, errors, lattices, report, scenario, symbols, towers, verify)


def record_classes() -> set[type]:
    """Every class the engine modules define with the record decorator."""
    return {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and "__match_args__" in vars(obj)
    }


def fields(x) -> tuple:
    """The values of x's fields, in declaration order."""
    return tuple(getattr(x, name) for name in x.__match_args__)


def replaced(x, **changes):
    """A new record of x's class: x's fields, the named ones changed."""
    values = dict(zip(x.__match_args__, fields(x)))
    assert changes.keys() <= values.keys(), changes
    return type(x)(**{**values, **changes})


def sample_records() -> dict[type, object]:
    """One instance of each record class, keyed by its class."""
    parsed = scenario.load_scenario(str(CORPUS / "chain-shift-ext-p3.scn"))
    tower = parsed.tower
    chain = parsed.chain
    member = verify.build_family(2, 3)[-1]
    data = division.algebra_value_data(member.word, verify.standard_tower(2, 3))
    base = towers.FieldTower(towers.GroundField(3), ("u",))
    verdict = verify.verify_example73(1, 3)
    samples = [
        parsed,
        tower,
        tower.ground,
        tower.generators[0],
        tower.generators[0].rhs,
        tower.spec(1),
        chain,
        chain.steps[1],
        chain.start,
        chain.start.terms[0],
        member,
        data,
        data.factors[0],
        data.base_group,
        data.factors[0].slot1_value,
        division.trace_profile(base, towers.FormalElement.monomial(3, {"u": -1})),
        verdict,
        verdict.certificates[0],
    ]
    return {type(x): x for x in samples}
