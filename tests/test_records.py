"""The record decorator: what each record class is given, checked on every one."""

from __future__ import annotations

import copy
import pickle

import pytest

from brauerval.division import CERTIFIED, NOT_CERTIFIED, Certificate
from brauerval.lattices import HashedOnce, Lattice
from brauerval.scenario import Scenario
from brauerval.towers import (
    ARTIN_SCHREIER,
    ExtensionGenerator,
    FieldTower,
    FormalElement,
    GroundField,
)
from brauerval.verify import VERIFIED, Verdict
from record_samples import fields, record_classes, sample_records

RECORDS = sorted(record_classes(), key=lambda cls: cls.__name__)
FROZEN = [cls for cls in RECORDS if cls is not Scenario]


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 18
    assert set(sample_records()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS)
def test_a_record_survives_pickle_and_copy(cls):
    x = sample_records()[cls]
    if issubclass(cls, HashedOnce):
        hash(x)  # kept in a slot from here on, and not pickled
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
    for y in copies + [copy.copy(x), copy.deepcopy(x)]:
        assert type(y) is cls
        assert y == x and fields(y) == fields(x)
        if issubclass(cls, HashedOnce):
            assert hash(y) == hash(x)


@pytest.mark.parametrize("cls", FROZEN)
def test_a_frozen_record_hashes_as_its_field_tuple(cls):
    x = sample_records()[cls]
    try:
        expected = hash(fields(x))
    except TypeError:  # a dict field, as a Certificate and a Verdict have
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
    else:
        assert hash(x) == expected == hash(x)


@pytest.mark.parametrize("cls", FROZEN)
def test_a_frozen_record_refuses_assignment_and_deletion(cls):
    x = sample_records()[cls]
    before = fields(x)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete field '{name}'$"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete field '{name}'$"):
            delattr(x, name)
    assert fields(x) == before


def test_a_scenario_is_mutable_and_unhashable():
    x = sample_records()[Scenario]
    x.task = "counts"
    assert x.task == "counts"
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Certificate("rule", CERTIFIED).payload,
        lambda: Verdict("counts", VERIFIED).parameters,
        lambda: Verdict("counts", VERIFIED).payload,
        lambda: Scenario("a.scn").params,
        lambda: Scenario("a.scn").algebras,
    ],
    ids=["Certificate.payload", "Verdict.parameters", "Verdict.payload", "Scenario.params",
         "Scenario.algebras"],
)
def test_a_dict_default_is_fresh_for_each_instance(make):
    first, second = make(), make()
    assert first == second == {}
    assert first is not second


def test_a_record_compares_only_with_its_own_class():
    x = Lattice.integers(2)
    assert x != (x.dim, x.denominator, x.rows)
    assert x.__eq__((x.dim, x.denominator, x.rows)) is NotImplemented


def test_reprs_read_as_the_dataclass_reprs():
    rhs = FormalElement.monomial(3, {"u": -1})
    gx = ExtensionGenerator("x", ARTIN_SCHREIER, rhs, "ramified")
    tower = FieldTower(GroundField(3, frozenset({"a"})), ("u", "w"), (gx,))
    assert repr(tower.spec(1)) == (
        "ValuationSpec(tower=FieldTower(ground=GroundField(characteristic=3, "
        "constants=frozenset({'a'}), algebraically_closed=False), variables=('u', 'w'), "
        "generators=(ExtensionGenerator(name='x', kind='artin-schreier', "
        "rhs=FormalElement(char=3, terms=(((('u', -1),), 1),)), "
        "justification='ramified'),)), depth=1)"
    )
    cert = Certificate(
        "root", CERTIFIED, {"k": 1},
        (Certificate("leaf", NOT_CERTIFIED), Certificate("leaf2", CERTIFIED, {"x": (1, 2)})),
    )
    assert repr(cert) == (
        "Certificate(rule='root', status='certified', payload={'k': 1}, "
        "children=(Certificate(rule='leaf', status='not-certified', payload={}, children=()), "
        "Certificate(rule='leaf2', status='certified', payload={'x': (1, 2)}, children=())))"
    )
