"""Formal elements, valuations on towers, and the trace/norm oracles.

The trace and norm helpers are cross-checked against two independent
computations (companion matrix powers and a Leibniz determinant) before
any frozen constant below is trusted.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerval import division, lattices, towers
from brauerval.errors import (
    AmbiguousValuation,
    UnsupportedConfiguration,
    ZeroElement,
)
from brauerval.lattices import Lattice, ValueVector
from brauerval.symbols import SymbolSum, SymbolTerm
from brauerval.towers import (
    ARTIN_SCHREIER,
    PTH_ROOT,
    ExtensionGenerator,
    FieldTower,
    FormalElement,
    GroundField,
    ValuationSpec,
    adjoin,
    artin_schreier_image,
    generator_value,
    norm_element_oracle,
    rebase_pth_root,
    residue_of,
    residue_tower,
    trace_power_oracle,
    value_of,
)

F = Fraction
V = ValueVector.of


def mono(char, names, coeff=1):
    return FormalElement.monomial(char, names, coeff)


# ------------------------------------------------------- formal elements


def test_element_normalisation():
    assert (mono(2, {"u": 1}) + mono(2, {"u": 1})).is_zero()
    assert (mono(3, {"u": 1}, 2) + mono(3, {"u": 1})).is_zero()
    e = mono(3, {"u": 1}) + FormalElement.one(3)
    assert e * (mono(3, {"u": 1}) + FormalElement.constant(3, 2)) == mono(
        3, {"u": 2}
    ) + FormalElement.constant(3, 2)


def test_element_inverse_and_powers():
    e = mono(3, {"u": -1, "w": 2}, 2)
    assert e.inverse() == mono(3, {"u": 1, "w": -2}, 2)
    assert e * e.inverse() == FormalElement.one(3)
    with pytest.raises(UnsupportedConfiguration):
        (e + FormalElement.one(3)).inverse()
    cube = (mono(3, {"u": 1}) + FormalElement.one(3)) ** 3
    assert cube == mono(3, {"u": 3}) + FormalElement.one(3)


def test_artin_schreier_image():
    img = artin_schreier_image(mono(3, {"u": -1}))
    assert img == mono(3, {"u": -3}) + mono(3, {"u": -1}, 2)


def test_substitute_monomial():
    e = mono(3, {"u": 2}) + mono(3, {"u": -1, "w": 1})
    assert e.substitute_monomial("u", "y", 3) == mono(3, {"y": 6}) + mono(
        3, {"y": -3, "w": 1}
    )


def test_element_str():
    e = mono(3, {"u": -1}, 2) + mono(3, {"c": 1, "u": 2})
    assert str(e) == "c*u^2 + 2*u^-1"
    assert str(FormalElement.zero(5)) == "0"
    assert str(FormalElement.one(5)) == "1"


@st.composite
def element_triples(draw):
    char = draw(st.sampled_from([2, 3, 5]))

    def one_element():
        acc = FormalElement.zero(char)
        for _ in range(draw(st.integers(0, 3))):
            coeff = draw(st.integers(1, char - 1))
            exps = {
                n: e
                for n in ("u", "w")
                if (e := draw(st.integers(-2, 2))) != 0
            }
            acc = acc + mono(char, exps, coeff)
        return acc

    return one_element(), one_element(), one_element()


@settings(max_examples=80, deadline=None)
@given(element_triples())
def test_element_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert (a + (-a)).is_zero()


@settings(max_examples=80, deadline=None)
@given(element_triples(), st.integers(0, 4))
def test_inverse_test_matches_the_product(triple, k):
    a, b, c = triple
    p = a.char
    # sums, constants and non-unit coefficients, and true inverses
    pairs = [(a, b), (b, c), (a, FormalElement.constant(p, k)), (a.scale(k), a)]
    if len(a.terms) == 1:
        pairs += [(a.inverse(), a), (a.inverse().scale(k), a), (a.inverse() + b, a)]
    for x, y in pairs:
        assert x.is_inverse_of(y) == (x * y == FormalElement.one(p))
        assert y.is_inverse_of(x) == (x * y == FormalElement.one(p))


@settings(max_examples=80, deadline=None)
@given(element_triples())
def test_frobenius_is_a_ring_map(triple):
    a, b, _ = triple
    p = a.char
    assert (a + b).pow_p() == a.pow_p() + b.pow_p()
    assert (a * b).pow_p() == a.pow_p() * b.pow_p()
    # termwise Frobenius agrees with the p-th power by repeated product
    assert a**p == a.pow_p()


# ------------------------------------------------------------ valuations


def tower3(*variables, constants=(), gens=()):
    return FieldTower(
        GroundField(3, frozenset(constants)), tuple(variables), tuple(gens)
    )


def test_variable_values_innermost_first():
    t = tower3("a1", "a2")
    spec = t.spec()
    assert value_of(mono(3, {"a1": 1}), spec) == V(1, 0)
    assert value_of(mono(3, {"a2": 1}), spec) == V(0, 1)
    assert value_of(mono(3, {"a1": 2, "a2": -1}), spec) == V(2, -1)
    # the outermost coordinate decides the minimum
    e = mono(3, {"a1": -1}) + mono(3, {"a2": -1})
    assert value_of(e, spec) == V(0, -1)


def test_partial_depth_values_and_residues():
    t = tower3("a1", "a2")
    spec = t.spec(1)
    assert spec.active_variables == ("a2",)
    assert value_of(mono(3, {"a1": -5}), spec) == V(0)
    assert value_of(mono(3, {"a1": -5, "a2": 1}), spec) == V(1)
    assert residue_of(mono(3, {"a1": 1}) + mono(3, {"a2": 1}), spec) == mono(
        3, {"a1": 1}
    )
    with pytest.raises(UnsupportedConfiguration):
        residue_of(mono(3, {"a2": -1}), spec)


def test_value_errors():
    t = tower3("u")
    with pytest.raises(ZeroElement):
        value_of(FormalElement.zero(3), t.spec())
    with pytest.raises(UnsupportedConfiguration):
        value_of(mono(3, {"nope": 1}), t.spec())
    with pytest.raises(UnsupportedConfiguration):
        value_of(mono(5, {"u": 1}), t.spec())


def test_tower_name_validation():
    with pytest.raises(UnsupportedConfiguration):
        tower3("u", "u")
    with pytest.raises(UnsupportedConfiguration):
        FieldTower(
            GroundField(3),
            ("u",),
            (ExtensionGenerator("x", ARTIN_SCHREIER, mono(3, {"w": -1}), "ramified"),),
        )
    with pytest.raises(UnsupportedConfiguration):
        tower3("u").generator("x")


@pytest.mark.parametrize("characteristic", [4, 1, 0, 9])
def test_ground_field_rejects_non_prime_characteristic(characteristic):
    with pytest.raises(UnsupportedConfiguration):
        GroundField(characteristic)
    assert GroundField(5).characteristic == 5


# ------------------------------------------------- adjunction and values


def test_adjoin_ramified_artin_schreier():
    t = adjoin(tower3("u"), "x", ARTIN_SCHREIER, mono(3, {"u": -1}))
    gen = t.generator("x")
    assert gen.justification == "ramified"
    spec = t.spec()
    assert generator_value(spec, "x") == V(F(-1, 3))
    assert spec.value_group() == Lattice.diagonal([F(1, 3)])
    assert spec.value_group().index_over(Lattice.integers(1)) == 3


def test_adjoin_rejects_split_and_imprimitive():
    with pytest.raises(UnsupportedConfiguration):
        adjoin(tower3("u"), "x", ARTIN_SCHREIER, mono(3, {"u": 1}))
    with pytest.raises(UnsupportedConfiguration):
        adjoin(tower3("u"), "x", ARTIN_SCHREIER, mono(3, {"u": -3}))
    with pytest.raises(UnsupportedConfiguration):
        adjoin(tower3("u"), "y", PTH_ROOT, mono(3, {"u": 3}))


def test_adjoin_pth_root_values():
    t = adjoin(tower3("u"), "y", PTH_ROOT, mono(3, {"u": 2}))
    assert t.generator("y").justification == "ramified"
    assert generator_value(t.spec(), "y") == V(F(2, 3))


def test_residual_generic_constant_adjunction():
    t = adjoin(tower3("u", constants=("a",)), "w", ARTIN_SCHREIER, mono(3, {"a": 1}))
    assert t.generator("w").justification == "residue-generic"
    assert generator_value(t.spec(), "w") == V(0)
    res = residue_tower(t.spec(1))
    assert res.variables == ()
    assert res.generator("w").rhs == mono(3, {"a": 1})


def test_algebraically_closed_ground_blocks_generic():
    ground = GroundField(3, frozenset({"a"}), algebraically_closed=True)
    t = FieldTower(ground, ("u",))
    with pytest.raises(UnsupportedConfiguration):
        adjoin(t, "w", ARTIN_SCHREIER, mono(3, {"a": 1}))


IN_P_GAMMA = "value of rhs for 'x' lies in p times the value group"
SPLITS = "rhs for 'x' has positive value; the equation splits"
NOT_DEGREE_P = "cannot certify that the residual equation has degree p"


@pytest.mark.parametrize(
    "kind, rhs, constants, closed, outcome",
    [
        (ARTIN_SCHREIER, {"u": -1}, (), False, "ramified"),
        (ARTIN_SCHREIER, {"u": -3}, (), False, IN_P_GAMMA),
        (ARTIN_SCHREIER, {"u": 1}, (), False, SPLITS),
        (ARTIN_SCHREIER, {"a": 1}, ("a",), False, "residue-generic"),
        (ARTIN_SCHREIER, {"a": 1}, ("a",), True, NOT_DEGREE_P),
        (PTH_ROOT, {"u": 2}, (), False, "ramified"),
        (PTH_ROOT, {"u": 3}, (), False, IN_P_GAMMA),
        (PTH_ROOT, {"a": 1}, ("a",), False, "residue-generic"),
        ("kummer", {"u": -1}, (), False, "unknown generator kind 'kummer'"),
    ],
)
def test_adjoin_outcome_is_pinned(kind, rhs, constants, closed, outcome):
    """The justification, or the exact refusal that reports embed, per case."""
    t = FieldTower(GroundField(3, frozenset(constants), closed), ("u",))
    try:
        got = adjoin(t, "x", kind, mono(3, rhs)).generator("x").justification
    except UnsupportedConfiguration as err:
        got = str(err)
    assert got == outcome


def tensor_pair_tower():
    """x and y from the two sides of a tensor product, held formally.

    The pair cannot be certified into one valued field (the second rhs
    value falls into p times the enlarged value group), so the test
    builds the generator list directly.
    """
    gx = ExtensionGenerator("x", ARTIN_SCHREIER, mono(3, {"u": -1}), "ramified")
    gy = ExtensionGenerator("y", PTH_ROOT, mono(3, {"u": 1}), "hypothesis")
    return tower3("u", gens=(gx, gy))


def test_ambiguous_value_of_raw_difference():
    spec = tensor_pair_tower().spec()
    assert generator_value(spec, "x") == value_of(mono(3, {"y": -1}), spec)
    with pytest.raises(AmbiguousValuation):
        value_of(mono(3, {"x": 1}) + mono(3, {"y": -1}, 2), spec)


def test_unit_with_active_part_has_no_formal_residue():
    spec = tensor_pair_tower().spec()
    with pytest.raises(UnsupportedConfiguration):
        residue_of(mono(3, {"x": 1, "y": 1}), spec)


def test_adjoining_the_reciprocal_root_after_is_refused():
    t = adjoin(tower3("u"), "x", ARTIN_SCHREIER, mono(3, {"u": -1}))
    with pytest.raises(UnsupportedConfiguration):
        adjoin(t, "y", PTH_ROOT, mono(3, {"u": 1}))


def test_unreduced_generator_power_is_rejected():
    t = adjoin(tower3("u"), "x", ARTIN_SCHREIER, mono(3, {"u": -1}))
    with pytest.raises(UnsupportedConfiguration):
        value_of(mono(3, {"x": 3}), t.spec())
    with pytest.raises(UnsupportedConfiguration):
        value_of(mono(3, {"x": -3}), t.spec())


def test_residue_tower_recertifies_surviving_generators():
    t = adjoin(tower3("u", "w"), "y", PTH_ROOT, mono(3, {"u": 1}))
    assert t.generator("y").justification == "ramified"
    spec = t.spec(1)
    assert generator_value(spec, "y") == V(0)
    res = residue_tower(spec)
    assert res.variables == ("u",)
    assert res.generator("y").justification == "residue-laurent"
    assert generator_value(res.spec(), "y") == V(F(1, 3))


def test_residue_artin_schreier_of_positive_value_is_not_recertified():
    # x^p - x = u splits over k((u)) by Hensel's lemma, so a positive
    # residual value certifies a p-th root but never an Artin-Schreier root
    gx = ExtensionGenerator("x", ARTIN_SCHREIER, mono(3, {"u": 1}), "ramified")
    with pytest.raises(UnsupportedConfiguration, match="degree p"):
        residue_tower(tower3("u", "w", gens=(gx,)).spec(1))


def test_rebase_pth_root():
    t = adjoin(
        tower3("u", "w"), "g", ARTIN_SCHREIER, mono(3, {"u": -1, "w": -1})
    )
    rebased, mapper = rebase_pth_root(t, "u", "y")
    assert rebased.variables == ("y", "w")
    assert rebased.generator("g").rhs == mono(3, {"y": -3, "w": -1})
    assert mapper(mono(3, {"u": 2, "w": 1})) == mono(3, {"y": 6, "w": 1})
    assert generator_value(rebased.spec(), "g") == V(-1, F(-1, 3))
    with pytest.raises(UnsupportedConfiguration):
        rebase_pth_root(t, "v", "y")


# ------------------------------------------------- trace and norm oracles


def companion_matrix(m: FormalElement, p: int) -> list[list[FormalElement]]:
    """Multiplication by x on the basis 1, x, ..., x^(p-1), x^p = x + m."""
    zero = FormalElement.zero(p)
    one = FormalElement.one(p)
    mat = [[zero for _ in range(p)] for _ in range(p)]
    for c in range(p - 1):
        mat[c + 1][c] = one
    mat[0][p - 1] = m
    mat[1][p - 1] = mat[1][p - 1] + one
    return mat


def mat_mul(a, b, p):
    n = len(a)
    zero = FormalElement.zero(p)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def companion_trace_oracle(m: FormalElement, i: int, p: int) -> FormalElement:
    mat = companion_matrix(m, p)
    acc = [
        [FormalElement.one(p) if r == c else FormalElement.zero(p) for c in range(p)]
        for r in range(p)
    ]
    for _ in range(i):
        acc = mat_mul(acc, mat, p)
    total = FormalElement.zero(p)
    for r in range(p):
        total = total + acc[r][r]
    return total


def leibniz_det(mat, p):
    n = len(mat)
    total = FormalElement.zero(p)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = FormalElement.constant(p, (-1) ** inversions)
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def det_norm_oracle(m, a, b, p):
    mat = companion_matrix(m, p)
    scaled = [
        [
            a * mat[r][c] + (b if r == c else FormalElement.zero(p))
            for c in range(p)
        ]
        for r in range(p)
    ]
    return leibniz_det(scaled, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trace_oracle_matches_companion_matrix(p):
    m = mono(p, {"u": -1})
    for i in range(2 * p + 1):
        assert trace_power_oracle(m, i, p) == companion_trace_oracle(m, i, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_trace_of_small_powers(p):
    m = mono(p, {"u": -1})
    for i in range(p - 1):
        assert trace_power_oracle(m, i, p).is_zero()
    assert trace_power_oracle(m, p - 1, p) == FormalElement.constant(p, -1)
    # Tr(x^p) = Tr(x) + Tr(m) = Tr(x), nonzero only when p - 1 divides 1
    expected = FormalElement.constant(2, 1) if p == 2 else FormalElement.zero(p)
    assert trace_power_oracle(m, p, p) == expected


def test_trace_rejects_negative_power():
    with pytest.raises(UnsupportedConfiguration):
        trace_power_oracle(mono(3, {"u": -1}), -1, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_norm_oracle_matches_determinant(p):
    m = mono(p, {"u": -1})
    cases = [
        (FormalElement.one(p), FormalElement.zero(p)),
        (FormalElement.one(p), mono(p, {"u": 1})),
        (FormalElement.constant(p, p - 1), FormalElement.one(p)),
        (mono(p, {"u": 1}), mono(p, {"u": -1}, p - 1)),
        (FormalElement.zero(p), mono(p, {"u": 2})),
    ]
    for a, b in cases:
        assert norm_element_oracle(m, a, b, p) == det_norm_oracle(m, a, b, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norm_of_the_generator_is_the_rhs(p):
    m = mono(p, {"u": -1}, 2 % p if p > 2 else 1)
    assert norm_element_oracle(m, FormalElement.one(p), FormalElement.zero(p), p) == m


def test_norm_closed_form_and_halving():
    # N(a*x + b) = a^p m + b^p - a^(p-1) b
    p = 3
    m = mono(p, {"d": -1}, 2)
    a = FormalElement.constant(p, 2)
    b = mono(p, {"c": 1})
    closed = (a**p) * m + b**p - (a ** (p - 1)) * b
    assert norm_element_oracle(m, a, b, p) == closed
    # with b = 0 and a = 1/2: N(x/2) = 2^(1-p) * m = d^-1 for m = 2/d
    assert norm_element_oracle(m, a, FormalElement.zero(p), p) == mono(p, {"d": -1})


@settings(max_examples=40, deadline=None)
@given(element_triples())
def test_norm_closed_form_property(triple):
    a, b, _ = triple
    p = a.char
    m = mono(p, {"u": -1})
    closed = (a**p) * m + b**p - (a ** (p - 1)) * b if not a.is_zero() else b**p
    assert norm_element_oracle(m, a, b, p) == closed


# ------------------------------------------------------------ memo tables


@pytest.mark.parametrize(
    "module,fn",
    [
        (towers, towers.value_of),
        (towers, towers.residue_of),
        (towers, towers.residue_tower),
        (towers, towers.generator_value),
        (towers, ValuationSpec.value_group),
        (lattices, Lattice.extended),
        (lattices, Lattice.sum_with),
        (lattices, Lattice.index_over),
        (division, division._symbol_value_data),
        (division, division.symbol_division),
        (division, division._residue_extension_certificate),
    ],
)
def test_memoised_functions_stay_plain_functions(module, fn):
    # a tracer wraps the plain functions a module defines, so a memo must be one
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == module.__name__
    assert fn.__wrapped__.__name__ == fn.__name__


@pytest.mark.parametrize(
    "cls",
    [
        FormalElement, GroundField, ExtensionGenerator, FieldTower, ValuationSpec, SymbolTerm,
        SymbolSum, Lattice, ValueVector,
    ],
)
def test_memo_key_dataclasses_compare_every_field(cls):
    # equal keys must mean equal inputs, and a key must never change
    assert cls.__dataclass_params__.frozen
    assert all(f.compare for f in dataclasses.fields(cls))


def test_equal_inputs_share_one_answer():
    def inputs():
        gx = ExtensionGenerator("x", ARTIN_SCHREIER, mono(3, {"u": -1}), "ramified")
        tower = FieldTower(GroundField(3), ("u", "w"), (gx,))
        return mono(3, {"x": 1, "w": 2}), tower.spec()

    first = value_of(*inputs())
    assert value_of(*inputs()) is first
    assert first == V(F(-1, 3), 2)


def test_failures_are_not_memoised():
    spec = FieldTower(GroundField(2), ("u",)).spec()
    sizes = [len(table) for table in lattices._MEMO_TABLES]
    for _ in range(2):
        with pytest.raises(ZeroElement):
            value_of(FormalElement.zero(2), spec)
    assert [len(table) for table in lattices._MEMO_TABLES] == sizes
    lattices.forget_memos()
    assert not any(lattices._MEMO_TABLES)
