"""Division-certificate checks, cross-checked against brute enumeration."""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerval import division
from brauerval.division import (
    CERTIFIED,
    NOT_CERTIFIED,
    REFUTED,
    AlgebraValueData,
    SymbolValueData,
    algebra_value_data,
    chain_division,
    class_representative,
    excluded_trace_class,
    independence_division,
    morandi_step,
    peel_depths,
    symbol_division,
    trace_profile,
    trace_zero_value_classes,
)
from brauerval.errors import NonContainment, UnsupportedConfiguration
from brauerval.lattices import Lattice, ValueVector
from brauerval.report import encode
from brauerval.symbols import SymbolSum, symbol
from brauerval.towers import (
    ARTIN_SCHREIER,
    PTH_ROOT,
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    generator_value,
    trace_power_oracle,
)
from brauerval.verify import (
    VERIFIED,
    build_family,
    shared_value_window,
    standard_tower,
    verify_no_common_splitting,
)


def tower(p: int, *variables: str, constants: tuple[str, ...] = ()) -> FieldTower:
    return FieldTower(
        GroundField(characteristic=p, constants=frozenset(constants)),
        variables,
    )


def mono(p: int, spec_: dict[str, int]) -> FormalElement:
    return FormalElement.monomial(p, spec_)


def word(p: int, *slot_pairs: tuple[dict[str, int], dict[str, int]]) -> SymbolSum:
    terms = [symbol(p, mono(p, a), mono(p, b)) for a, b in slot_pairs]
    return SymbolSum.of(*terms)


# ----------------------------------------------------------------- oracles
# Independent class census: for a base group of Z^d the class of a vector
# is just its coordinates mod 1, no lattice solving involved.


def box_classes_oracle(values: list[ValueVector], p: int) -> set[tuple[Fraction, ...]]:
    classes = set()
    for exps in itertools.product(range(p), repeat=len(values)):
        total = ValueVector.zero(values[0].dim)
        for e, v in zip(exps, values):
            total = total + v.scale(e)
        classes.add(tuple(c % 1 for c in total.coords))
    return classes


def trace_zero_oracle(
    word_values: list[tuple[ValueVector, ValueVector]], p: int
) -> set[tuple[Fraction, ...]]:
    """Classes of x^s y^t monomials minus the all-(p-1) x-power class."""
    flat = [v for pair in word_values for v in pair]
    classes = box_classes_oracle(flat, p)
    banned = ValueVector.zero(flat[0].dim)
    for vx, _ in word_values:
        banned = banned + vx.scale(p - 1)
    classes.discard(tuple(c % 1 for c in banned.coords))
    return classes


def as_key(classes: frozenset[ValueVector]) -> set[tuple[Fraction, ...]]:
    return {tuple(c % 1 for c in rep.coords) for rep in classes}


def own_group(data: AlgebraValueData) -> Lattice:
    """H = base + <natural values>: the window that bounds one member's
    census by nothing beyond the member itself."""
    return data.base_group.extended(data.natural_values())


def member_box_classes(
    data: AlgebraValueData, window: Lattice | None = None
) -> frozenset[ValueVector]:
    """One member's trace-zero classes from its full monomial box.

    Sums the natural values over every exponent tuple below p, keeps the
    canonical representatives that lie in the window, and drops the
    member's excluded class: the census as it was before the lattice meet.
    """
    p = data.degree
    values = data.natural_values()
    classes = set()
    for exps in itertools.product(range(p), repeat=len(values)):
        vec = ValueVector.zero(data.depth)
        for e, v in zip(exps, values):
            vec = vec + v.scale(e)
        rep = class_representative(data.base_group, vec)
        if window is None or window.contains(rep):
            classes.add(rep)
    classes.discard(excluded_trace_class(data))
    return frozenset(classes)


# ------------------------------------------------------------- value data


class TestValueData:
    def test_single_symbol_values(self):
        t = tower(3, "u", "w")
        data = algebra_value_data(word(3, ({"u": -1}, {"w": 1})), t)
        f = data.factors[0]
        assert f.slot1_value == ValueVector.of(-1, 0)
        assert f.as_value == ValueVector.of(Fraction(-1, 3), 0)
        assert f.root_value == ValueVector.of(0, Fraction(1, 3))
        assert not f.slot1_residual and not f.slot2_residual
        assert data.pairs == ()
        assert data.value_group == Lattice.diagonal([Fraction(1, 3), Fraction(1, 3)])

    def test_reciprocal_pair_refines_group(self):
        t = tower(3, "u", "w")
        data = algebra_value_data(
            word(3, ({"w": -1}, {"u": 1}), ({"u": -1}, {"w": 1})), t
        )
        # both cross pairs are reciprocal, so both composites appear
        assert data.pairs == ((0, 1), (1, 0))
        assert data.value_group == Lattice.diagonal([Fraction(1, 9), Fraction(1, 9)])
        assert data.ram_index == 81
        assert data.ram_index == data.dim

    def test_single_reciprocal_pair(self):
        t = tower(3, "u", "w")
        data = algebra_value_data(
            word(3, ({"w": -1}, {"u": 1}), ({"u": -1}, {"w": 2})), t
        )
        assert data.pairs == ((1, 0),)
        assert data.value_group == Lattice.diagonal([Fraction(1, 9), Fraction(1, 3)])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composite_value_matches_tower_oracle(self, p):
        # z = x_0 - 1/y_1 solves z^p - z = 1/y_1 with y_1^p = u, so the
        # refined value of x_0 is that of t, t^p - t = y^-1, in F(y)
        base = tower(p, "u", "w")
        data = algebra_value_data(
            word(p, ({"u": -1}, {"w": 1}), ({"w": -1}, {"u": 1})), base
        )
        assert data.pairs == ((0, 1), (1, 0))
        ext = adjoin(base, "y", PTH_ROOT, mono(p, {"u": 1}))
        ext = adjoin(ext, "t", ARTIN_SCHREIER, mono(p, {"y": -1}))
        expected = generator_value(ext.spec(), "t")
        assert expected == ValueVector.of(Fraction(-1, p * p), 0)
        assert data.refined_values[0] == expected
        assert data.value_group == Lattice.integers(2).extended(data.refined_values)

    def test_positive_slot1_rejected(self):
        t = tower(3, "u")
        with pytest.raises(UnsupportedConfiguration):
            algebra_value_data(word(3, ({"u": 1}, {"u": 1})), t)

    def test_residual_flags(self):
        t = tower(2, "u", "w", constants=("a",))
        data = algebra_value_data(word(2, ({"a": 1}, {"w": 1})), t)
        f = data.factors[0]
        assert f.slot1_residual and f.as_value.is_zero()
        assert not f.slot2_residual

    def test_partial_depth_uses_outer_coordinates(self):
        t = tower(2, "u", "w")
        data = algebra_value_data(word(2, ({"u": -1}, {"w": 1})), t, depth=1)
        f = data.factors[0]
        assert f.slot1_residual  # u is inactive at depth 1
        assert f.root_value == ValueVector.of(Fraction(1, 2))


class TestIndependence:
    def test_single_symbol_totally_ramified(self):
        t = tower(2, "a1", "a2")
        data = algebra_value_data(word(2, ({"a2": -1}, {"a1": 1})), t)
        cert = independence_division(data)
        assert cert.ok
        assert cert.get("distinct_classes") == 4
        assert cert.get("totally_ramified") is True
        assert data.value_group == Lattice.diagonal([Fraction(1, 2), Fraction(1, 2)])

    def test_matches_oracle_on_collisions(self):
        t = tower(3, "u", "w")
        data = algebra_value_data(
            word(3, ({"u": -1}, {"w": 1}), ({"u": -1}, {"w": 1})), t
        )
        cert = independence_division(data)
        oracle = box_classes_oracle(data.refined_values, 3)
        assert cert.get("distinct_classes") == len(oracle)
        assert not cert.ok

    def test_refined_basis_classes_match_oracle(self):
        t = tower(2, "a1", "a2", "a3")
        data = algebra_value_data(
            word(2, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1})), t
        )
        cert = independence_division(data)
        oracle = box_classes_oracle(data.refined_values, 2)
        assert cert.get("distinct_classes") == len(oracle) == 16
        assert cert.ok


class TestMemberValueGroups:
    """Frozen value groups of the two-factor members over three variables."""

    def test_a_member_32(self):
        t = tower(2, "a1", "a2", "a3")
        data = algebra_value_data(
            word(2, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1})), t
        )
        assert data.value_group == Lattice.diagonal(
            [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)]
        )
        assert data.ram_index == 16
        assert data.ram_index == data.dim

    def test_a_member_33(self):
        t = tower(3, "a1", "a2", "a3")
        data = algebra_value_data(
            word(3, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1})), t
        )
        assert data.value_group == Lattice.diagonal(
            [Fraction(1, 9), Fraction(1, 3), Fraction(1, 3)]
        )
        assert data.ram_index == 81
        assert data.ram_index == data.dim

    def test_b_member_32_first_family(self):
        t = tower(2, "a1", "a2", "a3")
        data = algebra_value_data(
            word(2, ({"a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1})), t
        )
        assert data.value_group == Lattice.diagonal(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)]
        )
        assert data.ram_index == data.dim

    def test_b_member_32_second_family(self):
        t = tower(2, "a1", "a2", "a3")
        data = algebra_value_data(
            word(2, ({"a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1})), t
        )
        assert data.value_group == Lattice.diagonal(
            [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)]
        )
        assert data.ram_index == data.dim


# -------------------------------------------------------- division routes


class TestSymbolRoutes:
    def test_value_independence_route(self):
        t = tower(2, "a1", "a2")
        cert = symbol_division(symbol(2, mono(2, {"a2": -1}), mono(2, {"a1": 1})), t)
        assert cert.ok
        assert cert.get("route") == "value-independence"
        assert cert.get("ramification_index") == 4

    def test_semiramified_route(self):
        t = tower(3, "u", constants=("a",))
        cert = symbol_division(symbol(3, mono(3, {"a": 1}), mono(3, {"u": 1})), t)
        assert cert.ok
        assert cert.get("route") == "semiramified"
        assert cert.get("ramification_index") == 3
        assert cert.get("residue_degree") == 3
        leaf = cert.find("residue-extension")
        assert leaf is not None and leaf.get("justification") == "residue-generic"

    def test_semiramified_root_side(self):
        t = tower(3, "u", constants=("b",))
        cert = symbol_division(symbol(3, mono(3, {"u": -1}), mono(3, {"b": 1})), t)
        assert cert.ok
        assert cert.get("route") == "semiramified"

    def test_hensel_split_refuted(self):
        t = tower(2, "a1", "a2")
        cert = symbol_division(symbol(2, mono(2, {"a1": 1}), mono(2, {"a2": 1})), t)
        assert cert.status == REFUTED
        assert cert.get("route") == "hensel-split"

    def test_zero_slot1_refuted(self):
        t = tower(3, "u")
        cert = symbol_division(symbol(3, FormalElement.zero(3), mono(3, {"u": 1})), t)
        assert cert.status == REFUTED
        assert cert.get("route") == "hensel-split"

    def test_inertial_descends_to_residue_tower(self):
        t = tower(2, "a1", "a2", "a3")
        cert = symbol_division(
            symbol(2, mono(2, {"a2": -1}), mono(2, {"a1": 1})), t, depth=1
        )
        assert cert.ok
        assert cert.get("route") == "inertial"
        inner = cert.children[0]
        assert inner.get("route") == "value-independence"

    def test_inertial_hypothesis_toggle(self):
        t = tower(3, "u", constants=("a", "b"))
        term = symbol(3, mono(3, {"a": 1}), mono(3, {"b": 1}))
        assert symbol_division(term, t, residue_hypothesis="division").ok
        assert symbol_division(term, t, residue_hypothesis="split").status == REFUTED
        assert symbol_division(term, t).status == NOT_CERTIFIED

    def test_inertial_trivial_class_refuted(self):
        t = tower(3, "u", constants=("a",))
        term = symbol(3, mono(3, {"a": 1}), FormalElement.constant(3, 2))
        cert = symbol_division(term, t, residue_hypothesis="division")
        assert cert.status == REFUTED


class TestResidueOverExtension:
    # A peel whose left factor keeps a residual slot while the right
    # factor is fully residual pushes the right symbol into the residue
    # field extension cut out by that slot.

    def peel(self, left, right, hyp, depth=1, p=3, variables=("t",), constants=("a", "c", "d")):
        t = tower(p, *variables, constants=constants)
        d_word = SymbolSum.of(left)
        d_cert = symbol_division(left, t, depth)
        assert d_cert.ok
        return morandi_step(t, depth, d_word, right, d_cert, hyp)

    def test_artin_schreier_extension_toggle(self):
        left = symbol(3, mono(3, {"a": 1}) + mono(3, {"c": 1}), mono(3, {"t": 1}))
        right = symbol(3, mono(3, {"c": 1}), mono(3, {"d": 1}))
        for hyp, peel_status, tensor_status in (
            ("division", CERTIFIED, CERTIFIED),
            ("split", NOT_CERTIFIED, REFUTED),
            (None, NOT_CERTIFIED, NOT_CERTIFIED),
        ):
            cert = self.peel(left, right, hyp)
            tensor = cert.find("residue-tensor")
            assert cert.status == peel_status
            assert tensor.status == tensor_status
            assert tensor.get("shape") == "residue-symbol-over-extension"
            assert tensor.get("extension_kind") == "artin-schreier"

    def test_root_extension_with_composite_rhs(self):
        left = symbol(3, mono(3, {"t": -1}), mono(3, {"a": 1, "c": 1}))
        right = symbol(3, mono(3, {"d": 1}), mono(3, {"c": 1}))
        cert = self.peel(left, right, "division")
        tensor = cert.find("residue-tensor")
        assert cert.ok
        assert tensor.get("shape") == "residue-symbol-over-extension"
        assert tensor.get("extension_kind") == "pth-root"

    def test_trace_obstruction_needs_no_hypothesis(self):
        for p in (3, 5):
            left = symbol(p, mono(p, {"d": -1}), mono(p, {"t": 1}))
            right = symbol(p, mono(p, {"c": -1}), mono(p, {"d": -1}))
            cert = self.peel(
                left, right, None, p=p, variables=("d", "c", "t"), constants=()
            )
            tensor = cert.find("residue-tensor")
            assert cert.ok
            assert tensor.get("justification") == "trace-value-obstruction"
            w = Fraction(p - 1, p)
            assert tensor.get("algebra_trace_value") == ValueVector.of(Fraction(0), w)
            assert tensor.get("field_trace_value") == ValueVector.of(w, Fraction(0))
            assert tensor.get("field_trace_value") < tensor.get("algebra_trace_value")


class TestPinnedResidueRoutes:
    # No benchmark scenario reaches these routes: the hypothesis verdicts
    # without a hypothesis, the residue-symbol shape and both
    # residue-field shapes.  Each certificate is pinned by the sha256 of
    # its json encoding, so any change to its tree shows here.
    DIGESTS = {
        ("symbol [a, c)", None):
            "40bd79521eff50396a07037d7793ac15178d27a3af84d3062bfd35d6bc662c1a",
        ("symbol [a, c)", "division"):
            "a38f52ee0350edbe1d2e06a8df5b0521d01444c03c70aa6b54f12afddfbcd161",
        ("symbol [a, c)", "split"):
            "f1f114c0c87837401a596c0b6fc620e4eec70c5d825077284c6aa2a0ef8fd7c4",
        ("peel [a + c, t) [c, d)", None):
            "ee5ecf12b07c11bb9bd75cec8664e2ac945d8732adf6fcf3f6163688da162d97",
        ("peel [a + c, t) [c, d)", "division"):
            "105474764ca332b37bff2d51dcf1bd5cc63b8db6b688eeb6db17a046395a6543",
        ("peel [a + c, t) [c, d)", "split"):
            "f3e8d7364cdf6a079f8f4c790bab0bbb8eaafff44f07bce3d1cf63ee34b98e4e",
        ("peel [t^-1, u) [a, c)", None):
            "4f1279183457e6ca0656ac4c39b5ab22f0b6eb5bca18eb7b3523ece977b077cc",
        ("peel [t^-1, u) [a, c)", "division"):
            "ef2501338c9843d7b22f5382af16870b78d1a9a235e5dbfaa62aa74cfb0fb9d2",
        ("peel [t^-1, u) [a, c)", "split"):
            "66f7acbac32828e067b6765e5f0f1835f4f7e531d14a8469009bad4825d5cdb6",
        ("peel [t^-1, u) [a, t)", None):
            "1cb494302892602e379f97def001a5d53a565e8f8e6e68f8ad6d91a62caa40cc",
        ("peel [t^-1, u) [t^-1, a)", None):
            "f47606ff0444e63944317a36105f91585cb11aef3f24bddb9d5c8651f07aca6e",
        ("peel [a, t) [u^-1, t)", None):
            "798e466a4c39291ef3a784df0200ea3d4daff5f23779fa887caa5a5412ff5d6f",
    }
    SHAPES = {
        "symbol [a, c)": None,
        "peel [a + c, t) [c, d)": "residue-symbol-over-extension",
        "peel [t^-1, u) [a, c)": "residue-symbol",
        "peel [t^-1, u) [a, t)": "residue-field",
        "peel [t^-1, u) [t^-1, a)": "residue-field",
        "peel [a, t) [u^-1, t)": "residue-field",
    }

    @staticmethod
    def certificate(case: str, hyp: str | None):
        flat = tower(3, "t", constants=("a", "c", "d"))
        nested = tower(3, "u", "t", constants=("a", "c"))
        a, c, d, t, u = (mono(3, {n: 1}) for n in "acdtu")
        t_inv, u_inv = mono(3, {"t": -1}), mono(3, {"u": -1})
        if case == "symbol [a, c)":
            return symbol_division(symbol(3, a, c), flat, None, hyp)
        left, right = {
            "peel [a + c, t) [c, d)": ((a + c, t), (c, d)),
            "peel [t^-1, u) [a, c)": ((t_inv, u), (a, c)),
            "peel [t^-1, u) [a, t)": ((t_inv, u), (a, t)),
            "peel [t^-1, u) [t^-1, a)": ((t_inv, u), (t_inv, a)),
            "peel [a, t) [u^-1, t)": ((a, t), (u_inv, t)),
        }[case]
        # F_3{a,c,d}((t)) at depth 1, or F_3{a,c}((u))((t)) at depth 2
        over, depth = (flat, 1) if case == "peel [a + c, t) [c, d)" else (nested, 2)
        d_term = symbol(3, *left)
        d_cert = symbol_division(d_term, over, depth)
        return morandi_step(over, depth, SymbolSum.of(d_term), symbol(3, *right), d_cert, hyp)

    @pytest.mark.parametrize("case, hyp", list(DIGESTS))
    def test_residue_route_reports_are_pinned(self, case, hyp):
        cert = self.certificate(case, hyp)
        tensor = cert.find("residue-tensor")
        assert (tensor and tensor.get("shape")) == self.SHAPES[case]
        digest = hashlib.sha256(json.dumps(encode(cert)).encode()).hexdigest()
        assert digest == self.DIGESTS[case, hyp]

    @pytest.mark.parametrize("case", ["symbol [a, c)", "peel [a + c, t) [c, d)"])
    def test_a_misspelt_hypothesis_is_refused(self, case):
        with pytest.raises(UnsupportedConfiguration, match="'Division'"):
            self.certificate(case, "Division")

    def test_a_misspelt_hypothesis_is_refused_by_the_chain(self):
        flat = tower(3, "t", constants=("a", "c", "d"))
        for w in (word(3, ({"a": 1}, {"c": 1})), word(3, ({"t": 1}, {"a": 1}), ({"c": 1}, {"d": 1}))):
            with pytest.raises(UnsupportedConfiguration, match="'Division'"):
                chain_division(w, flat, "Division")


class TestPeeling:
    def test_peel_depths_inner_then_outer(self):
        t = tower(2, "a1", "a2", "a3")
        e = symbol(2, mono(2, {"a2": -1}), mono(2, {"a1": 1}))
        assert peel_depths(e, t) == [2, 1]
        e2 = symbol(2, mono(2, {"a1": -1}), mono(2, {"a3": 1}))
        assert peel_depths(e2, t) == [2]

    def test_a_member_chain_32(self):
        t = tower(2, "a1", "a2", "a3")
        w = word(2, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1}))
        cert = chain_division(w, t)
        assert cert.ok
        assert cert.get("peel_depth") == 2
        peel = cert.find("peel")
        assert peel.get("left_ramification_index") == 2  # p^(2n-5)
        assert peel.get("left_residue_degree") == 2
        assert peel.find("residue-tensor").get("shape") == "composite-field"

    def test_a_member_chain_33(self):
        t = tower(3, "a1", "a2", "a3")
        w = word(3, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1}))
        cert = chain_division(w, t)
        assert cert.ok
        peel = cert.find("peel")
        assert peel.get("left_ramification_index") == 3
        assert peel.get("left_residue_degree") == 3

    def test_b_first_family_uses_outer_drop(self):
        t = tower(2, "a1", "a2", "a3")
        w = word(2, ({"a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1}))
        cert = chain_division(w, t)
        assert cert.ok
        assert cert.get("peel_depth") == 1
        peel = cert.find("peel")
        assert peel.find("residue-tensor").get("shape") == "rebase-shift-independence"

    def test_b_second_family_uses_inner_drop(self):
        t = tower(2, "a1", "a2", "a3")
        w = word(2, ({"a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1}))
        cert = chain_division(w, t)
        assert cert.ok
        assert cert.get("peel_depth") == 2
        peel = cert.find("peel")
        assert peel.find("residue-tensor").get("shape") == "composite-field"

    def test_all_members_32_division(self):
        t = tower(2, "a1", "a2", "a3")
        members = members_32()
        for name, w in members:
            cert = chain_division(w, t)
            assert cert.ok, name
            peel = cert.find("peel")
            assert peel.get("left_ramification_index") == 2, name
            assert peel.get("left_residue_degree") == 2, name

    def test_reciprocal_word_over_two_variables_not_certified(self):
        t = tower(2, "a1", "a2")
        w = word(2, ({"a2": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1}))
        cert = chain_division(w, t)
        assert cert.status == NOT_CERTIFIED

    def test_morandi_step_records_conditions(self):
        t = tower(2, "a1", "a2", "a3")
        d_word = word(2, ({"a3": -1}, {"a1": 1}))
        e = symbol(2, mono(2, {"a1": -1}), mono(2, {"a2": 1}))
        d_cert = chain_division(d_word, t)
        step = morandi_step(t, 2, d_word, e, d_cert)
        assert step.ok
        names = list(step.get("conditions"))
        assert names == [
            "left-division",
            "left-defectless",
            "right-division",
            "value-groups-meet-in-base",
            "residue-tensor-division",
        ]


    def test_value_groups_meeting_above_the_base_block_the_peel(self):
        # both factors ramify a3 with index 2, so the groups share v(x) = (0, -1/2)
        t = tower(2, "a1", "a2", "a3")
        d_word = word(2, ({"a3": -1}, {"a1": 1}))
        e = symbol(2, mono(2, {"a3": -1}), mono(2, {"a2": 1}))
        step = morandi_step(t, 2, d_word, e, chain_division(d_word, t))
        conditions = step.get("conditions")
        assert conditions.pop("value-groups-meet-in-base") is False
        assert all(conditions.values())
        assert step.status == NOT_CERTIFIED
        meet = step.get("left_value_group").intersect(step.get("right_value_group"))
        assert meet == Lattice.diagonal([Fraction(1), Fraction(1, 2)])
        assert chain_division(SymbolSum.of(*d_word.terms, e), t).status == NOT_CERTIFIED


def members_32() -> list[tuple[str, SymbolSum]]:
    """The seven two-factor members over three variables at p = 2."""
    return [
        ("A2", word(2, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1}))),
        ("B001", word(2, ({"a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1}))),
        ("B101", word(2, ({"a1": -1, "a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1}))),
        ("B011", word(2, ({"a2": -1, "a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1}))),
        (
            "B111",
            word(
                2,
                ({"a1": -1, "a2": -1, "a3": -1}, {"a2": 1}),
                ({"a2": -1}, {"a1": 1}),
            ),
        ),
        ("B010", word(2, ({"a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1}))),
        ("B110", word(2, ({"a1": -1, "a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1}))),
    ]


# ------------------------------------------------------ trace-zero classes


class TestTraceZeroClasses:
    def test_single_symbol_classes_frozen(self):
        t = tower(2, "a1", "a2")
        data = algebra_value_data(word(2, ({"a2": -1}, {"a1": 1})), t)
        classes = trace_zero_value_classes([data], own_group(data))
        assert as_key(classes) == {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        }
        assert excluded_trace_class(data) == ValueVector.of(0, Fraction(1, 2))

    def test_classes_match_oracle(self):
        t = tower(2, "a1", "a2", "a3")
        data = algebra_value_data(
            word(2, ({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1})), t
        )
        pairs = [(f.as_value, f.root_value) for f in data.factors]
        classes = trace_zero_value_classes([data], own_group(data))
        assert as_key(classes) == trace_zero_oracle(pairs, 2)

    def test_excluded_classes_32_frozen(self):
        t = tower(2, "a1", "a2", "a3")
        half = Fraction(1, 2)
        expected = {
            "A2": ValueVector.of(half, 0, half),
            "B001": ValueVector.of(0, half, half),
            "B101": ValueVector.of(half, half, half),
            "B011": ValueVector.of(0, 0, half),
            "B111": ValueVector.of(half, 0, half),
            "B010": ValueVector.of(half, half, 0),
            "B110": ValueVector.of(0, half, 0),
        }
        for name, w in members_32():
            data = algebra_value_data(w, t)
            assert excluded_trace_class(data) == expected[name], name

    def test_common_classes_32_frozen(self):
        t = tower(2, "a1", "a2", "a3")
        window = Lattice.diagonal([Fraction(1, 2)] * 3)
        members = [algebra_value_data(w, t) for _, w in members_32()]
        common = trace_zero_value_classes(members, window)
        assert as_key(common) == {
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0), Fraction(0)),
        }

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (4, 2), (3, 3)])
    def test_meet_matches_member_boxes(self, n, p):
        t = standard_tower(n, p)
        window = shared_value_window(n, p)
        members = [
            algebra_value_data(m.word, t)
            for m in build_family(n, p)
            if m.kind == "twist"
        ]
        expected = frozenset.intersection(
            *(member_box_classes(data, window) for data in members)
        )
        assert trace_zero_value_classes(members, window) == expected

    def test_order_p_squared_value_rejected(self):
        p = 3
        base = Lattice.integers(2)
        slot1 = ValueVector.of(-1, 0)
        factor = SymbolValueData(
            term=symbol(p, mono(p, {"u": -1}), mono(p, {"w": 1})),
            slot1_value=slot1,
            as_value=slot1 / (p * p),
            root_value=ValueVector.of(0, Fraction(1, p)),
            slot1_residual=False,
            slot2_residual=False,
        )
        data = AlgebraValueData(
            degree=p,
            depth=2,
            factors=(factor,),
            pairs=(),
            base_group=base,
            refined_values=(factor.as_value, factor.root_value),
            value_group=Lattice.diagonal([Fraction(1, p * p), Fraction(1, p)]),
        )
        assert base.order_of_class(data.natural_values()[0]) == p * p
        with pytest.raises(UnsupportedConfiguration, match="order"):
            trace_zero_value_classes([data], own_group(data))

    def test_work_bound_counts_the_census_box(self, monkeypatch):
        # the census walks the [meet : base] box, not any member's p^(2k) monomials
        n, p = 5, 2
        t = standard_tower(n, p)
        window = shared_value_window(n, p)
        members = [
            algebra_value_data(m.word, t)
            for m in build_family(n, p)
            if m.kind == "twist"
        ]
        base = members[0].base_group
        meet = window
        for data in members:
            meet = meet.intersect(base.extended(data.natural_values()))
        box = meet.index_over(base)
        assert box < 255 < max(data.dim for data in members) == 256
        expected = trace_zero_value_classes(members, window)
        for bound in (255, box):
            monkeypatch.setattr(division, "MAX_CLASS_WORK", bound)
            assert trace_zero_value_classes(members, window) == expected
        assert verify_no_common_splitting(n, p).result == VERIFIED
        monkeypatch.setattr(division, "MAX_CLASS_WORK", box - 1)
        with pytest.raises(UnsupportedConfiguration, match="work bound"):
            trace_zero_value_classes(members, window)

    def test_window_must_contain_base(self):
        t = tower(2, "a1", "a2")
        data = algebra_value_data(word(2, ({"a2": -1}, {"a1": 1})), t)
        with pytest.raises(NonContainment):
            trace_zero_value_classes([data], Lattice.diagonal([2, 1]))


# -------------------------------------------------------- trace invariants


class TestTraceProfile:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_inner_variable_profile(self, p):
        t = tower(p, "d", "c")
        rhs = mono(p, {"d": -1})
        profile = trace_profile(t, rhs)
        expected = ValueVector.of(Fraction(p - 1, p), 0)
        assert profile.minimum == expected
        assert profile.closed_form == expected
        # traces of the first p-2 powers vanish identically
        assert all(trace_power_oracle(rhs, i, p).is_zero() for i in range(1, p - 1))

    @pytest.mark.parametrize("p", [3, 5])
    def test_outer_variable_profile_dominates(self, p):
        t = tower(p, "d", "c")
        inner = trace_profile(t, mono(p, {"d": -1}))
        outer = trace_profile(t, mono(p, {"c": -1}))
        assert outer.minimum == ValueVector.of(0, Fraction(p - 1, p))
        assert outer.minimum > inner.minimum

    def test_requires_ramified_generator(self):
        t = tower(3, "d", "c", constants=("a",))
        with pytest.raises(UnsupportedConfiguration):
            trace_profile(t, mono(3, {"a": 1}))


# ------------------------------------------------------------- properties


small_exp = st.integers(min_value=-2, max_value=2)


@st.composite
def ramified_words(draw):
    p = draw(st.sampled_from([2, 3]))
    names = ["u", "w"]
    k = draw(st.integers(min_value=1, max_value=2))
    pairs = []
    for _ in range(k):
        e1 = {n: draw(small_exp) for n in names}
        e2 = {n: draw(small_exp) for n in names}
        if all(v == 0 for v in e1.values()) or all(v == 0 for v in e2.values()):
            e1["u"] = -1
            e2["w"] = 1
        pairs.append((e1, e2))
    return p, pairs


@given(ramified_words())
@settings(max_examples=60, deadline=None)
def test_independence_counts_match_oracle(case):
    p, pairs = case
    t = tower(p, "u", "w")
    try:
        data = algebra_value_data(word(p, *pairs), t)
    except UnsupportedConfiguration:
        return
    cert = independence_division(data)
    oracle = box_classes_oracle(data.refined_values, p)
    assert cert.get("distinct_classes") == len(oracle)
    assert cert.ok == (len(oracle) == data.dim)
    if cert.ok:
        assert data.value_group.index_over(data.base_group) == data.dim


@given(ramified_words())
@settings(max_examples=40, deadline=None)
def test_trace_zero_classes_match_oracle(case):
    p, pairs = case
    t = tower(p, "u", "w")
    try:
        data = algebra_value_data(word(p, *pairs), t)
    except UnsupportedConfiguration:
        return
    pair_values = [(f.as_value, f.root_value) for f in data.factors]
    oracle = trace_zero_oracle(pair_values, p)
    assert as_key(trace_zero_value_classes([data], own_group(data))) == oracle
    window = Lattice.diagonal([Fraction(1, p)] * 2)
    in_window = {key for key in oracle if all((c * p).denominator == 1 for c in key)}
    assert as_key(trace_zero_value_classes([data], window)) == in_window
    # natural values lie in (1/p)Z^2, so only a smaller window cuts classes
    window = Lattice.diagonal([Fraction(1, p), 1])
    in_window = {key for key in oracle if key[1] == 0}
    assert as_key(trace_zero_value_classes([data], window)) == in_window
