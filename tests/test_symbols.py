"""Normal forms, scalar multiples, and certified rewrite chains."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerval.errors import UnsupportedConfiguration, ZeroElement
from brauerval.symbols import (
    RewriteChain,
    RewriteStep,
    SymbolSum,
    check_rewrite_chain,
    check_rewrite_step,
    normal_form,
    scalar_power,
    symbol,
)
from brauerval.towers import (
    ARTIN_SCHREIER,
    PTH_ROOT,
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    reduce_generator_powers,
)


def mono(names, coeff=1, char=3):
    return FormalElement.monomial(char, names, coeff)


def sym(slot1, slot2, p=3):
    return symbol(p, slot1, slot2)


# ----------------------------------------------------------- normal form


def test_normal_form_collects_slot1_per_atom():
    a, c = mono({"a": 1}), mono({"c": 1})
    s = SymbolSum.of(sym(a, mono({"t": 1})), sym(c, mono({"d": 1, "t": 1})))
    expected = SymbolSum.of(sym(c, mono({"d": 1})), sym(a + c, mono({"t": 1})))
    assert normal_form(s) == normal_form(expected)
    assert normal_form(s) == expected  # already canonical: sorted, collected


def test_normal_form_slot2_product_identity():
    tinv, d = mono({"t": -1}), mono({"d": 1})
    a, c = mono({"a": 1}), mono({"c": 1})
    lhs = SymbolSum.of(sym(tinv, a), sym(d + tinv, c))
    rhs = SymbolSum.of(sym(tinv, a * c), sym(d, c))
    assert normal_form(lhs) == normal_form(rhs)


def test_normal_form_drops_scalars_and_zero_slot1():
    a = mono({"a": 1})
    assert normal_form(SymbolSum.of(sym(a, FormalElement.constant(3, 2)))).is_zero_sum()
    s = SymbolSum.of(sym(a, mono({"d": 1})), sym(-a, mono({"d": 1})))
    assert normal_form(s).is_zero_sum()
    assert normal_form(SymbolSum.zero(3)).is_zero_sum()


def test_normal_form_exponent_folding():
    a = mono({"a": 1})
    assert normal_form(SymbolSum.of(sym(a, mono({"d": 2})))) == normal_form(
        SymbolSum.of(sym(a.scale(2), mono({"d": 1})))
    )
    assert normal_form(SymbolSum.of(sym(a, mono({"d": -1})))) == normal_form(
        SymbolSum.of(sym(-a, mono({"d": 1})))
    )


def test_normal_form_input_validation():
    a = mono({"a": 1})
    with pytest.raises(UnsupportedConfiguration):
        normal_form(SymbolSum.of(sym(a, mono({"d": 1}) + mono({"c": 1}))))
    with pytest.raises(ZeroElement):
        sym(a, FormalElement.zero(3))
    with pytest.raises(UnsupportedConfiguration):
        SymbolSum(3, (symbol(5, mono({"a": 1}, char=5), mono({"d": 1}, char=5)),))


@st.composite
def symbol_sums(draw):
    p = 3
    names = ("a", "c", "d")
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        slot1 = FormalElement.zero(p)
        for n in names:
            coeff = draw(st.integers(0, p - 1))
            if coeff:
                slot1 = slot1 + mono({n: draw(st.integers(-1, 1)) or 1}, coeff)
        if slot1.is_zero():
            slot1 = mono({"a": 1})
        slot2 = mono({draw(st.sampled_from(names)): draw(st.sampled_from([-2, -1, 1, 2]))})
        terms.append(sym(slot1, slot2))
    return SymbolSum.of(*terms)


@settings(max_examples=60, deadline=None)
@given(symbol_sums())
def test_normal_form_is_idempotent_and_additive(s):
    nf = normal_form(s)
    assert normal_form(nf) == nf
    assert normal_form(s + s) == normal_form(nf + nf)
    # p copies of anything vanish
    assert normal_form(s + s + s).is_zero_sum()


@settings(max_examples=60, deadline=None)
@given(symbol_sums())
def test_scalar_power_matches_repeated_sum(s):
    assert normal_form(scalar_power(s, 2)) == normal_form(s + s)
    assert scalar_power(s, 3).is_zero_sum()
    assert normal_form(scalar_power(s, -1) + s).is_zero_sum()


# -------------------------------------------------------- rewrite chains


def laurent_tower(*variables, constants=()):
    return FieldTower(GroundField(3, frozenset(constants)), tuple(variables))


def test_reduce_generator_powers():
    t = adjoin(laurent_tower("u"), "x", ARTIN_SCHREIER, mono({"u": -1}))
    e = mono({"x": 3})
    assert reduce_generator_powers(e, t) == mono({"x": 1}) + mono({"u": -1})
    e2 = mono({"x": 4, "u": 1})
    assert reduce_generator_powers(e2, t) == mono({"x": 2, "u": 1}) + mono({"x": 1})
    ty = adjoin(laurent_tower("u"), "y", PTH_ROOT, mono({"u": 2}))
    assert reduce_generator_powers(mono({"y": 3}), ty) == mono({"u": 2})
    with pytest.raises(UnsupportedConfiguration):
        reduce_generator_powers(mono({"x": -3}), t)


def test_reduce_generator_powers_over_an_artin_schreier_root():
    # x^3 - x = d^-1 over F_3((d))((c))
    t = adjoin(laurent_tower("d", "c"), "x", ARTIN_SCHREIER, mono({"d": -1}))
    for e in (mono({"x": -3}), mono({"x": -3}) + mono({"x": 3})):
        with pytest.raises(UnsupportedConfiguration) as err:
            reduce_generator_powers(e, t)
        assert str(err.value) == "power x^-3 cannot be reduced to monomials"
    got = reduce_generator_powers(mono({"c": 1, "x": 4}), t)
    assert got == mono({"c": 1, "d": -1, "x": 1}) + mono({"c": 1, "x": 2})


def test_full_chain_slot1_split_norm_shift():
    """[1/c, 1/d) dies over the field extended by a root of its slot1 shift.

    Split off [2/d, 1/d), remove it as the norm of X/2, negate, then
    shift the remaining slot1 away with the adjoined root.
    """
    cinv, dinv = mono({"c": -1}), mono({"d": -1})
    base = laurent_tower("d", "c")
    ell = adjoin(base, "xL", ARTIN_SCHREIER, dinv.scale(2) - cinv)
    start = SymbolSum.of(sym(cinv, dinv))
    s1 = SymbolSum.of(sym(cinv - dinv.scale(2), dinv), sym(dinv.scale(2), dinv))
    s2 = SymbolSum.of(sym(cinv - dinv.scale(2), dinv))
    s3 = SymbolSum.of(sym(dinv.scale(2) - cinv, mono({"d": 1})))
    s4 = SymbolSum.of(sym(FormalElement.zero(3), mono({"d": 1})))
    steps = (
        RewriteStep("slot1-add", start, s1),
        RewriteStep(
            "slot2-norm", s1, s2, target_index=1,
            witness=mono({"X": 1}, 2),
        ),
        RewriteStep("negate", s2, s3, target_index=0),
        RewriteStep("as-shift", s3, s4, target_index=0, witness=mono({"xL": 1}, 2)),
        RewriteStep("slot1-add", s4, SymbolSum.zero(3)),
    )
    chain = RewriteChain(ell, start, steps)
    assert check_rewrite_chain(chain).is_zero_sum()


def test_full_chain_self_slot_and_declared_root():
    """[1/d, c) dies once a p-th root of d^2/c is declared."""
    dinv, c = mono({"d": -1}), mono({"c": 1})
    tower = adjoin(
        laurent_tower("d", "c"), "w", PTH_ROOT, mono({"d": 2, "c": -1})
    )
    start = SymbolSum.of(sym(dinv, c))
    s1 = SymbolSum.of(sym(dinv, mono({"c": 1, "d": -2})), sym(dinv, mono({"d": 2})))
    s2 = SymbolSum.of(sym(dinv, mono({"c": 1, "d": -2})))
    s3 = SymbolSum.of(sym(-dinv, mono({"c": -1, "d": 2})))
    steps = (
        RewriteStep("slot2-mult", start, s1),
        RewriteStep("slot2-self", s1, s2, target_index=1),
        RewriteStep("negate", s2, s3, target_index=0),
        RewriteStep("slot2-pthpower", s3, SymbolSum.zero(3), target_index=0),
    )
    assert check_rewrite_chain(RewriteChain(tower, start, steps)).is_zero_sum()


def test_chain_rejects_mismatched_links():
    a = mono({"a": 1})
    tower = laurent_tower("d", "c", constants=("a",))
    start = SymbolSum.of(sym(a, mono({"d": 1})))
    other = SymbolSum.of(sym(a, mono({"c": 1})))
    step = RewriteStep("slot1-add", other, other)
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_chain(RewriteChain(tower, start, (step,)))


def test_slot1_add_rejects_unequal_normal_forms():
    a = mono({"a": 1})
    tower = laurent_tower("d", constants=("a",))
    before = SymbolSum.of(sym(a, mono({"d": 1})))
    after = SymbolSum.of(sym(a.scale(2), mono({"d": 1})))
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(RewriteStep("slot1-add", before, after), tower)


def test_as_shift_validation():
    tower = adjoin(laurent_tower("d", "c"), "xL", ARTIN_SCHREIER, mono({"d": -1}))
    before = SymbolSum.of(sym(mono({"d": -1}), mono({"c": 1})))
    good_after = SymbolSum.of(sym(FormalElement.zero(3), mono({"c": 1})))
    check_rewrite_step(
        RewriteStep("as-shift", before, good_after, witness=mono({"xL": 1}, 2)),
        tower,
    )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("as-shift", before, good_after, witness=mono({"xL": 1})),
            tower,
        )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("as-shift", before, good_after, witness=mono({"zz": 1})),
            tower,
        )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(RewriteStep("as-shift", before, good_after), tower)


def test_slot2_norm_validation():
    tower = laurent_tower("d", "c")
    m = mono({"d": -1}, 2)
    before = SymbolSum.of(sym(m, mono({"d": -1})))
    after = SymbolSum.zero(3)
    # N(2X) = 2^3 * m = 2m = 4/d... = d^-1: matches the removed slot2
    check_rewrite_step(
        RewriteStep("slot2-norm", before, after, witness=mono({"X": 1}, 2)), tower
    )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("slot2-norm", before, after, witness=mono({"X": 1})), tower
        )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("slot2-norm", before, after, witness=mono({"X": 2})), tower
        )


def test_slot2_pthpower_validation():
    tower = adjoin(laurent_tower("d", "c"), "w", PTH_ROOT, mono({"d": 2, "c": -1}))
    a = mono({"d": -1})
    ok = SymbolSum.of(sym(a, mono({"d": 2, "c": -1})))
    check_rewrite_step(
        RewriteStep("slot2-pthpower", ok, SymbolSum.zero(3)), tower
    )
    # d^6 c^-3 = (d^2 c^-1)^3 is a cube on the nose
    cube = SymbolSum.of(sym(a, mono({"d": 6, "c": -3})))
    check_rewrite_step(
        RewriteStep("slot2-pthpower", cube, SymbolSum.zero(3)), tower
    )
    bad = SymbolSum.of(sym(a, mono({"d": 1})))
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("slot2-pthpower", bad, SymbolSum.zero(3)), tower
        )


def test_slot2_factor_rules_preserve_slot1():
    tower = adjoin(laurent_tower("d", "c"), "w", PTH_ROOT, mono({"d": 2, "c": -1}))
    before = SymbolSum.of(sym(mono({"d": -1}), mono({"d": 2, "c": 1})))
    after = SymbolSum.of(sym(mono({"d": -1}, 2), mono({"c": 1})))
    steps = (
        RewriteStep("slot2-norm", before, after, witness=mono({"X": 1})),
        RewriteStep("slot2-pthpower", before, after),
    )
    for step in steps:
        with pytest.raises(UnsupportedConfiguration) as err:
            check_rewrite_step(step, tower)
        assert str(err.value) == "slot1 must be preserved by slot2 factor rules"


def test_slot2_self_validation():
    tower = laurent_tower("d", "c")
    ok = SymbolSum.of(sym(mono({"d": -1}), mono({"d": 2}, 2)))
    check_rewrite_step(RewriteStep("slot2-self", ok, SymbolSum.zero(3)), tower)
    bad = SymbolSum.of(sym(mono({"d": -1}), mono({"d": 2, "c": 1})))
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(RewriteStep("slot2-self", bad, SymbolSum.zero(3)), tower)
    frac = SymbolSum.of(sym(mono({"d": -2}), mono({"d": 1})))
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(RewriteStep("slot2-self", frac, SymbolSum.zero(3)), tower)


def test_rules_only_touch_the_target():
    tower = laurent_tower("d", "c")
    keep = sym(mono({"c": -1}), mono({"c": 1}))
    t = sym(mono({"d": -1}), mono({"d": 1}))
    before = SymbolSum.of(t, keep)
    tampered = SymbolSum.of(
        sym(-mono({"d": -1}), mono({"d": -1})), sym(mono({"c": -1}), mono({"c": 2}))
    )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("negate", before, tampered, target_index=0), tower
        )
    with pytest.raises(UnsupportedConfiguration):
        check_rewrite_step(
            RewriteStep("negate", before, SymbolSum.of(t, keep), target_index=5),
            tower,
        )


def test_unknown_rule_rejected():
    with pytest.raises(UnsupportedConfiguration):
        RewriteStep("slot3-magic", SymbolSum.zero(3), SymbolSum.zero(3))
