"""Verifier-level checks: frozen quantities, negative controls, determinism."""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction

import pytest

import brauerval.verify as verify_mod
from brauerval.errors import EnumerationBound, UnsupportedConfiguration
from brauerval import division
from brauerval.division import (
    CERTIFIED,
    AlgebraValueData,
    algebra_value_data,
    chain_division,
    trace_zero_value_classes,
)
from brauerval.lattices import Lattice, ValueVector, enumerate_overlattices, forget_memos
from brauerval.symbols import SymbolSum, symbol
from brauerval.towers import FormalElement
from brauerval.verify import (
    INCONCLUSIVE,
    NOT_CERTIFIED,
    REFUTED,
    VERIFIED,
    build_family,
    family_size_formula,
    standard_tower,
    verify_char_not_p,
    verify_count_identities,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_prop71,
    verify_shift_lemma,
    verify_value_groups,
)
from record_samples import fields, replaced
from report_oracle import encode


def mono(p, spec_):
    return FormalElement.monomial(p, spec_)


def brute_family_size(n: int, p: int) -> int:
    twists = sum(
        1
        for d in itertools.product(range(p), repeat=n)
        if d[-2:] != (0,) * 2
    )
    return (n - 2) + twists


def char_not_p_oracle(n: int, p: int) -> dict:
    """The char-not-p payload read on the Lattice side, by brute force.

    Each e_k is written in the Hermite basis of L and reduced mod p.  The
    rank is log_p of the size of their F_p-span, counted over every
    combination; the witness pair is the first (k, l) with a 2x2 minor
    that is nonzero mod p; the index is [L : Z^n].
    """
    zn = Lattice.integers(n)
    units = [ValueVector(row) for row in zn.rows]

    def read(lat: Lattice) -> tuple[int, tuple[int, int] | None]:
        coords = []
        for e in units:
            nums, m = lat.scaled_coords(e)
            assert not any(a % m for a in nums), f"{e} is not in {lat}"
            coords.append([a // m % p for a in nums])
        span = {
            tuple(sum(a * row[j] for a, row in zip(comb, coords)) % p for j in range(n))
            for comb in itertools.product(range(p), repeat=n)
        }
        rank = next(r for r in range(n + 1) if p**r == len(span))
        pair = next(
            (
                (k + 1, l + 1)
                for k, l in itertools.combinations(range(n), 2)
                if any(
                    (coords[k][i] * coords[l][j] - coords[k][j] * coords[l][i]) % p
                    for i, j in itertools.combinations(range(n), 2)
                )
            ),
            None,
        )
        return rank, pair

    ranks, witnesses = [], []
    for lat, _ in enumerate_overlattices(n, p, n - 2):
        rank, pair = read(lat)
        ranks.append(rank)
        if rank >= 2 and pair is not None:
            witnesses.append((lat.index_over(zn), pair))
    upper_rank, upper_pair = read(Lattice.diagonal([Fraction(1, p)] * (n - 1) + [1]))
    return {
        "min_unit_rank": min(ranks),
        "wedge_witnesses": tuple(witnesses),
        "upper_unit_rank": upper_rank,
        "upper_wedges_vanish": upper_pair is None,
    }


class TestFamily:
    @pytest.mark.parametrize(
        "n,p,size", [(3, 2, 7), (2, 3, 8), (3, 3, 25), (4, 2, 14), (4, 3, 74)]
    )
    def test_sizes(self, n, p, size):
        fam = build_family(n, p)
        assert len(fam) == size
        assert len(fam) == brute_family_size(n, p)
        assert len(fam) == family_size_formula(n, p)

    def test_member_words_32(self):
        # hand-expanded words, written independently of the builder
        p = 2
        expected = {
            "A2": [({"a3": -1}, {"a1": 1}), ({"a1": -1}, {"a2": 1})],
            "B001": [({"a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1})],
            "B010": [({"a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1})],
            "B011": [({"a2": -1, "a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1})],
            "B101": [({"a1": -1, "a3": -1}, {"a2": 1}), ({"a2": -1}, {"a1": 1})],
            "B110": [({"a1": -1, "a2": -1}, {"a1": 1}), ({"a1": -1}, {"a3": 1})],
            "B111": [
                ({"a1": -1, "a2": -1, "a3": -1}, {"a2": 1}),
                ({"a2": -1}, {"a1": 1}),
            ],
        }
        fam = build_family(3, p)
        assert [m.name for m in fam] == sorted(expected)
        for m in fam:
            want = SymbolSum.of(
                *(symbol(p, mono(p, s1), mono(p, s2)) for s1, s2 in expected[m.name])
            )
            assert m.word == want, m.name

    def test_first_shift_member_stays_in_twist_list(self):
        fam = build_family(3, 5)
        b001 = next(m for m in fam if m.name == "B001")
        assert b001.word == verify_mod._shift_word(3, 5, 1)
        assert all(m.kind == "shift" for m in fam if m.name.startswith("A"))

    def test_two_variable_family_is_all_twists(self):
        fam = build_family(2, 3)
        assert all(m.kind == "twist" for m in fam)
        assert all(len(m.word.terms) == 1 for m in fam)

    def test_rejects_bad_parameters(self):
        with pytest.raises(UnsupportedConfiguration):
            build_family(1, 3)
        with pytest.raises(UnsupportedConfiguration):
            build_family(3, 4)


class TestShiftLemma:
    @pytest.mark.parametrize(
        "n,p,i", [(3, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 3), (2, 3, 1)]
    )
    def test_verified(self, n, p, i):
        v = verify_shift_lemma(n, p, i)
        assert v.result == VERIFIED
        if n >= 3:
            assert v.get("left_ramification_index") == p ** (2 * n - 5)
            assert v.get("left_residue_degree") == p
        else:
            assert v.get("ramification_index") == p * p

    def test_rejects_out_of_range_index(self):
        with pytest.raises(UnsupportedConfiguration):
            verify_shift_lemma(3, 2, 3)
        with pytest.raises(UnsupportedConfiguration):
            verify_shift_lemma(2, 3, 2)


class TestValueGroups:
    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2), (4, 3), (2, 3)])
    def test_verified(self, n, p):
        v = verify_value_groups(n, p)
        assert v.result == VERIFIED
        assert v.get("intersection") == Lattice.diagonal([Fraction(1, p)] * n)

    def test_member_groups_listed(self):
        v = verify_value_groups(3, 2)
        rows = dict(v.get("members"))
        group, expected, match = rows["A2"]
        assert match and group == expected
        assert group == Lattice.diagonal([Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])

    def test_tampered_expectation_refutes(self, monkeypatch):
        def tampered(n, p, i):
            return Lattice.diagonal([Fraction(1, p**3)] * n)

        monkeypatch.setattr(verify_mod, "_shift_group_expected", tampered)
        assert verify_value_groups(3, 2).result == REFUTED


class TestNoCommonSplitting:
    @pytest.mark.parametrize(
        "n,p,count,result",
        [
            (2, 2, 1, INCONCLUSIVE),
            (2, 3, 1, VERIFIED),
            (3, 2, 2, VERIFIED),
            (3, 3, 3, VERIFIED),
            (4, 2, 4, VERIFIED),
        ],
    )
    def test_allowed_counts(self, n, p, count, result):
        v = verify_no_common_splitting(n, p)
        assert v.result == result
        assert v.get("allowed_count") == count == p ** (n - 2)
        assert v.get("needed_for_common_field") == p ** (n - 1) - 1
        assert all(status == "certified" for status in v.get("member_status").values())

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3), (5, 2)])
    def test_member_certificates_are_the_same_cold_and_warm(self, n, p):
        # memoised answers shared between members must not change any tree
        tower = standard_tower(n, p)
        words = [m.word for m in build_family(n, p)]
        cold = []
        for w in words:
            forget_memos()
            cold.append(encode(chain_division(w, tower)))
        forget_memos()
        warm = [encode(chain_division(w, tower)) for w in words]
        assert warm == cold

    @pytest.mark.parametrize("n,p", [(4, 2), (3, 3), (5, 2)])
    def test_member_value_data_is_the_same_cold_and_warm(self, n, p):
        # lattice answers memoised for one member must not change another's value data
        tower = standard_tower(n, p)
        words = [m.word for m in build_family(n, p)]

        def profile(w):
            data = algebra_value_data(w, tower)
            return data.value_group, data.ram_index

        cold = []
        for w in words:
            forget_memos()
            cold.append(profile(w))
        forget_memos()
        for w in words:
            chain_division(w, tower)
        assert [profile(w) for w in words] == cold

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 3), (5, 2)])
    def test_equal_link_symbols_are_one_object(self, n, p):
        # every term but a twist member's head is a link [1/a_k, a_j), built once per
        # task, so memo keys holding equal links compare by identity
        links = [
            t for m in build_family(n, p)
            for t in (m.word.terms if m.kind == "shift" else m.word.terms[1:])
        ]
        assert len({id(t) for t in links}) == len(set(links)) < len(links)

    def test_member_certificates_are_dropped_before_the_census(self, monkeypatch):
        class StandIn:
            status, ok = CERTIFIED, True

        live = weakref.WeakSet()
        seen = []

        def certify(word, tower, *args):
            cert = StandIn()
            live.add(cert)
            return cert

        def census(members, window):
            seen.append(len(live))
            return trace_zero_value_classes(members, window)

        monkeypatch.setattr(verify_mod, "chain_division", certify)
        monkeypatch.setattr(verify_mod, "trace_zero_value_classes", census)
        v = verify_no_common_splitting(4, 2)
        assert (v.result, v.get("allowed_count"), v.get("family_size")) == (VERIFIED, 4, 14)
        assert seen == [0]

    def test_a_failed_member_under_a_shared_name_is_not_certified(self, monkeypatch):
        # at p = 11 the twists (1,0,10) and (10,1,0) were both named B1010, and
        # member_status kept one status; the first fails, and the verdict and the
        # report must both see it beside the second's
        by_word = {m.word: m for m in build_family(3, 11)}
        first, second = (by_word[verify_mod._twist_word(3, 11, d)] for d in [(1, 0, 10), (10, 1, 0)])
        certified = division.Certificate("chain", division.CERTIFIED, {})
        failed = division.Certificate("chain", division.NOT_CERTIFIED, {})
        monkeypatch.setattr(
            verify_mod,
            "chain_division",
            lambda word, tower, *args: failed if word == first.word else certified,
        )
        window = Lattice.diagonal([Fraction(1, 11)] * 3)
        monkeypatch.setattr(verify_mod, "shared_value_window", lambda tower: window)
        monkeypatch.setattr(verify_mod, "trace_zero_value_classes", lambda members, w: frozenset())
        v = verify_no_common_splitting(3, 11)
        assert (first.name, second.name) == ("B010010", "B100100")
        status = v.get("member_status")
        assert (status[first.name], status[second.name]) == (
            division.NOT_CERTIFIED, division.CERTIFIED
        )
        assert v.result == NOT_CERTIFIED

    @pytest.mark.parametrize("n,p", [(3, 11), (2, 13)])
    def test_members_have_distinct_names(self, n, p):
        names = [m.name for m in build_family(n, p)]
        assert len(set(names)) == len(names) == family_size_formula(n, p)

    def test_the_census_holds_one_twist_value_data_at_a_time(self, monkeypatch):
        # a twist's value data is built when the census asks for it; while the
        # next is built, the census may still hold the one it just folded
        class Tracked(AlgebraValueData):
            pass

        live = weakref.WeakSet()
        seen = []

        def value_data(*args):
            data = algebra_value_data(*args)
            data = Tracked(*fields(data))
            live.add(data)
            return data

        def census(members, window):
            def watched():
                for data in members:
                    seen.append(len(live))
                    yield data

            return trace_zero_value_classes(watched(), window)

        monkeypatch.setattr(verify_mod, "algebra_value_data", value_data)
        monkeypatch.setattr(verify_mod, "trace_zero_value_classes", census)
        v = verify_no_common_splitting(4, 2)
        assert (v.result, v.get("allowed_count")) == (VERIFIED, 4)
        assert len(seen) == 12 and max(seen) <= 2

    @pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (3, 3)])
    def test_the_census_builds_no_refined_value_group(self, monkeypatch, n, p):
        # the census reads natural values only, as coordinates mod p: no twist's
        # value data is asked for its refined values or the group they generate,
        # and no lattice is grown per twist, at most one to meet the window
        twists, read, refined_read, grown, in_census = [], [], [], [], []
        group, refined, extended = (
            AlgebraValueData.value_group, AlgebraValueData.refined_values, Lattice.extended
        )

        def census(members, window):
            def kept():
                for data in members:
                    twists.append(data)
                    yield data

            in_census.append(True)
            try:
                return trace_zero_value_classes(kept(), window)
            finally:
                in_census.clear()

        def reading(data):
            read.append(data)
            return group.func(data)

        def refining(data):
            refined_read.append(data)
            return refined.func(data)

        def growing(lattice, values):
            if in_census:
                grown.append(values)
            return extended(lattice, values)

        monkeypatch.setattr(verify_mod, "trace_zero_value_classes", census)
        monkeypatch.setattr(AlgebraValueData, "value_group", property(reading))
        monkeypatch.setattr(AlgebraValueData, "refined_values", property(refining))
        monkeypatch.setattr(Lattice, "extended", growing)
        v = verify_no_common_splitting(n, p)
        assert v.result == VERIFIED
        assert len(twists) == p**n - p ** (n - 2)
        # member certification and the window read groups and refined values
        assert read and refined_read
        twist_ids = {id(data) for data in twists}
        assert twist_ids.isdisjoint(id(data) for data in read)
        assert twist_ids.isdisjoint(id(data) for data in refined_read)
        assert len(grown) <= 1
        # reciprocal slot pairs make most twists' refined values differ from their
        # natural values, so reading them would have paired slots
        paired = {refined.func(data) for data in twists} - {
            data.natural_values() for data in twists
        }
        assert len(paired) > len(twists) // 2

    def test_allowed_classes_32_frozen(self):
        v = verify_no_common_splitting(3, 2)
        assert v.get("allowed_classes") == (
            ValueVector.of(0, 0, 0),
            ValueVector.of(Fraction(1, 2), 0, 0),
        )
        assert v.get("window") == Lattice.diagonal([Fraction(1, 2)] * 3)


class TestCountIdentities:
    def test_default_ranges(self):
        v = verify_count_identities()
        assert v.result == VERIFIED
        assert v.get("strict_failures") == ((2, 2),)
        rows = dict((k, (lhs, ident, strict)) for k, lhs, ident, strict in v.get("rows"))
        assert rows[(3, 2)] == (2, True, True)
        assert rows[(2, 2)] == (1, True, False)
        assert all(type(lhs) is int for _, lhs, _, _ in v.get("rows"))


class TestCharNotP:
    @pytest.mark.parametrize(
        "n,p,lattices", [(2, 3, 1), (3, 2, 8), (3, 3, 14), (4, 2, 171)]
    )
    def test_verified(self, n, p, lattices):
        v = verify_char_not_p(n, p)
        assert v.result == VERIFIED
        assert v.get("lattice_count") == lattices
        assert v.get("min_unit_rank") >= 2
        assert v.get("upper_unit_rank") <= 1
        assert v.get("upper_wedges_vanish")

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3)])
    def test_matches_lattice_side_oracle(self, n, p):
        v = verify_char_not_p(n, p)
        want = char_not_p_oracle(n, p)
        assert {key: v.get(key) for key in want} == want

    def test_enumeration_bound_propagates(self):
        with pytest.raises(EnumerationBound) as raised:
            verify_char_not_p(4, 2, max_work=2)
        assert raised.value.payload == {"budget": "max-work", "max_work": 2, "estimated_work": 171}
        # the budget is inclusive: (3, 2) has exactly 8 overlattices
        assert verify_char_not_p(3, 2, max_work=8).result == VERIFIED

    def test_budget_is_checked_before_any_lattice_is_built(self, monkeypatch):
        def refuse(cls, *args):
            raise AssertionError("a lattice was built before the budget check")

        # every lattice, the enumerator's included, ends in this constructor
        monkeypatch.setattr(Lattice, "_from_triangular", classmethod(refuse))
        # closed-form count at (5, 3) is 936,904 overlattices
        with pytest.raises(EnumerationBound) as raised:
            verify_char_not_p(5, 3, max_work=10**5)
        assert raised.value.payload["estimated_work"] == 936904
        assert raised.value.payload["max_work"] == 10**5


class TestProp71:
    @pytest.mark.parametrize("variant,p", [(1, 3), (1, 5), (2, 3), (2, 5)])
    def test_both_toggles(self, variant, p):
        v = verify_prop71(variant, p)
        assert v.result == VERIFIED
        assert v.get("normal_form_identity")
        assert v.get("division_toggle") == "certified"
        assert v.get("split_toggle") == "refuted"

    def test_extensions_frozen(self):
        p = 3
        a, c = FormalElement.symbol(p, "a"), FormalElement.symbol(p, "c")
        v1 = verify_prop71(1, p)
        assert v1.get("extension_kind") == "artin-schreier"
        assert v1.get("extension_rhs") == a + c
        v2 = verify_prop71(2, p)
        assert v2.get("extension_kind") == "pth-root"
        assert v2.get("extension_rhs") == a * c

    def test_rejects_even_characteristic(self):
        with pytest.raises(UnsupportedConfiguration):
            verify_prop71(1, 2)
        with pytest.raises(UnsupportedConfiguration):
            verify_prop71(3, 3)


class TestLemma72:
    @pytest.mark.parametrize("p", [3, 5])
    def test_trace_values(self, p):
        v = verify_lemma72(1, p)
        w = Fraction(p - 1, p)
        assert v.result == VERIFIED
        assert v.get("algebra_trace_value") == ValueVector.of(0, w)
        assert v.get("field_trace_value") == ValueVector.of(w, 0)
        assert v.get("field_trace_value") < v.get("algebra_trace_value")
        assert v.get("conclusion") == "NotSubfield"

    @pytest.mark.parametrize("p", [3, 5])
    def test_rebase_part(self, p):
        v = verify_lemma72(2, p)
        assert v.result == VERIFIED
        assert v.get("division_route") == "value-independence"
        assert v.get("value_group") == Lattice.diagonal([Fraction(1, p)] * 2)
        assert v.get("conclusion") == "NotSubfield"


class TestExample73:
    @pytest.mark.parametrize("part,p", [(1, 3), (1, 5), (2, 3), (2, 5)])
    def test_trio(self, part, p):
        v = verify_example73(part, p)
        assert v.result == VERIFIED
        assert v.get("division_decomposition")
        assert v.get("scalar_relation")
        assert v.get("tensor_non_division")
        assert v.get("chain_proves_zero")
        assert v.get("pair_first_third") == "NoCommonMaximalSubfield"
        assert v.get("pair_second_third") == "NoCommonMaximalSubfield"

    def test_residue_mechanisms_differ_by_part(self):
        v1 = verify_example73(1, 3)
        assert v1.get("division_residue_shape") == "residue-symbol-over-extension"
        assert v1.get("chain_steps") == (
            "slot1-add",
            "slot2-norm",
            "negate",
            "as-shift",
            "slot1-add",
        )
        v2 = verify_example73(2, 3)
        assert v2.get("division_residue_shape") == "rebase-shift-independence"
        assert v2.get("chain_steps") == (
            "slot2-mult",
            "slot2-self",
            "negate",
            "slot2-pthpower",
        )

    def test_tampered_chain_is_not_certified(self, monkeypatch):
        real = verify_mod._vanishing_chain_shift

        def tampered(p):
            chain = real(p)
            bad = replaced(chain.steps[1], witness=FormalElement.symbol(p, "X", 1, 1))
            return replaced(chain, steps=chain.steps[:1] + (bad,) + chain.steps[2:])

        monkeypatch.setattr(verify_mod, "_vanishing_chain_shift", tampered)
        v = verify_example73(1, 3)
        assert v.result == NOT_CERTIFIED
        assert not v.get("chain_proves_zero")


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_count_identities(),
        lambda: verify_shift_lemma(3, 2, 2),
        lambda: verify_value_groups(3, 3),
        lambda: verify_no_common_splitting(3, 2),
        lambda: verify_char_not_p(3, 2),
        lambda: verify_prop71(2, 3),
        lambda: verify_lemma72(1, 3),
        lambda: verify_example73(2, 3),
    ],
)
def test_verifiers_are_deterministic(run):
    assert run() == run()
