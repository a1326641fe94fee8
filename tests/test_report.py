"""Rendering: stable json bytes, faithful text trees, file output."""

from __future__ import annotations

import json
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brauerval import report
from brauerval.cli import main
from brauerval.division import Certificate
from brauerval.lattices import Lattice, ValueVector
from brauerval.report import (
    ENGINE_VERSION,
    SCHEMA,
    render_json,
    render_text,
    emit_report,
)
from brauerval.symbols import SymbolSum, symbol
from brauerval.towers import FormalElement
from brauerval.verify import (
    Verdict,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_value_groups,
)
from report_oracle import oracle_json


def rendered(value: object) -> object:
    """value as json.loads reads it back from a rendered report's payload."""
    verdict = Verdict("probe", "Verified", payload={"value": value})
    return json.loads(render_json(verdict))["payload"]["value"]


class TestEncode:
    def test_fractions_become_strings(self):
        assert rendered(Fraction(1, 2)) == "1/2"
        assert rendered(Fraction(0)) == "0"
        assert rendered(Fraction(-3, 4)) == "-3/4"

    def test_value_vector_is_a_list_of_fraction_strings(self):
        assert rendered(ValueVector.of(0, Fraction(1, 2))) == ["0", "1/2"]

    def test_lattice_carries_denominator_and_rows(self):
        enc = rendered(Lattice.diagonal([Fraction(1, 2), Fraction(1, 3)]))
        assert enc == {"denominator": 6, "rows": [[3, 0], [0, 2]]}
        assert list(enc) == ["denominator", "rows"]

    def test_dicts_become_objects_in_insertion_order(self):
        enc = rendered({"beta": (1, 2), "alpha": {"z": 1, "a": 2}})
        assert enc == {"beta": [1, 2], "alpha": {"z": 1, "a": 2}}
        assert list(enc) == ["beta", "alpha"]
        assert list(enc["alpha"]) == ["z", "a"]

    def test_string_keyed_pair_tuples_stay_lists(self):
        enc = rendered((("alpha", 1), ("beta", (1, 2))))
        assert enc == [["alpha", 1], ["beta", [1, 2]]]

    def test_other_tuples_stay_lists(self):
        assert rendered(((1, "a"), (2, "b"))) == [[1, "a"], [2, "b"]]

    def test_unknown_leaf_types_are_refused(self):
        for value in (1.5, {1, 2}, object()):
            with pytest.raises(TypeError, match="cannot encode"):
                rendered(value)

    def test_non_string_keys_are_refused(self):
        with pytest.raises(TypeError):
            rendered({1: "one"})


# leaves a report can hold; small integers beside booleans make equal
# values of different types (True == 1) likely at the same position
NAMES = st.text(alphabet='ab"\\\x00\x1f\x7f\u00e9\u2028\U0001f600 /', max_size=6)
ELEMENTS = st.sampled_from(
    [
        FormalElement.symbol(3, "t", -1),
        FormalElement.symbol(5, "a", 2, 4) + FormalElement.symbol(5, "c"),
        symbol(3, FormalElement.symbol(3, "a"), FormalElement.symbol(3, "t")),
        SymbolSum.of(symbol(2, FormalElement.symbol(2, "x", -1), FormalElement.symbol(2, "y"))),
    ]
)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
VECTORS = st.builds(
    ValueVector.canonical,
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.integers(1, 6),
)
LATTICES = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6), min_size=1, max_size=3
).map(Lattice.diagonal)
BITS = st.integers(0, 1) | st.booleans()
PAIRS = st.tuples(BITS, BITS | FRACTIONS | st.tuples(BITS, BITS))
LEAVES = (
    st.lists(PAIRS, max_size=6).map(tuple)
    | st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.integers()
    | NAMES
    | FRACTIONS
    | VECTORS
    | LATTICES
    | ELEMENTS
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(NAMES, children, max_size=4)
    )


PAYLOADS = st.recursive(LEAVES, _containers, max_leaves=24)
CERTIFICATES = st.recursive(
    st.builds(Certificate, NAMES, NAMES, st.dictionaries(NAMES, PAYLOADS, max_size=3)),
    lambda children: st.builds(
        Certificate,
        NAMES,
        NAMES,
        st.dictionaries(NAMES, PAYLOADS, max_size=3),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=4,
)
VERDICTS = st.builds(
    Verdict,
    NAMES,
    st.sampled_from(["Verified", "Refuted", "Inconclusive", "NotCertified"]),
    st.dictionaries(NAMES, PAYLOADS, max_size=3),
    st.dictionaries(NAMES, PAYLOADS, max_size=4),
    st.lists(CERTIFICATES, max_size=2).map(tuple),
)


class TestOracle:
    """render_json writes exactly the bytes of the old encode-then-dump path."""

    @settings(max_examples=150, deadline=None)
    @given(VERDICTS)
    @example(Verdict("t", "Verified", payload={"a": (), "b": [], "c": {}, "d": ""}))
    def test_writer_bytes_equal_the_oracle(self, verdict):
        assert render_json(verdict) == oracle_json(verdict)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((True, 2), (1, 2)),
            ((1, 2), (True, 2)),
            ((1, (True, 2)), (1, (1, 2))),
            ((1, (1, 2)), (1, (True, 2))),
            ((1, (Fraction(1), 2)), (1, (1, 2))),
            ((1, 2), (Fraction(1), 2)),
            ((0, ("x",)), (False, ("x",))),
        ],
    )
    def test_equal_tuples_of_other_types_do_not_share_text(self, first, second):
        # each pair compares and hashes equal, but renders differently
        assert first == second and hash(first) == hash(second)
        payload = {"first": first, "again": first, "second": second, "nested": [second, first]}
        verdict = Verdict("t", "Verified", payload=payload)
        assert render_json(verdict) == oracle_json(verdict)


class TestJson:
    def test_double_render_is_byte_identical(self):
        one = render_json(verify_value_groups(3, 2))
        two = render_json(verify_value_groups(3, 2))
        assert one == two

    def test_round_trips_through_json_loads(self):
        parsed = json.loads(render_json(verify_lemma72(1, 3)))
        assert parsed["schema"] == SCHEMA
        assert parsed["engine_version"] == ENGINE_VERSION
        assert parsed["result"] == "Verified"
        assert parsed["exit_code"] == 0
        assert parsed["parameters"] == {"part": 1, "p": 3}

    def test_top_level_key_order_is_fixed(self):
        parsed = json.loads(render_json(verify_lemma72(2, 3)))
        assert list(parsed) == [
            "schema",
            "engine_version",
            "task",
            "parameters",
            "result",
            "exit_code",
            "payload",
            "certificates",
            "timing",
        ]

    def test_timing_is_always_null_in_json(self):
        parsed = json.loads(emit_report(verify_lemma72(1, 3), "json", timing=1.5))
        assert parsed["timing"] is None

    def test_certificates_nest_their_children(self):
        parsed = json.loads(render_json(verify_example73(1, 3)))
        certs = parsed["certificates"]
        assert certs, "expected at least one certificate"
        top = certs[0]
        assert {"rule", "status", "payload", "children"} <= set(top)

    def test_allowed_classes_encode_as_coordinate_strings(self):
        parsed = json.loads(render_json(verify_no_common_splitting(3, 2)))
        assert parsed["payload"]["allowed_classes"] == [
            ["0", "0", "0"],
            ["1/2", "0", "0"],
        ]


class TestText:
    def test_text_shows_result_and_payload(self):
        text = render_text(verify_lemma72(1, 3))
        assert "result: Verified" in text
        assert "conclusion: NotSubfield" in text

    def test_text_indents_certificate_children(self):
        text = render_text(verify_value_groups(3, 2))
        assert "task: value-groups" in text

    def test_timing_only_when_given(self):
        with_timing = render_text(verify_lemma72(1, 3), timing=0.25)
        without = render_text(verify_lemma72(1, 3))
        assert "timing: 0.250s" in with_timing
        assert "timing" not in without


class TestEmit:
    def test_out_file_and_stdout_get_the_same_bytes(self, tmp_path, capsys):
        # char-not-p reports repeat their witness pairs, so the cache is used
        argv = ["char-not-p", "--n", "4", "--p", "2", "--format", "json"]
        target = tmp_path / "report.json"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode("utf-8")

    def test_writes_the_rendered_report(self, tmp_path):
        target = tmp_path / "report.json"
        rendered = emit_report(verify_lemma72(1, 3), "json", str(target))
        assert target.read_text() == rendered
        assert json.loads(rendered)["task"] == "lemma72"

    def test_rejects_unknown_formats(self):
        with pytest.raises(ValueError):
            emit_report(verify_lemma72(1, 3), "yaml")


def test_public_functions_are_the_three_renderers():
    # perfbench's tracer wraps every public function of the module, so a
    # public helper would add a traced call per value written
    public = {
        name
        for name, obj in vars(report).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == report.__name__
        and not name.startswith("_")
    }
    assert public == {"render_json", "render_text", "emit_report"}
