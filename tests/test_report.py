"""Rendering: stable json bytes, faithful text trees, file output."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from brauerval.lattices import Lattice, ValueVector
from brauerval.report import (
    ENGINE_VERSION,
    SCHEMA,
    Report,
    encode,
    render_json,
    render_text,
    emit_report,
)
from brauerval.verify import (
    Verdict,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_value_groups,
)


class TestEncode:
    def test_fractions_become_strings(self):
        assert encode(Fraction(1, 2)) == "1/2"
        assert encode(Fraction(0)) == "0"
        assert encode(Fraction(-3, 4)) == "-3/4"

    def test_value_vector_is_a_list_of_fraction_strings(self):
        assert encode(ValueVector.of(0, Fraction(1, 2))) == ["0", "1/2"]

    def test_lattice_carries_denominator_and_rows(self):
        enc = encode(Lattice.diagonal([Fraction(1, 2), Fraction(1, 3)]))
        assert enc == {"denominator": 6, "rows": [[3, 0], [0, 2]]}

    def test_dicts_become_objects_in_insertion_order(self):
        enc = encode({"beta": (1, 2), "alpha": {"z": 1, "a": 2}})
        assert enc == {"beta": [1, 2], "alpha": {"z": 1, "a": 2}}
        assert list(enc) == ["beta", "alpha"]
        assert list(enc["alpha"]) == ["z", "a"]

    def test_string_keyed_pair_tuples_stay_lists(self):
        enc = encode((("alpha", 1), ("beta", (1, 2))))
        assert enc == [["alpha", 1], ["beta", [1, 2]]]

    def test_other_tuples_stay_lists(self):
        assert encode(((1, "a"), (2, "b"))) == [[1, "a"], [2, "b"]]


class TestJson:
    def test_double_render_is_byte_identical(self):
        one = render_json(Report(verify_value_groups(3, 2)))
        two = render_json(Report(verify_value_groups(3, 2)))
        assert one == two

    def test_round_trips_through_json_loads(self):
        parsed = json.loads(render_json(Report(verify_lemma72(1, 3))))
        assert parsed["schema"] == SCHEMA
        assert parsed["engine_version"] == ENGINE_VERSION
        assert parsed["result"] == "Verified"
        assert parsed["exit_code"] == 0
        assert parsed["parameters"] == {"part": 1, "p": 3}

    def test_top_level_key_order_is_fixed(self):
        parsed = json.loads(render_json(Report(verify_lemma72(2, 3))))
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
        parsed = json.loads(render_json(Report(verify_lemma72(1, 3), timing=1.5)))
        assert parsed["timing"] is None

    def test_certificates_nest_their_children(self):
        parsed = json.loads(render_json(Report(verify_example73(1, 3))))
        certs = parsed["certificates"]
        assert certs, "expected at least one certificate"
        top = certs[0]
        assert {"rule", "status", "payload", "children"} <= set(top)

    def test_allowed_classes_encode_as_coordinate_strings(self):
        parsed = json.loads(render_json(Report(verify_no_common_splitting(3, 2))))
        assert parsed["payload"]["allowed_classes"] == [
            ["0", "0", "0"],
            ["1/2", "0", "0"],
        ]


class TestText:
    def test_text_shows_result_and_payload(self):
        text = render_text(Report(verify_lemma72(1, 3)))
        assert "result: Verified" in text
        assert "conclusion: NotSubfield" in text

    def test_text_indents_certificate_children(self):
        text = render_text(Report(verify_value_groups(3, 2)))
        assert "task: value-groups" in text

    def test_timing_only_when_given(self):
        with_timing = render_text(Report(verify_lemma72(1, 3), timing=0.25))
        without = render_text(Report(verify_lemma72(1, 3)))
        assert "timing: 0.250s" in with_timing
        assert "timing" not in without


class TestEmit:
    def test_writes_the_rendered_report(self, tmp_path):
        target = tmp_path / "report.json"
        rendered = emit_report(Report(verify_lemma72(1, 3)), "json", str(target))
        assert target.read_text() == rendered
        assert json.loads(rendered)["task"] == "lemma72"

    def test_rejects_unknown_formats(self):
        with pytest.raises(ValueError):
            emit_report(Report(verify_lemma72(1, 3)), "yaml")
