"""Scenario text format: parsing, validation, diagnostics."""

from __future__ import annotations

import pathlib

import pytest

from brauerval.errors import ScenarioError
from brauerval.scenario import load_scenario, parse_scenario
from brauerval.symbols import SymbolSum, check_rewrite_chain, symbol
from brauerval.towers import FormalElement
from brauerval.verify import TASKS

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

CHAIN_TEXT = """
version 1
task chain-check
prime 3
variables d c
generator xL = artin-schreier(2*d^-1 + -1*c^-1)
algebra S = [c^-1, d^-1)
chain on S
  step slot1-add -> [c^-1 + -2*d^-1, d^-1) + [2*d^-1, d^-1)
  step slot2-norm at 1 witness 2*X -> [c^-1 + -2*d^-1, d^-1)
  step negate -> [2*d^-1 + -1*c^-1, d)
  step as-shift witness 2*xL -> [0, d)
  step slot1-add -> 0
end
expect Verified
"""


class TestElements:
    def parse_algebra(self, body: str, p: int = 3, variables: str = "d c t"):
        text = (
            f"version 1\ntask custom-scenario\nprime {p}\n"
            f"variables {variables}\nalgebra A = {body}\nword A\n"
        )
        return parse_scenario(text).algebras["A"]

    def test_coefficients_reduce_mod_p(self):
        got = self.parse_algebra("[2*d^-1 + -2*c^-1, t)")
        p = 3
        dinv = FormalElement.symbol(p, "d", -1)
        cinv = FormalElement.symbol(p, "c", -1)
        want = SymbolSum.of(
            symbol(p, dinv.scale(2) + cinv, FormalElement.symbol(p, "t"))
        )
        assert got == want

    def test_repeated_names_merge_exponents(self):
        got = self.parse_algebra("[d^2*d^-1, t)")
        want = self.parse_algebra("[d, t)")
        assert got == want

    def test_zero_slot1_is_allowed(self):
        got = self.parse_algebra("[0, t)")
        assert got.terms[0].slot1.is_zero()

    def test_bare_integers_scale_the_monomial(self):
        got = self.parse_algebra("[2*3*d, t)")
        want = self.parse_algebra("[0, t)")
        assert got == want

    def test_tensor_words_split_on_star(self):
        got = self.parse_algebra("[d^-1, t) * [c^-1, d^-1)")
        assert len(got.terms) == 2


class TestChain:
    def test_chain_parses_and_proves_zero(self):
        scenario = parse_scenario(CHAIN_TEXT)
        assert scenario.chain_on == "S"
        assert [s.rule for s in scenario.chain.steps] == [
            "slot1-add",
            "slot2-norm",
            "negate",
            "as-shift",
            "slot1-add",
        ]
        assert check_rewrite_chain(scenario.chain).is_zero_sum()

    def test_witness_may_use_the_reserved_norm_name(self):
        scenario = parse_scenario(CHAIN_TEXT)
        norm_step = scenario.chain.steps[1]
        assert norm_step.witness == FormalElement.symbol(3, "X", 1, 2)
        assert norm_step.target_index == 1


class TestDiagnostics:
    def check(self, text: str, fragment: str, line: int | None = None):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, path="bad.scn")
        message = str(err.value)
        assert fragment in message, message
        if line is not None:
            assert message.startswith(f"bad.scn:{line}:"), message

    def test_version_line_must_come_first(self):
        self.check("task counts\n", "version 1", line=1)

    def test_unknown_task(self):
        self.check("version 1\ntask nope\n", "unknown task", line=2)

    def test_composite_prime(self):
        self.check("version 1\ntask counts\nprime 9\n", "not prime", line=3)

    def test_unknown_directive(self):
        self.check("version 1\ntask counts\nbogus 1\n", "unknown directive", line=3)

    def test_elements_need_a_prime_first(self):
        self.check(
            "version 1\ntask counts\nvariables d\n",
            "'prime' line must come first",
        )

    def test_unknown_name_in_algebra(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\nalgebra A = [q, d)\n",
            "unknown names",
            line=5,
        )

    def test_zero_slot2_is_rejected(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\nalgebra A = [d, 0)\n",
            "unit",
        )

    def test_bad_factor_spelling(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\nalgebra A = [d^^2, d)\n",
            "bad factor",
        )

    def test_step_outside_chain(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\nstep negate -> 0\n",
            "outside a chain",
        )

    def test_unterminated_chain(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d\n"
            "algebra S = [d^-1, d)\nchain on S\n  step negate -> 0\n",
            "unterminated chain",
        )

    def test_unknown_rewrite_rule(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d\n"
            "algebra S = [d^-1, d)\nchain on S\n  step shuffle -> 0\nend\n",
            "unknown rewrite rule",
            line=7,
        )

    def test_duplicate_algebra_name(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\n"
            "algebra A = [d^-1, d)\nalgebra A = [d^-1, d)\n",
            "duplicate algebra",
        )

    def test_word_needs_known_algebras(self):
        self.check(
            "version 1\ntask custom-scenario\nprime 3\nvariables d\nword A\n",
            "unknown algebra",
        )

    def test_second_variables_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("version 1\ntask counts\nprime 3\nvariables d\n  variables c\n")
        assert str(err.value) == "<scenario>:5:3: duplicate 'variables' line"

    def test_unknown_verdict_in_expect(self):
        self.check("version 1\ntask counts\nexpect Maybe\n", "unknown verdict")

    def test_missing_task(self):
        self.check("version 1\nprime 3\n", "no task")

    def test_witness_names_are_checked(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d\n"
            "algebra S = [d^-1, d)\nchain on S\n"
            "  step slot2-norm witness 2*Y -> 0\nend\n",
            "unknown names",
        )

    def test_closed_ground_refuses_a_generic_constant_generator(self):
        # over an algebraically closed F_0, x^p - x = a has a root for every a
        text = (
            "version 1\ntask custom-scenario\nprime 3\nground constants a\n"
            "ground closed\nvariables t\ngenerator x = artin-schreier(a)\n"
        )
        assert parse_scenario(text.replace("ground closed\n", "")).tower.generators
        self.check(text, "bad.scn:7:1: cannot certify", line=7)

    @pytest.mark.parametrize("line", ["prime 5", "ground closed", "ground constants a"])
    def test_tower_inputs_come_before_variables(self, line):
        # the tower is built at 'variables', so a later tower input would never reach it
        key = line.split()[0]
        self.check(
            "version 1\ntask custom-scenario\nprime 3\nground constants a\nvariables t\n"
            f"  {line}\ngenerator x = artin-schreier(a)\nalgebra A = [t^-1, t)\nword A\n",
            f"bad.scn:6:3: a '{key}' line must come before 'variables'",
        )

    # columns count from the raw line, indentation and extra spaces included
    def test_generator_column_points_at_the_factor(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\n"
            "generator x = artin-schreier(d^^-1)\n",
            "bad.scn:5:30: bad factor 'd^^-1'",
        )

    def test_indented_step_column_points_at_the_factor(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d c\n"
            "algebra S = [d^-1, c^-1)\nchain on S\n  step negate -> [d^^1, c^-1)\nend\n",
            "bad.scn:7:19: bad factor 'd^^1'",
        )

    def test_spaced_algebra_column_points_at_the_factor(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d c\nalgebra   A   =   [d^^2, c)\n",
            "bad.scn:5:20: bad factor 'd^^2'",
        )

    def test_unknown_name_column_points_at_the_name(self):
        self.check(
            "version 1\ntask counts\nprime 3\nvariables d\n"
            "generator xL = artin-schreier(2*d^-1 + -2*c^-1)\n",
            "bad.scn:5:43: unknown names ['c']",
        )

    def test_step_sum_names_are_checked(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d c\n"
            "algebra S = [c^-1, d^-1)\nchain on S\n"
            "  step slot2-mult -> [c^-1, q^-1*d^-1) + [c^-1, q)\nend\n",
            "bad.scn:7:29: unknown names ['q']",
        )

    def test_whole_line_diagnostic_points_at_the_line(self):
        self.check(
            "version 1\ntask chain-check\nprime 3\nvariables d\n"
            "algebra S = [d^-1, d)\nchain on S\n  step shuffle -> 0\nend\n",
            "bad.scn:7:3: unknown rewrite rule 'shuffle'",
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(tmp_path / "absent.scn"))
        assert "cannot read" in str(err.value)


class TestCorpus:
    def test_corpus_exists_and_parses(self):
        files = sorted(CORPUS.glob("*.scn"))
        assert len(files) >= 30
        for path in files:
            scenario = load_scenario(str(path))
            assert scenario.task
            assert scenario.expect in ("Verified", "Refuted", "Inconclusive", "NotCertified")

    def test_corpus_covers_every_task(self):
        tasks = {load_scenario(str(p)).task for p in CORPUS.glob("*.scn")}
        assert tasks == {
            "shift",
            "value-groups",
            "no-common-splitting",
            "counts",
            "char-not-p",
            "prop71",
            "lemma72",
            "example73",
            "chain-check",
            "custom-scenario",
        } == set(TASKS)

    def test_corpus_chain_files_prove_zero(self):
        for path in CORPUS.glob("chain-*.scn"):
            scenario = load_scenario(str(path))
            assert check_rewrite_chain(scenario.chain).is_zero_sum(), path.name
