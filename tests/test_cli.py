"""Command line behavior: exit codes, determinism, negative controls."""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import pathlib
import sys

import pytest

from brauerval import cli, division, lattices, verify
from brauerval.cli import main
from brauerval.errors import ScenarioError
from brauerval.scenario import load_scenario
from brauerval.verify import INPUTS, TASKS, Verdict, verify_char_not_p

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "scenarios"
# sha256 of the json reports of the benchmark tasks (the 42 corpus scenarios
# and the workload sizes), recorded by the benchmark; read only
GOLDEN_DIGESTS = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
# sha256 of the same tasks' text reports with the closing timing line removed
TEXT_DIGESTS = json.loads((ROOT / "tests" / "text_digests.json").read_text(encoding="utf-8"))
# every (task, integer input) pair that verify.TASKS does not declare
UNDECLARED = [
    (task, key) for task, (_, inputs) in TASKS.items() for key in INPUTS if key not in inputs
]


def run(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verified_is_zero(self, capsys):
        code, out, _ = run(capsys, "shift", "--n", "3", "--p", "2", "--i", "1")
        assert code == 0
        assert "result: Verified" in out

    def test_inconclusive_is_two(self, capsys):
        code, out, _ = run(capsys, "no-common-splitting", "--n", "2", "--p", "2")
        assert code == 2
        assert "result: Inconclusive" in out

    def test_refuted_is_one(self, capsys):
        code, out, _ = run(
            capsys,
            "custom-scenario",
            "--scenario",
            str(CORPUS / "custom-split-p3.scn"),
        )
        assert code == 1
        assert "result: Refuted" in out

    def test_missing_parameter_is_three(self, capsys):
        code, _, err = run(capsys, "shift", "--n", "3", "--p", "2")
        assert code == 3
        assert "needs --i" in err

    def test_unknown_subcommand_is_three(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 3
        assert "invalid choice" in err

    def test_task_mismatch_is_three(self, capsys):
        code, _, err = run(
            capsys, "prop71", "--scenario", str(CORPUS / "counts.scn")
        )
        assert code == 3
        assert "does not match" in err

    def test_missing_scenario_file_is_three(self, capsys):
        code, _, err = run(capsys, "chain-check", "--scenario", "/nowhere.scn")
        assert code == 3
        assert "cannot read" in err

    def test_malformed_scenario_reports_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("version 1\ntask counts\nprime 9\n")
        code, _, err = run(capsys, "counts", "--scenario", str(bad))
        assert code == 3
        assert f"{bad}:3:7" in err

    def test_zero_algebra_is_empty(self, capsys, tmp_path):
        path = tmp_path / "zero.scn"
        lines = ("version 1", "task custom-scenario", "prime 3", "variables d c", "algebra A = 0")
        path.write_text("\n".join((*lines, "word A", "")), encoding="utf-8")
        code, out, err = run(capsys, "custom-scenario", "--scenario", str(path))
        assert (code, out, err) == (3, "", f"error: {path}:5:13: empty algebra\n")

    def test_scenario_that_is_not_utf8_is_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"version 1\ntask counts\n\xff\n")
        code, out, err = run(capsys, "counts", "--scenario", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot read scenario") and err.count("\n") == 1

    def test_out_of_range_parameter_is_three(self, capsys):
        code, _, err = run(capsys, "shift", "--n", "3", "--p", "2", "--i", "7")
        assert code == 3
        assert err.startswith("error:")
        code, out, err = run(capsys, "shift", "--n", "2", "--p", "3", "--i", "2")
        assert (code, out, err) == (3, "", "error: index 2 outside 1..1\n")

    def test_unwritable_out_is_three(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "counts", "--out", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot write report")
        assert err.count("\n") == 1

    def test_internal_error_is_four(self, capsys, monkeypatch):
        def broken(n, p, max_work=1):
            raise AssertionError("enumerated 3 lattices, expected 4")

        monkeypatch.setitem(TASKS, "char-not-p", (broken, TASKS["char-not-p"][1]))
        code, out, err = run(capsys, "char-not-p", "--n", "3", "--p", "2")
        assert code == 4
        assert out == ""
        assert err == "internal error: AssertionError: enumerated 3 lattices, expected 4\n"

    @pytest.mark.parametrize(
        "error,expected",
        [(None, 0), (ScenarioError("bad input"), 3), (RuntimeError("forced"), 4)],
    )
    def test_memo_tables_are_empty_after_each_task(self, capsys, monkeypatch, error, expected):
        real, inputs = TASKS["shift"]
        filled = []

        def shift_then_fail(*args):
            verdict = real(*args)
            filled.append(sum(len(table) for table in lattices._MEMO_TABLES))
            if error is not None:
                raise error
            return verdict

        monkeypatch.setitem(TASKS, "shift", (shift_then_fail, inputs))
        code, _, _ = run(capsys, "shift", "--n", "3", "--p", "2", "--i", "1")
        assert code == expected
        assert filled[0] > 0
        assert not any(lattices._MEMO_TABLES)

    def test_budget_overrun_is_two_with_a_report(self, capsys, tmp_path):
        target = tmp_path / "budget.json"
        code, out, err = run(
            capsys, "char-not-p", "--n", "5", "--p", "3", "--max-work", "1000",
            "--format", "json", "--out", str(target),
        )
        assert code == 2
        assert out == "" and err == ""
        report = json.loads(target.read_text())
        assert report["result"] == "Inconclusive"
        assert report["exit_code"] == 2
        assert report["payload"] == {
            "budget": "max-work", "max_work": 1000, "estimated_work": 936904
        }
        code, out, _ = run(capsys, "char-not-p", "--n", "5", "--p", "3", "--max-work", "1000")
        assert code == 2
        assert "result: Inconclusive" in out and "estimated_work: 936904" in out

    @pytest.mark.parametrize(
        "argv, parameters",
        [
            (("shift", "--n", "2", "--p", "1009", "--i", "1"), {"n": 2, "p": 1009, "i": 1}),
            (("lemma72", "--part", "1", "--p", "1009"), {"part": 1, "p": 1009}),
        ],
    )
    def test_class_work_overrun_is_two_with_a_report(self, capsys, argv, parameters):
        # one symbol of degree 1009 has 1009^2 monomial classes: one index counts
        # them, but a count above MAX_CLASS_WORK still ends the task
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2
        assert err == ""
        report = json.loads(out)
        assert (report["result"], report["exit_code"]) == ("Inconclusive", 2)
        assert report["parameters"] == parameters
        assert report["payload"] == {
            "budget": "class-work", "max_work": 1_000_000, "estimated_work": 1009**2
        }

    def test_lemma72_class_work_ends_before_the_trace_loop(self, capsys, monkeypatch):
        # the 1009^2 classes of [1/c, 1/d) are over budget, so the task ends
        # before trace_profile's loop over the powers below p starts
        def no_trace(*args):
            raise AssertionError("trace_profile ran")

        monkeypatch.setattr(verify, "trace_profile", no_trace)
        code, out, err = run(capsys, "lemma72", "--part", "1", "--p", "1009", "--format", "json")
        assert (code, err) == (2, "")
        report = json.loads(out)
        assert report["result"] == "Inconclusive"
        assert report["payload"]["budget"] == "class-work"

    def test_class_work_overrun_inside_a_peel_is_two_with_a_report(self, capsys, tmp_path):
        # peeling E off D certifies [c^-1, d^-1) by its 1009^2 value classes, which
        # end the task: no failed peel may stand in for the overrun
        path = tmp_path / "peel.scn"
        path.write_text(
            "version 1\ntask custom-scenario\nprime 1009\nground constants a\n"
            "variables d c t\nalgebra D = [t^-1, a)\nalgebra E = [c^-1, d^-1)\nword D E\n"
        )
        code, out, err = run(capsys, "custom-scenario", "--scenario", str(path), "--format", "json")
        assert code == 2
        assert err == ""
        report = json.loads(out)
        assert (report["result"], report["exit_code"]) == ("Inconclusive", 2)
        assert report["parameters"] == {"scenario": str(path)}
        assert report["payload"] == {
            "budget": "class-work", "max_work": 1_000_000, "estimated_work": 1018081
        }

    def test_census_work_overrun_is_two_with_a_report(self, capsys, monkeypatch):
        # at (5, 2) the census box has 32 classes, over a bound of 31, and no member is certified
        monkeypatch.setattr(division, "MAX_CLASS_WORK", 31)
        code, out, _ = run(capsys, "no-common-splitting", "--n", "5", "--p", "2", "--format", "json")
        assert code == 2
        assert json.loads(out)["payload"] == {
            "budget": "class-work", "max_work": 31, "estimated_work": 32
        }

    def test_census_budget_is_checked_before_any_member(self, capsys, monkeypatch):
        # the census box of (1/p)Z^n over Z^n has p^n = 32 classes at (5, 2)
        monkeypatch.setattr(division, "MAX_CLASS_WORK", 31)
        certified = []
        real = verify.chain_division

        def counting(*args, **kwargs):
            certified.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "chain_division", counting)
        code, out, _ = run(capsys, "no-common-splitting", "--n", "5", "--p", "2", "--format", "json")
        assert code == 2
        assert json.loads(out)["payload"] == {
            "budget": "class-work", "max_work": 31, "estimated_work": 32
        }
        assert certified == []

    def test_peeled_factor_with_no_tower_variable_is_two(self, capsys, tmp_path):
        # [a^-1, c) lives over the constants alone, so no partial valuation can peel it
        path = tmp_path / "constants.scn"
        path.write_text(
            "version 1\ntask custom-scenario\nprime 3\nground constants a c\n"
            "variables a1 a2\nalgebra A = [a1^-1, a2) * [a^-1, c)\nword A\n"
        )
        code, out, err = run(capsys, "custom-scenario", "--scenario", str(path), "--format", "json")
        assert code == 2
        assert err == ""
        report = json.loads(out)
        assert (report["result"], report["exit_code"]) == ("NotCertified", 2)
        (chain,) = report["certificates"]
        assert (chain["rule"], chain["status"]) == ("chain", "not-certified")
        assert chain["payload"] == {"reason": "peeled factor uses no tower variable"}
        (left,) = chain["children"]
        assert (left["rule"], left["status"], left["payload"]) == (
            "chain", "certified", {"factors": 1}
        )

    def test_a_member_that_is_not_certified_is_two_with_the_census(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "no-common-splitting", "--n", "3", "--p", "2", "--format", "json")
        assert code == 0
        verified = json.loads(out)["payload"]
        failing = verify.build_family(3, 2)[1]
        real = verify.chain_division

        def failing_one(word, tower, *args):
            if word == failing.word:
                return division.Certificate("chain", division.NOT_CERTIFIED, {"reason": "test"})
            return real(word, tower, *args)

        monkeypatch.setattr(verify, "chain_division", failing_one)
        code, out, _ = run(capsys, "no-common-splitting", "--n", "3", "--p", "2", "--format", "json")
        assert code == 2
        report = json.loads(out)
        assert (report["result"], report["exit_code"]) == ("NotCertified", 2)
        payload = report["payload"]
        assert payload["member_status"] == {
            name: "not-certified" if name == failing.name else status
            for name, status in verified["member_status"].items()
        }
        # the census is still run and reported in full
        assert payload == {**verified, "member_status": payload["member_status"]}
        assert payload["allowed_count"] == 2

    def test_every_member_of_a_large_prime_family_has_a_status(self, capsys):
        # at (2,13) unpadded twist names collided: 168 members, 165 statuses
        code, out, _ = run(capsys, "no-common-splitting", "--n", "2", "--p", "13", "--format", "json")
        payload = json.loads(out)["payload"]
        assert code == 0
        assert len(payload["member_status"]) == payload["family_size"] == 168

    @pytest.mark.parametrize(
        "status,result,code",
        [(division.NOT_CERTIFIED, "NotCertified", 2), (division.REFUTED, "Refuted", 1)],
    )
    def test_a_shift_member_that_is_not_certified_reports_its_word(
        self, capsys, monkeypatch, status, result, code
    ):
        stub = division.Certificate("chain", status, {"reason": "test"})
        monkeypatch.setattr(verify, "chain_division", lambda word, tower, *args: stub)
        got, out, err = run(capsys, "shift", "--n", "3", "--p", "2", "--i", "1", "--format", "json")
        assert (got, err) == (code, "")
        report = json.loads(out)
        assert (report["result"], report["exit_code"]) == (result, code)
        assert report["payload"] == {"word": "[a3^-1, a2) + [a2^-1, a1)"}
        assert report["certificates"] == [
            {"rule": "chain", "status": status, "payload": {"reason": "test"}, "children": []}
        ]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_over_budget_parameters_are_the_task_inputs(self, capsys, fmt):
        code, out, _ = run(
            capsys, "char-not-p", "--n", "5", "--p", "3", "--max-work", "1000", "--format", fmt
        )
        assert code == 2
        if fmt == "json":
            assert json.loads(out)["parameters"] == {"n": 5, "p": 3}
        else:
            assert "parameters: n=5 p=3\n" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unknown_verdict_result_is_four_with_no_report(self, capsys, monkeypatch, fmt):
        monkeypatch.setitem(TASKS, "counts", (lambda: Verdict("counts", "Maybe"), ()))
        code, out, err = run(capsys, "counts", "--format", fmt)
        assert code == 4
        assert out == ""
        assert err == "internal error: ValueError: unknown verdict result 'Maybe'\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_rank_below_the_smith_bound_is_four(self, capsys, monkeypatch, fmt):
        # one pivot mod p breaks rank >= n - j for every form, so no report, never Refuted
        monkeypatch.setattr(verify, "_pivot_columns_mod_p", lambda rows, p: [0])
        code, out, err = run(capsys, "char-not-p", "--n", "4", "--p", "2", "--format", fmt)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: AssertionError: rank 1 mod 2 breaks the Smith")

    def test_budget_below_one_is_three(self, capsys):
        code, out, err = run(capsys, "char-not-p", "--n", "5", "--p", "3", "--max-work", "0")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_help_lists_every_task(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for task in TASKS:
            assert task in out


class TestParameters:
    def test_scenario_supplies_parameters(self, capsys):
        code, out, _ = run(
            capsys, "shift", "--scenario", str(CORPUS / "shift-n3-p2-i1.scn")
        )
        assert code == 0
        assert "n=3 p=2 i=1" in out

    def test_flags_override_scenario_values(self, capsys):
        code, out, _ = run(
            capsys,
            "shift",
            "--scenario",
            str(CORPUS / "shift-n3-p2-i1.scn"),
            "--i",
            "2",
        )
        assert code == 0
        assert "i=2" in out

    @pytest.mark.parametrize("task", ["chain-check", "custom-scenario"])
    def test_scenario_task_without_a_scenario_is_three(self, capsys, task):
        code, out, err = run(capsys, task)
        assert code == 3
        assert out == ""
        assert err == f"error: task {task} needs --scenario\n"

    def test_counts_needs_no_flags(self, capsys):
        code, out, _ = run(capsys, "counts")
        assert code == 0
        assert "result: Verified" in out

    def test_work_budget_has_one_default(self, capsys, monkeypatch):
        assert lattices.WORK_BUDGET == 1 << 24
        assert cli.build_parser().get_default("max_work") is None
        assert not hasattr(cli, "WORK_BUDGET")
        for fn, key in [
            (verify_char_not_p, "max_work"),
            (lattices.enumerate_overlattices, "bound"),
        ]:
            assert inspect.signature(fn).parameters[key].default == lattices.WORK_BUDGET
        # a run without --max-work hands the verifier's default to the enumerator
        bounds = []
        real = verify.enumerate_overlattices

        def recording(*args, bound):
            bounds.append(bound)
            return real(*args, bound=bound)

        monkeypatch.setattr(verify, "enumerate_overlattices", recording)
        code, _, _ = run(capsys, "char-not-p", "--n", "3", "--p", "2")
        assert code == 0
        assert bounds == [lattices.WORK_BUDGET]


class TestInputs:
    def test_inputs_are_the_integer_inputs_of_the_tasks(self):
        declared = {key for _, inputs in TASKS.values() for key in inputs}
        assert set(INPUTS) == declared - {"scenario"}
        assert len(UNDECLARED) == 34

    @pytest.mark.parametrize("task", TASKS)
    def test_every_input_is_a_parameter_of_its_verifier(self, task):
        # the CLI reads a missing input's default by the parameter's name
        verifier, inputs = TASKS[task]
        assert list(inspect.signature(verifier).parameters) == list(inputs)

    @pytest.mark.parametrize("task, key", UNDECLARED, ids=lambda value: value)
    def test_undeclared_flag_is_three_with_no_report(self, capsys, tmp_path, task, key):
        # a corpus run of the task that succeeds without the flag
        scenario = next(
            path for path in sorted(CORPUS.glob("*.scn")) if load_scenario(str(path)).task == task
        )
        target = tmp_path / "report.json"
        flag = "--" + key.replace("_", "-")
        code, out, err = run(
            capsys, task, "--scenario", str(scenario), flag, "1", "--format", "json",
            "--out", str(target),
        )
        assert (code, out, err) == (3, "", f"error: task {task} takes no {flag}\n")
        assert not target.exists()

    def test_strays_are_refused_in_table_order(self, capsys):
        code, out, err = run(capsys, "counts", "--max-work", "1", "--part", "1", "--n", "99")
        assert (code, out, err) == (3, "", "error: task counts takes no --n\n")

    def test_stray_scenario_line_is_three(self, capsys, tmp_path):
        path = tmp_path / "counts.scn"
        path.write_text("version 1\ntask counts\nn 3\n", encoding="utf-8")
        code, out, err = run(capsys, "counts", "--scenario", str(path))
        assert (code, out, err) == (3, "", f"error: {path}: task counts takes no 'n' line\n")

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        cli.build_parser.cache_clear()
        try:
            refused = run(capsys, "counts", "--n", "99")
            # the refused --n of the first call is no input of the second
            second = run(capsys, "value-groups", "--p", "2")
        finally:
            cli.build_parser.cache_clear()
        assert len(built) == 1
        assert refused == (3, "", "error: task counts takes no --n\n")
        assert second == (3, "", "error: task value-groups needs --n\n")

    def test_max_work_scenario_line_bounds_char_not_p(self, capsys, tmp_path):
        path = tmp_path / "budget.scn"
        path.write_text(
            "version 1\ntask char-not-p\nn 5\np 3\nmax_work 1000\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "char-not-p", "--scenario", str(path), "--format", "json")
        assert code == 2
        assert json.loads(out)["payload"] == {
            "budget": "max-work", "max_work": 1000, "estimated_work": 936904
        }


class TestOutput:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "lemma72",
            "--part",
            "1",
            "--p",
            "3",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"] == "Verified"

    def test_json_runs_are_byte_identical(self, capsys):
        _, first, _ = run(
            capsys, "no-common-splitting", "--n", "3", "--p", "2", "--format", "json"
        )
        _, second, _ = run(
            capsys, "no-common-splitting", "--n", "3", "--p", "2", "--format", "json"
        )
        assert first == second

    @pytest.mark.parametrize("task", sorted(GOLDEN_DIGESTS))
    def test_json_report_matches_golden_digest(self, capsys, monkeypatch, task):
        # scenario reports carry the path as given, `scenarios/<file>` from the root
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, *task.split(), "--format", "json")
        assert code == json.loads(out)["exit_code"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[task]

    @pytest.mark.parametrize("task", sorted(GOLDEN_DIGESTS))
    def test_text_report_matches_pinned_digest(self, capsys, monkeypatch, task):
        monkeypatch.chdir(ROOT)
        _, out, _ = run(capsys, *task.split(), "--format", "text")
        *body, last = out.splitlines(keepends=True)
        assert last.startswith("timing: ")
        assert hashlib.sha256("".join(body).encode("utf-8")).hexdigest() == TEXT_DIGESTS[task]

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.scn")), ids=lambda path: path.name)
    def test_report_names_the_scenario_task(self, capsys, path):
        # ties each key of verify.TASKS to the task its verifier reports
        task = load_scenario(str(path)).task
        _, out, _ = run(capsys, task, "--scenario", str(path), "--format", "json")
        assert json.loads(out)["task"] == task

    def test_char_not_p_52_report_is_pinned(self, capsys):
        # 12,494 forms over the index buckets 2^0 .. 2^3; the report lists one
        # witness per form in the order of L, so a slip in that order shows here
        code, out, _ = run(capsys, "char-not-p", "--n", "5", "--p", "2", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "43aae0eeb3e4b3420856a612cf8ec790450552946440f5bec658b68ed51ef3ff"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # 997^2 value classes, just under MAX_CLASS_WORK, counted by one index
            (
                ("shift", "--n", "2", "--p", "997", "--i", "1"),
                "99755fee9f32a4de7af53a591bc18b4126725192558bcde27e17aa158fdcc9ce",
            ),
            # trace profiles of powers 1 .. 100, each summed over the 101 conjugates
            (
                ("lemma72", "--part", "1", "--p", "101"),
                "e7087cc1c9d4732c67519ce27039683a70952fee69653795051e35db23f7bf3c",
            ),
            # each power sum over the 211 conjugates is computed once per task
            (
                ("lemma72", "--part", "1", "--p", "211"),
                "2f2c35090e744095331869d239aebd060df8821d20296c5465a93a523d552353",
            ),
        ],
        ids=["shift-997", "lemma72-101", "lemma72-211"],
    )
    def test_large_p_report_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_text_report_carries_timing(self, capsys):
        _, out, _ = run(capsys, "lemma72", "--part", "2", "--p", "3")
        assert "timing:" in out


class TestChainCheck:
    def test_corpus_chain_verifies(self, capsys):
        code, out, _ = run(
            capsys,
            "chain-check",
            "--scenario",
            str(CORPUS / "chain-shift-ext-p3.scn"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["proves_zero"] is True
        assert payload["valid"] is True


def corrupted_run(capsys, tmp_path, source: str, old: str, new: str):
    text = (CORPUS / source).read_text()
    assert old in text, f"{source} does not contain {old!r}"
    variant = tmp_path / source
    variant.write_text(text.replace(old, new))
    task = [ln.split()[1] for ln in text.splitlines() if ln.startswith("task ")][0]
    return run(capsys, task, "--scenario", str(variant), "--format", "json")


class TestNegativeControls:
    def test_wrong_norm_witness_breaks_the_chain(self, capsys, tmp_path):
        code, out, _ = corrupted_run(
            capsys, tmp_path, "chain-shift-ext-p3.scn", "witness 2*X", "witness 1*X"
        )
        assert code == 2
        payload = json.loads(out)["payload"]
        assert payload["valid"] is False
        assert "norm" in payload["reason"]

    def test_tampered_slot_breaks_the_division_word(self, capsys, tmp_path):
        code, out, _ = corrupted_run(
            capsys,
            tmp_path,
            "custom-two-factor-p3.scn",
            "algebra E = [c^-1, d^-1)",
            "algebra E = [c, d^-1)",
        )
        assert code != 0
        assert json.loads(out)["result"] != "Verified"

    @pytest.mark.parametrize(
        "lines",
        [
            # d = (w/t)^3 is a cube, so [c^-1, d) splits: w ramifies at full depth
            # but not under the valuation of t alone, where it must be refused
            ("generator w = pth-root(d*t^3)", "algebra A = [t^-1, c) * [c^-1, d)"),
            # the class is [t^-1 - c^-1, d^-1), of index at most 3; the trace-value
            # obstruction holds over Artin-Schreier extensions, not over d^(-1/3)
            ("algebra A = [t^-1, d^-1) * [c^-1, d)",),
        ],
        ids=["pth-root-in-p-gamma-at-depth-1", "trace-obstruction-over-a-pth-root"],
    )
    def test_degree_nine_word_of_smaller_index_is_not_certified(self, capsys, tmp_path, lines):
        head = ("version 1", "task custom-scenario", "prime 3", "variables d c t")
        path = tmp_path / "word.scn"
        path.write_text("\n".join((*head, *lines, "word A", "")), encoding="utf-8")
        code, out, _ = run(capsys, "custom-scenario", "--scenario", str(path), "--format", "json")
        assert (code, json.loads(out)["result"]) == (2, "NotCertified")

    def test_tampered_parameter_is_rejected(self, capsys, tmp_path):
        code, _, err = corrupted_run(
            capsys, tmp_path, "shift-n3-p2-i1.scn", "i 1", "i 0"
        )
        assert code == 3
        assert err.startswith("error:")


def run_corpus_gate(monkeypatch, directory: pathlib.Path) -> int:
    """scripts/run_corpus.py's main(), in-process, on the scenarios in directory."""
    script = ROOT / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_corpus.py", str(directory)])
    return module.main()


class TestCorpusGate:
    def test_every_scenario_matches_its_golden_verdict(self, capsys, monkeypatch):
        assert run_corpus_gate(monkeypatch, CORPUS) == 0
        assert capsys.readouterr().out.endswith("42/42 scenarios match their golden verdict\n")

    def test_a_wrong_expect_line_fails_the_gate(self, capsys, monkeypatch, tmp_path):
        text = (CORPUS / "custom-split-p3.scn").read_text()
        assert "expect Refuted" in text
        wrong = text.replace("expect Refuted", "expect Verified")
        (tmp_path / "custom-split-p3.scn").write_text(wrong)
        assert run_corpus_gate(monkeypatch, tmp_path) == 1
        assert "expected Verified, got Refuted" in capsys.readouterr().err
