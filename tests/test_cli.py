"""Command line behavior: exit codes, determinism, negative controls."""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import pathlib
import sys

import pytest

from brauerval import cli, lattices
from brauerval.cli import main
from brauerval.errors import ScenarioError
from brauerval.scenario import load_scenario
from brauerval.verify import TASKS, verify_char_not_p

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "scenarios"
# sha256 of the json reports of the benchmark tasks (the 42 corpus scenarios
# and the workload sizes), recorded by the benchmark; read only
GOLDEN_DIGESTS = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
# sha256 of the same tasks' text reports with the closing timing line removed
TEXT_DIGESTS = json.loads((ROOT / "tests" / "text_digests.json").read_text(encoding="utf-8"))


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

    def test_unwritable_out_is_three(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "counts", "--out", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot write report")
        assert err.count("\n") == 1

    def test_internal_error_is_four(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
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

    def test_work_budget_has_one_default(self):
        assert lattices.WORK_BUDGET == 1 << 24
        assert cli.build_parser().get_default("max_work") == lattices.WORK_BUDGET
        for fn, key in [
            (verify_char_not_p, "max_work"),
            (lattices.enumerate_overlattices, "bound"),
        ]:
            assert inspect.signature(fn).parameters[key].default == lattices.WORK_BUDGET


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
