"""Command line front end.

The first argument names the verification task; parameters come from
flags or from a scenario file (flags win on conflict).  Exit status
encodes the verdict: 0 Verified, 1 Refuted, 2 Inconclusive (a work
budget that runs out included) or NotCertified, 3 a problem with the
input itself or with writing the report, 4 an internal error (a failed
assertion or any other unexpected exception), with no report written.
"""

from __future__ import annotations

import argparse
import sys
import time

from .division import chain_division
from .errors import EngineError, ScenarioError, UnsupportedConfiguration
from .lattices import WORK_BUDGET, forget_memos
from .report import Report, emit_report
from .scenario import TASKS, Scenario, load_scenario
from .symbols import SymbolSum, check_rewrite_chain
from .verify import (
    NOT_CERTIFIED,
    RESULT_OF_STATUS,
    VERIFIED,
    Verdict,
    verify_char_not_p,
    verify_count_identities,
    verify_example73,
    verify_lemma72,
    verify_no_common_splitting,
    verify_prop71,
    verify_shift_lemma,
    verify_value_groups,
)

class _Parser(argparse.ArgumentParser):
    """Input problems are exit 3, not argparse's default exit 2."""

    def error(self, message: str) -> None:
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brauerval", description=__doc__)
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--n", type=int, help="tower depth")
    parser.add_argument("--p", type=int, help="symbol degree, a prime")
    parser.add_argument("--i", type=int, help="distinguished place for shift tasks")
    parser.add_argument("--part", type=int, help="statement part or variant")
    parser.add_argument("--scenario", metavar="FILE", help="scenario file with inputs")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", metavar="FILE", help="write the report here")
    parser.add_argument(
        "--max-work", type=int, default=WORK_BUDGET, help="enumeration budget"
    )
    return parser


def _param(args: argparse.Namespace, scenario: Scenario | None, key: str) -> int | None:
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if scenario is not None:
        if key == "p" and scenario.param("p") is None:
            return scenario.prime
        return scenario.param(key)
    return None


def _need(args: argparse.Namespace, scenario: Scenario | None, key: str) -> int:
    value = _param(args, scenario, key)
    if value is None:
        raise ScenarioError(f"task {args.task} needs --{key}")
    return value


def _scenario_word(scenario: Scenario) -> SymbolSum:
    if not scenario.word:
        raise ScenarioError(f"{scenario.path}: custom-scenario needs a 'word' line")
    total = SymbolSum.zero(scenario.prime)
    for name in scenario.word:
        total = total + scenario.algebra(name)
    return total


def _chain_check_verdict(scenario: Scenario) -> Verdict:
    if scenario.chain is None:
        raise ScenarioError(f"{scenario.path}: chain-check needs a chain block")
    reason = None
    try:
        final = check_rewrite_chain(scenario.chain)
        valid = True
    except UnsupportedConfiguration as err:
        final = None
        valid = False
        reason = str(err)
    proves = bool(valid and final.is_zero_sum())
    result = VERIFIED if proves else NOT_CERTIFIED
    return Verdict(
        task="chain-check",
        result=result,
        parameters={"p": scenario.prime, "scenario": scenario.path},
        payload={
            "chain_on": scenario.chain_on,
            "steps": tuple(s.rule for s in scenario.chain.steps),
            "valid": valid,
            "proves_zero": proves,
            "remaining_terms": None if final is None else len(final.terms),
            "reason": reason,
        },
    )


def _custom_verdict(scenario: Scenario) -> Verdict:
    word = _scenario_word(scenario)
    cert = chain_division(word, scenario.tower, scenario.hypothesis)
    return Verdict(
        task="custom-scenario",
        result=RESULT_OF_STATUS[cert.status],
        parameters={"p": scenario.prime, "scenario": scenario.path},
        payload={
            "word": scenario.word,
            "factors": len(word.terms),
            "hypothesis": scenario.hypothesis,
            "division_status": cert.status,
        },
        certificates=(cert,),
    )


def _dispatch(args: argparse.Namespace, scenario: Scenario | None) -> Verdict:
    task = args.task
    if task == "shift":
        return verify_shift_lemma(
            _need(args, scenario, "n"), _need(args, scenario, "p"), _need(args, scenario, "i")
        )
    if task == "value-groups":
        return verify_value_groups(_need(args, scenario, "n"), _need(args, scenario, "p"))
    if task == "no-common-splitting":
        return verify_no_common_splitting(
            _need(args, scenario, "n"), _need(args, scenario, "p")
        )
    if task == "counts":
        return verify_count_identities()
    if task == "char-not-p":
        return verify_char_not_p(
            _need(args, scenario, "n"), _need(args, scenario, "p"), max_work=args.max_work
        )
    if task == "prop71":
        return verify_prop71(_need(args, scenario, "part"), _need(args, scenario, "p"))
    if task == "lemma72":
        return verify_lemma72(_need(args, scenario, "part"), _need(args, scenario, "p"))
    if task == "example73":
        return verify_example73(_need(args, scenario, "part"), _need(args, scenario, "p"))
    if task == "chain-check":
        if scenario is None:
            raise ScenarioError("chain-check needs --scenario FILE")
        return _chain_check_verdict(scenario)
    if task == "custom-scenario":
        if scenario is None:
            raise ScenarioError("custom-scenario needs --scenario FILE")
        return _custom_verdict(scenario)
    raise ScenarioError(f"unknown task {task!r}")


def run_task(args: argparse.Namespace) -> int:
    scenario = None
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        if scenario.task != args.task:
            raise ScenarioError(
                f"{scenario.path}: scenario task {scenario.task!r} does not match"
                f" command line task {args.task!r}"
            )
    started = time.perf_counter()
    try:
        verdict = _dispatch(args, scenario)
    finally:
        forget_memos()
    elapsed = time.perf_counter() - started
    report = Report(verdict, timing=elapsed)
    try:
        rendered = emit_report(report, format=args.format, out=args.out)
    except OSError as err:
        raise EngineError(f"cannot write report {args.out}: {err}") from err
    if args.out is None:
        sys.stdout.write(rendered)
    return verdict.exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run_task(args)
    except (ScenarioError, EngineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
