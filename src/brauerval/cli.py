"""Command line front end.

The first argument names the verification task, a key of verify.TASKS,
which also lists the inputs its verifier takes; each input comes from its
flag or else from the scenario file (flags win on conflict).  Exit status
encodes the verdict: 0 Verified, 1 Refuted, 2 Inconclusive (a work
budget that runs out included) or NotCertified, 3 a problem with the
input itself or with writing the report, 4 an internal error (a failed
assertion or any other unexpected exception), with no report written.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import EngineError, EnumerationBound, ScenarioError
from .lattices import WORK_BUDGET, forget_memos
from .report import emit_report
from .scenario import Scenario, load_scenario
from .verify import INCONCLUSIVE, TASKS, Verdict


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


def _input(args: argparse.Namespace, scenario: Scenario | None, key: str) -> object:
    """The flag, else the scenario's value ('p' falls back to its prime);
    the input 'scenario' is the parsed file itself."""
    value = scenario if key == "scenario" else getattr(args, key)
    if value is None and scenario is not None:
        value = scenario.params.get(key)
        if key == "p" and value is None:
            value = scenario.prime
    if value is None:
        raise ScenarioError(f"task {args.task} needs --{key}")
    return value


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
    verifier, inputs = TASKS[args.task]
    values = [_input(args, scenario, key) for key in inputs]
    try:
        verdict = verifier(*values)
    except EnumerationBound as err:
        # a work budget that runs out is a verdict, reported with the inputs
        params = {
            key: scenario.path if key == "scenario" else value
            for key, value in zip(inputs, values)
        }
        verdict = Verdict(args.task, INCONCLUSIVE, params, err.payload)
    finally:
        forget_memos()
    elapsed = time.perf_counter() - started
    try:
        rendered = emit_report(verdict, format=args.format, out=args.out, timing=elapsed)
    except OSError as err:
        raise EngineError(f"cannot write report {args.out}: {err}") from err
    if args.out is None:
        sys.stdout.write(rendered)
    return verdict.exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run_task(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
