"""Command line front end.

The first argument names the verification task, a key of verify.TASKS,
which also lists the inputs its verifier takes; the integer flags are
the keys of verify.INPUTS.  Each input comes from its flag, else from the
scenario file, else from the verifier's own default; a flag or scenario
line the task does not take is malformed input.  Exit status encodes the
verdict: 0 Verified, 1 Refuted, 2 Inconclusive (a work budget that runs
out included) or NotCertified, 3 a problem with the input itself or with
writing the report, 4 an internal error (a failed assertion or any other
unexpected exception), with no report written.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .errors import EngineError, EnumerationBound, ScenarioError
from .lattices import forget_memos
from .report import emit_report
from .scenario import Scenario, load_scenario
from .verify import INCONCLUSIVE, INPUTS, TASKS, Verdict


class _Parser(argparse.ArgumentParser):
    """Input problems are exit 3, not argparse's default exit 2."""

    def error(self, message: str) -> None:
        raise ScenarioError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged."""
    parser = _Parser(prog="brauerval", description=__doc__)
    parser.add_argument("task", choices=TASKS)
    for key, text in INPUTS.items():
        parser.add_argument(_flag(key), type=int, help=text)
    parser.add_argument("--scenario", metavar="FILE", help="scenario file with inputs")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", metavar="FILE", help="write the report here")
    return parser


def _inputs(args: argparse.Namespace, scenario: Scenario | None) -> list[object]:
    """Refuse, in INPUTS order, a flag or scenario line the task does not take;
    then each input: its flag, else the scenario's value or prime, else the
    default of the verifier's parameter of that name."""
    verifier, inputs = TASKS[args.task]
    given = {} if scenario is None else scenario.params
    for key in INPUTS:
        if key not in inputs and getattr(args, key) is not None:
            raise ScenarioError(f"task {args.task} takes no {_flag(key)}")
        if key not in inputs and key in given:
            raise ScenarioError(f"{args.scenario}: task {args.task} takes no '{key}' line")
    values = []
    for key in inputs:
        value = scenario if key == "scenario" else getattr(args, key)
        if value is None and scenario is not None:
            value = given.get(key, scenario.prime if key == "p" else None)
        if value is None:
            # the parameter's default, read without inspect (slow to import)
            fn = getattr(verifier, "__wrapped__", verifier)
            defaults = fn.__defaults__ or ()
            at = fn.__code__.co_varnames.index(key) - fn.__code__.co_argcount + len(defaults)
            if at < 0:
                raise ScenarioError(f"task {args.task} needs {_flag(key)}")
            value = defaults[at]
        values.append(value)
    return values


def run_task(args: argparse.Namespace) -> int:
    scenario = None
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        if scenario.task != args.task:
            raise ScenarioError(
                f"{scenario.path}: scenario task {scenario.task!r} does not match"
                f" command line task {args.task!r}"
            )
    values = _inputs(args, scenario)
    started = time.perf_counter()
    verifier, inputs = TASKS[args.task]
    try:
        verdict = verifier(*values)
    except EnumerationBound as err:
        # a work budget that runs out is a verdict, reported with the inputs
        # but the budget, which its payload already names
        params = {
            key: scenario.path if key == "scenario" else value
            for key, value in zip(inputs, values)
            if key != "max_work"
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
