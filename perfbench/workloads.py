"""The benchmark's workloads, their golden outputs and the output check.

A task is one CLI invocation, `brauerval <argv> --format json`.  Its
key is the argv joined by spaces; `golden.json` maps each key to the
sha256 of the json report recorded from a known-good commit.
Scenario paths are always given as `scenarios/<file>` relative to the
checkout root, because some reports embed the path.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

EXIT_CODES = {"Verified": 0, "Refuted": 1, "Inconclusive": 2, "NotCertified": 2}

FAMILY_SIZES = ((5, 2), (4, 3))
LATTICE_SIZES = ((4, 2), (4, 3))

WORKLOADS = ("family", "lattice", "corpus")


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    expect: str

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def task(self) -> str:
        return self.argv[0]


def _sized(task: str, sizes: tuple[tuple[int, int], ...]) -> list[Task]:
    return [Task((task, "--n", str(n), "--p", str(p)), "Verified") for n, p in sizes]


def _scenario_line(text: str, keyword: str) -> str | None:
    for line in text.splitlines():
        words = line.split()
        if len(words) == 2 and words[0] == keyword:
            return words[1]
    return None


def corpus_tasks(root: pathlib.Path) -> list[Task]:
    tasks = []
    for path in sorted((root / "scenarios").glob("*.scn")):
        text = path.read_text(encoding="utf-8")
        name = _scenario_line(text, "task")
        if name is None:
            raise ValueError(f"{path.name}: no task line")
        expect = _scenario_line(text, "expect") or "Verified"
        tasks.append(Task((name, "--scenario", f"scenarios/{path.name}"), expect))
    return tasks


def workload_tasks(name: str, root: pathlib.Path) -> list[Task]:
    if name == "family":
        return _sized("no-common-splitting", FAMILY_SIZES)
    if name == "lattice":
        return _sized("char-not-p", LATTICE_SIZES)
    if name == "corpus":
        return corpus_tasks(root)
    raise ValueError(f"unknown workload {name!r}")


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_outcome(task: Task, outcome: dict, golden: dict[str, str]) -> list[str]:
    """Problems with one task's outcome; an empty list means it passed.

    The outcome holds the CLI exit code (`exit`), the sha256 of the
    captured report (`digest`), the fields read back from the report
    (`result`, `exit_code`) and, if the call raised, `error`.
    """
    if outcome.get("error"):
        return [f"crashed: {outcome['error']}"]
    problems = []
    want_exit = EXIT_CODES[task.expect]
    if outcome.get("exit") != want_exit:
        problems.append(f"exit code {outcome.get('exit')}, expected {want_exit}")
    if outcome.get("result") != task.expect:
        problems.append(f"result {outcome.get('result')}, expected {task.expect}")
    if outcome.get("exit_code") != want_exit:
        problems.append(f"report exit_code {outcome.get('exit_code')}, expected {want_exit}")
    want_digest = golden.get(task.key)
    if want_digest is None:
        problems.append("no golden digest recorded")
    elif outcome.get("digest") != want_digest:
        problems.append("report bytes differ from the golden digest")
    return problems
