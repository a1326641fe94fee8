#!/usr/bin/env python3
"""Replay every scenario in scenarios/ and compare against its golden verdict.

Usage: python3 scripts/run_corpus.py [DIR]

Runs each file through the CLI in-process with --format json, checks
the reported result against the scenario's `expect` line, and prints
one line per file.  An unreadable scenario, a run that writes no
report and a report whose exit code differs from the one the CLI
returned are mismatches too.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from brauerval.cli import main as cli_main
from brauerval.errors import ScenarioError
from brauerval.scenario import load_scenario


def replay(path: pathlib.Path) -> tuple[bool, str, str, float]:
    try:
        scenario = load_scenario(str(path))
    except ScenarioError as err:
        return False, "a readable scenario", f"error: {err}", 0.0
    expected = scenario.expect or "Verified"
    with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as out:
        started = time.perf_counter()
        code = cli_main(
            [scenario.task, "--scenario", str(path), "--format", "json", "--out", out.name]
        )
        elapsed = time.perf_counter() - started
        text = out.read()
    if not text:
        return False, expected, f"exit {code}, no report", elapsed
    report = json.loads(text)
    got = report["result"]
    if code != report["exit_code"]:
        return False, expected, f"{got}, exit {code} != {report['exit_code']}", elapsed
    return got == expected, expected, got, elapsed


def main() -> int:
    directory = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "scenarios")
    files = sorted(directory.glob("*.scn"))
    if not files:
        print(f"no scenarios under {directory}", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        ok, expected, got, elapsed = replay(path)
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {path.name:40s} {got:13s} ({elapsed:6.2f}s)")
        if not ok:
            failures += 1
            print(f"     expected {expected}, got {got}", file=sys.stderr)
    print(f"{len(files) - failures}/{len(files)} scenarios match their golden verdict")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
