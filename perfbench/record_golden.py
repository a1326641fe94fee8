#!/usr/bin/env python3
"""Record golden.json: the sha256 of every benchmark task's json report.

Usage, from the root of a checkout whose reports are known to be right:

    python3 perfbench/record_golden.py

Runs every task of every workload once, untraced, and refuses to record
if any verdict or exit code differs from the expected one.  Reports are
meant to stay byte-identical, so re-record only when a change to the
report format is intended.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, BenchError, run_pass
from workloads import GOLDEN_PATH, WORKLOADS, check_outcome, workload_tasks


def main() -> int:
    tasks = [t for name in WORKLOADS for t in workload_tasks(name, ROOT)]
    try:
        run = run_pass(tasks, False, time.monotonic() + 3600)
    except BenchError as err:
        print(f"record_golden: {err}", file=sys.stderr)
        return 2
    golden = {t.key: o["digest"] for t, o in zip(tasks, run.outcomes)}
    bad = [
        f"{t.key}: {'; '.join(p)}"
        for t, o in zip(tasks, run.outcomes)
        if (p := check_outcome(t, o, golden))
    ]
    if bad:
        print("refusing to record:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} digests in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
