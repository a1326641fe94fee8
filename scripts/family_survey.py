#!/usr/bin/env python3
"""Survey the two-parameter families over a small (n, p) grid.

For each pair this prints the family size, the verdict of the
no-common-splitting search, how many trace-zero value classes survive
the intersection against the bound needed for a shared maximal
subfield, and wall time.  Memo tables are emptied before each row, so
every row is timed cold.

Usage: python3 scripts/family_survey.py [--max-n N] [--primes 2,3,5]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from brauerval.lattices import forget_memos
from brauerval.verify import family_size_formula, verify_no_common_splitting


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--primes", default="2,3")
    args = parser.parse_args()
    primes = tuple(int(tok) for tok in args.primes.split(","))

    print(f"{'n':>3} {'p':>3} {'size':>6} {'allowed':>8} {'needed':>7} "
          f"{'verdict':<13} {'secs':>7}")
    for n in range(2, args.max_n + 1):
        for p in primes:
            if p ** n > 4096:
                print(f"{n:>3} {p:>3} {family_size_formula(n, p):>6}   (skipped: family too large)")
                continue
            forget_memos()
            started = time.perf_counter()
            verdict = verify_no_common_splitting(n, p)
            elapsed = time.perf_counter() - started
            print(
                f"{n:>3} {p:>3} {verdict.get('family_size'):>6} "
                f"{verdict.get('allowed_count'):>8} "
                f"{verdict.get('needed_for_common_field'):>7} "
                f"{verdict.result:<13} {elapsed:>6.2f}s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
