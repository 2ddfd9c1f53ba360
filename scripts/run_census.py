"""Run the fundamental-outcome census and save the report.

Typical runs:

    python3 scripts/run_census.py --max-degree 7 --max-support 5
    python3 scripts/run_census.py --max-degree 9 --max-support 6 \
        --out results/census-n5-d9.json

The second form reproduces the wide census committed as
tests/golden/census-n5-d9.json.
"""

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

from chipsplit.enumeration import check_conjecture, enumerate_fundamental


@dataclass(frozen=True)
class CensusRun:
    max_degree: int
    max_support: int
    out: Path


def parse_args() -> CensusRun:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, required=True)
    parser.add_argument("--max-support", type=int, default=6,
                        help="largest positive-support size to include (default 6)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default results/census-n<n>-d<d>.json)")
    args = parser.parse_args()
    out = args.out or Path("results") / (
        f"census-n{args.max_support - 1}-d{args.max_degree}.json"
    )
    return CensusRun(args.max_degree, args.max_support, out)


def main() -> int:
    run = parse_args()
    started = time.perf_counter()
    report = enumerate_fundamental(run.max_degree, run.max_support - 1)
    elapsed = time.perf_counter() - started

    for n in sorted({cell[0] for cell in report.table}):
        row = {d: c for (m, d), c in report.table.items() if m == n}
        cells = "  ".join(f"d={d}: {row[d]}" for d in sorted(row))
        print(f"support {n + 1} (n={n}):  {cells}  (total {sum(row.values())})")
    conjecture = check_conjecture(report)
    print(f"outcomes: {len(report.outcomes)}  degree bound holds: {conjecture.holds}")
    print(f"equality cases per support row: {conjecture.equality_counts}")

    # The artifact is a pure report: rerunning the same census
    # reproduces it byte for byte, so wall time stays on stdout.
    run.out.parent.mkdir(parents=True, exist_ok=True)
    run.out.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.out} in {elapsed:.1f} s")
    return 0 if conjecture.holds else 1


if __name__ == "__main__":
    raise SystemExit(main())
