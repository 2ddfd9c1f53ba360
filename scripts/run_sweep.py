"""Sweep a degree range for valid outcomes of width four or five.

Runs one degree at a time so progress appears as each certificate
lands; the JSON artifact records a per-degree summary (search size,
survivor count, how each survivor was excluded) and, with --full, the
complete certificates including every surviving support set.

    python3 scripts/run_sweep.py --support 4 --max-degree 11
    python3 scripts/run_sweep.py --support 5 --max-degree 41
"""

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from chipsplit.enumeration import sweep_no_valid_outcomes

START_DEGREE = {4: 6, 5: 8}


@dataclass(frozen=True)
class SweepRun:
    support: int
    max_degree: int
    full: bool
    out: Path


def parse_args() -> SweepRun:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--support", type=int, choices=(4, 5), required=True)
    parser.add_argument("--max-degree", type=int, required=True)
    parser.add_argument("--full", action="store_true",
                        help="store complete certificates, not just summaries")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    out = args.out or Path("results") / (
        f"sweep-{args.support}-d{args.max_degree}.json"
    )
    return SweepRun(args.support, args.max_degree, args.full, out)


def main() -> int:
    run = parse_args()
    start = START_DEGREE[run.support]
    if run.max_degree < start:
        print(f"--max-degree must be at least {start} for width {run.support}",
              file=sys.stderr)
        return 2

    summaries = []
    certificates = []
    all_hold = True
    started = time.perf_counter()
    for d in range(start, run.max_degree + 1):
        tick = time.perf_counter()
        (cert,) = sweep_no_valid_outcomes(run.support, [d])
        resolutions = dict(sorted(Counter(cert.resolutions).items()))
        summaries.append(
            {
                "degree": d,
                "nodes": cert.nodes,
                "sign_survivors": len(cert.sign_survivors),
                "resolutions": resolutions,
                "holds": cert.holds,
            }
        )
        if run.full:
            certificates.append(cert.to_json())
        all_hold = all_hold and cert.holds
        state = "holds" if cert.holds else "REFUTED"
        print(
            f"degree {d}: {len(cert.sign_survivors)} sign survivors, "
            f"{cert.nodes} nodes, {resolutions or 'nothing to resolve'} "
            f"-> {state}  ({time.perf_counter() - tick:.1f} s)",
            flush=True,
        )

    payload = {
        "support": run.support,
        "degrees": [start, run.max_degree],
        "holds": all_hold,
        "summaries": summaries,
    }
    if run.full:
        payload["certificates"] = certificates
    run.out.parent.mkdir(parents=True, exist_ok=True)
    run.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    verdict = "no valid outcome found" if all_hold else "REFUTED"
    print(f"{verdict}; wrote {run.out} in {time.perf_counter() - started:.1f} s")
    return 0 if all_hold else 1


if __name__ == "__main__":
    raise SystemExit(main())
