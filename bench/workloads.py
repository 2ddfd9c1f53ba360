"""The three benchmark workloads: each one's command and output check.

Each check reads the committed reference artifacts (never writes them)
and returns a list of mismatch descriptions; an empty list means the
sample's output is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

# sha256 of each degree's survivor list, as compact JSON of the sorted
# supports, each a sorted list of [i, j] points.  Recorded from the
# width-5 sweep at the commit that introduced this benchmark; the
# committed sweep artifact keeps only counts, not the lists.
SWEEP_SURVIVOR_DIGESTS = {
    8: "0a1443206d90646420615e43b83b390ad70d885c890f3319443fd97adf9ccbbe",
    9: "fad934a2d19fc3ac69cf283830e4ee6248087b0d1f1c0a4afde8f199e9b3d0b1",
    10: "020663c8bc336054b56ff5d3b2abdd18139b2511a28716fda325415060777145",
    11: "29cae16e557f9f2ad5fe79f5221c7ea730ee797d2e7413fb8b7be4c00f7848fd",
    12: "fa24ea76ba66cafc4eb854a3510d3e4670c9dda828a398bca9ac3578687c3777",
    13: "a63c64ffb2ec2a20410a53b91d16185ec54d49cd937b22084b83e9cd6eb8e3a1",
    14: "cf2c775da8e150f7b37e762ab90453ac1634781f6a52ec30ebeb65580d691d31",
    15: "b273bff71134d4e984acca3eb9c835ce24e1e3e79846bb021d2c47352e28d366",
    16: "1ac8ba8f996e1ce550ed11f92e2e825889ee1c0e0cbfae18996c7af35004accc",
    17: "6a00eb4f00480698e7cb52330efc6f7f8dcd6c44c7d41f764ad527fea1a591be",
    18: "c52845995adb1a99732f2daa876ea9c5cd95c370dac1d1e85a6f707449a1a4cf",
    19: "37910776807e87a146f7671db233a9b8b0e7e4aad5e680e273b80e060574545c",
    20: "5f699886dc7e68c07c46e4ff607a92dbb7a5343062830e82bdce9c5aecb55d4b",
}


def survivor_digest(supports) -> str:
    canonical = sorted(sorted(list(p) for p in support) for support in supports)
    return hashlib.sha256(json.dumps(canonical, separators=(",", ":")).encode()).hexdigest()


SWEEP_DEGREES = list(range(8, 21))
CENSUS_D_MAX = 6


def check_sweep(stdout: bytes, root: Path) -> list[str]:
    reference = json.loads((root / "results" / "sweep-5-d41.json").read_text())
    expected = {s["degree"]: s for s in reference["summaries"]}
    report = json.loads(stdout)
    problems = []
    degrees = [cert["d"] for cert in report["certificates"]]
    if degrees != SWEEP_DEGREES:
        problems.append(f"sweep covered degrees {degrees}, expected {SWEEP_DEGREES}")
    if report["holds"] is not True:
        problems.append("sweep does not hold")
    for cert in report["certificates"]:
        d = cert["d"]
        summary = expected.get(d)
        if summary is None:
            continue
        if len(cert["sign_survivors"]) != summary["sign_survivors"]:
            problems.append(f"d={d}: {len(cert['sign_survivors'])} survivors, expected {summary['sign_survivors']}")
        if dict(Counter(cert["resolutions"])) != summary["resolutions"]:
            problems.append(f"d={d}: resolutions {dict(Counter(cert['resolutions']))}, expected {summary['resolutions']}")
        holds = not cert["outcomes_found"] and "unresolved" not in cert["resolutions"]
        if holds != summary["holds"]:
            problems.append(f"d={d}: holds is {holds}, expected {summary['holds']}")
        if survivor_digest(cert["sign_survivors"]) != SWEEP_SURVIVOR_DIGESTS.get(d):
            problems.append(f"d={d}: survivor list digest differs")
    return problems


def _degree(outcome: dict) -> int:
    return max(i + j for i, j, _ in outcome["entries"])


def check_census(stdout: bytes, root: Path) -> list[str]:
    golden = json.loads((root / "tests" / "golden" / "census-n5-d9.json").read_text())
    report = json.loads(stdout)
    problems = []
    expected_table = [row for row in golden["table"] if row[1] <= CENSUS_D_MAX]
    if report["table"] != expected_table:
        problems.append(f"census table differs from the golden d <= {CENSUS_D_MAX} slice")
    expected_outcomes = [w for w in golden["outcomes"] if _degree(w) <= CENSUS_D_MAX]
    if report["outcomes"] != expected_outcomes:
        matching = sum(a == b for a, b in zip(report["outcomes"], expected_outcomes))
        problems.append(
            f"census outcomes differ: {matching} of {len(expected_outcomes)} match, "
            f"{len(report['outcomes'])} reported"
        )
    expected_cells = [cell for cell in golden["stats"]["cells"] if cell[1] <= CENSUS_D_MAX]
    if report["stats"]["cells"] != expected_cells:
        problems.append(f"census per-cell counters differ from the golden d <= {CENSUS_D_MAX} slice")
    return problems


def check_pipeline(stdout: bytes, root: Path) -> list[str]:
    if stdout != (root / "results" / "pipeline.json").read_bytes():
        return ["pipeline report is not byte-identical to results/pipeline.json"]
    return []


# name -> (chipsplit arguments, output check)
WORKLOADS = {
    "sweep-w5-d8-20": (
        ["sweep", "--support", "5", "--max-degree", str(SWEEP_DEGREES[-1]), "--json"],
        check_sweep,
    ),
    "census-n5-d6": (["enumerate", "--max-degree", str(CENSUS_D_MAX), "--json"], check_census),
    "pipeline-w5": (["pipeline", "--json"], check_pipeline),
}
REFERENCES = ("results/pipeline.json", "results/sweep-5-d41.json", "tests/golden/census-n5-d9.json")
